"""GEOPM-style job runtime: agents, reports, and the per-job controller.

The paper's application-level layer is GEOPM (ref. [4]): a per-job runtime
whose *agents* observe hardware telemetry each control epoch and adjust
RAPL limits.  The experiments use two of its stock agents plus the report
infrastructure:

* :class:`~repro.runtime.monitor.MonitorAgent` — telemetry only, never
  changes limits.  Its reports give the "maximum power each workload
  consumes under no power constraints" (paper §IV-B metric (a), Fig. 4).
* :class:`~repro.runtime.power_governor.PowerGovernorAgent` — enforces a
  uniform per-host cap from a job-level budget.
* :class:`~repro.runtime.power_balancer.PowerBalancerAgent` — the paper's
  §IV-B workhorse: lowers limits where they do not hurt the job's critical
  path and re-distributes the slack to hosts that do, yielding the
  "minimum power each workload needs" (metric (b), Fig. 5).

There is one controller runtime.
:class:`~repro.runtime.batch.ControllerBatch` drives agents over control
epochs against the simulated platform, exactly where GEOPM's Controller
sits on real hardware, advancing many runs in lockstep as
``(runs, hosts)`` tensors and emitting the
:class:`~repro.runtime.reports.JobReport` objects the resource-manager
policies consume.  :class:`~repro.runtime.controller.Controller` is its
one-run slice, and the three agents above are each the one-row slice of
their batched form (:class:`~repro.runtime.agent.BatchSliceAgent`).
"""

from repro.runtime.reports import HostReport, JobReport, report_from_arrays
from repro.runtime.agent import (
    Agent,
    AgentBatch,
    AgentRegistry,
    PlatformSample,
    SampleBatch,
)
from repro.runtime.monitor import MonitorAgent
from repro.runtime.power_governor import PowerGovernorAgent
from repro.runtime.power_balancer import PowerBalancerAgent, BalancerOptions
from repro.runtime.frequency_governor import (
    FrequencyGovernorAgent,
    FrequencyGovernorOptions,
)
from repro.runtime.controller import Controller, EpochResult
from repro.runtime.batch import (
    ControllerBatch,
    ControllerBatchResult,
    ControllerRunSpec,
    run_controller_batch,
)
from repro.runtime.trace import JobTrace, TraceRecord, TraceWriter, attach_tracer

__all__ = [
    "HostReport",
    "JobReport",
    "report_from_arrays",
    "Agent",
    "AgentBatch",
    "AgentRegistry",
    "PlatformSample",
    "SampleBatch",
    "MonitorAgent",
    "PowerGovernorAgent",
    "PowerBalancerAgent",
    "BalancerOptions",
    "FrequencyGovernorAgent",
    "FrequencyGovernorOptions",
    "Controller",
    "EpochResult",
    "ControllerBatch",
    "ControllerBatchResult",
    "ControllerRunSpec",
    "run_controller_batch",
    "JobTrace",
    "TraceRecord",
    "TraceWriter",
    "attach_tracer",
]
