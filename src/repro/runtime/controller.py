"""The runtime controller: drives an agent over one job's control epochs.

GEOPM's Controller sits inside the job, samples platform telemetry each
epoch (one bulk-synchronous iteration of the synthetic kernel), hands the
sample to the agent, and programs the limits the agent returns.
:class:`Controller` is that loop for a *single job*: the one-run case of
:class:`~repro.runtime.batch.ControllerBatch`, which owns the physics
step, the run loop, the report path and the telemetry.  It produces the
:class:`~repro.runtime.reports.JobReport` that the characterization layer
and the resource-manager policies consume.

The multi-job grid runs go through the vectorised
:func:`repro.sim.execution.simulate_mix` path instead; the controller
exists for characterization runs and for validating that the balancer's
feedback loop converges to the analytic steady state.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.runtime.agent import Agent, PlatformSample
from repro.runtime.batch import (
    ControllerBatch,
    ControllerBatchResult,
    ControllerRunSpec,
    EpochResult,
)
from repro.runtime.reports import JobReport
from repro.sim.engine import ExecutionModel
from repro.workload.job import Job

__all__ = ["EpochResult", "Controller"]


def _spec_field(name: str) -> property:
    """Read-only access to the run spec's ``name`` field."""
    def get(self):
        return getattr(self._batch.specs[0], name)

    get.__doc__ = f"The run's ``{name}`` (read-only; see ControllerRunSpec)."
    return property(get)


class Controller:
    """Run one job under an agent until convergence or an epoch budget.

    Parameters are those of :class:`~repro.runtime.batch.ControllerRunSpec`
    plus the physics ``model`` (defaults to the Quartz node model).
    Successive :meth:`run` calls continue the agent's state and the noise
    stream, as one long-lived controller would.  Writers attached with
    :func:`~repro.runtime.trace.attach_tracer` are fed every epoch's
    sample, in epoch order, when a run finishes.
    """

    job = _spec_field("job")
    efficiencies = _spec_field("efficiencies")
    agent = _spec_field("agent")
    noise_std = _spec_field("noise_std")
    barrier_overhead_s = _spec_field("barrier_overhead_s")
    fault_injector = _spec_field("fault_injector")

    def __init__(
        self,
        job: Job,
        efficiencies: np.ndarray,
        agent: Agent,
        model: Optional[ExecutionModel] = None,
        noise_std: float = 0.0,
        seed: int = 0,
        barrier_overhead_s: float = 5.0e-4,
        fault_injector=None,
    ) -> None:
        spec = ControllerRunSpec(
            job=job, efficiencies=efficiencies, agent=agent,
            noise_std=noise_std, seed=seed,
            barrier_overhead_s=barrier_overhead_s,
            fault_injector=fault_injector,
        )
        self._batch = ControllerBatch([spec], model=model)
        self.tracers: list = []
        self._result: Optional[ControllerBatchResult] = None
        self._history: Optional[List[EpochResult]] = None

    def run(
        self,
        initial_limits_w: Optional[np.ndarray] = None,
        max_epochs: int = 200,
        min_epochs: int = 3,
    ) -> JobReport:
        """Execute epochs until the agent converges (or the budget runs out).

        Returns the GEOPM-style job report aggregated over all epochs run.
        """
        self._result = self._batch.run(
            initial_limits_w=initial_limits_w,
            max_epochs=max_epochs,
            min_epochs=min_epochs,
        )
        self._history = None
        if self.tracers:
            for record in self.history:
                for writer in self.tracers:
                    writer.record(record.sample)
        return self._result.reports[0]

    @property
    def model(self) -> ExecutionModel:
        """The physics bundle (read-only)."""
        return self._batch.model

    @property
    def history(self) -> List[EpochResult]:
        """Every epoch of the last run (empty before the first run)."""
        if self._history is None:
            self._history = (
                [] if self._result is None else self._result.history_for(0)
            )
        return self._history

    def _ran(self) -> ControllerBatchResult:
        if self._result is None:
            raise RuntimeError("controller has not run")
        return self._result

    def steady_state_sample(self) -> PlatformSample:
        """Telemetry of the final epoch (the converged operating point)."""
        return self._ran().steady_state_sample(0)

    def final_limits_w(self) -> np.ndarray:
        """Limits in force after the final epoch."""
        return self._ran().final_limits_w(0)
