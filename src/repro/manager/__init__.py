"""Resource-manager substrate: job queue, node allocation, power manager.

This is the system-level layer of the paper's stack (the role SLURM plays
on Quartz): it owns the cluster, admits job submissions, allocates nodes,
derives the system power budget, asks a :class:`~repro.core.policy.Policy`
for per-host caps, programs them, and launches the mix.

* :mod:`repro.manager.queue` — job submission records and a FIFO queue.
* :mod:`repro.manager.scheduler` — node allocation over the cluster
  partition (the paper's 918 medium-frequency nodes).
* :mod:`repro.manager.power_manager` — the budget-enforcement and policy
  application point; the integration seam the paper argues resource
  managers and job runtimes must share.
"""

from repro.manager.queue import JobRequest, JobQueue, JobState
from repro.manager.scheduler import Scheduler, ScheduledMix
from repro.manager.power_manager import PowerManager, ManagedRun, apply_job_runtime
from repro.manager.online import OnlinePowerManager, OnlineRun, OnlineEpoch
from repro.manager.admission import PowerAwareAdmission, AdmissionDecision
from repro.manager.emergency import (
    EmergencyResponse,
    InfeasibleBudgetError,
    emergency_clamp,
    respond_to_budget_change,
    respond_to_budget_drop,
)
from repro.manager.site_simulation import (
    Arrival,
    BatchExecution,
    BatchRecord,
    SiteSimulationResult,
    run_site_simulation,
)

__all__ = [
    "JobRequest",
    "JobQueue",
    "JobState",
    "Scheduler",
    "ScheduledMix",
    "PowerManager",
    "ManagedRun",
    "apply_job_runtime",
    "OnlinePowerManager",
    "OnlineRun",
    "OnlineEpoch",
    "PowerAwareAdmission",
    "AdmissionDecision",
    "EmergencyResponse",
    "InfeasibleBudgetError",
    "emergency_clamp",
    "respond_to_budget_change",
    "respond_to_budget_drop",
    "Arrival",
    "BatchExecution",
    "BatchRecord",
    "SiteSimulationResult",
    "run_site_simulation",
]
