"""The power governor agent: uniform job-level cap enforcement.

GEOPM's ``power_governor`` divides a job power budget evenly across hosts
and holds it there.  It is the intra-job mechanism behind the paper's
``StaticCaps`` baseline and the initial state of every power-sharing
policy ("step 1: uniformly distribute the system power limit among hosts").
"""

from __future__ import annotations

import numpy as np

from repro.runtime.agent import (
    AgentBatch,
    BatchSliceAgent,
    DEFAULT_REGISTRY,
    SampleBatch,
)
from repro.units import ensure_positive

__all__ = ["PowerGovernorAgent"]


@DEFAULT_REGISTRY.register
class PowerGovernorAgent(BatchSliceAgent):
    """Hold every host at ``job_budget_w / host_count``.

    Parameters
    ----------
    job_budget_w:
        Total node-power budget for the job (W).
    """

    name = "power_governor"

    def __init__(self, job_budget_w: float) -> None:
        ensure_positive(job_budget_w, "job_budget_w")
        self.job_budget_w = float(job_budget_w)
        self._batch = _PowerGovernorBatch(np.array([self.job_budget_w]))

    @classmethod
    def make_batch(cls, agents) -> "_PowerGovernorBatch":
        """Batch any group of governors (stateless uniform splits)."""
        return _PowerGovernorBatch(
            np.array([a.job_budget_w for a in agents], dtype=float)
        )


class _PowerGovernorBatch(AgentBatch):
    """Vectorised governor: every run's uniform split in one expression."""

    def __init__(self, budgets_w: np.ndarray) -> None:
        self._budgets_w = budgets_w

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        hosts = sample.power_limit_w.shape[1]
        uniform = self._budgets_w[rows] / hosts
        return np.broadcast_to(uniform[:, None], (rows.size, hosts)).copy()

    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        # A fixed split has no control loop: trivially converged.
        return np.ones(rows.size, dtype=bool)

    def describe_run(self, row: int):
        return {"job_budget_w": float(self._budgets_w[row])}
