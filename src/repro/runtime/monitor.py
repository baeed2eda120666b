"""The monitor agent: telemetry without control.

GEOPM's ``monitor`` agent "simply reports requested metrics of interest,
such as energy and time, without modifying system behavior" (paper §III-B).
The paper uses it for characterization metric (a): maximum power each
workload consumes when unconstrained (Fig. 4), and its reports feed the
``Precharacterized`` and ``StaticCaps`` baselines.
"""

from __future__ import annotations

import numpy as np

from repro.runtime.agent import (
    AgentBatch,
    BatchSliceAgent,
    DEFAULT_REGISTRY,
    SampleBatch,
)

__all__ = ["MonitorAgent"]


@DEFAULT_REGISTRY.register
class MonitorAgent(BatchSliceAgent):
    """Leave limits untouched; exist only so reports get generated."""

    name = "monitor"

    def __init__(self) -> None:
        self._batch = _MonitorBatch()

    @classmethod
    def make_batch(cls, agents) -> "_MonitorBatch":
        """Batch any group of monitors (they are stateless echoes)."""
        return _MonitorBatch()


class _MonitorBatch(AgentBatch):
    """Vectorised monitor: echo every run's in-force limits at once."""

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        return np.array(sample.power_limit_w, dtype=float, copy=True)

    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        # A monitor has no control loop: trivially converged.
        return np.ones(rows.size, dtype=bool)
