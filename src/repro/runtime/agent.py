"""Agent abstraction: GEOPM's plugin interface, reduced to its essentials.

GEOPM agents observe platform signals each control epoch and decide new
control values (RAPL limits here).  The simulator presents an epoch's
telemetry as a :class:`PlatformSample`; an :class:`Agent` returns the node
power limits to apply for the next epoch.  Agents are registered by name in
:class:`AgentRegistry`, mirroring GEOPM's plugin-loading behaviour the
paper leans on for portability ("they can be ported to other architectures
... by leveraging GEOPM's portable plugin infrastructure").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Type

import numpy as np

__all__ = [
    "PlatformSample",
    "SampleBatch",
    "Agent",
    "AgentBatch",
    "BatchSliceAgent",
    "AgentRegistry",
]

#: The row index of a one-run batch.
_ROW0 = np.zeros(1, dtype=np.intp)


@dataclass(frozen=True)
class PlatformSample:
    """One control epoch's telemetry for a job's hosts.

    Attributes
    ----------
    epoch:
        Control-epoch index (one bulk-synchronous iteration here).
    host_time_s:
        Each host's compute-phase time this epoch.
    epoch_time_s:
        The job's iteration wall time (critical path + barrier).
    host_power_w:
        Each host's mean power over the epoch (compute + poll phases).
    power_limit_w:
        Node limits that were in force during the epoch.
    host_energy_j:
        Energy per host over the epoch.
    mean_freq_ghz:
        Mean achieved frequency per host over the epoch.
    """

    epoch: int
    host_time_s: np.ndarray
    epoch_time_s: float
    host_power_w: np.ndarray
    power_limit_w: np.ndarray
    host_energy_j: np.ndarray
    mean_freq_ghz: np.ndarray


@dataclass(frozen=True)
class SampleBatch:
    """One control epoch's telemetry for many runs, structure-of-arrays.

    The batched counterpart of :class:`PlatformSample`: every per-host
    array carries a leading *run* axis, so ``host_time_s[a]`` is run
    ``a``'s compute-phase times this epoch.  Row ``a`` is bit-identical to
    the :class:`PlatformSample` a serial controller would have produced
    for the same run (the contract of
    :class:`~repro.runtime.batch.ControllerBatch`).
    """

    epoch: int
    host_time_s: np.ndarray      # (A, hosts)
    epoch_time_s: np.ndarray     # (A,)
    host_power_w: np.ndarray     # (A, hosts)
    power_limit_w: np.ndarray    # (A, hosts)
    host_energy_j: np.ndarray    # (A, hosts)
    mean_freq_ghz: np.ndarray    # (A, hosts)

    @classmethod
    def of(cls, sample: PlatformSample) -> "SampleBatch":
        """One run's :class:`PlatformSample` as a one-row batch (views)."""
        return cls(
            epoch=sample.epoch,
            host_time_s=np.asarray(sample.host_time_s, dtype=float)[None],
            epoch_time_s=np.array([sample.epoch_time_s], dtype=float),
            host_power_w=np.asarray(sample.host_power_w, dtype=float)[None],
            power_limit_w=np.asarray(sample.power_limit_w, dtype=float)[None],
            host_energy_j=np.asarray(sample.host_energy_j, dtype=float)[None],
            mean_freq_ghz=np.asarray(sample.mean_freq_ghz, dtype=float)[None],
        )

    @property
    def run_count(self) -> int:
        """Runs stacked in this sample."""
        return int(self.epoch_time_s.size)

    def sample_for(self, row: int) -> PlatformSample:
        """Materialise one run's :class:`PlatformSample` (fresh arrays)."""
        return PlatformSample(
            epoch=self.epoch,
            host_time_s=self.host_time_s[row].copy(),
            epoch_time_s=float(self.epoch_time_s[row]),
            host_power_w=self.host_power_w[row].copy(),
            power_limit_w=self.power_limit_w[row].copy(),
            host_energy_j=self.host_energy_j[row].copy(),
            mean_freq_ghz=self.mean_freq_ghz[row].copy(),
        )


class Agent(abc.ABC):
    """Base class for job-runtime agents.

    Subclasses implement :meth:`adjust`; the controller calls it once per
    epoch with fresh telemetry and programs the returned limits before the
    next epoch.
    """

    #: Registry name; subclasses override.
    name: str = "abstract"

    @abc.abstractmethod
    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """Return node power limits (W) to apply for the next epoch."""

    def converged(self) -> bool:
        """Whether the agent's control loop has reached steady state.

        Agents with no dynamic behaviour are trivially converged; the
        balancer overrides this with its epsilon test.
        """
        return True

    def describe(self) -> Dict[str, float]:
        """Agent-specific scalars for the job report metadata."""
        return {}


class AgentBatch(abc.ABC):
    """Vectorised counterpart of :class:`Agent` for lockstep batched runs.

    A batch agent owns the control state of ``G`` member runs at once (one
    row per run) and must be *bit-identical* to stepping each member's
    serial :class:`Agent` on its own: for every active row, the returned
    limits, the convergence verdict, and :meth:`describe_run` equal what
    the serial agent would have produced after the same sample sequence.

    Agent classes opt in by providing a ``make_batch(agents)`` classmethod
    returning an :class:`AgentBatch` (or ``None`` when the group cannot be
    batched — e.g. heterogeneous options — in which case the controller
    falls back to per-run serial stepping).

    Converged runs freeze: the controller stops including their rows, so
    ``rows`` is always the still-active subset of ``range(G)`` and state
    for frozen rows must stay untouched — exactly like a serial controller
    that stopped calling :meth:`Agent.adjust`.
    """

    @abc.abstractmethod
    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        """Return ``(A, hosts)`` next-epoch limits for the active rows.

        ``sample`` stacks the active runs' epoch telemetry; ``rows`` maps
        each of its ``A`` rows to the member index within the group.  The
        returned array is fresh: a one-row slice hands its row to the
        caller of :meth:`Agent.adjust`.  The sample's arrays may be views
        into the epoch log; do not modify them.
        """

    @abc.abstractmethod
    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        """``(A,)`` boolean mask: which of the given rows have converged."""

    def describe_run(self, row: int) -> Dict[str, float]:
        """Member ``row``'s :meth:`Agent.describe` scalars."""
        return {}


class BatchSliceAgent(Agent):
    """An :class:`Agent` that is the one-row slice of its :class:`AgentBatch`.

    Subclasses set ``self._batch`` to a one-row batch in ``__init__``; the
    scalar interface then delegates to it, so the serial and batched
    agents share one step implementation.  Their ``make_batch`` may hand
    a single agent's own batch to the controller, which then advances
    the agent's state exactly as a serial run would.
    """

    _batch: AgentBatch

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """One step of the one-row batch."""
        return self._batch.adjust_batch(SampleBatch.of(sample), _ROW0)[0]

    def converged(self) -> bool:
        """The one-row batch's convergence verdict."""
        return bool(self._batch.converged_mask(_ROW0)[0])

    def describe(self) -> Dict[str, float]:
        """The one-row batch's report metadata."""
        return self._batch.describe_run(0)


class AgentRegistry:
    """Name -> agent-class registry (GEOPM plugin emulation)."""

    def __init__(self) -> None:
        self._agents: Dict[str, Type[Agent]] = {}

    def register(self, agent_cls: Type[Agent]) -> Type[Agent]:
        """Register an agent class under its ``name`` (decorator-friendly)."""
        name = agent_cls.name
        if not name or name == "abstract":
            raise ValueError(f"{agent_cls.__name__} must define a concrete name")
        if name in self._agents:
            raise ValueError(f"agent {name!r} already registered")
        self._agents[name] = agent_cls
        return agent_cls

    def create(self, name: str, /, **kwargs) -> Agent:
        """Instantiate a registered agent by name."""
        try:
            agent_cls = self._agents[name]
        except KeyError:
            raise KeyError(
                f"unknown agent {name!r}; registered: {sorted(self._agents)}"
            ) from None
        return agent_cls(**kwargs)

    def names(self):
        """Registered agent names, sorted."""
        return sorted(self._agents)


#: Process-wide default registry, analogous to GEOPM's plugin path.
DEFAULT_REGISTRY = AgentRegistry()
