"""The power balancer agent: GEOPM's critical-path power shifting.

Paper §II/§IV-B: "The power balancer agent reduces the power limit where it
does not impact performance, and redistributes that power where it can
improve performance, all during execution."  For a bulk-synchronous job the
performance signal is the epoch (iteration) time: only hosts on the
critical path determine it, so any host finishing early can be slowed —
its RAPL limit lowered — until its compute phase just meets the critical
path, with the freed budget offered to the hosts that *are* the critical
path.

The implementation is a model-free feedback loop, as on real hardware: the
agent never consults the simulator's power/performance model, only the
observed per-epoch host times and limits.  Each epoch it

1. measures each host's slack fraction against the epoch's critical path,
2. cuts limits on hosts with slack beyond a dead-band ``margin``,
   proportionally to their slack (gain-scheduled, floor-clamped),
3. pools the cut power plus any undistributed carry-over, and
4. grants the pool to near-critical hosts, weighted by their remaining
   headroom to TDP.

Convergence is declared when limits stop moving (relative step below
``tolerance``).  The loop is written once, over a batch of runs
(:class:`_PowerBalancerBatch`, one row per run); :class:`PowerBalancerAgent`
is its one-row slice.  The converged *consumption* is the paper's metric (b) —
"the minimum power each workload needs" (Fig. 5) — which the
characterization layer cross-checks against the analytic inverse model in
:meth:`repro.sim.engine.ExecutionModel.required_power`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.runtime.agent import (
    AgentBatch,
    BatchSliceAgent,
    DEFAULT_REGISTRY,
    SampleBatch,
)
from repro.telemetry import emit, enabled, get_registry
from repro.units import ensure_positive, ensure_fraction

__all__ = ["BalancerOptions", "PowerBalancerAgent"]


@dataclass(frozen=True)
class BalancerOptions:
    """Tuning of the balancer feedback loop.

    Attributes
    ----------
    gain:
        Fraction of the proportional correction applied per epoch.  Higher
        converges faster but can oscillate with noisy epoch times.
    margin:
        Dead-band around the critical path: hosts within ``margin`` of the
        epoch time are treated as critical and never cut.  This is the
        balancer's safety margin against cutting into the critical path
        itself.
    tolerance:
        Relative limit movement below which the loop declares convergence.
    min_limit_w / max_limit_w:
        Node-level RAPL bounds (Quartz: 136 W floor, 240 W TDP).
    harvest_fraction:
        How much of a host's apparent power slack the balancer is willing
        to harvest.  GEOPM's production loop is conservative — bounded
        steps, a safety margin around the critical path — and the paper's
        Fig. 5 shows waiting nodes settling roughly halfway between their
        unconstrained draw and the theoretical minimum; 0.5 reproduces
        that (see
        :data:`repro.characterization.mix_characterization.DEFAULT_HARVEST_FRACTION`).
        Set 1.0 for an idealised balancer.
    """

    gain: float = 0.5
    margin: float = 0.02
    tolerance: float = 1.0e-3
    min_limit_w: float = 136.0
    max_limit_w: float = 240.0
    harvest_fraction: float = 0.5

    def __post_init__(self) -> None:
        ensure_positive(self.gain, "gain")
        ensure_fraction(self.margin, "margin")
        ensure_positive(self.tolerance, "tolerance")
        ensure_positive(self.min_limit_w, "min_limit_w")
        if self.max_limit_w <= self.min_limit_w:
            raise ValueError("max_limit_w must exceed min_limit_w")
        if not 0.0 < self.harvest_fraction <= 1.0:
            raise ValueError("harvest_fraction must be in (0, 1]")


@DEFAULT_REGISTRY.register
class PowerBalancerAgent(BatchSliceAgent):
    """Shift power from slack hosts to critical-path hosts within a job.

    The agent is the one-row slice of :class:`_PowerBalancerBatch`: every
    step, convergence test and report figure comes from that batch.

    Parameters
    ----------
    job_budget_w:
        Total node-power budget for the job.  The sum of limits the agent
        programs never exceeds this budget; power it cannot place (all
        receivers at TDP) is retained in an internal pool and reported via
        :meth:`describe` as ``unallocated_w`` — the figure a coordinating
        resource manager would harvest.
    options:
        Feedback-loop tuning.
    """

    name = "power_balancer"

    def __init__(self, job_budget_w: float,
                 options: "BalancerOptions | None" = None) -> None:
        ensure_positive(job_budget_w, "job_budget_w")
        self.job_budget_w = float(job_budget_w)
        self.options = options if options is not None else BalancerOptions()
        self._batch = _PowerBalancerBatch(
            np.array([self.job_budget_w]), self.options
        )

    @classmethod
    def make_batch(cls, agents) -> "_PowerBalancerBatch | None":
        """Batch a group of balancers sharing one :class:`BalancerOptions`.

        A lone agent batches as its own one-row batch, so a controller run
        advances the agent's state exactly as a serial loop would.  A
        larger group gets a fresh batch that owns its state from epoch 0;
        it returns ``None`` (→ per-run fallback in the batched controller)
        when the group mixes options or contains an agent that has already
        stepped, since a mid-flight agent cannot be adopted.
        """
        if len(agents) == 1:
            return agents[0]._batch
        options = agents[0].options
        if any(a.options != options for a in agents[1:]):
            return None
        if any(a._batch._limits is not None for a in agents):
            return None
        budgets = np.array([a.job_budget_w for a in agents], dtype=float)
        return _PowerBalancerBatch(budgets, options)


class _PowerBalancerBatch(AgentBatch):
    """Vectorised power balancer: G feedback loops stepped as tensors.

    One row per run; :class:`PowerBalancerAgent` is the one-row case.
    Each row is bit-identical to the per-host vector loop of a single
    run (the contract ``tests/property/test_controller_batch.py`` pins
    against a frozen serial agent): elementwise terms keep one operation
    order and row reductions run over contiguous rows.  The one
    intentionally *per-row* piece is the receivers grant step: NumPy's
    pairwise summation over a compressed ``headroom`` gather differs in
    the last ulp from any masked full-row reduction once a row has ≥ 8
    receivers, so that step loops over rows and keeps the compressed sum.
    """

    def __init__(self, budgets_w: np.ndarray, options: BalancerOptions) -> None:
        self.options = options
        self._budgets_w = np.asarray(budgets_w, dtype=float)
        g = self._budgets_w.size
        self._limits: np.ndarray | None = None   # (G, hosts)
        self._cut_floor_w: np.ndarray | None = None
        self._pool_w = np.zeros(g)
        self._last_step_w = np.full(g, np.inf)
        self._steps = np.zeros(g, dtype=np.int64)
        self._harvested_w = np.zeros(g)
        self._redistributed_w = np.zeros(g)
        self._convergence_recorded = np.zeros(g, dtype=bool)

    # ------------------------------------------------------------------
    def _initial_limits(self, rows: np.ndarray, hosts: int) -> np.ndarray:
        opts = self.options
        uniform = self._budgets_w[rows] / hosts
        limits = np.broadcast_to(uniform[:, None], (rows.size, hosts))
        clamped = np.clip(limits, opts.min_limit_w, opts.max_limit_w)
        self._pool_w[rows] = self._budgets_w[rows] - np.sum(clamped, axis=1)
        return np.ascontiguousarray(clamped)

    def adjust_batch(self, sample: SampleBatch, rows: np.ndarray) -> np.ndarray:
        opts = self.options
        if self._limits is None:
            hosts = sample.power_limit_w.shape[1]
            self._limits = self._initial_limits(rows, hosts)
            reference = np.asarray(sample.host_power_w, dtype=float)
            self._cut_floor_w = np.maximum(
                reference - opts.harvest_fraction * (reference - opts.min_limit_w),
                opts.min_limit_w,
            )
            return self._limits.copy()

        times = np.asarray(sample.host_time_s, dtype=float)
        target = np.maximum.reduce(times, axis=1)
        degenerate = target <= 0
        if np.logical_or.reduce(degenerate):
            # A row with a degenerate epoch keeps its limits and state.
            out = self._limits[rows]
            stepped = ~degenerate
            if np.logical_or.reduce(stepped):
                out[stepped] = self._step(
                    times[stepped], target[stepped], rows[stepped]
                )
            return out
        return self._step(times, target, rows)

    def _step(
        self, times: np.ndarray, target: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """One feedback step of ``rows`` (all with a positive epoch)."""
        opts = self.options
        limits = self._limits[rows]
        cut_floor = self._cut_floor_w[rows]
        slack_frac = 1.0 - times / target[:, None]

        # --- donors: hosts comfortably off the critical path ------------
        donors = slack_frac > opts.margin
        cut = np.where(
            donors, opts.gain * slack_frac * (limits - cut_floor), 0.0
        )
        cut = np.maximum(cut, 0.0)
        new_limits = np.maximum(limits - cut, cut_floor)
        cut = limits - new_limits
        # Entries go negative when the cut floor sits above the current
        # limit (the floor *raised* that host); only positive entries are
        # power actually harvested from donors.
        harvested = np.add.reduce(np.maximum(cut, 0.0), axis=1)
        pool = self._pool_w[rows] + np.add.reduce(cut, axis=1)

        # --- receivers: near-critical hosts with headroom ---------------
        receivers = (slack_frac <= opts.margin) & (
            new_limits < opts.max_limit_w - 1e-9
        )
        granted = np.zeros(rows.size)
        takers = (pool > 0) & np.logical_or.reduce(receivers, axis=1)
        for i in takers.nonzero()[0].tolist():
            # Compressed gather + sum per row: see the class docstring
            # for why this must not be a masked vector reduction.
            row, recv = new_limits[i], receivers[i]
            headroom = opts.max_limit_w - row[recv]
            room = float(np.add.reduce(headroom))
            grant = min(float(pool[i]), room)
            row[recv] += grant * headroom / room
            pool[i] -= grant
            granted[i] = grant

        self._last_step_w[rows] = np.maximum.reduce(
            np.abs(new_limits - limits), axis=1
        )
        self._limits[rows] = new_limits
        self._pool_w[rows] = pool
        self._steps[rows] += 1
        self._harvested_w[rows] += harvested
        self._redistributed_w[rows] += granted
        if enabled():
            registry = get_registry()
            registry.counter("runtime.balancer.steps").inc(rows.size)
            registry.counter("runtime.balancer.harvested_w").inc(
                float(np.sum(harvested))
            )
            registry.counter("runtime.balancer.redistributed_w").inc(
                float(np.sum(granted))
            )
        return new_limits

    def converged_mask(self, rows: np.ndarray) -> np.ndarray:
        opts = self.options
        span = opts.max_limit_w - opts.min_limit_w
        mask = self._last_step_w[rows] < opts.tolerance * span
        if enabled():
            fresh = rows[mask & ~self._convergence_recorded[rows]]
            if fresh.size:
                self._convergence_recorded[fresh] = True
                hist = get_registry().histogram(
                    "runtime.balancer.steps_to_converge"
                )
                for row in fresh.tolist():
                    hist.observe(int(self._steps[row]))
                    emit(
                        "runtime.balancer", "converged",
                        steps=int(self._steps[row]),
                        harvested_w=float(self._harvested_w[row]),
                        redistributed_w=float(self._redistributed_w[row]),
                        unallocated_w=float(self._pool_w[row]),
                    )
        return mask

    def describe_run(self, row: int):
        last_step = self._last_step_w[row]
        return {
            "job_budget_w": float(self._budgets_w[row]),
            "unallocated_w": float(self._pool_w[row]),
            "last_step_w": float(last_step) if np.isfinite(last_step) else -1.0,
            "steps": float(self._steps[row]),
            "harvested_w": float(self._harvested_w[row]),
            "redistributed_w": float(self._redistributed_w[row]),
        }
