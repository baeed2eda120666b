"""Fused cross-cluster facility engine: batched physics facility-wide.

The sharded facility engine fans leaf clusters over a process pool —
the right call on true multi-core hardware, but on a single core the
pool is pure serialization tax, and even with real cores each worker
still runs its cluster's physics one batch at a time.  The campaign
workload is extremely fusable, though: every cluster streams the same
synthetic job classes on the same node power model, so at any instant
the facility's co-resident batches are mostly *the same physics* —
identical job block structure and iteration counts, differing only in
caps, efficiencies, seeds, and budgets, which is precisely the per-row
axis of :func:`~repro.sim.batch.simulate_layout_batch`.

This engine advances **all clusters in lockstep inside one process**
and routes each round's co-resident batches — across clusters —
through shared stacked passes:

* Each cluster's shift loop runs as a
  :func:`~repro.manager.site_simulation.shift_rounds` generator: the
  loop *yields* each planned batch and receives the executed result
  back via ``send()``.  Control flow, RNG draws, seeds, and per-cluster
  accumulation order are the generator's own statements — the same ones
  :func:`~repro.manager.site_simulation.run_site_simulation` drives one
  S=1 pass at a time.
* One shared :class:`~repro.manager.site_simulation.BatchPlanner`
  serves every cluster, so each job class is characterized once
  *facility-wide* — the in-process analogue of the sharded mode's
  :class:`~repro.parallel.char_store.SharedCharStore` — and all
  same-shape batches share one primed layout object, which keeps the
  stacked-layout cache hitting by identity across clusters.
* Each lockstep round collects the pending batches (in cluster order)
  and hands them to
  :func:`~repro.manager.site_simulation.execute_planned_batches`,
  which groups by :func:`~repro.manager.site_simulation.stack_key` and
  runs one ``(S, hosts)`` engine pass per group.  The standard symmetric
  campaign's typical round is **one stacked pass for the whole
  facility**.

Determinism contract
--------------------
Fused ≡ sharded ≡ ``workers=1``, bit-identical (pinned by the
fused-identity property suite).  Per-cluster RNG streams are untouched
— seeds are derived and consumed inside each cluster's own generator —
and grouped-pass rows are element-identical to serial ``simulate_mix``
calls (the staged-pipeline contract).  Every fault schedule stages: the
degradation ladder and compliance accounting run in stages 1 and 3,
and a batch carrying engine-applicable faults (stuck or erroring caps,
noise bursts) runs as its own S=1 group in stage 2.  Budget-only
schedules — the shape every facility leaf schedule takes (allocation
steps only) — fuse like fault-free batches.

When does sharded still win?  On genuinely multi-core hosts with
*heterogeneous* clusters (little cross-cluster structure sharing) or
engine-fault-heavy schedules (one S=1 pass per faulted batch), N
workers do N clusters' physics concurrently while the fused engine
does them serially.  The symmetric many-cluster campaign is the opposite regime:
fusion turns N serial engine calls per round into one.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.registry import create_policy
from repro.manager.power_manager import PowerManager
from repro.manager.site_simulation import (
    BatchPlanner,
    SiteSimulationResult,
    execute_planned_batches,
    shift_rounds,
    stack_key,
)
from repro.telemetry import enabled, get_registry, span
from repro.units import ensure_positive

__all__ = ["run_fused_facility_leaves"]

#: Distinct sentinel for "prime the generator" (``None`` is a valid
#: ``send`` value only after the first yield, so priming uses ``next``).
_PRIME = object()


def run_fused_facility_leaves(
    config,
    budgets_w: Sequence[float],
    schedules: Sequence[object],
    seeds: Sequence[int],
) -> Tuple[List[SiteSimulationResult], List[Tuple[int, int]]]:
    """Advance every leaf cluster in lockstep through fused passes.

    Parameters mirror the sharded path's per-cluster payloads: the
    facility config, each cluster's base budget (its epoch-0
    allocation), its composed leaf fault schedule (``None`` = fault
    free), and its derived run seed.  Returns the per-cluster
    :class:`SiteSimulationResult` list in cluster order — bit-identical
    to the sharded engine's — plus per-cluster
    ``(char_hits, char_misses)`` characterization-memo statistics.
    """
    from repro.hierarchy.facility import build_cluster, cluster_arrivals

    specs = config.clusters
    n = len(specs)
    manager = PowerManager()
    policy = create_policy(config.policy)
    planner = BatchPlanner(manager, policy)

    results: List[Optional[SiteSimulationResult]] = [None] * n
    stats = [[0, 0] for _ in range(n)]
    generators = []

    def advance(i: int, value):
        """One generator step with char-stat attribution to cluster i."""
        hits0, misses0 = planner.char_hits, planner.char_misses
        try:
            if value is _PRIME:
                batch = next(generators[i])
            else:
                batch = generators[i].send(value)
        except StopIteration as stop:
            results[i] = stop.value
            batch = None
        stats[i][0] += planner.char_hits - hits0
        stats[i][1] += planner.char_misses - misses0
        return batch

    rounds = 0
    passes = 0
    with span("hierarchy.facility.fused", clusters=n) as fused_sp:
        for i, spec in enumerate(specs):
            # The scalar path validates inside run_site_simulation; the
            # fused engine must reject the same degenerate budgets.
            ensure_positive(budgets_w[i], "budget_w")
            generators.append(shift_rounds(
                cluster_arrivals(spec),
                build_cluster(spec, config.seed),
                float(budgets_w[i]),
                planner,
                max_batches=config.max_batches,
                run_seed=seeds[i],
                fault_schedule=schedules[i],
            ))

        # Prime: run every cluster to its first batch (or, for a
        # trivially short stream, to completion).
        pending: Dict[int, object] = {}
        for i in range(n):
            batch = advance(i, _PRIME)
            if batch is not None:
                pending[i] = batch

        # Lockstep rounds: fuse all co-resident batches into grouped
        # stacked passes, feed each row back, collect the next round.
        while pending:
            rounds += 1
            indices = sorted(pending)
            batches = [pending[i] for i in indices]
            executions = execute_planned_batches(
                batches, manager, config.noise_std
            )
            passes += len({stack_key(b) for b in batches})
            pending = {}
            for i, execution in zip(indices, executions):
                batch = advance(i, execution)
                if batch is not None:
                    pending[i] = batch

        if fused_sp is not None:
            fused_sp.set_attribute("rounds", rounds)
            fused_sp.set_attribute("stacked_passes", passes)
            fused_sp.set_attribute("char_hits", planner.char_hits)
            fused_sp.set_attribute("char_misses", planner.char_misses)
            fused_sp.set_attribute("plan_hits", planner.plan_hits)
            fused_sp.set_attribute("plan_misses", planner.plan_misses)
        if enabled():
            registry = get_registry()
            registry.counter("hierarchy.fused.rounds").inc(rounds)
            registry.counter("hierarchy.fused.stacked_passes").inc(passes)
            registry.counter("hierarchy.fused.char_hits").inc(
                planner.char_hits)
            registry.counter("hierarchy.fused.char_misses").inc(
                planner.char_misses)

    return results, [tuple(s) for s in stats]
