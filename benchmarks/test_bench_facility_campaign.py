"""Bench: the hierarchical facility campaign at 50k-node scale.

The acceptance benchmark of the ``repro.hierarchy`` budget-broker tree,
now timing **both leaf engines** on the same campaign config: the
sharded engine (one pure task per cluster over a process pool) and the
fused engine (all clusters advanced in lockstep, co-resident batches
routed through shared cross-cluster stacked physics passes).  The full
run covers the ISSUE/ROADMAP floor of 50 000 nodes in a single command;
under ``REPRO_SMOKE=1`` the facility shrinks to 8 clusters x 800 nodes
so the CI job stays fast while still exercising the trace, the feeder
dips, both engines, and the cross-engine identity assert.

Timing method: one untimed warm-up run of each engine on the full
config (numpy dispatch, layout memos, page cache and the sharded
engine's pool spawn path are all primed), then ``REPEATS`` timed runs
per engine, interleaved sharded/fused so a slow host phase lands on
both engines alike.  Each engine's wall is the median of its runs.

Determinism is asserted in-run: every timed fused result must be
``==`` (bit identical) to the first one and to every sharded result,
and a small paired config must agree across ``workers=1`` /
``workers=2`` / fused.  The headline ``clusters_per_s`` is the fused
engine's; the ``fused_speedup`` metric is the sharded median wall over
the fused median wall on identical configs, asserted >= 4x on the full
(non-smoke) campaign where the pool tax plus per-cluster scalar physics
is the baseline.

Writes ``benchmarks/output/facility_campaign.txt`` and the
machine-readable ``BENCH_facility_campaign.json`` perf-trajectory
bundle.
"""

import gc
import os
import statistics
import time

from repro.experiments.facility_scale import (
    FacilityCampaignConfig,
    run_facility_campaign,
)
from repro.io.bench_artifacts import BenchMetric

SMOKE = os.environ.get("REPRO_SMOKE") == "1"

CLUSTERS = 8 if SMOKE else 16
NODES_PER_CLUSTER = 800 if SMOKE else 3_200
JOBS_PER_CLUSTER = 16 if SMOKE else 48
WORKERS = 2
SEED = 23
#: Timed runs per engine (the medians compared).
REPEATS = 3 if SMOKE else 5

CONFIG = FacilityCampaignConfig(
    clusters=CLUSTERS,
    nodes_per_cluster=NODES_PER_CLUSTER,
    jobs_per_cluster=JOBS_PER_CLUSTER,
    seed=SEED,
)


def _timed_run(engine, workers=WORKERS):
    # A collector pause mid-run is measurement noise, not broker cost;
    # deferring collection keeps single-shot timings honest.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        result = run_facility_campaign(CONFIG, workers=workers,
                                       engine=engine)
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()
    return result, wall_s


def test_facility_campaign_scale_and_determinism(emit):
    # Warm-up: one untimed full-size run per engine, so no timed run
    # pays a first-run cost (the sharded one includes the pool spawn).
    run_facility_campaign(CONFIG, workers=WORKERS)
    run_facility_campaign(CONFIG, engine="fused")

    # Interleaved timed runs, compared by per-engine medians; every
    # result must be bit-identical (fused ≡ sharded, run to run).
    result = None
    fused_walls, sharded_walls = [], []
    for _ in range(REPEATS):
        sharded_result, sharded_run_s = _timed_run("sharded")
        fused_result, fused_run_s = _timed_run("fused")
        result = fused_result if result is None else result
        assert fused_result == result
        assert sharded_result == result
        sharded_walls.append(sharded_run_s)
        fused_walls.append(fused_run_s)
    wall_s = statistics.median(fused_walls)
    sharded_wall = statistics.median(sharded_walls)
    fused_speedup = sharded_wall / wall_s

    # Scale floor: the full campaign must cover >= 50k nodes in this
    # one command (the smoke config only shrinks, never reshapes), and
    # fusing the symmetric 16-cluster campaign into shared stacked
    # passes must pay >= 4x over the sharded baseline.
    if not SMOKE:
        assert result.total_nodes >= 50_000
        assert fused_speedup >= 4.0, (
            f"fused {wall_s:.3f} s vs sharded {sharded_wall:.3f} s "
            f"(medians of {REPEATS}): {fused_speedup:.2f}x"
        )

    # The trace-driven top budget must actually vary across windows,
    # and every epoch's apportioned total must stay within it.
    assert len(set(result.budgets_w)) > 1
    for epoch in range(len(result.epoch_s)):
        assert result.allocated_w(epoch) <= result.budgets_w[epoch] + 1e-6

    # Feeder-dip clusters (every fourth) must show the mid-horizon cap.
    dipped = [c for i, c in enumerate(result.clusters) if i % 4 == 2]
    assert dipped
    for outcome in dipped:
        assert min(outcome.allocations_w) < max(outcome.allocations_w)

    # Every cluster ran real physics: jobs completed, energy consumed.
    completed = result.completed_jobs()
    assert completed > 0
    assert result.total_energy_j > 0.0

    # Characterization sharing must be doing real work: the fused
    # planner serves the overwhelming majority of same-class
    # characterizations from its facility-wide memo.
    assert result.char_cache_hit_ratio() > 0.5

    # Engine invariance on a small paired config — workers and engine
    # must never change the result, only the wall clock.
    small = FacilityCampaignConfig(clusters=3, nodes_per_cluster=96,
                                   jobs_per_cluster=6, seed=SEED)
    serial = run_facility_campaign(small, workers=1)
    pooled = run_facility_campaign(small, workers=2)
    fused_small = run_facility_campaign(small, engine="fused")
    assert serial == pooled
    assert serial == fused_small

    clusters_per_s = CLUSTERS / wall_s
    nodes_per_s = result.total_nodes / wall_s

    lines = [
        "Hierarchical facility campaign: "
        f"{CLUSTERS} clusters x {NODES_PER_CLUSTER} nodes "
        f"(= {result.total_nodes:,} nodes), trace-driven top budget, "
        f"{CONFIG.broker_policy} broker, fused engine "
        f"(sharded baseline workers={WORKERS})",
        "",
        f"  nodes simulated:     {result.total_nodes:,}",
        f"  jobs completed:      {completed}",
        f"  epochs planned:      {len(result.epoch_s)}"
        f"  (window = {CONFIG.window_s:.0f} s)",
        f"  stranded power:      {result.stranded_w():,.0f} W"
        " (mean unallocated)",
        f"  total energy:        {result.total_energy_j / 1e6:,.1f} MJ",
        f"  mean turnaround:     {result.mean_turnaround_s():.1f} s",
        f"  char cache hits:     {100 * result.char_cache_hit_ratio():.0f}%",
        f"  fused wall time:     {wall_s:.2f} s"
        f"  (median of {REPEATS}; {clusters_per_s:,.1f} clusters/s,"
        f" {nodes_per_s:,.0f} nodes/s)",
        f"  sharded wall time:   {sharded_wall:.2f} s"
        f"  (median of {REPEATS}; fused speedup {fused_speedup:.1f}x,"
        " identical result)",
        "  fused runs (s):      "
        + ", ".join(f"{w:.3f}" for w in fused_walls),
        "  sharded runs (s):    "
        + ", ".join(f"{w:.3f}" for w in sharded_walls),
    ]
    emit(
        "facility_campaign", "\n".join(lines),
        metrics=[
            BenchMetric("clusters_per_s", clusters_per_s, "clusters/s",
                        direction="higher_better"),
            BenchMetric("fused_speedup", fused_speedup, "x",
                        direction="higher_better"),
            BenchMetric("sharded_clusters_per_s", CLUSTERS / sharded_wall,
                        "clusters/s", direction="higher_better"),
            BenchMetric("nodes_simulated", float(result.total_nodes),
                        "nodes", direction="two_sided"),
            BenchMetric("jobs_completed", float(completed), "jobs",
                        direction="two_sided"),
            BenchMetric("wall_s", wall_s, "s", direction="lower_better"),
        ],
        params={"clusters": CLUSTERS,
                "nodes_per_cluster": NODES_PER_CLUSTER,
                "jobs_per_cluster": JOBS_PER_CLUSTER,
                "broker_policy": CONFIG.broker_policy,
                "window_s": CONFIG.window_s,
                "horizon_s": CONFIG.horizon_s,
                "engine": "fused", "repeats": REPEATS,
                "workers": WORKERS, "smoke": SMOKE},
        seed=SEED,
    )
