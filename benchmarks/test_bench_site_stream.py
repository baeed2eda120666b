"""Bench: the streaming site engine under sustained Poisson load.

The acceptance benchmark of the event-driven site engine: a rolling
engine fed a high-rate Poisson arrival stream whose rate extrapolates
to over half a million arrivals per simulated day, with per-job
bookkeeping disabled (``record_jobs=False``) so memory stays bounded by
the backpressure window rather than the arrival count.  Concurrent
in-flight batch physics runs through the staged batch pipeline:
arrivals accumulate over a quantised admission window
(``admission_interval_s``) and every batch launched at a flush is
simulated as rows of one stacked tensor step instead of one scalar
engine call each.

The run asserts the memory contract directly — terminal jobs
forgotten, no per-batch records retained, peak tracked jobs a small
multiple of ``max_pending`` — plus the concurrency contract (at least
eight batches in flight at the peak) and, on a short paired window with
records enabled, bit-identity between the stacked passes and the frozen
scalar reference engine (``tests/batch_oracle.py``): identical stats
and identical per-batch records.

The arrival stream is seeded, so the arrival count (and therefore the
``arrivals_per_day`` metric) is deterministic; wall-clock metrics vary
by host and are gated only by the very generous perf-trajectory
tolerance in CI.  The timed run is preceded by a short warm-up (numpy
dispatch caches, layout-stack memo) and repeated twice, keeping the
faster wall, so the ratio metric reflects steady state rather than
first-call overheads.

Under ``REPRO_SMOKE=1`` the simulated window shrinks from one hour to
ten minutes (same rate, same contract) so the CI job stays fast.

Writes ``benchmarks/output/site_stream.txt`` and the machine-readable
``BENCH_site_stream.json`` perf-trajectory bundle.
"""

import gc
import os
import time

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.io.bench_artifacts import BenchMetric
from repro.stream import SiteStreamEngine, poisson_stream, synthetic_job_factory
from tests.batch_oracle import OracleStreamEngine

SMOKE = os.environ.get("REPRO_SMOKE") == "1"

RATE_PER_S = 6.5
DURATION_S = 600.0 if SMOKE else 3600.0
MAX_PENDING = 64
NODE_COUNT = 160
BUDGET_W = 35_000.0
ADMISSION_INTERVAL_S = 4.0
SEED = 11


def _build_engine(duration_s, *, engine_cls=SiteStreamEngine,
                  record_batches=False):
    cluster = Cluster(node_count=NODE_COUNT, variation=None, seed=0)
    engine = engine_cls(
        cluster, create_policy("StaticCaps"), BUDGET_W,
        rolling=True, max_pending=MAX_PENDING,
        record_jobs=False, record_batches=record_batches,
        run_seed=None,
        admission_interval_s=ADMISSION_INTERVAL_S,
        per_job_batches=True,
    )
    engine.attach_source(poisson_stream(
        RATE_PER_S, duration_s, synthetic_job_factory(), seed=SEED
    ))
    return engine


def _timed_run(duration_s):
    engine = _build_engine(duration_s)
    # A collector pause mid-run is measurement noise, not engine cost;
    # the engine allocates no cycles on the hot path, so deferring
    # collection is safe and keeps single-shot timings honest.
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        stats = engine.run()
        wall_s = time.perf_counter() - start
    finally:
        gc.enable()
    return engine, stats, wall_s


def test_sustained_stream_throughput_and_memory(emit):
    # Warm-up: primes numpy ufunc dispatch and the planner/layout memos
    # so the timed runs measure the steady-state hot path.
    _timed_run(30.0)

    # Best-of-3: on shared single-vCPU CI hosts a run can absorb
    # scheduler steal an order of magnitude larger than the engine's
    # own variance; the minimum wall is the least-contended estimate.
    engine, stats, wall_s = _timed_run(DURATION_S)
    for _ in range(2):
        _, stats_again, wall_again = _timed_run(DURATION_S)
        # Seeded stream: reruns are bit-identical.
        assert stats == stats_again
        wall_s = min(wall_s, wall_again)

    arrivals_per_day = stats.arrivals / DURATION_S * 86_400.0
    sim_per_wall = engine.clock / wall_s

    # Sustained-load floor: the stream must represent > 500k arrivals
    # per simulated day, and every accepted job must be accounted for.
    assert arrivals_per_day >= 500_000.0
    assert stats.jobs_completed + stats.jobs_failed == \
        stats.arrivals - stats.rejected

    # Concurrency floor: quantised admission must actually pile up
    # concurrent in-flight batches for the stacked step to vectorise.
    assert stats.peak_in_flight >= 8

    # Bounded memory: terminal jobs are forgotten, aggregates kept.
    assert len(engine.queue) == 0
    assert engine.batches == []
    assert engine.turnaround_s == {}
    assert stats.peak_tracked_jobs <= 2 * MAX_PENDING
    assert stats.mean_turnaround_s() > 0.0

    # Bit-identity spot check: on a short paired window with records
    # enabled, the stacked passes must reproduce the frozen scalar
    # reference exactly — same stats, same per-batch records, same
    # turnarounds.  Quantised admission is an engine-level scheduling
    # choice, not a physics one; both engines share it so the pairing
    # isolates the stacked-vs-scalar execution difference.
    batched = _build_engine(60.0, record_batches=True)
    scalar = _build_engine(60.0, engine_cls=OracleStreamEngine,
                           record_batches=True)
    stats_b = batched.run()
    stats_s = scalar.run()
    assert stats_b == stats_s
    assert batched.batches == scalar.batches
    assert batched.turnaround_s == scalar.turnaround_s

    lines = [
        "Streaming site engine: sustained Poisson load "
        f"({RATE_PER_S}/s for {DURATION_S:.0f} simulated seconds, "
        f"batched physics @ {ADMISSION_INTERVAL_S:.0f}s admission)",
        "",
        f"  arrivals:            {stats.arrivals}"
        f"  (= {arrivals_per_day:,.0f}/simulated day)",
        f"  completed / failed:  {stats.jobs_completed}"
        f" / {stats.jobs_failed}",
        f"  backpressure drops:  {stats.rejected}"
        f"  (max_pending = {MAX_PENDING})",
        f"  batches executed:    {stats.batches}",
        f"  peak in-flight:      {stats.peak_in_flight}",
        f"  peak tracked jobs:   {stats.peak_tracked_jobs}",
        f"  mean turnaround:     {stats.mean_turnaround_s():.1f} s",
        f"  wall time:           {wall_s:.2f} s"
        f"  ({sim_per_wall:,.0f} simulated s / wall s)",
    ]
    emit(
        "site_stream", "\n".join(lines),
        metrics=[
            BenchMetric("arrivals_per_day", arrivals_per_day,
                        "jobs/day", direction="higher_better"),
            BenchMetric("sim_seconds_per_wall_second", sim_per_wall,
                        "s/s", direction="higher_better"),
            BenchMetric("wall_s", wall_s, "s", direction="lower_better"),
            BenchMetric("peak_tracked_jobs",
                        float(stats.peak_tracked_jobs), "jobs",
                        direction="lower_better"),
            BenchMetric("mean_turnaround_s", stats.mean_turnaround_s(),
                        "s", direction="two_sided"),
        ],
        params={"rate_per_s": RATE_PER_S, "duration_s": DURATION_S,
                "max_pending": MAX_PENDING, "node_count": NODE_COUNT,
                "budget_w": BUDGET_W,
                "admission_interval_s": ADMISSION_INTERVAL_S,
                "batched_physics": True, "smoke": SMOKE},
        seed=SEED,
    )
