"""The benchmark's four workloads.

Each workload builds its environment in :meth:`setup` (everything a
fresh process does before its first timed operation), then runs
*rounds*.  A round is one input variant taken from the seed: one Fig. 8
grid, one facility campaign, one stream, or one daemon session.  A round
returns the wall time of each operation in it, the units of work it
completed, and whether its simulated output matched the reference
fingerprint kept in ``reference.json``.

Variants come from fixed pools so that every input a seed can generate
has a stored fingerprint; the seed picks the order in which variants are
visited.  ``make_reference.py`` rebuilds the fingerprints through an
independent path of the program (whole-grid calls, the sharded facility
engine, one uninterrupted stream run, a closed-loop daemon client).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import random
import time
from pathlib import Path
from typing import Dict, Iterator, List

HERE = Path(__file__).resolve().parent
REFERENCE_PATH = HERE / "reference.json"


# ----------------------------------------------------------------------
# fingerprints
def _canonical(value):
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(value) -> str:
    """SHA-256 of a JSON value with floats rounded to 12 significant
    digits, so the last-ulp noise of a reordered sum does not count as
    a different result."""
    text = json.dumps(_canonical(value), sort_keys=True)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_reference() -> Dict[str, Dict[str, dict]]:
    with REFERENCE_PATH.open(encoding="utf-8") as stream:
        return json.load(stream)


@dataclasses.dataclass
class Round:
    """What one round measured."""

    latencies_s: List[float]
    #: Work completed, in the workload's unit.
    units: float
    #: Time the work rate divides by: the operations' wall time, or the
    #: daemon's CPU time on ``daemon_mixed``.
    busy_s: float
    ok: bool
    fingerprint: dict
    #: Failed operations: a fingerprint mismatch fails every operation
    #: of the round (of the block, for the daemon), and the daemon also
    #: fails single error or unanswered frames.
    failed: int = 0
    extra: dict = dataclasses.field(default_factory=dict)


class Workload:
    """Seeded variant order and reference checks; subclasses supply
    set-up and rounds."""

    name = ""
    unit = ""
    #: Pool of input variants with stored fingerprints.
    pool = 0
    #: Op-latency tail percentile the run prints: the highest of the usual
    #: percentiles that keeps at least ten samples beyond it at this
    #: workload's op count per run.  Tails are printed, not gated: one
    #: run's tail is set by a few stalls of the shared host and differs
    #: by a quarter to a half between runs.
    tail_pct = 99
    #: Traced rounds per traced run (each paired with an untraced one).
    traced_pairs = 1

    def __init__(self, root: Path, seed: int) -> None:
        self.root = root
        self.seed = seed
        self.reference = load_reference().get(self.name, {})

    def variants(self) -> Iterator[int]:
        order = list(range(self.pool))
        random.Random(f"{self.name}:{self.seed}").shuffle(order)
        while True:
            yield from order

    def setup(self) -> None:
        raise NotImplementedError

    def round(self, variant: int, recorder=None, run_id: int = 0,
              seconds: float = 0.0) -> Round:
        raise NotImplementedError

    def check(self, variant: int, fingerprint: dict) -> bool:
        expected = self.reference.get(str(variant))
        return expected is not None and expected["digest"] == fingerprint["digest"]

    def close(self) -> None:
        """Release processes or sockets the workload holds."""


def _op(recorder, run_id: int):
    """The recorder's root span around one operation (traced runs only)."""
    return recorder.op(run_id) if recorder is not None else contextlib.nullcontext()


# ----------------------------------------------------------------------
class PaperGrid(Workload):
    """Fig. 8: 6 mixes x 3 budgets x 5 policies at 900 hosts x 100
    iterations; one operation is one cell through ``run_all``."""

    name = "paper_grid"
    unit = "cells"
    pool = 64
    tail_pct = 99
    traced_pairs = 3

    def setup(self) -> None:
        from repro.experiments.grid import (
            BUDGET_LEVELS,
            ExperimentConfig,
            ExperimentGrid,
        )

        self.grid = ExperimentGrid(ExperimentConfig())
        for mix in self.grid.config.mixes:
            self.grid.prepare_mix(mix)
        self.keys = [(m, lvl, p) for m in self.grid.config.mixes
                     for lvl in BUDGET_LEVELS
                     for p in self.grid.config.policies]
        self.base_config = self.grid.config

    def round(self, variant, recorder=None, run_id=0, seconds=0.0) -> Round:
        from repro.experiments.grid import GridResults

        grid = self.grid
        grid.config = dataclasses.replace(self.base_config, run_seed=variant)
        results = GridResults(config=grid.config, survey=grid.survey,
                              prepared={m: grid.prepare_mix(m)
                                        for m in grid.config.mixes})
        latencies = []
        for index, (mix, level, policy) in enumerate(self.keys):
            with _op(recorder, run_id * 1000 + index):
                start = time.perf_counter()
                cell = grid.run_all(mixes=[mix], levels=[level],
                                    policies=[policy], workers=1)
                latencies.append(time.perf_counter() - start)
            results.cells.update(cell.cells)
        fingerprint = grid_fingerprint(results)
        ok = self.check(variant, fingerprint)
        return Round(latencies, float(len(self.keys)), sum(latencies), ok,
                     fingerprint,
                     failed=0 if ok else len(self.keys))


def grid_fingerprint(results) -> dict:
    """Fig. 8 per-cell time and energy savings, and the headlines."""
    from repro.experiments.figures import fig8_savings_grid

    savings = fig8_savings_grid(results)
    cells = [[list(key), s.time_savings.mean, s.energy_savings.mean]
             for key, s in sorted(savings.items())]
    return {
        "digest": digest(cells),
        "best_time_savings_pct":
            100.0 * max(s.time_savings.mean for s in savings.values()),
        "best_energy_savings_pct":
            100.0 * max(s.energy_savings.mean for s in savings.values()),
    }


# ----------------------------------------------------------------------
class FacilityCampaign(Workload):
    """The 16 x 3200-node campaign on the fused engine; one operation is
    one campaign."""

    name = "facility_campaign"
    unit = "clusters"
    pool = 64
    tail_pct = 75
    traced_pairs = 3

    def setup(self) -> None:
        from repro.experiments.facility_scale import (
            FacilityCampaignConfig,
            run_facility_campaign,
        )

        self.config_cls = FacilityCampaignConfig
        self.run_campaign = run_facility_campaign

    def round(self, variant, recorder=None, run_id=0, seconds=0.0) -> Round:
        config = self.config_cls(seed=variant)
        with _op(recorder, run_id):
            start = time.perf_counter()
            result = self.run_campaign(config, engine="fused")
            wall = time.perf_counter() - start
        fingerprint = facility_fingerprint(result)
        ok = self.check(variant, fingerprint)
        return Round([wall], float(config.clusters), wall, ok, fingerprint,
                     failed=0 if ok else 1)


def facility_fingerprint(result) -> dict:
    summary = result.summary()
    return {"digest": digest(summary), "summary": _canonical(summary)}


# ----------------------------------------------------------------------
#: Site-stream shape: 6.5 jobs/s Poisson arrivals for one simulated hour
#: on 160 uniform nodes, batched physics, single-job batches.
STREAM_RATE_PER_S = 6.5
STREAM_DURATION_S = 3600.0
STREAM_NODES = 160
STREAM_BUDGET_W = 35_000.0
STREAM_MAX_PENDING = 64
STREAM_ADMISSION_S = 4.0
#: Events per timed operation: the stream is pumped in slices so that
#: one run yields several hundred latency samples.
STREAM_EVENTS_PER_OP = 250


def build_stream_engine(variant: int):
    """A rolling engine fed the variant's Poisson stream."""
    from repro.core.registry import create_policy
    from repro.hardware.cluster import Cluster
    from repro.stream import SiteStreamEngine, poisson_stream, synthetic_job_factory

    cluster = Cluster(node_count=STREAM_NODES, variation=None, seed=0)
    engine = SiteStreamEngine(
        cluster, create_policy("StaticCaps"), STREAM_BUDGET_W,
        rolling=True, max_pending=STREAM_MAX_PENDING,
        record_jobs=False, record_batches=False, run_seed=None,
        batched_physics=True, admission_interval_s=STREAM_ADMISSION_S,
        per_job_batches=True,
    )
    engine.attach_source(poisson_stream(
        STREAM_RATE_PER_S, STREAM_DURATION_S, synthetic_job_factory(),
        seed=variant,
    ))
    return engine


def stream_fingerprint(stats) -> dict:
    snapshot = dataclasses.asdict(stats)
    return {"digest": digest(snapshot), "stats": _canonical(snapshot)}


class SiteStream(Workload):
    """A rolling ``SiteStreamEngine`` under a sustained Poisson stream;
    one operation advances the event loop by a fixed number of events."""

    name = "site_stream"
    unit = "simulated s"
    pool = 32
    tail_pct = 99

    def setup(self) -> None:
        import repro.stream  # noqa: F401  (import cost belongs to set-up)

    def round(self, variant, recorder=None, run_id=0, seconds=0.0) -> Round:
        engine = build_stream_engine(variant)
        latencies = []
        while engine.loop:
            with _op(recorder, run_id * 100_000 + len(latencies)):
                start = time.perf_counter()
                stats = engine.run(max_events=STREAM_EVENTS_PER_OP)
                latencies.append(time.perf_counter() - start)
        fingerprint = stream_fingerprint(stats)
        ok = self.check(variant, fingerprint)
        return Round(latencies, engine.clock, sum(latencies), ok, fingerprint,
                     failed=0 if ok else len(latencies))


# ----------------------------------------------------------------------
class DaemonMixed(Workload):
    """An open-loop client against ``repro stream --serve``; one
    operation is one frame, timed from when it was due."""

    name = "daemon_mixed"
    unit = "frames"
    pool = 16
    tail_pct = 90

    def setup(self) -> None:
        from perfbench import daemon_client

        self.client = daemon_client
        self.daemon = daemon_client.DaemonProcess(self.root)
        self.daemon.start()

    def round(self, variant, recorder=None, run_id=0, seconds=0.0) -> Round:
        client = self.client
        frames = client.script(variant, client.max_frames(seconds))
        due = client.schedule(self.seed, seconds)
        session = client.run_session(self.daemon, frames[:len(due)], due)
        checked = client.check_replies(session.replies,
                                       self.reference.get(str(variant)))
        failed = sum(1 for ok in session.frame_ok(checked) if not ok)
        fingerprint = {"frames": len(due)}
        return Round(session.latencies_s, float(session.acked),
                     session.daemon_cpu_s, failed == 0, fingerprint,
                     failed=failed, extra=session.summary())

    def close(self) -> None:
        if getattr(self, "daemon", None) is not None:
            self.daemon.stop()
            self.daemon = None


WORKLOADS = {cls.name: cls for cls in
             (PaperGrid, FacilityCampaign, SiteStream, DaemonMixed)}
