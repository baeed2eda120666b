"""Rebuild the benchmark's reference fingerprints and recorded counters.

Usage (from the repository root)::

    python3 perfbench/make_reference.py fingerprints [WORKLOAD ...]
    python3 perfbench/make_reference.py counters [WORKLOAD ...]

``fingerprints`` recomputes ``reference.json`` for every input variant a
seed can select, through a different path of the program than the timed
runs take: whole-grid ``run_all`` calls instead of one cell per call,
the sharded facility engine instead of the fused one, one uninterrupted
``SiteStreamEngine.run()`` instead of event slices, and a closed-loop
daemon client instead of the open-loop generator.  Regenerate only when
a change is meant to alter simulated results.

``counters`` runs the traced ledger for seed 0 and records its work
counters in ``counters.json``, so a later change can cite one of them
as an exact count.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import daemon_client, workloads  # noqa: E402

#: Daemon scripts are fingerprinted up to this many seconds of traffic.
DAEMON_REFERENCE_S = 30.0
COUNTERS_PATH = workloads.HERE / "counters.json"


def paper_grid() -> dict:
    from repro.experiments.grid import ExperimentConfig, ExperimentGrid

    out = {}
    for variant in range(workloads.PaperGrid.pool):
        grid = ExperimentGrid(ExperimentConfig(run_seed=variant))
        out[str(variant)] = workloads.grid_fingerprint(grid.run_all(workers=1))
    return out


def facility_campaign() -> dict:
    from repro.experiments.facility_scale import (
        FacilityCampaignConfig,
        run_facility_campaign,
    )

    out = {}
    for variant in range(workloads.FacilityCampaign.pool):
        result = run_facility_campaign(FacilityCampaignConfig(seed=variant),
                                       workers=1, engine="sharded")
        out[str(variant)] = workloads.facility_fingerprint(result)
    return out


def site_stream() -> dict:
    out = {}
    for variant in range(workloads.SiteStream.pool):
        engine = workloads.build_stream_engine(variant)
        out[str(variant)] = workloads.stream_fingerprint(engine.run())
    return out


def daemon_mixed() -> dict:
    out = {}
    frames = daemon_client.max_frames(DAEMON_REFERENCE_S)
    for variant in range(workloads.DaemonMixed.pool):
        daemon = daemon_client.DaemonProcess(ROOT)
        daemon.start()
        try:
            script = daemon_client.script(variant, frames)
            session = daemon_client.run_session(
                daemon, script, [0.0] * len(script), closed_loop=True)
        finally:
            daemon.stop()
        if any(reply is None for reply in session.replies):
            raise RuntimeError(f"daemon variant {variant}: missing replies")
        errors = session.summary()["errors"]
        if errors:
            raise RuntimeError(f"daemon variant {variant}: {errors} errors")
        out[str(variant)] = {
            "blocks": daemon_client.block_digests(session.replies),
            "frames": len(script),
        }
    return out


FINGERPRINTERS = {
    "paper_grid": paper_grid,
    "facility_campaign": facility_campaign,
    "site_stream": site_stream,
    "daemon_mixed": daemon_mixed,
}


def _update(path: Path, updates: dict) -> None:
    data = json.loads(path.read_text()) if path.exists() else {}
    data.update(updates)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main(argv) -> int:
    if not argv or argv[0] not in ("fingerprints", "counters"):
        print(__doc__, file=sys.stderr)
        return 2
    names = argv[1:] or list(FINGERPRINTERS)
    if argv[0] == "fingerprints":
        for name in names:
            print(f"fingerprinting {name} ...", flush=True)
            _update(workloads.REFERENCE_PATH, {name: FINGERPRINTERS[name]()})
        return 0
    from perfbench import ledger, run

    recorded = {}
    for name in names:
        report = run.traced(name, seed=0)
        if not report["correct"]:
            raise RuntimeError(f"{name}: traced runs failed or drifted")
        counters = {key: report["metrics"][key][0]
                    for key in ledger.work_counter_names()}
        recorded[name] = {"seed": 0, "counters": counters}
    _update(COUNTERS_PATH, recorded)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
