"""The repo's benchmark: one workload, end to end or traced by layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload paper_grid --seed 1 --seconds 20 --trace 0

Workloads: ``paper_grid``, ``facility_campaign``, ``site_stream``,
``daemon_mixed`` (see ``perfbench/README.md``).  With ``--trace 0`` the
unmodified program runs in fresh worker processes and the last stdout
line is a JSON object with the end-to-end metrics; with ``--trace 1``
the call ledger is installed in two fresh traced runs, whose work
counters must agree exactly, and the JSON carries the per-layer
metrics.  Every simulated result is checked against the fingerprints in
``perfbench/reference.json``; a mismatch counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench.daemon_client import src_env  # noqa: E402
from perfbench.ledger import TIMED, work_counter_names  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

#: Fresh-process set-up samples taken before and again after the timed
#: worker (the host's speed drifts over seconds); ``setup_s`` is the
#: median of all of them.
SETUP_PROBES = 3
PROBE_TIMEOUT_S = 60.0
#: Grace beyond ``--seconds`` for the last round and the output checks.
WORKER_GRACE_S = 110.0
TRACED_TIMEOUT_S = 80.0
OUT_DIR = ROOT / ".perfbench"
#: Latency charged to a failed or unanswered frame (it misses any limit).
MISSED_MS = 1e6

PER_LAYER_UNITS = {"calls": "count", "self_s": "s"}
EXTRA_LAYER_METRICS = (
    ("sim.host_iters", "count"),
    ("manager.admitted_ratio", "ratio"),
    ("faults.degraded_ratio", "ratio"),
    ("hierarchy.rebalances", "count"),
    ("characterization.lookups", "count"),
    ("characterization.hit_ratio", "ratio"),
    ("stream.daemon.server_s", "s"),
    ("stream.daemon.wait_s", "s"),
    ("stream.daemon.lateness_p99_ms", "ms"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_pct", "%"),
)


def per_layer_metrics() -> List[tuple]:
    """Every per-layer metric name with its unit, in report order."""
    out = [(f"{name}.{kind}", unit) for name in TIMED
           for kind, unit in PER_LAYER_UNITS.items()]
    return out + list(EXTRA_LAYER_METRICS)


def quantile(values: List[float], q: float) -> float:
    """Linear-interpolated quantile of ``values`` (0 <= q <= 1)."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def describe(values: List[float]) -> str:
    """Median with quartiles and the sample count."""
    return (f"median {quantile(values, 0.5):.4g} "
            f"[q1 {quantile(values, 0.25):.4g}, q3 {quantile(values, 0.75):.4g}]"
            f" n={len(values)}")


def _worker_cmd(workload: str, seed: int, mode: str, *extra: str) -> List[str]:
    return [sys.executable, str(ROOT / "perfbench" / "worker.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode,
            *extra]


def _spawn(cmd: List[str]) -> subprocess.Popen:
    # Each worker leads its own process group, so a worker that must be
    # killed takes the daemon it started with it.
    return subprocess.Popen(cmd, cwd=ROOT, env=src_env(ROOT),
                            stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def _reap(proc: subprocess.Popen) -> None:
    """Kill what is left of a worker's process group and wait for it."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _run_worker(cmd: List[str], timeout_s: float) -> dict:
    """Run a worker to completion; returns its final JSON line."""
    proc = _spawn(cmd)
    try:
        out, _ = proc.communicate(timeout=timeout_s)
    finally:
        _reap(proc)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines or lines[-1] == "READY":
        raise RuntimeError(f"worker failed (exit {proc.returncode}): "
                           f"{' '.join(cmd[2:])}")
    return json.loads(lines[-1])


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh worker to its ``READY`` line."""
    start = time.perf_counter()
    proc = _spawn(_worker_cmd(workload, seed, "setup"))
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.close()
        code = proc.wait(timeout=PROBE_TIMEOUT_S)
    finally:
        _reap(proc)
    if line.strip() != "READY" or code != 0:
        raise RuntimeError(f"set-up probe failed for {workload}")
    return elapsed


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    tail_pct = WORKLOADS[workload].tail_pct
    setups = [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    timed = _run_worker(
        _worker_cmd(workload, seed, "timed", "--seconds", str(seconds)),
        seconds + WORKER_GRACE_S)
    setups += [probe_setup(workload, seed) for _ in range(SETUP_PROBES)]
    latencies_ms = [1e3 * v if v != float("inf") else MISSED_MS
                    for v in timed["latencies_s"]]
    rates = timed["rates"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (timed["peak_rss_mb"], "MB"),
        "work_per_s": (timed["work_per_s"], "1/s"),
        "latency_p50_ms": (quantile(latencies_ms, 0.5), "ms"),
    }
    prints = [
        f"workload {workload}  seed {seed}  {seconds:g} s measured",
        f"  setup_s           {describe(setups)}",
        f"  work_per_s        {timed['work_per_s']:.4g}  "
        f"({WORKLOADS[workload].unit} per "
        f"{'daemon CPU s' if workload == 'daemon_mixed' else 'wall s'}; "
        f"per round {describe(rates)})",
        f"  latency_p50_ms    {metrics['latency_p50_ms'][0]:.4g}  "
        f"(n={len(latencies_ms)} operations)",
        f"  {'latency p' + str(tail_pct):<18}"
        f"{quantile(latencies_ms, tail_pct / 100.0):.4g}"
        f"  ({int(len(latencies_ms) * (1 - tail_pct / 100.0))} samples beyond"
        f" it; printed, not gated)",
        f"  peak_rss_mb       {timed['peak_rss_mb']:.1f}",
    ]
    fingerprints = timed["fingerprints"]
    if workload == "paper_grid":
        for key in ("best_time_savings_pct", "best_energy_savings_pct"):
            prints.append(f"  {key:<24}" + " ".join(
                f"{fp[key]:.3f}" for fp in fingerprints[:6])
                + "  (first rounds; StaticCaps baseline)")
    if workload == "daemon_mixed":
        prints.append(
            "  generator         {frames} frames, {errors} errors, "
            "{outstanding} outstanding; lateness p50 {lateness_p50_ms:.3f}"
            " / p99 {lateness_p99_ms:.3f} / max {lateness_max_ms:.3f} ms"
            .format(**timed["extra"]))
    mismatched = [fp["variant"] for fp in fingerprints if not fp["ok"]]
    prints.append(f"  fingerprints      {len(fingerprints) - len(mismatched)}"
                  f"/{len(fingerprints)} rounds match the reference"
                  + (f" (mismatch: variants {mismatched})" if mismatched else ""))
    return {
        "correct": not mismatched and timed["failed"] == 0,
        "attempted": timed["attempted"],
        "failed": timed["failed"],
        "metrics": metrics,
        "prints": prints,
    }


def traced(workload: str, seed: int) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    runs = []
    for tag in ("a", "b"):
        spans = OUT_DIR / f"spans-{workload}-{seed}-{tag}.jsonl"
        runs.append(_run_worker(
            _worker_cmd(workload, seed, "traced", "--spans", str(spans)),
            TRACED_TIMEOUT_S))
    first, second = (run["ledger"] for run in runs)
    drift = [name for name in work_counter_names()
             if first.get(name) != second.get(name)]
    failed = sum(1 for run in runs if not run["ok"]) + (1 if drift else 0)
    metrics = {name: (first.get(name, 0.0), unit)
               for name, unit in per_layer_metrics()}
    prints = [f"workload {workload}  seed {seed}  traced ledger "
              f"(spans in {OUT_DIR.name}/)"]
    prints += [f"  {name:<52} {value:.6g} {unit}"
               for name, (value, unit) in metrics.items() if value]
    prints.append("  work counters repeat exactly across two traced runs"
                  if not drift else f"  COUNTER DRIFT: {drift}")
    # Attempted: the two traced runs and the comparison of their counters.
    return {"correct": failed == 0, "attempted": len(runs) + 1,
            "failed": failed, "metrics": metrics, "prints": prints}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print("error: no program source at src/repro", file=sys.stderr)
        return 2
    try:
        if args.trace:
            report = traced(args.workload, args.seed)
        else:
            report = end_to_end(args.workload, args.seed, args.seconds)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in report.pop("prints"):
        print(line)
    report["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in report["metrics"].items()}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
