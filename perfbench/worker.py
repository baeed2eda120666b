"""Run one workload in a fresh process and print its measurements.

Usage::

    python3 perfbench/worker.py --workload NAME --seed N --mode setup
    python3 perfbench/worker.py --workload NAME --seed N --mode timed --seconds S
    python3 perfbench/worker.py --workload NAME --seed N --mode traced --spans PATH

``setup`` builds the environment, prints ``READY`` and exits (the
set-up probe).  ``timed`` prints ``READY`` after set-up, runs rounds
until ``--seconds`` have passed and prints one JSON line with every
operation's latency.  ``traced`` runs a fixed number of rounds of one
variant with the call ledger installed, each followed by the same round
untraced, and prints the ledger summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

#: Simulated-traffic length of the traced daemon session (fixed, so the
#: traced work counters do not depend on ``--seconds``).
TRACED_DAEMON_S = 12.0


def _timed(workload, seconds: float) -> dict:
    latencies, rates, fingerprints = [], [], []
    units = busy_s = 0.0
    attempted = failed = 0
    variants = workload.variants()
    deadline = time.perf_counter() + seconds
    run_id = 0
    while True:
        variant = next(variants)
        result = workload.round(variant, run_id=run_id, seconds=seconds)
        run_id += 1
        latencies.extend(result.latencies_s)
        rates.append(result.units / result.busy_s)
        units += result.units
        busy_s += result.busy_s
        attempted += len(result.latencies_s)
        failed += result.failed
        fingerprints.append({"variant": variant, "ok": result.ok,
                             **result.fingerprint})
        if time.perf_counter() >= deadline:
            break
    if workload.name == "daemon_mixed":
        rss_mb = workload.daemon.peak_rss_mb()
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {"latencies_s": latencies, "rates": rates,
            "work_per_s": units / busy_s, "attempted": attempted,
            "failed": failed, "peak_rss_mb": rss_mb,
            "fingerprints": fingerprints, "extra": result.extra}


def _traced_batch(workload, spans_path: Path) -> dict:
    """Warm up untraced, then alternate traced and untraced rounds of
    one variant; the ledger covers the traced rounds only.  Overhead
    compares process CPU time, which other tenants of the host disturb
    less than wall time."""
    from perfbench import ledger

    variant = next(workload.variants())
    workload.round(variant)
    recorder = ledger.Recorder()
    traced_s, untraced_s, ok = [], [], True
    for run_id in range(workload.traced_pairs):
        recorder.install()
        try:
            cpu = time.process_time()
            traced = workload.round(variant, recorder=recorder, run_id=run_id)
            traced_s.append(time.process_time() - cpu)
        finally:
            recorder.uninstall()
        cpu = time.process_time()
        untraced = workload.round(variant)
        untraced_s.append(time.process_time() - cpu)
        ok = ok and traced.ok and untraced.ok
    recorder.write(spans_path)
    spans, counters = ledger.load(spans_path)
    out = ledger.summarize(spans, counters)
    out["trace.overhead_pct"] = 100.0 * (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1.0)
    return {"ledger": out, "ok": ok}


def _traced_daemon(workload, spans_path: Path) -> dict:
    """One session on the unmodified daemon, then the same session on a
    fresh daemon started through the tracing launcher."""
    from perfbench import daemon_client, ledger

    variant = next(workload.variants())
    untraced = workload.round(variant, seconds=TRACED_DAEMON_S)
    workload.close()
    workload.daemon = daemon_client.DaemonProcess(ROOT, spans_path=spans_path)
    workload.daemon.start()
    traced = workload.round(variant, seconds=TRACED_DAEMON_S)
    session = traced.extra
    workload.close()
    spans, counters = ledger.load(spans_path)
    out = ledger.summarize(spans, counters)
    # The k-th dispatch span served the k-th frame (one connection, in
    # order); the shutdown frame's dispatch comes last and is dropped.
    server = [end - start for name, start, end, parent, _ in spans
              if name == ledger.DISPATCH_SPAN and parent < 0]
    server = server[:len(session["round_trip_s"])]
    out["stream.daemon.wait_s"] = sum(
        rtt - busy for rtt, busy in zip(session["round_trip_s"], server))
    out["stream.daemon.lateness_p99_ms"] = session["lateness_p99_ms"]
    # Daemon CPU seconds for the same frames, traced vs untraced.
    out["trace.overhead_pct"] = 100.0 * (traced.busy_s / untraced.busy_s - 1.0)
    return {"ledger": out, "ok": traced.ok and untraced.ok}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "traced"),
                        required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--spans", type=Path)
    args = parser.parse_args(argv)

    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](ROOT, args.seed)
    try:
        workload.setup()
        print("READY", flush=True)
        if args.mode == "setup":
            return 0
        if args.mode == "timed":
            result = _timed(workload, args.seconds)
        elif args.workload == "daemon_mixed":
            result = _traced_daemon(workload, args.spans)
        else:
            result = _traced_batch(workload, args.spans)
    finally:
        workload.close()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
