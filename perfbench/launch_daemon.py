"""Run the ``repro`` CLI with the benchmark's call ledger installed.

Usage: ``python3 perfbench/launch_daemon.py SPANS_PATH REPRO_ARGS...``

The traced ``daemon_mixed`` run starts the daemon through this launcher
so that the daemon process carries the same wrappers as the benchmark
process; the spans are written to ``SPANS_PATH`` when the CLI returns.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.ledger import Recorder  # noqa: E402


def main() -> int:
    spans_path = Path(sys.argv[1])
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    try:
        return repro_main(sys.argv[2:])
    finally:
        recorder.write(spans_path)


if __name__ == "__main__":
    sys.exit(main())
