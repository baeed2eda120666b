"""Open-loop load generator for ``repro stream --serve``.

One process and one TCP connection, within the two cores of the
reference host; a single connection also keeps the daemon's reply
order, and so its reply sequence, deterministic.  A sender thread writes each pre-encoded frame when it
is due on a seeded Poisson schedule; the calling thread reads replies in
order.  Each frame is timed from when it was due, so a stall also
charges the frames queued behind it; how late the sender itself ran is
reported separately.  Error replies (``queue full`` included) and
frames still unanswered at the end count as failed, and as missing any
latency limit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import random
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import List, Optional

#: Daemon shape: ``--scale 10`` (10-node jobs on a 40-node partition).
SCALE = 10
MAX_PENDING = 64
#: Offered load: Poisson arrivals at this many frames per second, a few
#: percent of the daemon's capacity (~500 frames per CPU second on a
#: 2-core Xeon).  At 50-100 frames/s the queue amplified every slow
#: phase of a shared host and p50 of one run swung by a third between
#: runs.
RATE_PER_S = 20.0
#: Frame mix: submits, then stats reads, then budget moves.
SUBMIT_SHARE = 0.80
STATS_SHARE = 0.15
#: Budget moves stay within this share of the base budget, where a
#: single job always fits, so the seeded traffic never fills the queue.
BUDGET_RANGE = (0.70, 1.00)
#: Reply fingerprints are checked in blocks of this many frames.
BLOCK = 50
#: How long to wait for outstanding replies after the last send.
DRAIN_TIMEOUT_S = 20.0
LISTEN_TIMEOUT_S = 60.0

READY_PREFIX = "stream daemon listening on "


def daemon_argv() -> List[str]:
    """The ``repro`` command line that serves the daemon."""
    return ["--scale", str(SCALE), "stream", "--serve", "--port", "0",
            "--max-pending", str(MAX_PENDING)]


def src_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONUNBUFFERED"] = "1"
    return env


class DaemonProcess:
    """One daemon process: the unmodified program, or, with
    ``spans_path``, the benchmark's tracing launcher around it."""

    def __init__(self, root: Path, spans_path: Optional[Path] = None) -> None:
        self.root = root
        self.spans_path = spans_path
        self.proc: Optional[subprocess.Popen] = None
        self.address = ("127.0.0.1", 0)

    def start(self) -> float:
        """Launch and wait until listening; returns launch-to-listen s."""
        if self.spans_path is None:
            cmd = [sys.executable, "-m", "repro", *daemon_argv()]
        else:
            cmd = [sys.executable, str(self.root / "perfbench" / "launch_daemon.py"),
                   str(self.spans_path), *daemon_argv()]
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, cwd=self.root, env=src_env(self.root),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        )
        deadline = start + LISTEN_TIMEOUT_S
        line = ""
        while time.perf_counter() < deadline:
            line = self.proc.stdout.readline()
            if not line or line.startswith(READY_PREFIX):
                break
        if not line.startswith(READY_PREFIX):
            self.stop()
            raise RuntimeError("daemon did not start listening")
        elapsed = time.perf_counter() - start
        host, port = line[len(READY_PREFIX):].split()[0].rsplit(":", 1)
        self.address = (host, int(port))
        return elapsed

    def _proc_file(self, name: str) -> str:
        return Path(f"/proc/{self.proc.pid}/{name}").read_text()

    def peak_rss_mb(self) -> float:
        """The daemon's peak resident set (VmHWM)."""
        for line in self._proc_file("status").splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def cpu_s(self) -> float:
        """CPU seconds the daemon has run, at nanosecond resolution."""
        return int(self._proc_file("schedstat").split()[0]) / 1e9

    def stop(self) -> None:
        """Ask the daemon to shut down, then reap it (kill on timeout)."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            try:
                from repro.stream import messages as msg

                with socket.create_connection(self.address, timeout=5.0) as sock:
                    sock.sendall(msg.encode_message(msg.shutdown_message()))
                    sock.makefile("rb").readline()
            except OSError:
                pass
            try:
                self.proc.wait(timeout=15.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.proc = None


# ----------------------------------------------------------------------
# inputs
def max_frames(seconds: float) -> int:
    """A script length the schedule for ``seconds`` cannot exceed."""
    mean = RATE_PER_S * seconds
    return int(mean + 8.0 * math.sqrt(mean) + 16)


def script(variant: int, frames: int) -> List[bytes]:
    """The variant's frame sequence, pre-encoded; content depends only
    on the variant, never on timing."""
    from repro.manager.queue import JobRequest
    from repro.sim.engine import ExecutionModel
    from repro.stream import messages as msg
    from repro.workload.kernel import KernelConfig

    tdp_w = ExecutionModel().power_model.tdp_w
    base_budget_w = 4 * SCALE * 0.85 * tdp_w
    classes = (
        KernelConfig(intensity=0.25),
        KernelConfig(intensity=2.0),
        KernelConfig(intensity=8.0),
        KernelConfig(intensity=32.0),
        KernelConfig(intensity=2.0, waiting_fraction=0.5, imbalance=2),
        KernelConfig(intensity=16.0, waiting_fraction=0.25, imbalance=4),
    )
    rng = random.Random(f"daemon_mixed:{variant}")
    out = []
    for index in range(frames):
        draw = rng.random()
        if draw < SUBMIT_SHARE:
            request = JobRequest(
                name=f"v{variant}-{index}", config=rng.choice(classes),
                node_count=SCALE, iterations=rng.choice((10, 20, 30)),
                power_hint_w=0.8 * tdp_w,
            )
            message = msg.submit_message(request)
        elif draw < SUBMIT_SHARE + STATS_SHARE:
            message = msg.stats_message()
        else:
            message = msg.set_budget_message(
                base_budget_w * rng.uniform(*BUDGET_RANGE))
        out.append(msg.encode_message(message))
    return out


def schedule(seed: int, seconds: float) -> List[float]:
    """Seeded Poisson send offsets (s) within ``[0, seconds)``."""
    rng = random.Random(f"daemon_mixed-schedule:{seed}")
    due, t = [], rng.expovariate(RATE_PER_S)
    while t < seconds:
        due.append(t)
        t += rng.expovariate(RATE_PER_S)
    return due


# ----------------------------------------------------------------------
# sessions
@dataclasses.dataclass
class Session:
    due_s: List[float]
    sent_s: List[float]
    recv_s: List[Optional[float]]
    replies: List[Optional[bytes]]
    daemon_cpu_s: float

    @property
    def acked(self) -> int:
        return sum(1 for r in self.replies if r is not None and _is_ok(r))

    @property
    def latencies_s(self) -> List[float]:
        """Due-to-reply time per frame; ``inf`` for a failed frame."""
        return [recv - due if recv is not None and _is_ok(reply) else math.inf
                for due, recv, reply in zip(self.due_s, self.recv_s, self.replies)]

    def frame_ok(self, blocks_ok: List[bool]) -> List[bool]:
        return [reply is not None and _is_ok(reply) and blocks_ok[i // BLOCK]
                for i, reply in enumerate(self.replies)]

    def summary(self) -> dict:
        lateness = sorted(s - d for s, d in zip(self.sent_s, self.due_s))
        errors = sum(1 for r in self.replies if r is not None and not _is_ok(r))
        return {
            "frames": len(self.due_s),
            "errors": errors,
            "outstanding": sum(1 for r in self.replies if r is None),
            "lateness_p50_ms": 1e3 * lateness[len(lateness) // 2],
            "lateness_p99_ms": 1e3 * lateness[int(0.99 * (len(lateness) - 1))],
            "lateness_max_ms": 1e3 * lateness[-1],
            "round_trip_s": [r - s for s, r in zip(self.sent_s, self.recv_s)
                             if r is not None],
        }


def _is_ok(reply: bytes) -> bool:
    return b'"type":"error"' not in reply


def run_session(daemon: DaemonProcess, frames: List[bytes],
                due: List[float], closed_loop: bool = False) -> Session:
    """Send ``frames`` at the ``due`` offsets and collect the replies.

    ``closed_loop`` sends each frame only after the previous reply (the
    mode of ``make_reference.py``); ``due`` is then ignored for sending.
    """
    count = len(frames)
    sent = [0.0] * count
    recv: List[Optional[float]] = [None] * count
    replies: List[Optional[bytes]] = [None] * count
    sock = socket.create_connection(daemon.address, timeout=DRAIN_TIMEOUT_S)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    reader = sock.makefile("rb")
    cpu_before = daemon.cpu_s()
    start = time.perf_counter() + 0.05
    due_abs = [start + d for d in due]
    clock = time.perf_counter

    def send_all() -> None:
        try:
            for i, frame in enumerate(frames):
                delay = due_abs[i] - clock()
                if delay > 0:
                    time.sleep(delay)
                sent[i] = clock()
                sock.sendall(frame)
        except OSError:
            pass

    try:
        if closed_loop:
            for i, frame in enumerate(frames):
                sent[i] = due_abs[i] = clock()
                sock.sendall(frame)
                line = reader.readline()
                if not line:
                    break
                recv[i], replies[i] = clock(), line.rstrip(b"\n")
        else:
            sender = threading.Thread(target=send_all, daemon=True)
            sender.start()
            try:
                for i in range(count):
                    line = reader.readline()
                    if not line:
                        break
                    recv[i], replies[i] = clock(), line.rstrip(b"\n")
            except socket.timeout:
                pass
            sender.join(timeout=DRAIN_TIMEOUT_S)
        cpu_s = daemon.cpu_s() - cpu_before
    finally:
        reader.close()
        sock.close()
    return Session([d - start for d in due_abs] if closed_loop else due,
                   [s - start for s in sent],
                   [r - start if r is not None else None for r in recv],
                   replies, cpu_s)


# ----------------------------------------------------------------------
# reply fingerprints
def block_digests(replies: List[Optional[bytes]]) -> List[str]:
    """Hash chain over the reply sequence, one digest per full block."""
    digests, chain = [], hashlib.sha256()
    for i, reply in enumerate(replies):
        chain.update(reply if reply is not None else b"<missing>")
        chain.update(b"\n")
        if (i + 1) % BLOCK == 0:
            digests.append(chain.hexdigest()[:16])
    return digests


def check_replies(replies: List[Optional[bytes]],
                  reference: Optional[dict]) -> List[bool]:
    """Per-block match against the reference chain.  A trailing partial
    block, or one past the reference's end, is checked only frame by
    frame; a missing reference fails every block."""
    blocks = (len(replies) + BLOCK - 1) // BLOCK
    if reference is None:
        return [False] * blocks
    expected = reference["blocks"]
    got = block_digests(replies)
    return [got[b] == expected[b] if b < min(len(got), len(expected))
            else True for b in range(blocks)]
