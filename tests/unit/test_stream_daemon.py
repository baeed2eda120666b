"""Unit tests: the asyncio stream daemon (plain ``asyncio.run`` — no
pytest-asyncio dependency)."""

import asyncio
import json

import pytest

from repro.core.registry import create_policy
from repro.hardware.cluster import Cluster
from repro.stream import SiteStreamEngine, StreamDaemon, synthetic_job_factory
from repro.stream import messages as msg


def _engine(**kwargs):
    kwargs.setdefault("rolling", True)
    return SiteStreamEngine(
        Cluster(node_count=12, variation=None, seed=0),
        create_policy("StaticCaps"), 2500.0, **kwargs
    )


class _Client:
    """Line-framed test client that siphons pub/sub frames aside."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.events = []

    @classmethod
    async def connect(cls, host, port):
        return cls(*await asyncio.open_connection(host, port))

    async def rpc(self, message):
        self.writer.write(msg.encode_message(message))
        await self.writer.drain()
        while True:
            frame = json.loads(await self.reader.readline())
            if frame.get("type") == "event":
                self.events.append(frame)
                continue
            return frame

    async def close(self):
        self.writer.close()
        await self.writer.wait_closed()


async def _with_daemon(engine, body):
    daemon = StreamDaemon(engine)
    host, port = await daemon.start()
    client = await _Client.connect(host, port)
    try:
        return await body(daemon, client)
    finally:
        await client.close()
        await daemon.stop()


class TestDaemon:
    def test_requires_rolling_engine(self):
        with pytest.raises(ValueError, match="rolling"):
            StreamDaemon(_engine(rolling=False))

    def test_submit_runs_jobs_and_acks(self):
        async def body(daemon, client):
            factory = synthetic_job_factory(prefix="d")
            for i in range(3):
                reply = await client.rpc(msg.submit_message(factory(i)))
                assert reply["type"] == "ack"
                assert reply["name"] == f"d-{i}"
            reply = await client.rpc(msg.stats_message())
            assert reply["stats"]["jobs_completed"] == 3
            return reply

        asyncio.run(_with_daemon(_engine(), body))

    def test_pub_sub_delivers_bus_events(self):
        async def body(daemon, client):
            reply = await client.rpc(
                msg.subscribe_message(kinds=["batch_complete"])
            )
            assert reply["type"] == "ack"
            factory = synthetic_job_factory(prefix="s")
            await client.rpc(msg.submit_message(factory(0)))
            assert client.events
            frame = client.events[0]
            assert msg.validate_downstream(frame) == []
            assert frame["kind"] == "batch_complete"

        asyncio.run(_with_daemon(_engine(), body))

    def test_unsubscribe_stops_the_feed(self):
        async def body(daemon, client):
            await client.rpc(msg.subscribe_message())
            await client.rpc(msg.unsubscribe_message())
            client.events.clear()
            factory = synthetic_job_factory(prefix="u")
            await client.rpc(msg.submit_message(factory(0)))
            assert client.events == []

        asyncio.run(_with_daemon(_engine(), body))

    def test_malformed_and_invalid_frames_get_errors(self):
        async def body(daemon, client):
            client.writer.write(b"{broken\n")
            await client.writer.drain()
            frame = json.loads(await client.reader.readline())
            assert frame["type"] == "error"
            reply = await client.rpc(
                {"schema": msg.STREAM_SCHEMA, "op": "reboot"}
            )
            assert reply["type"] == "error"
            assert "unknown op" in reply["reason"]

        asyncio.run(_with_daemon(_engine(), body))

    def test_duplicate_name_is_an_error_not_a_crash(self):
        async def body(daemon, client):
            factory = synthetic_job_factory(prefix="dup")
            first = await client.rpc(msg.submit_message(factory(0)))
            assert first["type"] == "ack"
            again = await client.rpc(msg.submit_message(factory(0)))
            assert again["type"] == "error"
            # The daemon is still serving.
            reply = await client.rpc(msg.stats_message())
            assert reply["type"] == "stats"

        asyncio.run(_with_daemon(_engine(), body))

    def test_backpressure_surfaces_queue_full(self):
        engine = _engine(max_pending=1)
        # Occupy the queue before the daemon pumps: the daemon must
        # refuse further submissions with an error reply rather than
        # acking a job the engine would silently reject.
        factory = synthetic_job_factory(prefix="pre")
        engine.queue.submit(factory(0))

        async def body(daemon, client):
            reply = await client.rpc(msg.submit_message(factory(1)))
            assert reply["type"] == "error"
            assert reply["reason"] == "queue full"
            assert reply["max_pending"] == 1

        asyncio.run(_with_daemon(engine, body))

    @staticmethod
    def _count_characterizations(monkeypatch):
        """Record every ``characterize_mix`` call, whichever module binds it."""
        import sys

        from repro.characterization import mix_characterization

        calls = []
        original = mix_characterization.characterize_mix

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("repro") and \
                    getattr(module, "characterize_mix", None) is original:
                monkeypatch.setattr(module, "characterize_mix", counting)
        return calls

    def test_oversize_submit_rejected_before_enqueue(self, monkeypatch):
        # A job larger than the cluster is refused with an O(1) check:
        # nothing is queued, no stats move, and nothing is characterized
        # (a 20M-node estimate would take seconds and gigabytes).
        import dataclasses

        calls = self._count_characterizations(monkeypatch)
        engine = _engine()
        before = engine.stats.snapshot()
        factory = synthetic_job_factory()

        async def body(daemon, client):
            huge = dataclasses.replace(factory(0), node_count=20_000_000)
            reply = await client.rpc(msg.submit_message(huge))
            assert reply["type"] == "error"
            assert reply["node_count"] == 20_000_000
            assert reply["cluster_nodes"] == 12
            assert engine.stats.snapshot() == before
            assert len(engine.queue) == 0 and not engine.loop
            assert calls == []
            fits = dataclasses.replace(factory(1), node_count=12)
            reply = await client.rpc(msg.submit_message(fits))
            assert reply["type"] == "ack"
            assert calls  # the probe sees a job that does get planned

        asyncio.run(_with_daemon(engine, body))

    def test_huge_iterations_submit_rejected_before_enqueue(self,
                                                            monkeypatch):
        # One node for 10**13 iterations fits the cluster but not the
        # engine's (S, iterations, hosts) tensors: the O(1) host-iteration
        # bound refuses it before anything is queued, reserved or
        # characterized, and the engine keeps serving.
        import dataclasses

        from repro.stream.daemon import MAX_JOB_HOST_ITERATIONS

        calls = self._count_characterizations(monkeypatch)
        engine = _engine()
        before = engine.stats.snapshot()
        occupancy = (engine._in_flight, engine._reserved_w,
                     set(engine._free_ids))
        factory = synthetic_job_factory()

        async def body(daemon, client):
            huge = dataclasses.replace(factory(0), node_count=1,
                                       iterations=10**13)
            reply = await client.rpc(msg.submit_message(huge))
            assert reply["type"] == "error"
            assert reply["host_iterations"] == 10**13
            assert reply["max_host_iterations"] == MAX_JOB_HOST_ITERATIONS
            assert engine.stats.snapshot() == before
            assert (engine._in_flight, engine._reserved_w,
                    engine._free_ids) == occupancy
            assert len(engine.queue) == 0 and not engine.loop
            assert calls == []
            reply = await client.rpc(msg.submit_message(factory(1)))
            assert reply["type"] == "ack"
            assert calls
            assert (engine._in_flight, engine._reserved_w,
                    engine._free_ids) == occupancy

        asyncio.run(_with_daemon(engine, body))

    def test_host_iteration_bound_is_inclusive(self, monkeypatch):
        import dataclasses

        from repro.stream import daemon as daemon_module

        monkeypatch.setattr(daemon_module, "MAX_JOB_HOST_ITERATIONS", 12 * 30)
        factory = synthetic_job_factory()

        async def body(daemon, client):
            at_bound = dataclasses.replace(factory(0), node_count=12,
                                           iterations=30)
            reply = await client.rpc(msg.submit_message(at_bound))
            assert reply["type"] == "ack"
            over = dataclasses.replace(factory(1), node_count=12,
                                       iterations=31)
            reply = await client.rpc(msg.submit_message(over))
            assert reply["type"] == "error"
            assert reply["host_iterations"] == 12 * 31

        asyncio.run(_with_daemon(_engine(), body))

    def test_set_budget_round_trip(self):
        async def body(daemon, client):
            reply = await client.rpc(msg.set_budget_message(1200.0))
            assert reply["type"] == "ack"
            assert daemon.engine.budget_w == 1200.0

        asyncio.run(_with_daemon(_engine(), body))

    def test_shutdown_op_stops_serving(self):
        async def body():
            daemon = StreamDaemon(_engine())
            host, port = await daemon.start()
            serve = asyncio.create_task(daemon.serve_until_shutdown())
            client = await _Client.connect(host, port)
            reply = await client.rpc(msg.shutdown_message())
            assert reply["type"] == "ack"
            await asyncio.wait_for(serve, timeout=5.0)
            await client.close()

        asyncio.run(body())

    def test_two_clients_serialise_on_one_engine(self):
        async def body():
            daemon = StreamDaemon(_engine())
            host, port = await daemon.start()
            a = await _Client.connect(host, port)
            b = await _Client.connect(host, port)
            factory = synthetic_job_factory(prefix="pair")
            ra, rb = await asyncio.gather(
                a.rpc(msg.submit_message(factory(0))),
                b.rpc(msg.submit_message(factory(1))),
            )
            assert ra["type"] == "ack" and rb["type"] == "ack"
            reply = await a.rpc(msg.stats_message())
            assert reply["stats"]["arrivals"] == 2
            await a.close()
            await b.close()
            await daemon.stop()

        asyncio.run(body())


class TestObservability:
    def test_drop_oldest_increments_frames_dropped_counter(self):
        from repro.stream.daemon import _Subscriber
        from repro.telemetry import get_registry, reset

        reset()
        try:
            sub = _Subscriber(None, max_backlog=2)
            for i in range(5):
                sub.offer("src", "kind", {"i": i})
            assert sub.dropped == 3
            assert len(sub.buffer) == 2
            counters = get_registry().counter_values()
            assert counters["stream.daemon.frames_dropped"] == 3.0
        finally:
            reset()

    def test_drop_oldest_eviction_order(self):
        # Regression for the O(max_backlog)-per-drop list.pop(0) path:
        # the deque must still evict strictly oldest-first, keep exactly
        # the newest max_backlog frames in arrival order, and count
        # every drop.
        from repro.stream.daemon import _Subscriber
        from repro.telemetry import get_registry, reset

        reset()
        try:
            sub = _Subscriber(None, max_backlog=3)
            for i in range(8):
                sub.offer("src", "kind", {"i": i})
            assert sub.dropped == 5
            kept = [frame["payload"]["i"] for frame in sub.buffer]
            assert kept == [5, 6, 7]
            counters = get_registry().counter_values()
            assert counters["stream.daemon.frames_dropped"] == 5.0
            # Filtered-out kinds are never buffered, so they neither
            # evict nor count as drops.
            picky = _Subscriber(["wanted"], max_backlog=2)
            for i in range(4):
                picky.offer("src", "ignored", {"i": i})
            assert picky.dropped == 0
            assert len(picky.buffer) == 0
        finally:
            reset()

    def test_dispatch_emits_tracing_spans(self):
        from repro.telemetry import get_tracer, set_tracing

        async def body():
            async def inner(daemon, client):
                factory = synthetic_job_factory(prefix="traced")
                assert (await client.rpc(
                    msg.submit_message(factory(0))
                ))["type"] == "ack"
                assert (await client.rpc(
                    msg.stats_message()
                ))["type"] == "stats"

            await _with_daemon(_engine(), inner)

        previous = set_tracing(True)
        get_tracer().clear()
        try:
            asyncio.run(body())
            dispatches = get_tracer().finished("stream.daemon.dispatch")
            ops = [s.attributes["op"] for s in dispatches]
            assert "submit" in ops and "stats" in ops
        finally:
            set_tracing(previous)
            get_tracer().clear()
