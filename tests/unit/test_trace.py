"""Unit tests for GEOPM-style trace collection."""

import numpy as np
import pytest

from repro import telemetry
from repro.runtime.agent import PlatformSample
from repro.runtime.controller import Controller
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.runtime.trace import JobTrace, TraceWriter, attach_tracer
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig
from tests import controller_oracle as oracle


def _sample(epoch, n=3):
    return PlatformSample(
        epoch=epoch,
        host_time_s=np.full(n, 0.5),
        epoch_time_s=0.5,
        host_power_w=np.full(n, 200.0),
        power_limit_w=np.full(n, 220.0),
        host_energy_j=np.full(n, 100.0),
        mean_freq_ghz=np.full(n, 2.0),
    )


class TestTraceWriter:
    def test_records_per_host(self):
        writer = TraceWriter("job")
        writer.record(_sample(0, n=4))
        assert len(writer.trace) == 4
        assert writer.trace.hosts == 4
        assert writer.trace.epochs == 1

    def test_multiple_epochs(self):
        writer = TraceWriter("job")
        for e in range(3):
            writer.record(_sample(e))
        assert writer.trace.epochs == 3
        assert len(writer.trace) == 9


class TestJobTrace:
    @pytest.fixture()
    def trace(self):
        writer = TraceWriter("job")
        for e in range(4):
            writer.record(_sample(e))
        return writer.trace

    def test_column(self, trace):
        col = trace.column("power_w")
        assert col.shape == (12,)
        np.testing.assert_allclose(col, 200.0)

    def test_column_single_host(self, trace):
        col = trace.column("epoch_time_s", host=1)
        assert col.shape == (4,)

    def test_unknown_column_raises(self, trace):
        with pytest.raises(KeyError, match="unknown trace column"):
            trace.column("teraflops")

    def test_limit_history_shape(self, trace):
        history = trace.limit_history()
        assert history.shape == (4, 3)
        assert not np.any(np.isnan(history))

    def test_to_csv(self, trace, tmp_path):
        path = trace.to_csv(tmp_path / "trace.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 12
        assert lines[0].startswith("epoch,host,")

    def test_to_csv_empty_trace_writes_header_only(self, tmp_path):
        """Regression: an empty trace used to export an empty file."""
        path = JobTrace(job_name="idle").to_csv(tmp_path / "empty.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("epoch,host,")


class TestAttachTracer:
    def test_captures_controller_run(self, execution_model):
        job = Job(
            name="t",
            config=KernelConfig(intensity=8.0, waiting_fraction=0.5, imbalance=2),
            node_count=4,
        )
        agent = PowerBalancerAgent(job_budget_w=4 * 240.0)
        controller = Controller(job, np.ones(4), agent, model=execution_model)
        writer = attach_tracer(controller)
        controller.run(max_epochs=50)
        assert writer.trace.epochs == len(controller.history)
        assert writer.trace.hosts == 4

    def test_trace_shows_balancer_convergence(self, execution_model):
        """The limit history converges: last-epoch step is tiny compared
        to the first cut."""
        job = Job(
            name="t",
            config=KernelConfig(intensity=16.0, waiting_fraction=0.5, imbalance=3),
            node_count=6,
        )
        agent = PowerBalancerAgent(job_budget_w=6 * 240.0)
        controller = Controller(job, np.ones(6), agent, model=execution_model)
        writer = attach_tracer(controller)
        controller.run(max_epochs=200)
        history = writer.trace.limit_history()
        steps = np.max(np.abs(np.diff(history, axis=0)), axis=1)
        biggest = float(np.max(steps))
        last_step = float(steps[-1])
        assert biggest > 1.0  # the balancer did move limits
        assert last_step < biggest / 10

    def test_rows_equal_oracle_controller_trace(self, execution_model):
        """Trace rows fed after each run equal the rows the frozen serial
        controller recorded epoch by epoch, over two runs."""
        job = Job(
            name="t",
            config=KernelConfig(intensity=16.0, waiting_fraction=0.5, imbalance=3),
            node_count=6,
        )
        eff = np.linspace(0.96, 1.04, 6)
        ref = oracle.Controller(
            job, eff, oracle.PowerBalancerAgent(job_budget_w=6 * 240.0),
            model=execution_model, noise_std=0.01, seed=11,
        )
        ref_writer = oracle.attach_tracer(ref)
        for max_epochs in (7, 40):
            ref.run(max_epochs=max_epochs)
        ref_writer.close()

        controller = Controller(
            job, eff, PowerBalancerAgent(job_budget_w=6 * 240.0),
            model=execution_model, noise_std=0.01, seed=11,
        )
        writer = attach_tracer(controller)
        for max_epochs in (7, 40):
            controller.run(max_epochs=max_epochs)
        writer.close()
        assert len(writer.trace) > 7 * 6
        assert writer.trace.records == ref_writer.trace.records

    def test_epoch_samples_follow_the_run_events(self, execution_model):
        """The tracer is fed when the run finishes: its epoch samples come
        after the run's ``run_complete`` event, in epoch order."""
        job = Job(name="t", config=KernelConfig(intensity=8.0), node_count=3)
        controller = Controller(job, np.ones(3), PowerBalancerAgent(720.0),
                                model=execution_model)
        writer = attach_tracer(controller)
        telemetry.reset()
        try:
            controller.run(max_epochs=10)
            events = [e for e in telemetry.get_bus().events()
                      if e.source in ("runtime.controller", "runtime.trace")]
        finally:
            writer.close()
            telemetry.reset()
        assert [e.kind for e in events] == (
            ["run_complete"] + ["epoch_sample"] * len(controller.history)
        )
        assert [e.payload["epoch"] for e in events[1:]] == list(
            range(len(controller.history))
        )
