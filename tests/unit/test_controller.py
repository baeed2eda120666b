"""Unit tests for the runtime controller."""

import numpy as np
import pytest

from repro.runtime.controller import Controller
from repro.runtime.monitor import MonitorAgent
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.runtime.power_governor import PowerGovernorAgent
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig


def _job(nodes=5, intensity=8.0, waiting=0.0, imbalance=1):
    return Job(
        name="ctl",
        config=KernelConfig(
            intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
        ),
        node_count=nodes,
    )


class TestValidation:
    def test_efficiency_shape_checked(self):
        with pytest.raises(ValueError, match="efficiencies"):
            Controller(_job(nodes=5), np.ones(3), MonitorAgent())

    def test_initial_limit_shape_checked(self):
        ctl = Controller(_job(nodes=5), np.ones(5), MonitorAgent())
        with pytest.raises(ValueError, match="initial limits"):
            ctl.run(initial_limits_w=np.ones(2))

    def test_bad_epoch_budget(self):
        ctl = Controller(_job(nodes=5), np.ones(5), MonitorAgent())
        with pytest.raises(ValueError):
            ctl.run(max_epochs=0)

    @pytest.mark.parametrize("field", ["noise_std", "barrier_overhead_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
    def test_out_of_domain_scalars_rejected(self, field, value):
        """NaN, infinite and negative noise or barrier values fail at
        construction instead of running noise-free or producing
        NaN/infinite reports."""
        with pytest.raises(ValueError, match=field):
            Controller(_job(nodes=3), np.ones(3), MonitorAgent(),
                       **{field: value})

    @pytest.mark.parametrize(
        "field", ["job", "efficiencies", "agent", "noise_std",
                  "barrier_overhead_s", "fault_injector", "model"],
    )
    def test_run_fields_are_read_only(self, field):
        """The run spec is the one copy of a controller's settings: a
        write fails instead of being silently ignored."""
        ctl = Controller(_job(nodes=3), np.ones(3), MonitorAgent(),
                         noise_std=0.01)
        assert getattr(ctl, field) is not None or field == "fault_injector"
        with pytest.raises(AttributeError):
            setattr(ctl, field, getattr(ctl, field))

    def test_steady_state_before_run_raises(self):
        ctl = Controller(_job(), np.ones(5), MonitorAgent())
        with pytest.raises(RuntimeError):
            ctl.steady_state_sample()
        with pytest.raises(RuntimeError):
            ctl.final_limits_w()


class TestMonitorRun:
    def test_report_covers_all_hosts(self):
        ctl = Controller(_job(nodes=5), np.ones(5), MonitorAgent())
        report = ctl.run(max_epochs=4, min_epochs=4)
        assert report.host_count == 5
        assert report.agent == "monitor"
        assert all(h.epochs == 4 for h in report.hosts)

    def test_monitor_keeps_tdp_limits(self):
        ctl = Controller(_job(nodes=3), np.ones(3), MonitorAgent())
        ctl.run(max_epochs=3, min_epochs=3)
        np.testing.assert_allclose(ctl.final_limits_w(), 240.0)

    def test_monitor_power_matches_uncapped_draw(self, execution_model):
        """The report's mean power equals the analytic uncapped draw for a
        balanced job (the Fig. 4 measurement)."""
        job = _job(nodes=3, intensity=8.0)
        ctl = Controller(job, np.ones(3), MonitorAgent(), model=execution_model)
        report = ctl.run(max_epochs=3, min_epochs=3)
        expected = execution_model.power_model.uncapped_power(job.config.kappa)
        # The per-iteration barrier overhead is spent polling at slightly
        # lower activity, shaving a fraction of a watt off the mean.
        np.testing.assert_allclose(report.mean_power_w(), expected, rtol=3e-3)

    def test_noise_seed_reproducible(self):
        a = Controller(_job(), np.ones(5), MonitorAgent(), noise_std=0.01, seed=3)
        b = Controller(_job(), np.ones(5), MonitorAgent(), noise_std=0.01, seed=3)
        ra = a.run(max_epochs=3, min_epochs=3)
        rb = b.run(max_epochs=3, min_epochs=3)
        np.testing.assert_array_equal(ra.runtime_s(), rb.runtime_s())


class TestGovernorRun:
    def test_limits_follow_budget(self):
        agent = PowerGovernorAgent(job_budget_w=5 * 180.0)
        ctl = Controller(_job(nodes=5), np.ones(5), agent)
        ctl.run(max_epochs=3, min_epochs=3)
        np.testing.assert_allclose(ctl.final_limits_w(), 180.0)


class TestBalancerRun:
    def test_converges_within_budget(self):
        job = _job(nodes=6, intensity=16.0, waiting=0.5, imbalance=3)
        agent = PowerBalancerAgent(job_budget_w=6 * 240.0)
        ctl = Controller(job, np.ones(6), agent)
        ctl.run(max_epochs=200)
        assert agent.converged()

    def test_waiting_hosts_end_lower(self):
        job = _job(nodes=6, intensity=16.0, waiting=0.5, imbalance=3)
        agent = PowerBalancerAgent(job_budget_w=6 * 240.0)
        ctl = Controller(job, np.ones(6), agent)
        ctl.run(max_epochs=200)
        limits = ctl.final_limits_w()
        n_crit = job.critical_node_count()
        assert limits[n_crit:].max() < limits[:n_crit].min()

    def test_epoch_history_recorded(self):
        job = _job(nodes=4)
        agent = PowerBalancerAgent(job_budget_w=4 * 240.0)
        ctl = Controller(job, np.ones(4), agent)
        ctl.run(max_epochs=50)
        assert len(ctl.history) >= 3
        assert ctl.history[0].epoch == 0

    def test_figure_of_merit_is_mean_epoch_time(self):
        ctl = Controller(_job(nodes=3), np.ones(3), MonitorAgent())
        report = ctl.run(max_epochs=4, min_epochs=4)
        times = [rec.sample.epoch_time_s for rec in ctl.history]
        assert report.figure_of_merit == pytest.approx(float(np.mean(times)))
