"""Unit tests for the execution-model physics (forward and inverse maps)."""

import numpy as np
import pytest

from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig, VectorWidth


def _layout(intensity=8.0, nodes=6, waiting=0.0, imbalance=1, vector=VectorWidth.YMM):
    job = Job(
        name="t",
        config=KernelConfig(
            intensity=intensity,
            waiting_fraction=waiting,
            imbalance=imbalance,
            vector=vector,
        ),
        node_count=nodes,
    )
    return WorkloadMix(name="t", jobs=(job,)).layout()


class TestForward:
    def test_frequencies_shape(self, execution_model):
        layout = _layout()
        caps = np.full(6, 200.0)
        f = execution_model.frequencies(caps, layout, np.ones(6))
        assert f.shape == (6,)

    def test_higher_caps_never_slower(self, execution_model):
        layout = _layout()
        eff = np.ones(6)
        f_low = execution_model.frequencies(np.full(6, 150.0), layout, eff)
        f_high = execution_model.frequencies(np.full(6, 230.0), layout, eff)
        assert np.all(f_high >= f_low)

    def test_compute_time_positive(self, execution_model):
        layout = _layout()
        t = execution_model.compute_time(np.full(6, 2.0), layout)
        assert np.all(t > 0)

    def test_compute_time_decreases_with_freq_when_compute_bound(self, execution_model):
        layout = _layout(intensity=32.0)
        t_slow = execution_model.compute_time(np.full(6, 1.2), layout)
        t_fast = execution_model.compute_time(np.full(6, 2.2), layout)
        assert np.all(t_fast < t_slow)

    def test_zero_intensity_time_is_memory_time(self, execution_model):
        layout = _layout(intensity=0.0)
        t = execution_model.compute_time(np.full(6, 2.1), layout)
        bw = execution_model.roofline.bandwidth("DRAM").bw_gbps
        assert t[0] == pytest.approx(layout.traffic_gb[0] / bw)

    def test_critical_hosts_take_longer(self, execution_model):
        layout = _layout(waiting=0.5, imbalance=3)
        t = execution_model.compute_time(np.full(6, 2.0), layout)
        assert t[layout.critical].min() > t[~layout.critical].max()

    def test_compute_power_at_most_activity_limit(self, execution_model):
        layout = _layout()
        eff = np.ones(6)
        p = execution_model.compute_power(np.full(6, 240.0), layout, eff)
        uncapped = execution_model.power_model.uncapped_power(layout.kappa, eff)
        np.testing.assert_allclose(p, uncapped)

    def test_poll_power_below_compute_power_uncapped(self, execution_model):
        """At the hottest configuration the poll loop draws less than the
        compute phase."""
        layout = _layout(intensity=8.0)
        eff = np.ones(6)
        caps = np.full(6, 240.0)
        p_poll = execution_model.poll_power(caps, layout, eff)
        p_comp = execution_model.compute_power(caps, layout, eff)
        assert np.all(p_poll < p_comp)

    def test_operating_point_equals_the_separate_maps(self, execution_model):
        """One pass over both phases gives, bit for bit, the values of
        ``frequencies``, ``power_at_freq`` and ``poll_power``."""
        from repro.sim.batch import stack_layouts

        m = execution_model
        rng = np.random.default_rng(3)
        layout = _layout(waiting=0.5, imbalance=2)
        stacked = stack_layouts([layout, _layout(intensity=32.0)])
        cases = [
            (m.power_model.clamp_cap(rng.uniform(100, 260, 6)), layout,
             rng.uniform(0.9, 1.1, 6)),
            (m.power_model.clamp_cap(rng.uniform(100, 260, (3, 6))), layout,
             rng.uniform(0.9, 1.1, 6)),
            (m.power_model.clamp_cap(rng.uniform(100, 260, (2, 6))), stacked,
             rng.uniform(0.9, 1.1, (2, 6))),
        ]
        for caps, lay, eff in cases:
            freq, p_compute, p_poll = m.operating_point(caps, lay, eff)
            want = m.frequencies(caps, lay, eff)
            np.testing.assert_array_equal(freq, want)
            np.testing.assert_array_equal(
                p_compute, m.power_model.power_at_freq(want, lay.kappa, eff)
            )
            np.testing.assert_array_equal(p_poll, m.poll_power(caps, lay, eff))


class TestInverse:
    def test_required_frequency_meets_target(self, execution_model):
        """Running at the required frequency hits the target time (when
        the target is reachable inside the DVFS band)."""
        layout = _layout(intensity=16.0)
        t_at_base = execution_model.compute_time(np.full(6, 2.0), layout)
        target = t_at_base * 1.25  # slower target => lower freq suffices
        f_req = execution_model.required_frequency(layout, target)
        t_check = execution_model.compute_time(f_req, layout)
        np.testing.assert_allclose(t_check, target, rtol=1e-6)

    def test_required_frequency_clamps_to_band(self, execution_model):
        layout = _layout(intensity=16.0)
        spec = execution_model.power_model.spec
        f_fast = execution_model.required_frequency(layout, 1e-9)
        f_slow = execution_model.required_frequency(layout, 1e9)
        np.testing.assert_allclose(f_fast, spec.turbo_freq_ghz)
        np.testing.assert_allclose(f_slow, spec.min_freq_ghz)

    def test_required_frequency_rejects_nonpositive_target(self, execution_model):
        layout = _layout()
        with pytest.raises(ValueError):
            execution_model.required_frequency(layout, 0.0)

    def test_required_power_monotone_in_target(self, execution_model):
        """Tighter deadlines need more power."""
        layout = _layout(intensity=16.0)
        eff = np.ones(6)
        p_tight = execution_model.required_power(layout, 0.05, eff)
        p_loose = execution_model.required_power(layout, 0.5, eff)
        assert np.all(p_tight >= p_loose)

    def test_memory_bound_requires_little_frequency(self, execution_model):
        """A DRAM-bound kernel's bandwidth requirement is mostly
        frequency-insensitive, so generous targets need minimum freq."""
        layout = _layout(intensity=0.25)
        t_base = execution_model.compute_time(np.full(6, 2.1), layout)
        f_req = execution_model.required_frequency(layout, t_base * 2.0)
        spec = execution_model.power_model.spec
        np.testing.assert_allclose(f_req, spec.min_freq_ghz)


class TestJobCriticalTime:
    def test_balanced_job(self, execution_model):
        layout = _layout(nodes=4)
        caps = np.full(4, 200.0)
        t_crit = execution_model.job_critical_time(caps, layout, np.ones(4))
        t = execution_model.compute_time(
            execution_model.frequencies(caps, layout, np.ones(4)), layout
        )
        assert t_crit[0] == pytest.approx(t.max())

    def test_two_jobs_independent(self, execution_model):
        jobs = (
            Job(name="a", config=KernelConfig(intensity=32.0), node_count=3),
            Job(name="b", config=KernelConfig(intensity=0.25), node_count=3),
        )
        layout = WorkloadMix(name="m", jobs=jobs).layout()
        caps = np.full(6, 220.0)
        t_crit = execution_model.job_critical_time(caps, layout, np.ones(6))
        assert t_crit.shape == (2,)
        assert t_crit[0] != t_crit[1]
