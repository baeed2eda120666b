"""Unit tests: the batched scenario engine and its consumers."""

import dataclasses

import numpy as np
import pytest

from repro import telemetry
from repro.characterization.mix_characterization import (
    characterize_mix,
    characterize_mix_batch,
)
from repro.parallel.cache import CharacterizationCache, activate_cache, deactivate_cache
from repro.sim.batch import LayoutBatch, simulate_cap_batch, stack_layouts
from repro.sim.execution import DEFAULT_OPTIONS, SimulationOptions, simulate_mix
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


@pytest.fixture(autouse=True)
def _fresh_global_state():
    telemetry.reset()
    yield
    telemetry.reset()
    deactivate_cache()


def make_mix(iterations: int = 6) -> WorkloadMix:
    jobs = (
        Job(name="a", config=KernelConfig(intensity=8.0, waiting_fraction=0.5,
                                          imbalance=2),
            node_count=4, iterations=iterations),
        Job(name="b", config=KernelConfig(intensity=0.25),
            node_count=3, iterations=iterations),
    )
    return WorkloadMix(name="unit", jobs=jobs)


def rand_inputs(mix, scenarios=4, seed=11):
    rng = np.random.default_rng(seed)
    caps = rng.uniform(130.0, 250.0, (scenarios, mix.total_nodes))
    eff = rng.uniform(0.9, 1.1, mix.total_nodes)
    return caps, eff


class TestSimulateCapBatch:
    def test_rejects_wrong_cap_shape(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="caps_sw must have shape"):
            simulate_cap_batch(mix, caps[0], eff)
        with pytest.raises(ValueError, match="caps_sw must have shape"):
            simulate_cap_batch(mix, caps[:, :-1], eff)

    def test_rejects_wrong_efficiency_shape(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="efficiencies must have shape"):
            simulate_cap_batch(mix, caps, eff[:-1])

    def test_rejects_mismatched_seed_length(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="seeds must have length"):
            simulate_cap_batch(mix, caps, eff, seeds=[1, 2])

    def test_rejects_mismatched_metadata_length(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="policy_names"):
            simulate_cap_batch(mix, caps, eff, policy_names=["only-one"])
        with pytest.raises(ValueError, match="budgets_w"):
            simulate_cap_batch(mix, caps, eff, budgets_w=[1.0, 2.0])

    def test_matches_serial_noisy_and_quiet(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix, scenarios=5)
        seeds = [3, 1, 4, 1, 5]
        for noise in (0.0, 0.01):
            options = SimulationOptions(noise_std=noise, seed=0)
            batch = simulate_cap_batch(mix, caps, eff, options=options, seeds=seeds)
            for s in range(5):
                serial = simulate_mix(
                    mix, caps[s], eff,
                    options=dataclasses.replace(options, seed=seeds[s]),
                )
                assert batch[s] == serial

    def test_single_scenario_single_job(self):
        job = Job(name="solo", config=KernelConfig(intensity=2.0),
                  node_count=1, iterations=3)
        mix = WorkloadMix(name="solo", jobs=(job,))
        caps = np.array([[181.5]])
        eff = np.array([1.02])
        batch = simulate_cap_batch(mix, caps, eff)
        assert len(batch) == 1
        assert batch[0] == simulate_mix(mix, caps[0], eff, options=DEFAULT_OPTIONS)

    def test_shares_cache_entries_with_serial(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix, scenarios=3)
        seeds = [7, 8, 9]
        options = SimulationOptions(noise_std=0.01, seed=0)
        cache = activate_cache(CharacterizationCache())
        try:
            first = simulate_cap_batch(mix, caps, eff, options=options, seeds=seeds)
            assert cache.stats()["misses"] == 3
            again = simulate_cap_batch(mix, caps, eff, options=options, seeds=seeds)
            assert cache.stats()["hits"] == 3
            assert all(a == b for a, b in zip(first, again))
            # A serial call with the matching per-scenario options hits the
            # entry the batch stored.
            serial = simulate_mix(
                mix, caps[1], eff,
                options=dataclasses.replace(options, seed=seeds[1]),
            )
            assert cache.stats()["hits"] == 4
            assert serial == first[1]
        finally:
            deactivate_cache()

    def test_batch_telemetry(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix, scenarios=3)
        simulate_cap_batch(mix, caps, eff)
        registry = telemetry.get_registry()
        assert registry.counter("sim.execution.batch_runs").value == 1
        assert registry.counter("sim.execution.runs").value == 3
        kinds = [e.kind for e in telemetry.get_bus().events()]
        assert "mix_batch_simulated" in kinds

    def test_batch_telemetry_counts_cache_hits(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix, scenarios=3)
        activate_cache(CharacterizationCache())
        try:
            simulate_cap_batch(mix, caps, eff)
            simulate_cap_batch(mix, caps, eff)
        finally:
            deactivate_cache()
        registry = telemetry.get_registry()
        assert registry.counter("sim.execution.runs").value == 3
        assert registry.counter("sim.execution.cache_hits").value == 3


class TestSerialCacheTelemetry:
    def test_cache_hit_counted_and_event_emitted(self):
        mix = make_mix()
        caps, eff = rand_inputs(mix, scenarios=1)
        activate_cache(CharacterizationCache())
        try:
            simulate_mix(mix, caps[0], eff)
            simulate_mix(mix, caps[0], eff)
        finally:
            deactivate_cache()
        registry = telemetry.get_registry()
        assert registry.counter("sim.execution.runs").value == 1
        assert registry.counter("sim.execution.cache_hits").value == 1
        kinds = [e.kind for e in telemetry.get_bus().events()]
        assert "mix_simulated_cached" in kinds


class TestStackLayouts:
    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one layout"):
            stack_layouts([])

    def test_rejects_mismatched_job_structure(self):
        a = make_mix().layout()
        solo = WorkloadMix(
            name="solo",
            jobs=(Job(name="s", config=KernelConfig(intensity=1.0),
                      node_count=7, iterations=6),),
        ).layout()
        with pytest.raises(ValueError, match="job block structure"):
            stack_layouts([a, solo])

    def test_unions_ceiling_vocabularies(self):
        from repro.workload.kernel import Precision, VectorWidth

        mixes = [
            WorkloadMix(
                name=f"m{i}",
                jobs=(Job(name="j", config=cfg, node_count=3, iterations=1),),
            )
            for i, cfg in enumerate(
                [
                    KernelConfig(intensity=4.0, vector=VectorWidth.YMM),
                    KernelConfig(intensity=4.0, vector=VectorWidth.XMM),
                    KernelConfig(intensity=4.0, precision=Precision.SINGLE),
                ]
            )
        ]
        layouts = [m.layout() for m in mixes]
        batch = stack_layouts(layouts)
        assert isinstance(batch, LayoutBatch)
        assert batch.scenario_count == 3
        assert batch.host_count == 3
        assert len(set(batch.ceiling_names)) == len(batch.ceiling_names)
        for s, layout in enumerate(layouts):
            resolved = [batch.ceiling_names[i]
                        for i in batch.compute_ceiling_index[s]]
            expected = [layout.ceiling_names[i]
                        for i in layout.compute_ceiling_index]
            assert resolved == expected
            assert np.array_equal(batch.kappa[s], layout.kappa)

    def test_take_gathers_scenario_rows(self):
        layouts = [
            WorkloadMix(
                name=f"m{i}",
                jobs=(Job(name="j", config=KernelConfig(intensity=x),
                          node_count=3, iterations=1),),
            ).layout()
            for i, x in enumerate([1.0, 4.0, 16.0])
        ]
        batch = stack_layouts(layouts)
        for rows in (np.array([2, 0]), np.array([False, True, True])):
            taken = batch.take(rows)
            assert taken.job_index is batch.job_index
            assert taken.ceiling_names == batch.ceiling_names
            for f in dataclasses.fields(LayoutBatch):
                value = getattr(batch, f.name)
                if f.name not in ("job_index", "job_boundaries",
                                  "ceiling_names"):
                    np.testing.assert_array_equal(
                        getattr(taken, f.name), value[rows]
                    )


class TestCharacterizeMixBatch:
    def test_matches_serial_per_fraction(self):
        mix = make_mix()
        _, eff = rand_inputs(mix)
        fractions = [0.25, 0.5, 1.0]
        batch = characterize_mix_batch(mix, eff, fractions)
        for fraction, char in zip(fractions, batch):
            serial = characterize_mix(mix, eff, harvest_fraction=fraction)
            assert np.array_equal(char.monitor_power_w, serial.monitor_power_w)
            assert np.array_equal(char.needed_power_w, serial.needed_power_w)
            assert np.array_equal(char.needed_cap_w, serial.needed_cap_w)
            assert char.min_cap_w == serial.min_cap_w

    def test_rejects_bad_fraction(self):
        mix = make_mix()
        _, eff = rand_inputs(mix)
        with pytest.raises(ValueError, match="harvest_fraction"):
            characterize_mix_batch(mix, eff, [0.5, 0.0])

    def test_shares_cache_with_serial(self):
        mix = make_mix()
        _, eff = rand_inputs(mix)
        cache = activate_cache(CharacterizationCache())
        try:
            characterize_mix_batch(mix, eff, [0.3, 0.9])
            assert cache.stats()["misses"] == 2
            serial = characterize_mix(mix, eff, harvest_fraction=0.9)
            assert cache.stats()["hits"] == 1
            batch = characterize_mix_batch(mix, eff, [0.3, 0.9])
            assert cache.stats()["hits"] == 3
            assert np.array_equal(batch[1].needed_cap_w, serial.needed_cap_w)
        finally:
            deactivate_cache()


class TestHotPathMemoization:
    def test_layout_is_memoized_and_read_only(self):
        mix = make_mix()
        layout = mix.layout()
        assert mix.layout() is layout
        for array in (layout.kappa, layout.gflop, layout.traffic_gb,
                      layout.job_index, layout.job_boundaries):
            assert not array.flags.writeable

    def test_common_iterations_memoized_and_validating(self):
        mix = make_mix(iterations=9)
        assert mix.common_iterations() == 9
        bad = WorkloadMix(
            name="bad",
            jobs=(
                Job(name="a", config=KernelConfig(intensity=1.0),
                    node_count=2, iterations=3),
                Job(name="b", config=KernelConfig(intensity=1.0),
                    node_count=2, iterations=4),
            ),
        )
        with pytest.raises(ValueError, match="same iteration count"):
            bad.common_iterations()

    def test_kernel_kappa_precomputed(self):
        config = KernelConfig(intensity=8.0)
        assert config.kappa == config._kappa
        from repro.workload.kernel import activity_factor

        assert config.kappa == float(activity_factor(8.0))
