"""Unit tests: fused facility engine mechanics and the shared caches.

The property suite pins the end-to-end identity contract (fused ≡
sharded ≡ serial); these tests pin the *mechanisms* at the function
level — the cross-cluster grouping key (same-structure batches share
one stacked engine pass, heterogeneous structures split), the bounded
stacked-layout memo with its one-row reuse across scenario counts, the
name-free shared characterization store, and the span-attributed
profile writer.
"""

import dataclasses

import numpy as np
import pytest

from repro.hierarchy import ClusterSpec, FacilityConfig, run_facility_simulation
from repro.sim import batch as sim_batch
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig


def _spec(name, jobs=3, iterations=4, **kwargs):
    return ClusterSpec(name=name, node_count=8, racks=2, nodes_per_job=2,
                       jobs=jobs, iterations=iterations, spacing_s=1.0,
                       **kwargs)


def _run_counting_passes(monkeypatch, config):
    """Run fused; returns (result, [scenario-count per engine pass])."""
    calls = []
    real = sim_batch.simulate_layout_batch

    def counting(mixes, *args, **kwargs):
        calls.append(len(mixes))
        return real(mixes, *args, **kwargs)

    monkeypatch.setattr(sim_batch, "simulate_layout_batch", counting)
    result = run_facility_simulation(config, engine="fused")
    return result, calls


class TestCrossClusterGrouping:
    def test_identical_clusters_share_one_pass_per_round(self, monkeypatch):
        # Two clusters with identical (job_boundaries, iterations)
        # structure: every lockstep round must run ONE stacked pass
        # covering both clusters — no round may split them.
        config = FacilityConfig(
            clusters=(_spec("a"), _spec("b")),
            budget_w=2 * 8 * 200.0, window_s=10.0, horizon_s=30.0, seed=3,
        )
        result, calls = _run_counting_passes(monkeypatch, config)
        assert calls, "expected staged engine passes"
        assert all(scenarios == 2 for scenarios in calls)
        assert result == run_facility_simulation(config, workers=1)

    def test_heterogeneous_structures_split(self, monkeypatch):
        # Different iteration counts cannot share a stacked pass: the
        # grouping key must split them while same-structure pairs fuse.
        config = FacilityConfig(
            clusters=(_spec("a", iterations=4), _spec("b", iterations=4),
                      _spec("c", iterations=6)),
            budget_w=3 * 8 * 200.0, window_s=10.0, horizon_s=30.0, seed=3,
        )
        result, calls = _run_counting_passes(monkeypatch, config)
        # Rounds where all three are co-resident split into a 2-row
        # pass (a+b) and a 1-row pass (c) — never a 3-row pass.
        assert max(calls) == 2
        assert 1 in calls
        assert result == run_facility_simulation(config, workers=1)

    def test_group_key_separates_batches(self):
        # A distinct group_key must force separate groups even for
        # identical structures (the cross-site isolation hook).
        from repro.core.registry import create_policy
        from repro.hardware.cluster import Cluster
        from repro.manager.power_manager import PowerManager
        from repro.manager.queue import JobRequest
        from repro.manager.site_simulation import (
            BatchPlanner,
            execute_planned_batches,
            plan_batch,
        )
        from repro.manager.admission import AdmissionDecision

        manager = PowerManager()
        policy = create_policy("MixedAdaptive")
        planner = BatchPlanner(manager, policy)
        cluster = Cluster(node_count=4, variation=None, seed=0)

        def planned(key):
            request = JobRequest(
                name=f"job-{key}", config=KernelConfig(intensity=8.0),
                node_count=4, iterations=3, power_hint_w=180.0,
            )
            decision = AdmissionDecision(
                (request.name,), (), {request.name: 180.0}, 900.0, 4,
            )
            batch = plan_batch(
                clock=0.0, batch_index=0, admitted=[request],
                decision=decision, host_efficiencies=cluster.efficiencies,
                planner=planner, budget_w=900.0, batch_budget_w=900.0,
                uniform_hosts=True,
            )
            return dataclasses.replace(batch, group_key=key)

        executions = execute_planned_batches(
            [planned("site-a"), planned("site-b")], manager, 0.0,
        )
        # Same structure + same seed + different group_key: identical
        # physics either way (grouping is invisible in results), and
        # both rows are real executions.
        assert executions[0].record.mean_power_w == \
            executions[1].record.mean_power_w


class TestStackedLayoutCacheReuse:
    def _layout(self, name="m", nodes=3):
        return WorkloadMix(name=name, jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=nodes, iterations=4),
        )).layout()

    def test_one_row_stack_reused_across_scenario_counts(self):
        # The fused engine's group sizes shrink as clusters drain; a
        # new scenario count must reuse the memoised one-row stack
        # (only the np.repeat fan-out differs), not re-gather physics.
        sim_batch._STACK_CACHE.clear()
        layout = self._layout()
        sim_batch._stack_layouts_cached([layout] * 5)
        single_entry = sim_batch._STACK_CACHE[(id(layout), 1)]
        sim_batch._stack_layouts_cached([layout] * 3)
        assert sim_batch._STACK_CACHE[(id(layout), 1)] is single_entry
        three = sim_batch._stack_layouts_cached([layout] * 3)
        np.testing.assert_array_equal(
            three.critical, sim_batch.stack_layouts([layout] * 3).critical
        )

    def test_cache_stays_bounded_under_fused_churn(self):
        sim_batch._STACK_CACHE.clear()
        layouts = [self._layout(name=f"m{i}", nodes=1 + i % 7)
                   for i in range(sim_batch._STACK_CACHE_LIMIT + 40)]
        for i, layout in enumerate(layouts):
            sim_batch._stack_layouts_cached([layout] * (1 + i % 4))
        info = sim_batch.stack_cache_info()
        assert info["entries"] <= info["limit"]
        assert info["limit"] == sim_batch._STACK_CACHE_LIMIT

    def test_stack_cache_info_counts_lookups(self):
        sim_batch._STACK_CACHE.clear()
        layout = self._layout()
        before = sim_batch.stack_cache_info()
        sim_batch._stack_layouts_cached([layout, layout])
        sim_batch._stack_layouts_cached([layout, layout])
        after = sim_batch.stack_cache_info()
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 1


def _char_equal(a, b):
    """Bitwise field equality (dataclass ``==`` chokes on arrays)."""
    return (
        a.mix_name == b.mix_name
        and np.array_equal(a.job_boundaries, b.job_boundaries)
        and np.array_equal(a.monitor_power_w, b.monitor_power_w)
        and np.array_equal(a.needed_power_w, b.needed_power_w)
        and np.array_equal(a.needed_cap_w, b.needed_cap_w)
        and a.min_cap_w == b.min_cap_w
        and a.tdp_w == b.tdp_w
    )


class TestSharedCharStore:
    def _mix(self, name, intensity=8.0):
        return WorkloadMix(name=name, jobs=(
            Job(name=f"{name}-j0", config=KernelConfig(intensity=intensity),
                node_count=2, iterations=4),
        ))

    def test_key_ignores_names(self):
        from repro.parallel import SharedCharStore

        store = SharedCharStore()
        eff = np.ones(2)
        model = None
        key_a = store.key_for(self._mix("alpha"), eff, model, 0.2)
        key_b = store.key_for(self._mix("beta"), eff, model, 0.2)
        key_c = store.key_for(self._mix("gamma", intensity=16.0), eff,
                              model, 0.2)
        assert key_a == key_b
        assert key_a != key_c

    def test_hit_is_bit_identical_and_relabelled(self):
        from repro.characterization import characterize_mix
        from repro.parallel import (
            activate_char_store,
            deactivate_char_store,
        )
        from repro.sim.execution import ExecutionModel

        model = ExecutionModel()
        eff = np.ones(2)
        store = activate_char_store()
        try:
            fresh = characterize_mix(self._mix("alpha"), eff, model)
            assert store.misses == 1
            shared = characterize_mix(self._mix("beta"), eff, model)
            assert store.hits == 1
            assert shared.mix_name == "beta"
            assert _char_equal(
                dataclasses.replace(shared, mix_name="alpha"), fresh
            )
        finally:
            deactivate_char_store()

    def test_disk_store_shares_across_instances(self, tmp_path):
        from repro.characterization import characterize_mix
        from repro.parallel import (
            SharedCharStore,
            activate_char_store,
            deactivate_char_store,
        )
        from repro.sim.execution import ExecutionModel

        model = ExecutionModel()
        eff = np.ones(2)
        try:
            activate_char_store(cache_dir=str(tmp_path))
            first = characterize_mix(self._mix("alpha"), eff, model)
            # A brand-new store over the same directory (another
            # process, in real runs) must hit through the disk tier.
            second_store = activate_char_store(
                SharedCharStore(cache_dir=str(tmp_path))
            )
            again = characterize_mix(self._mix("alpha"), eff, model)
            assert second_store.hits == 1
            assert _char_equal(again, first)
        finally:
            deactivate_char_store()

    def test_inactive_store_changes_nothing(self):
        from repro.characterization import characterize_mix
        from repro.parallel import active_char_store
        from repro.sim.execution import ExecutionModel

        assert active_char_store() is None
        char = characterize_mix(self._mix("alpha"), np.ones(2),
                                ExecutionModel())
        assert char.mix_name == "alpha"


class TestProfileWriter:
    def test_writes_span_attributed_report(self, tmp_path):
        from repro.telemetry import (
            get_tracer,
            profile_command,
            span,
            write_profile,
        )

        with profile_command() as profiler:
            with span("sim.probe"):
                np.linalg.norm(np.arange(512.0))
        pstats_path, txt_path = write_profile(
            tmp_path, profiler, get_tracer().finished()
        )
        assert pstats_path.exists()
        text = txt_path.read_text()
        assert "Span self time" in text
        assert "Hottest frames" in text
        assert "sim.probe" in text

    def test_span_self_times_subtracts_children(self):
        from repro.telemetry import Span, span_self_times

        parent = Span(name="outer", span_id="p", trace_id="t",
                      wall_s=2.0)
        child = Span(name="inner", span_id="c", trace_id="t",
                     parent_id="p", wall_s=1.5)
        rows = {name: (count, wall, self_s)
                for name, count, wall, self_s
                in span_self_times([parent, child])}
        assert rows["outer"][2] == pytest.approx(0.5)
        assert rows["inner"][2] == pytest.approx(1.5)


class TestLadderPlanMemo:
    CONFIG_KW = dict(clusters=4, nodes_per_cluster=96, jobs_per_cluster=8,
                     seed=3)

    def _degradation_counters(self, **engine_kw):
        from repro.experiments.facility_scale import (
            FacilityCampaignConfig,
            run_facility_campaign,
        )
        from repro.telemetry import get_registry, reset

        reset()
        result = run_facility_campaign(
            FacilityCampaignConfig(**self.CONFIG_KW), **engine_kw
        )
        counters = get_registry().snapshot()["counters"]
        return result, {
            name: value for name, value in counters.items()
            if name.startswith("faults.degradation.")
        }

    def test_counter_totals_equal_ladder_planned_batches(self):
        # Memo hits replay the ladder's telemetry: one tier count per
        # ladder-planned batch, as if every batch had run the ladder.
        fused, counters = self._degradation_counters(engine="fused")
        ladder_batches = sum(
            1 for outcome in fused.clusters
            for record in outcome.result.batches
            if record.degradation_tier != "none"
        )
        tiers = sum(value for name, value in counters.items()
                    if name != "faults.degradation.retries")
        assert ladder_batches > 0
        assert tiers == ladder_batches
        # ...and the same totals the scalar path (a fresh ladder run
        # per batch) records.
        serial, serial_counters = self._degradation_counters(workers=1)
        assert serial == fused
        assert counters == serial_counters
