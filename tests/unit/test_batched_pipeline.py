"""Unit tests: the staged batch pipeline and its caches.

Every site batch runs ``plan_batch`` → ``execute_planned_batches`` →
``finish_planned_batch``.  These tests pin the pipeline's contract at
the function level — bit-identity to the frozen scalar reference
(``tests/batch_oracle.py``), memo-hit object reuse, bounded memo
levels, trusted-constructor semantics, and the stacked-layout identity
cache — independently of the event loop (which the stream property
suite covers end to end).
"""

import numpy as np
import pytest

from repro.core.registry import create_policy
from repro.faults.schedule import FaultSchedule
from repro.hardware.cluster import Cluster
from repro.manager.admission import AdmissionDecision
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobRequest
from repro.manager.scheduler import ScheduledMix, Scheduler
from repro.manager.site_simulation import (
    BatchPlanner,
    execute_planned_batches,
    plan_batch,
)
from repro.sim import batch as sim_batch
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig
from tests.batch_oracle import execute_admitted_batch


def _request(name, nodes=3, intensity=8.0, iterations=5, hint=180.0):
    return JobRequest(
        name=name, config=KernelConfig(intensity=intensity),
        node_count=nodes, iterations=iterations, power_hint_w=hint,
    )


def _decision(admitted, budget_w=2500.0, nodes=12):
    return AdmissionDecision(
        tuple(r.name for r in admitted), (),
        {r.name: float(r.power_hint_w) for r in admitted},
        budget_w, nodes,
    )


def _monolithic(clock, index, admitted, decision, cluster, policy,
                budget_w, manager):
    node_ids = tuple(range(sum(r.node_count for r in admitted)))
    return execute_admitted_batch(
        clock=clock, batch_index=index, admitted=admitted,
        decision=decision, batch_cluster=cluster.subset(node_ids),
        policy=policy, budget_w=budget_w, batch_budget_w=budget_w,
        quarantined=(), manager=manager, noise_std=0.0, run_seed=None,
        fault_schedule=None, degradation=None, reaction_s=0.0,
        injecting=False,
    )


def _staged(clock, index, admitted, decision, cluster, policy,
            budget_w, manager, planner=None, uniform=False):
    hosts = sum(r.node_count for r in admitted)
    eff = cluster.efficiencies[:hosts]
    if planner is None:
        planner = BatchPlanner(manager, policy)
    return plan_batch(
        clock=clock, batch_index=index, admitted=admitted,
        decision=decision,
        host_efficiencies=eff if uniform else eff.copy(),
        planner=planner, budget_w=budget_w, batch_budget_w=budget_w,
        quarantined=(), run_seed=None, uniform_hosts=uniform,
    )


class TestStagedPipelineIdentity:
    @pytest.mark.parametrize("variation_seed", [None, 5])
    def test_matches_monolithic_batch(self, variation_seed):
        if variation_seed is None:
            cluster = Cluster(node_count=12, variation=None, seed=0)
        else:
            cluster = Cluster(node_count=12, seed=variation_seed)
        uniform = variation_seed is None
        policy = create_policy("MixedAdaptive")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        batches = [
            [_request("a0", nodes=3), _request("a1", nodes=2)],
            [_request("b0", nodes=4, intensity=2.0)],
        ]
        planned, expected = [], []
        for index, admitted in enumerate(batches):
            decision = _decision(admitted)
            expected.append(_monolithic(
                10.0 * index, index, admitted, decision, cluster,
                policy, 2500.0, manager,
            ))
            planned.append(_staged(
                10.0 * index, index, admitted, decision, cluster,
                policy, 2500.0, manager, planner=planner, uniform=uniform,
            ))
        executed = execute_planned_batches(planned, manager, 0.0)
        assert executed == expected

    def test_grouping_preserves_input_order(self):
        cluster = Cluster(node_count=16, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        # Two interleaved shapes: grouping must not reorder executions.
        shapes = [3, 5, 3, 5]
        planned = []
        for index, nodes in enumerate(shapes):
            admitted = [_request(f"j{index}", nodes=nodes)]
            planned.append(_staged(
                float(index), index, admitted, _decision(admitted),
                cluster, policy, 2500.0, manager, planner=planner,
                uniform=True,
            ))
        executed = execute_planned_batches(planned, manager, 0.0)
        assert [e.record.start_s for e in executed] == \
            [float(i) for i in range(len(shapes))]
        assert [e.job_names for e in executed] == \
            [(f"j{i}",) for i in range(len(shapes))]


    @pytest.mark.parametrize("schedule", [
        FaultSchedule(name="drop").budget_drop(5.0, 700.0),
        FaultSchedule(name="dropout").sensor_dropout(0.0, 12.0),
        FaultSchedule(name="stuck").cap_stuck(0.0, [0, 2], 150.0),
        FaultSchedule(name="error").cap_error(5.0, [1], duration_s=30.0),
        FaultSchedule(name="burst").noise_burst(0.0, 12.0, 0.08),
    ], ids=lambda schedule: schedule.name)
    def test_fault_rows_match_frozen_path(self, schedule):
        # Faulted rows share one stage-2 call with a fault-free row;
        # rows carrying an engine-fault slice run as their own groups.
        cluster = Cluster(node_count=12, seed=5)
        policy = create_policy("MixedAdaptive")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        planned, expected = [], []
        for index in range(4):
            admitted = [_request(f"j{index}", nodes=4)]
            decision = _decision(admitted)
            clock = 5.0 * index
            faults = schedule if index != 2 else None
            budget = faults.budget_at(clock, 900.0) if faults else 900.0
            expected.append(execute_admitted_batch(
                clock=clock, batch_index=index, admitted=admitted,
                decision=decision, batch_cluster=cluster.subset(range(4)),
                policy=policy, budget_w=900.0, batch_budget_w=budget,
                quarantined=(), manager=manager, noise_std=0.02,
                run_seed=3, fault_schedule=faults, degradation=None,
                reaction_s=1.0, injecting=faults is not None,
            ))
            planned.append(plan_batch(
                clock=clock, batch_index=index, admitted=admitted,
                decision=decision,
                host_efficiencies=cluster.efficiencies[:4].copy(),
                planner=planner, budget_w=900.0, batch_budget_w=budget,
                run_seed=3, fault_schedule=faults,
            ))
        assert execute_planned_batches(planned, manager, 0.02) == expected
        if schedule.name in ("stuck", "error", "burst"):
            assert planned[0].engine_faults is not None
        if schedule.name == "dropout":
            assert expected[0].record.degradation_tier == "clamp"


class TestGroupComplianceAccounting:
    def test_group_overshoot_matches_per_row_property(self):
        # Stage 3 derives each budget-only fault row's overshoot in one
        # group-wide reduction; every record must equal the per-row
        # ``budget_overshoot_watt_seconds`` chain bit for bit.
        import dataclasses

        from repro.faults.schedule import FaultSchedule
        from repro.manager.site_simulation import finish_planned_batch
        from repro.sim.execution import SimulationOptions, simulate_mix

        cluster = Cluster(node_count=12, seed=5)
        policy = create_policy("MixedAdaptive")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        schedule = FaultSchedule(name="dip").budget_drop(2.0, 500.0)
        planned = []
        for index, launch_w in enumerate([600.0, 700.0, 2500.0, 650.0]):
            admitted = [_request(f"j{index}", nodes=4)]
            batch = _staged(
                float(index), index, admitted, _decision(admitted),
                cluster, policy, 2500.0, manager, planner=planner,
            )
            planned.append(dataclasses.replace(
                batch, batch_budget_w=launch_w, sim_budget_w=launch_w,
                fault_schedule=schedule if index != 2 else None,
            ))
        grouped = execute_planned_batches(planned, manager, 0.02)
        per_row = [
            finish_planned_batch(batch, simulate_mix(
                batch.mix, batch.effective_caps, batch.scheduled.efficiencies,
                manager.model,
                SimulationOptions(noise_std=0.02, seed=batch.batch_seed),
                policy_name=policy.name, budget_w=batch.sim_budget_w,
            ))
            for batch in planned
        ]
        assert grouped == per_row
        overshoots = [e.record.planned_overshoot_ws for e in grouped]
        assert sum(1 for o in overshoots if o > 0.0) >= 2
        assert overshoots[2] == 0.0


class TestBatchPlannerMemo:
    def test_same_shape_reuses_caps_object(self):
        cluster = Cluster(node_count=12, variation=None, seed=0)
        policy = create_policy("JobAdaptive")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        admitted = [_request("x", nodes=4)]
        first = _staged(0.0, 0, admitted, _decision(admitted), cluster,
                        policy, 2500.0, manager, planner=planner,
                        uniform=True)
        again = [_request("y", nodes=4)]  # same shape, different name
        second = _staged(5.0, 1, again, _decision(again), cluster,
                         policy, 2500.0, manager, planner=planner,
                         uniform=True)
        assert second.effective_caps is first.effective_caps
        assert not first.effective_caps.flags.writeable

    def test_budget_keys_caps_separately(self):
        cluster = Cluster(node_count=12, variation=None, seed=0)
        policy = create_policy("StaticCaps")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        admitted = [_request("x", nodes=4)]
        low = _staged(0.0, 0, admitted, _decision(admitted), cluster,
                      policy, 1200.0, manager, planner=planner,
                      uniform=True)
        high = _staged(0.0, 1, admitted, _decision(admitted), cluster,
                       policy, 2500.0, manager, planner=planner,
                       uniform=True)
        assert low.effective_caps is not high.effective_caps

    def test_relabel_controls_characterization_name(self):
        cluster = Cluster(node_count=12, variation=None, seed=0)
        policy = create_policy("MixedAdaptive")
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        mix = WorkloadMix(name="batch-0", jobs=(
            Job(name="x", config=KernelConfig(intensity=8.0),
                node_count=4, iterations=5),
        ))
        scheduled = Scheduler(
            Cluster(node_count=4, variation=None, seed=0), shuffle_seed=None
        ).allocate(mix)
        char0, _ = planner.plan(scheduled, 2500.0)
        renamed = WorkloadMix(name="batch-1", jobs=mix.jobs)
        rescheduled = ScheduledMix.trusted(
            renamed, scheduled.node_ids, scheduled.efficiencies
        )
        char1, _ = planner.plan(rescheduled, 2500.0, relabel=True)
        assert char1.mix_name == "batch-1"
        char2, _ = planner.plan(rescheduled, 2500.0, relabel=False)
        assert char2 is char0  # memo object, label untouched


class TestBatchPlannerMemoBound:
    @staticmethod
    def _plan_stream(limit, monkeypatch):
        # Two churn sources: a varied cluster gives every batch a fresh
        # efficiency key (the per-batch host shuffle), and budgets that
        # rarely repeat fill each slot's caps and ladder-plan levels.
        from repro.manager import site_simulation

        monkeypatch.setattr(site_simulation, "_PLAN_MEMO_LIMIT", limit)
        schedule = FaultSchedule(name="drop").budget_drop(0.0, 800.0)
        planner = BatchPlanner(PowerManager(), create_policy("MixedAdaptive"))
        clusters = (Cluster(node_count=12, seed=5),
                    Cluster(node_count=12, variation=None, seed=0))
        outputs, peaks = [], [0, 0, 0]
        for index in range(36):
            cluster = clusters[index % 2]
            admitted = [_request(f"j{index}", nodes=1 + index % 6)]
            budget = 900.0 + 10.0 * (index % 9)
            batch = plan_batch(
                clock=0.0, batch_index=index, admitted=admitted,
                decision=_decision(admitted),
                host_efficiencies=cluster.efficiencies, planner=planner,
                budget_w=budget, batch_budget_w=budget,
                fault_schedule=schedule if index % 3 == 0 else None,
            )
            outputs.append((batch.tier, batch.effective_caps))
            slots = [sub for entry in planner._memo.values()
                     for sub in entry["by_eff"].values()]
            peaks[0] = max(peaks[0], len(planner._memo))
            peaks[1] = max(peaks[1], max(
                len(entry["by_eff"]) for entry in planner._memo.values()
            ))
            peaks[2] = max(peaks[2], max(
                max(len(sub["caps"]), len(sub["plans"])) for sub in slots
            ))
        return outputs, peaks, planner

    def test_levels_stay_within_limit(self, monkeypatch):
        _, peaks, planner = self._plan_stream(4, monkeypatch)
        assert max(peaks) <= 4
        assert planner.char_misses > 0

    def test_bounded_results_equal_unbounded(self, monkeypatch):
        bounded, _, small = self._plan_stream(4, monkeypatch)
        unbounded, peaks, big = self._plan_stream(10**9, monkeypatch)
        assert max(peaks) > 4  # the stream does overflow a 4-entry level
        assert small.char_misses > big.char_misses
        for (tier_a, caps_a), (tier_b, caps_b) in zip(bounded, unbounded):
            assert tier_a == tier_b
            np.testing.assert_array_equal(caps_a, caps_b)


class TestTrustedScheduledMix:
    def test_skips_validation(self):
        mix = WorkloadMix(name="m", jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=2, iterations=3),
        ))
        doubled = np.array([0, 0])
        with pytest.raises(ValueError):
            ScheduledMix(mix=mix, node_ids=doubled,
                         efficiencies=np.ones(2))
        trusted = ScheduledMix.trusted(mix, doubled, np.ones(2))
        assert trusted.node_ids is doubled

    def test_equivalent_to_validated_constructor(self):
        mix = WorkloadMix(name="m", jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=3, iterations=3),
        ))
        ids = np.array([2, 0, 1])
        eff = np.array([1.0, 0.9, 1.1])
        a = ScheduledMix(mix=mix, node_ids=ids, efficiencies=eff)
        b = ScheduledMix.trusted(mix, ids, eff)
        assert (a.node_ids == b.node_ids).all()
        assert (a.efficiencies == b.efficiencies).all()
        assert (b.job_node_ids(0) == ids).all()


class TestStackedLayoutCache:
    def _mix(self, name="m", nodes=3):
        return WorkloadMix(name=name, jobs=(
            Job(name="j", config=KernelConfig(intensity=8.0),
                node_count=nodes, iterations=4),
        ))

    def test_identity_hit_returns_same_stack(self):
        layout = self._mix().layout()
        first = sim_batch._stack_layouts_cached([layout, layout])
        second = sim_batch._stack_layouts_cached([layout, layout])
        assert second is first

    def test_repeat_fast_path_matches_general_stack(self):
        layout = self._mix().layout()
        fast = sim_batch._stack_layouts_cached([layout] * 3)
        general = sim_batch.stack_layouts([layout] * 3)
        np.testing.assert_array_equal(fast.critical, general.critical)
        np.testing.assert_array_equal(
            fast.job_boundaries, general.job_boundaries
        )

    def test_cache_bounded(self):
        sim_batch._STACK_CACHE.clear()
        for nodes in range(1, sim_batch._STACK_CACHE_LIMIT + 3):
            layout = self._mix(name=f"m{nodes}", nodes=nodes).layout()
            sim_batch._stack_layouts_cached([layout, layout])
        assert len(sim_batch._STACK_CACHE) <= sim_batch._STACK_CACHE_LIMIT
