"""Property-based identity contract of the fused facility engine.

The tentpole contract: **fused ≡ sharded ≡ workers=1, bit-identical**
(``FacilitySimulationResult.__eq__`` over tuples / floats / dicts of
floats is bitwise), across broker policies × seeds × fault schedules ×
trace-driven budgets — including non-uniform (heterogeneous-efficiency)
clusters, whose staged batches replicate the shift loop's whole-cluster
shuffle draw, and budget-only feeder-dip schedules, which stage through
the batched pipeline with the degradation ladder and compliance
accounting split across stages.  Both engines' leaf results also equal
the frozen scalar reference (``tests/batch_oracle.py``) run on each
cluster's own leaf inputs.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import create_policy
from repro.faults.schedule import FaultSchedule, random_schedule
from repro.hierarchy import (
    ClusterSpec,
    FacilityConfig,
    build_cluster,
    cluster_arrivals,
    run_facility_simulation,
)
from repro.hierarchy.facility import _leaf_schedule, _plan_facility
from repro.parallel.seeding import child_seed
from tests.batch_oracle import oracle_site_simulation


@st.composite
def cluster_specs(draw, index: int = 0,
                  with_faults: bool = False) -> ClusterSpec:
    schedule = None
    if with_faults and draw(st.booleans()):
        if draw(st.booleans()):
            # Engine-applicable faults: faulted batches run as their own
            # S=1 stacked passes and must still agree.
            schedule = random_schedule(
                duration_s=40.0,
                host_count=8,
                base_budget_w=8 * 200.0,
                events=draw(st.integers(1, 3)),
                seed=draw(st.integers(0, 2**16)),
            )
        else:
            # A budget-only feeder dip: stages through the batched
            # pipeline (the facility-leaf shape).
            dip_at = draw(st.sampled_from([5.0, 10.0, 20.0]))
            fraction = draw(st.sampled_from([0.5, 0.7, 0.9]))
            schedule = (
                FaultSchedule(name=f"dip-{index}")
                .budget_drop(dip_at, fraction * 8 * 200.0)
                .budget_restore(dip_at + 10.0, 8 * 240.0)
            )
    return ClusterSpec(
        name=f"cluster-{index}",
        node_count=8,
        racks=draw(st.sampled_from([1, 2, 4])),
        nodes_per_job=2,
        jobs=draw(st.integers(2, 4)),
        iterations=draw(st.integers(3, 5)),
        spacing_s=draw(st.sampled_from([0.5, 1.0, 2.0])),
        uniform=draw(st.booleans()),
        weight=float(draw(st.integers(1, 4))),
        priority=draw(st.integers(0, 2)),
        fault_schedule=schedule,
    )


class TestFusedIdentity:
    @given(seed=st.integers(0, 2**16),
           broker_policy=st.sampled_from(["uniform", "demand", "priority"]),
           data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_fused_equals_sharded_equals_serial(self, seed, broker_policy,
                                                data):
        n_clusters = data.draw(st.integers(2, 3))
        specs = tuple(
            data.draw(cluster_specs(index=i, with_faults=True))
            for i in range(n_clusters)
        )
        config = FacilityConfig(
            clusters=specs,
            broker_policy=broker_policy,
            budget_w=0.7 * sum(s.node_count for s in specs) * 240.0,
            window_s=10.0, horizon_s=30.0, seed=seed,
        )
        serial = run_facility_simulation(config, workers=1)
        sharded = run_facility_simulation(config, workers=2)
        fused = run_facility_simulation(config, engine="fused")
        assert serial == sharded
        assert serial == fused
        assert fused.engine == "fused"
        assert serial.engine == "sharded"

    @given(seed=st.integers(0, 2**16))
    @settings(max_examples=3, deadline=None)
    def test_trace_driven_budgets_fuse_identically(self, seed):
        from repro.workload.facility import FacilityTraceConfig

        specs = tuple(
            ClusterSpec(name=f"c{i}", node_count=8, nodes_per_job=2,
                        jobs=3, iterations=4, racks=2,
                        uniform=bool(i % 2),
                        weight=float(1 + i), priority=i)
            for i in range(3)
        )
        config = FacilityConfig(
            clusters=specs, trace=FacilityTraceConfig(days=2),
            window_s=300.0, horizon_s=1200.0, seed=seed,
        )
        serial = run_facility_simulation(config, workers=1)
        fused = run_facility_simulation(config, engine="fused")
        assert serial == fused
        # The trace varies across five-minute windows, so every leaf
        # replays real BUDGET_CHANGE events through the staged pipeline
        # (degradation ladder + compliance accounting), not the no-op
        # fault-free path.
        assert len(set(serial.budgets_w)) > 1


class TestFacilityMatchesOracle:
    @given(seed=st.integers(0, 2**16), data=st.data())
    @settings(max_examples=5, deadline=None)
    def test_leaf_results_equal_frozen_path(self, seed, data):
        """Every cluster's shift, fused and sharded, equals the frozen
        scalar path run on that cluster's base budget, composed leaf
        schedule and run seed."""
        specs = tuple(
            data.draw(cluster_specs(index=i, with_faults=True))
            for i in range(2)
        )
        config = FacilityConfig(
            clusters=specs, budget_w=0.7 * 16 * 240.0,
            window_s=10.0, horizon_s=30.0, seed=seed,
        )
        plan = _plan_facility(config)
        expected = [
            oracle_site_simulation(
                cluster_arrivals(spec), build_cluster(spec, seed),
                create_policy(config.policy), float(plan.allocations_w[i][0]),
                noise_std=config.noise_std, max_batches=config.max_batches,
                run_seed=child_seed(seed, "facility-cluster", spec.name),
                fault_schedule=_leaf_schedule(
                    spec, plan.epochs, plan.allocations_w[i], config.name
                ),
            )
            for i, spec in enumerate(specs)
        ]
        for engine in ("sharded", "fused"):
            result = run_facility_simulation(config, workers=1, engine=engine)
            assert [c.result for c in result.clusters] == expected
