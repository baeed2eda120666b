"""Property-based tests: the group-wise stage-3 finish.

``execute_planned_batches`` reduces each stacked pass as whole arrays and
reads the per-row scalars back with ``tolist()``.  For groups of one to
eight rows mixing fault-free and budget-fault rows, one- and two-job
batches (which share passes, and split into several when job structures
differ), every
``BatchExecution`` must equal the frozen scalar path in
``tests/batch_oracle.py`` field for field.  The telemetry the finish
records — the site counters, the duration histogram, the final
utilization gauge and the ordered ``batch_complete`` payloads — must
equal both the frozen path's and that of finishing each row on its own
through the S=1 slice (``finish_planned_batch`` over a serial
``simulate_mix`` run).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.registry import create_policy
from repro.faults.schedule import FaultSchedule
from repro.hardware.cluster import Cluster
from repro.manager.admission import AdmissionDecision
from repro.manager.power_manager import PowerManager
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import (
    BatchPlanner,
    execute_planned_batches,
    finish_planned_batch,
    plan_batch,
)
from repro.sim.execution import SimulationOptions, simulate_mix
from repro.workload.kernel import KernelConfig
from tests.batch_oracle import execute_admitted_batch

CLUSTER = Cluster(node_count=12, seed=5)
BASE_BUDGET_W = 900.0
NOISE_STD = 0.02
RUN_SEED = 3
#: Budget drops 30 ms apart; a batch runs about 0.2 s, so one launched
#: just before a drop is charged several reaction windows.  From 5.03 s
#: the budget is below the RAPL floor of a 4-node batch (4 x 136 W), so
#: those rows plan on the ladder's clamp tier and overshoot at launch
#: too — and the reaction windows accumulate onto that overshoot.
SCHEDULE = FaultSchedule(name="dip").budget_drop(5.0, 700.0) \
    .budget_drop(5.03, 500.0).budget_drop(5.06, 450.0) \
    .budget_drop(5.09, 400.0)

rows = st.lists(
    st.tuples(
        st.booleans(),                       # budget-fault row
        st.sampled_from([3, 4]),             # node count
        st.booleans(),                       # split over two jobs
        st.floats(4.7, 5.12, allow_nan=False),  # launch clock
        st.sampled_from([0.25, 8.0, 32.0]),  # intensity
    ),
    min_size=1, max_size=8,
)
policies = st.sampled_from(["MixedAdaptive", "StaticCaps", "JobAdaptive"])


def _site_telemetry(run):
    """Run ``run()`` on a fresh registry; return what stage 3 records."""
    telemetry.reset()
    payloads = []
    token = telemetry.get_bus().subscribe(
        lambda event: payloads.append(dict(event.payload)),
        kinds=["batch_complete"], sources=["manager.site"],
    )
    try:
        result = run()
    finally:
        telemetry.get_bus().unsubscribe(token)
    registry = telemetry.get_registry()
    return result, {
        "batches": registry.counter("manager.site.batches").value,
        "jobs": registry.counter("manager.site.jobs_completed").value,
        "duration": registry.histogram(
            "manager.site.batch_duration_s"
        ).state(),
        "utilization": registry.gauge("manager.site.utilization").value,
        "payloads": payloads,
    }


class TestGroupFinishMatchesOracle:
    @given(spec=rows, policy=policies)
    @settings(max_examples=30, deadline=None)
    def test_group_finish_equals_oracle_and_per_row(self, spec, policy):
        policy = create_policy(policy)
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        batches, planned = [], []
        for index, (faulted, nodes, split, clock, intensity) in \
                enumerate(spec):
            sizes = (nodes - 2, 2) if split else (nodes,)
            admitted = [
                JobRequest(
                    name=f"j{index}-{k}",
                    config=KernelConfig(intensity=intensity),
                    node_count=size, iterations=5, power_hint_w=180.0,
                )
                for k, size in enumerate(sizes)
            ]
            names = tuple(r.name for r in admitted)
            faults = SCHEDULE if faulted else None
            batch = dict(
                clock=clock, batch_index=index, admitted=admitted,
                decision=AdmissionDecision(
                    names, (), {name: 180.0 for name in names},
                    BASE_BUDGET_W, nodes,
                ),
                budget_w=BASE_BUDGET_W,
                batch_budget_w=(faults.budget_at(clock, BASE_BUDGET_W)
                                if faulted else BASE_BUDGET_W),
                run_seed=RUN_SEED, fault_schedule=faults,
            )
            batches.append((batch, nodes))
            with telemetry.disabled():
                planned.append(plan_batch(
                    host_efficiencies=CLUSTER.efficiencies[:nodes].copy(),
                    planner=planner, **batch,
                ))
        assert all(b.engine_faults is None for b in planned)

        def oracle():
            return [
                execute_admitted_batch(
                    batch_cluster=CLUSTER.subset(range(nodes)),
                    policy=policy, quarantined=(), manager=manager,
                    noise_std=NOISE_STD, degradation=None, reaction_s=1.0,
                    injecting=batch["fault_schedule"] is not None, **batch,
                )
                for batch, nodes in batches
            ]

        def per_row():
            return [
                finish_planned_batch(batch, simulate_mix(
                    batch.mix, batch.effective_caps,
                    batch.scheduled.efficiencies, manager.model,
                    SimulationOptions(noise_std=NOISE_STD,
                                      seed=batch.batch_seed),
                    policy_name=policy.name,
                    budget_w=(batch.budget_w if batch.sim_budget_w is None
                              else batch.sim_budget_w),
                ))
                for batch in planned
            ]

        previous = telemetry.set_enabled(True)
        try:
            expected, oracle_telemetry = _site_telemetry(oracle)
            grouped, group_telemetry = _site_telemetry(
                lambda: execute_planned_batches(planned, manager, NOISE_STD)
            )
            single, row_telemetry = _site_telemetry(per_row)
        finally:
            telemetry.set_enabled(previous)
            telemetry.reset()

        for got, want in zip(grouped, expected):
            assert got.record == want.record
            assert got.job_names == want.job_names
            assert got.completion_s == want.completion_s
        assert grouped == expected
        assert single == expected
        assert group_telemetry == row_telemetry == oracle_telemetry
        assert group_telemetry["batches"] == len(spec)
        assert group_telemetry["jobs"] == sum(
            len(b["admitted"]) for b, _ in batches
        )
        assert [p["batch"] for p in group_telemetry["payloads"]] == \
            list(range(len(spec)))
