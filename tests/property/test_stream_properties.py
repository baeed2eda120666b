"""Property-based tests: the streaming engine replays the batch loop.

The contract the tentpole rests on: feeding the streaming site engine a
pre-built arrival list (fault-free) produces *bit-identical* results to
``run_site_simulation`` — same batch records float for float, same
turnarounds, same energy, same truncation split.  Hypothesis drives
random arrival lists, budgets, policies, and round limits through both
loops and compares the full result objects.

Every site loop runs its batches through the staged pipeline; the
frozen scalar reference in ``tests/batch_oracle.py`` is the oracle the
rolling engine, the shift loop and replay are compared against, with
and without fault schedules of every kind.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import create_policy
from repro.faults.schedule import FaultSchedule
from repro.hardware.cluster import Cluster
from repro.hardware.variation import QUARTZ_VARIATION
from repro.manager.queue import JobRequest
from repro.manager.site_simulation import Arrival, run_site_simulation
from repro.stream.arrivals import replay_stream
from repro.stream.engine import SiteStreamEngine, stream_site_simulation
from repro.workload.kernel import KernelConfig
from tests.batch_oracle import OracleStreamEngine, oracle_site_simulation

CLUSTER = Cluster(node_count=10, variation=None, seed=0)

_INTENSITIES = (0.25, 2.0, 8.0, 32.0)


@st.composite
def arrival_lists(draw):
    """1-7 arrivals with mixed shapes, times, and optional hints."""
    count = draw(st.integers(1, 7))
    # One iteration count per list: jobs co-scheduled into a batch must
    # share it (a WorkloadMix invariant, same as the batch loop).
    iterations = draw(st.integers(5, 15))
    arrivals = []
    for i in range(count):
        hint = draw(st.one_of(
            st.none(), st.floats(120.0, 260.0, allow_nan=False)
        ))
        arrivals.append(Arrival(
            time_s=draw(st.floats(0.0, 40.0, allow_nan=False)),
            request=JobRequest(
                name=f"job-{i}",
                config=KernelConfig(
                    intensity=draw(st.sampled_from(_INTENSITIES))
                ),
                node_count=draw(st.integers(1, 12)),
                iterations=iterations,
                power_hint_w=hint,
            ),
        ))
    return arrivals


policies = st.sampled_from(["StaticCaps", "MixedAdaptive", "JobAdaptive"])
budgets = st.floats(900.0, 4000.0, allow_nan=False)
seeds = st.one_of(st.none(), st.integers(0, 2**31 - 1))
round_limits = st.integers(1, 12)


class TestStreamReplayIdentity:
    @given(arrivals=arrival_lists(), policy=policies, budget=budgets,
           seed=seeds)
    @settings(max_examples=25, deadline=None)
    def test_bit_identical_to_batch_loop(self, arrivals, policy, budget,
                                         seed):
        """Same batches, turnarounds, energy — float for float."""
        batch = run_site_simulation(
            arrivals, CLUSTER, create_policy(policy), budget, run_seed=seed
        )
        stream = stream_site_simulation(
            arrivals, CLUSTER, create_policy(policy), budget, run_seed=seed
        )
        assert stream == batch
        assert stream.total_energy_j == batch.total_energy_j
        assert stream.job_turnaround_s == batch.job_turnaround_s

    @given(arrivals=arrival_lists(), policy=policies, budget=budgets,
           max_batches=round_limits)
    @settings(max_examples=25, deadline=None)
    def test_truncation_matches_batch_loop(self, arrivals, policy, budget,
                                           max_batches):
        """Round-limit truncation splits jobs identically in both loops."""
        batch = run_site_simulation(
            arrivals, CLUSTER, create_policy(policy), budget,
            max_batches=max_batches,
        )
        stream = stream_site_simulation(
            arrivals, CLUSTER, create_policy(policy), budget,
            max_batches=max_batches,
        )
        assert stream == batch
        # The status partition covers every arrival exactly once.
        names = {a.request.name for a in arrivals}
        reported = (set(stream.completed) | set(stream.never_admitted)
                    | set(stream.truncated))
        assert reported == names
        assert (len(stream.completed) + len(stream.never_admitted)
                + len(stream.truncated)) == len(names)

    @given(arrivals=arrival_lists(), budget=budgets)
    @settings(max_examples=15, deadline=None)
    def test_replay_does_not_consume_inputs(self, arrivals, budget):
        """Replaying twice from one arrival list gives the same answer."""
        first = stream_site_simulation(
            arrivals, CLUSTER, create_policy("StaticCaps"), budget
        )
        second = stream_site_simulation(
            arrivals, CLUSTER, create_policy("StaticCaps"), budget
        )
        assert first == second
        assert all(a.request.state.value == "pending" for a in arrivals)


# ---------------------------------------------------------------------------
# Batched concurrent physics ≡ scalar per-batch physics (rolling engine)
# ---------------------------------------------------------------------------

VARIED_CLUSTER = Cluster(node_count=10, variation=QUARTZ_VARIATION, seed=3)

all_policies = st.sampled_from([
    "StaticCaps", "MixedAdaptive", "JobAdaptive",
    "MinimizeWaste", "Precharacterized",
])


@st.composite
def arrival_specs(draw):
    """Plain-tuple arrival specs: material is built fresh per engine.

    ``replay_stream`` yields the *same* mutable ``JobRequest`` objects it
    was given, so a paired batched/scalar comparison must materialise a
    fresh arrival list for each engine from an immutable spec.  Times are
    drawn with deliberate clustering (several arrivals can share an
    instant) so quantised admission piles up concurrent in-flight
    batches — the configuration the vectorised path groups.
    """
    count = draw(st.integers(2, 8))
    iterations = draw(st.integers(4, 10))
    instants = draw(st.lists(
        st.floats(0.0, 30.0, allow_nan=False), min_size=1, max_size=4
    ))
    specs = []
    for i in range(count):
        specs.append((
            draw(st.sampled_from(instants)),
            draw(st.sampled_from(_INTENSITIES)),
            draw(st.integers(1, 5)),
            iterations,
            draw(st.one_of(
                st.none(), st.floats(120.0, 260.0, allow_nan=False)
            )),
        ))
    return tuple(specs)


def _materialise(specs):
    return [
        Arrival(
            time_s=t,
            request=JobRequest(
                name=f"job-{i}",
                config=KernelConfig(intensity=intensity),
                node_count=nodes,
                iterations=iters,
                power_hint_w=hint,
            ),
        )
        for i, (t, intensity, nodes, iters, hint) in enumerate(specs)
    ]


@st.composite
def fault_schedules(draw):
    """None, or a schedule with a budget drop and/or a node failure."""
    if draw(st.booleans()):
        return None
    schedule = FaultSchedule(name="prop-faults")
    if draw(st.booleans()):
        t = draw(st.floats(0.0, 20.0, allow_nan=False))
        schedule = schedule.budget_drop(
            t, draw(st.floats(500.0, 1500.0, allow_nan=False))
        )
        schedule = schedule.budget_restore(
            t + draw(st.floats(5.0, 40.0, allow_nan=False)), 4000.0
        )
    if draw(st.booleans()):
        t = draw(st.floats(0.0, 20.0, allow_nan=False))
        host = draw(st.integers(0, 9))
        schedule = schedule.node_failure(t, host_ids=[host])
        schedule = schedule.node_recovery(
            t + draw(st.floats(5.0, 40.0, allow_nan=False)), host_ids=[host]
        )
    return schedule if schedule.active else None


class TestBatchedPhysicsIdentity:
    """The rolling engine's stacked passes equal the frozen scalar path.

    Routing concurrent in-flight batches through one stacked
    ``simulate_layout_batch`` call must reproduce the frozen per-batch
    reference engine float for float: same stats, same batch records,
    same turnarounds.  Hypothesis sweeps policies, budgets, clusters with
    and without hardware variation, fault schedules, per-job splitting,
    quantised admission windows, and run seeds.
    """

    def _run_pair(self, specs, cluster, policy, budget, *, seed,
                  fault_schedule=None, interval=None, per_job=True):
        def run(engine_cls):
            engine = engine_cls(
                cluster, create_policy(policy), budget,
                rolling=True, max_pending=32,
                record_jobs=True, record_batches=True,
                run_seed=seed, fault_schedule=fault_schedule,
                admission_interval_s=interval,
                per_job_batches=per_job,
            )
            engine.attach_source(replay_stream(_materialise(specs)))
            stats = engine.run()
            return stats, engine

        stats_b, engine_b = run(SiteStreamEngine)
        stats_s, engine_s = run(OracleStreamEngine)
        assert stats_b == stats_s
        assert engine_b.batches == engine_s.batches
        assert engine_b.turnaround_s == engine_s.turnaround_s

    @given(specs=arrival_specs(), policy=all_policies, budget=budgets,
           seed=seeds, interval=st.sampled_from([None, 2.0, 5.0]),
           per_job=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_uniform_cluster_identity(self, specs, policy, budget, seed,
                                      interval, per_job):
        """Uniform hosts: the shuffle-free planner fast path."""
        self._run_pair(specs, CLUSTER, policy, budget, seed=seed,
                       interval=interval, per_job=per_job)

    @given(specs=arrival_specs(), policy=all_policies, budget=budgets,
           seed=seeds, interval=st.sampled_from([None, 2.0, 5.0]))
    @settings(max_examples=15, deadline=None)
    def test_varied_cluster_identity(self, specs, policy, budget, seed,
                                     interval):
        """Quartz variation: the shuffled-efficiency gather path."""
        self._run_pair(specs, VARIED_CLUSTER, policy, budget, seed=seed,
                       interval=interval)

    @given(specs=arrival_specs(), policy=all_policies, budget=budgets,
           schedule=fault_schedules(),
           interval=st.sampled_from([None, 3.0]))
    @settings(max_examples=15, deadline=None)
    def test_fault_schedule_identity(self, specs, policy, budget,
                                     schedule, interval):
        """Budget drops and host failures: staged rows, same results."""
        self._run_pair(specs, CLUSTER, policy, budget, seed=7,
                       fault_schedule=schedule, interval=interval)


@st.composite
def any_fault_schedules(draw):
    """An active schedule mixing every fault kind the site loops replay:
    budget drops, host failure (quarantine), sensor dropout, stuck and
    erroring caps, and noise bursts."""
    schedule = FaultSchedule(name="prop-any-faults")
    kinds = draw(st.lists(st.sampled_from(
        ["budget", "failure", "dropout", "stuck", "error", "burst"]
    ), min_size=1, max_size=3, unique=True))
    start = st.floats(0.0, 30.0, allow_nan=False)
    window = st.floats(3.0, 30.0, allow_nan=False)
    hosts = st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True)
    for kind in kinds:
        t = draw(start)
        if kind == "budget":
            schedule = schedule.budget_drop(
                t, draw(st.floats(500.0, 1500.0, allow_nan=False))
            ).budget_restore(t + draw(window), 4000.0)
        elif kind == "failure":
            failed = draw(hosts)
            schedule = schedule.node_failure(t, host_ids=failed) \
                .node_recovery(t + draw(window), host_ids=failed)
        elif kind == "dropout":
            schedule = schedule.sensor_dropout(t, draw(window))
        elif kind == "stuck":
            schedule = schedule.cap_stuck(
                t, draw(hosts), draw(st.floats(140.0, 230.0)),
                duration_s=draw(window),
            )
        elif kind == "error":
            schedule = schedule.cap_error(t, draw(hosts),
                                          duration_s=draw(window))
        else:
            schedule = schedule.noise_burst(
                t, draw(window), draw(st.floats(0.01, 0.1))
            )
    return schedule


class TestFaultKindsMatchOracle:
    """Every fault kind runs staged in all three site loops and equals
    the frozen scalar reference float for float."""

    @given(arrivals=arrival_lists(), policy=all_policies, budget=budgets,
           seed=seeds, schedule=any_fault_schedules(),
           cluster=st.sampled_from([CLUSTER, VARIED_CLUSTER]))
    @settings(max_examples=20, deadline=None)
    def test_shift_and_replay_match_oracle(self, arrivals, policy, budget,
                                           seed, schedule, cluster):
        expected = oracle_site_simulation(
            arrivals, cluster, create_policy(policy), budget,
            run_seed=seed, fault_schedule=schedule,
        )
        for loop in (run_site_simulation, stream_site_simulation):
            assert loop(
                arrivals, cluster, create_policy(policy), budget,
                run_seed=seed, fault_schedule=schedule,
            ) == expected

    @given(arrivals=arrival_lists(), policy=all_policies, budget=budgets,
           failed=st.lists(st.integers(0, 9), min_size=1, max_size=4,
                           unique=True),
           start=st.floats(0.0, 10.0, allow_nan=False),
           window=st.floats(10.0, 40.0, allow_nan=False))
    @settings(max_examples=15, deadline=None)
    def test_quarantine_on_varied_hosts_matches_oracle(
            self, arrivals, policy, budget, failed, start, window):
        """Quarantined hosts leave the schedulable partition: on a varied
        cluster every batch during the outage draws from the survivors'
        efficiencies exactly as the frozen path's host subset does."""
        schedule = FaultSchedule(name="prop-quarantine") \
            .node_failure(start, host_ids=failed) \
            .node_recovery(start + window, host_ids=failed)
        expected = oracle_site_simulation(
            arrivals, VARIED_CLUSTER, create_policy(policy), budget,
            fault_schedule=schedule,
        )
        for loop in (run_site_simulation, stream_site_simulation):
            assert loop(
                arrivals, VARIED_CLUSTER, create_policy(policy), budget,
                fault_schedule=schedule,
            ) == expected

    @given(specs=arrival_specs(), policy=all_policies, budget=budgets,
           schedule=any_fault_schedules(),
           cluster=st.sampled_from([CLUSTER, VARIED_CLUSTER]),
           interval=st.sampled_from([None, 3.0]), per_job=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_rolling_matches_oracle(self, specs, policy, budget, schedule,
                                    cluster, interval, per_job):
        TestBatchedPhysicsIdentity()._run_pair(
            specs, cluster, policy, budget, seed=7, fault_schedule=schedule,
            interval=interval, per_job=per_job,
        )
