"""Property-based tests: the controller runtime == the frozen serial loop.

:class:`~repro.runtime.controller.Controller` is the one-run slice of
:class:`~repro.runtime.batch.ControllerBatch`, and the scalar agents are
one-row slices of their batches.  The reference is therefore *not* code
under test: it is the serial controller and scalar agent steps frozen in
``tests/controller_oracle.py``.  Run ``c`` of a batch, and every
``Controller`` run, must be *bit-identical* — not merely close — to the
oracle run with the same job, efficiencies, seed, and agent settings.
These tests pin that for reports (``JobReport.__eq__`` is exact dataclass
equality, metadata floats included), every history sample, the limits
applied each epoch, final limits and the steady-state sample, across
noise-free and noisy runs, early-convergence freezing, mixed agent
groups, heterogeneous balancer options (the per-run fallback),
duck-typed agents, fault-injected configurations, and repeated runs of
one controller.

All comparisons run under disabled telemetry: report ``telemetry``
sections carry wall-clock timings that legitimately differ between runs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.faults.injection import RuntimeFaultInjector
from repro.faults.scenarios import SCENARIO_NAMES, STANDARD_SCENARIOS
from repro.runtime.agent import PlatformSample, SampleBatch
from repro.runtime.batch import ControllerRunSpec, run_controller_batch
from repro.runtime.controller import Controller
from repro.runtime.frequency_governor import FrequencyGovernorAgent
from repro.runtime.monitor import MonitorAgent
from repro.runtime.power_balancer import BalancerOptions, PowerBalancerAgent
from repro.runtime.power_governor import PowerGovernorAgent
from repro.workload.job import Job
from repro.workload.kernel import KernelConfig
from tests import controller_oracle as oracle

SAMPLE_FIELDS = (
    "host_time_s", "host_power_w", "power_limit_w",
    "host_energy_j", "mean_freq_ghz",
)


@pytest.fixture(autouse=True)
def _quiet_telemetry():
    with telemetry.disabled():
        yield


def _job(name, hosts, intensity, waiting, imbalance):
    return Job(
        name=name,
        config=KernelConfig(
            intensity=intensity, waiting_fraction=waiting, imbalance=imbalance
        ),
        node_count=hosts,
    )


class EchoHalfwayAgent:
    """A duck-typed third-party agent (no ``Agent`` base, no batching):
    moves each limit halfway towards the observed host power."""

    name = "echo_halfway"

    def __init__(self):
        self.steps = 0

    def adjust(self, sample):
        self.steps += 1
        return 0.5 * (sample.power_limit_w + sample.host_power_w)

    def converged(self):
        return self.steps >= 6

    def describe(self):
        return {"steps": float(self.steps)}


def _agent_pair(kind, hosts):
    """The agent under test and its frozen oracle twin.

    ``balancer@W`` is a balancer with a ``W`` watts-per-host budget; below
    TDP (240 W) the receivers have headroom, so the grant step runs.
    """
    if kind == "monitor":
        return MonitorAgent(), oracle.MonitorAgent()
    if kind == "governor":
        budget = hosts * 200.0
        return PowerGovernorAgent(budget), oracle.PowerGovernorAgent(budget)
    if kind == "frequency":
        return FrequencyGovernorAgent(2.0), FrequencyGovernorAgent(2.0)
    if kind == "duck":
        return EchoHalfwayAgent(), EchoHalfwayAgent()
    budget = hosts * float(kind.partition("@")[2] or 240.0)
    return (
        PowerBalancerAgent(job_budget_w=budget),
        oracle.PowerBalancerAgent(job_budget_w=budget),
    )


def _assert_sample_equal(got, want):
    assert got.epoch == want.epoch
    assert got.epoch_time_s == want.epoch_time_s
    for name in SAMPLE_FIELDS:
        np.testing.assert_array_equal(
            getattr(got, name), getattr(want, name), err_msg=name
        )


def _assert_matches_oracle(ref, history, final_limits, steady):
    """One run's outcome == the oracle controller ``ref`` after its run."""
    assert len(history) == len(ref.history)
    for got, want in zip(history, ref.history):
        assert got.epoch == want.epoch
        _assert_sample_equal(got.sample, want.sample)
        np.testing.assert_array_equal(
            got.limits_applied_w, want.limits_applied_w
        )
    np.testing.assert_array_equal(final_limits, ref.final_limits_w())
    _assert_sample_equal(steady, ref.steady_state_sample())


def _assert_batch_run(result, c, ref, ref_report):
    assert ref_report == result.reports[c]
    assert result.epochs[c] == len(ref.history)
    assert bool(result.converged[c]) == ref.agent.converged()
    _assert_matches_oracle(
        ref, result.history_for(c),
        result.final_limits_w(c), result.steady_state_sample(c),
    )


def _assert_controller_run(controller, report, ref, ref_report):
    assert report == ref_report
    _assert_matches_oracle(
        ref, controller.history, controller.final_limits_w(),
        controller.steady_state_sample(),
    )


@st.composite
def run_cases(draw, host_range=(2, 6)):
    """A batch of 1-6 heterogeneous runs sharing one host count."""
    hosts = draw(st.integers(*host_range))
    n_runs = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    runs = []
    for i in range(n_runs):
        intensity = draw(st.sampled_from([2.0, 8.0, 16.0]))
        if draw(st.booleans()):
            waiting = draw(st.sampled_from([0.25, 0.5, 0.75]))
            imbalance = draw(st.integers(2, min(3, hosts)))
        else:
            waiting, imbalance = 0.0, 1
        job = _job(f"run-{i}", hosts, intensity, waiting, imbalance)
        eff = 1.0 + 0.05 * rng.standard_normal(hosts)
        kind = draw(st.sampled_from(
            ["monitor", "balancer", "balancer@200", "balancer@150", "governor"]
        ))
        noise = draw(st.sampled_from([0.0, 0.01]))
        seed = draw(st.integers(0, 2**31))
        runs.append((job, eff, kind, noise, seed))
    max_epochs = draw(st.integers(1, 40))
    min_epochs = draw(st.integers(1, 5))
    return hosts, runs, max_epochs, min_epochs


def _check_case(case):
    """Batch, per-run Controller and oracle agree on every run of ``case``."""
    hosts, runs, max_epochs, min_epochs = case
    specs = [
        ControllerRunSpec(
            job=job, efficiencies=eff,
            agent=_agent_pair(kind, hosts)[0],
            noise_std=noise, seed=seed,
        )
        for job, eff, kind, noise, seed in runs
    ]
    result = run_controller_batch(
        specs, max_epochs=max_epochs, min_epochs=min_epochs
    )
    for c, (job, eff, kind, noise, seed) in enumerate(runs):
        agent, ref_agent = _agent_pair(kind, hosts)
        ref = oracle.Controller(
            job, eff, ref_agent, noise_std=noise, seed=seed
        )
        ref_report = ref.run(max_epochs=max_epochs, min_epochs=min_epochs)
        _assert_batch_run(result, c, ref, ref_report)
        controller = Controller(job, eff, agent, noise_std=noise, seed=seed)
        report = controller.run(max_epochs=max_epochs, min_epochs=min_epochs)
        _assert_controller_run(controller, report, ref, ref_report)
        assert agent.converged() == ref_agent.converged()
        assert agent.describe() == ref_agent.describe()


class TestBatchedEqualsSerial:
    @given(case=run_cases())
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_mixed_agents(self, case):
        _check_case(case)

    @given(case=run_cases(host_range=(9, 40)))
    @settings(max_examples=15, deadline=None)
    def test_bit_identical_many_hosts(self, case):
        """Past 8 hosts NumPy's row sums go pairwise; the balancer's
        reductions must still match the oracle's 1-D sums bit for bit."""
        _check_case(case)

    @pytest.mark.parametrize("hosts, imbalance, per_host_w", [
        (24, 3, 190.0), (32, 2, 200.0), (40, 2, 170.0),
    ])
    def test_many_receivers_keep_the_compressed_grant_sum(
        self, hosts, imbalance, per_host_w
    ):
        """Eight or more receivers with headroom: the grant step must sum
        the compressed headroom gather as the oracle does (a masked
        full-row sum differs in the last ulp on the first case)."""
        job = _job("grant", hosts, 16.0, 0.5, imbalance)
        eff = 1.0 + 0.05 * np.random.default_rng(0).standard_normal(hosts)
        ref = oracle.Controller(
            job, eff, oracle.PowerBalancerAgent(hosts * per_host_w),
            noise_std=0.01, seed=0,
        )
        ref_report = ref.run(max_epochs=60)
        controller = Controller(
            job, eff, PowerBalancerAgent(hosts * per_host_w),
            noise_std=0.01, seed=0,
        )
        _assert_controller_run(
            controller, controller.run(max_epochs=60), ref, ref_report
        )

    @given(
        seed=st.integers(0, 2**31),
        hosts=st.integers(2, 5),
        max_epochs=st.integers(5, 80),
    )
    @settings(max_examples=25, deadline=None)
    def test_early_convergence_freezes_correctly(self, seed, hosts, max_epochs):
        """Runs converging at different epochs each match their oracle
        twin — the active-set bookkeeping cannot leak between runs."""
        shapes = [(16.0, 0.75, 2), (8.0, 0.25, 2), (16.0, 0.5, 2), (2.0, 0.0, 1)]
        specs = [
            ControllerRunSpec(
                job=_job(f"c{i}", hosts, inten, wait, imb),
                efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(job_budget_w=hosts * 240.0),
                seed=seed + i,
            )
            for i, (inten, wait, imb) in enumerate(shapes)
        ]
        result = run_controller_batch(specs, max_epochs=max_epochs)
        for c, (inten, wait, imb) in enumerate(shapes):
            ref = oracle.Controller(
                _job(f"c{c}", hosts, inten, wait, imb), np.ones(hosts),
                oracle.PowerBalancerAgent(job_budget_w=hosts * 240.0),
                seed=seed + c,
            )
            ref_report = ref.run(max_epochs=max_epochs)
            _assert_batch_run(result, c, ref, ref_report)

    @given(
        gains=st.lists(
            st.sampled_from([0.3, 0.5, 0.8]), min_size=2, max_size=4
        ),
        seed=st.integers(0, 2**31),
        per_host_w=st.sampled_from([240.0, 190.0]),
    )
    @settings(max_examples=20, deadline=None)
    def test_heterogeneous_options_fall_back(self, gains, seed, per_host_w):
        """Balancers with differing options cannot batch; the per-run
        fallback (each agent stepping its own one-row batch) must still
        match the oracle bit for bit."""
        hosts = 4
        specs = [
            ControllerRunSpec(
                job=_job(f"h{i}", hosts, 16.0, 0.5, 2),
                efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(
                    job_budget_w=hosts * per_host_w,
                    options=BalancerOptions(gain=gain),
                ),
                noise_std=0.005,
                seed=seed + i,
            )
            for i, gain in enumerate(gains)
        ]
        result = run_controller_batch(specs, max_epochs=50)
        for c, gain in enumerate(gains):
            job = _job(f"h{c}", hosts, 16.0, 0.5, 2)
            options = BalancerOptions(gain=gain)
            ref = oracle.Controller(
                job, np.ones(hosts),
                oracle.PowerBalancerAgent(
                    job_budget_w=hosts * per_host_w, options=options
                ),
                noise_std=0.005, seed=seed + c,
            )
            ref_report = ref.run(max_epochs=50)
            _assert_batch_run(result, c, ref, ref_report)
            controller = Controller(
                job, np.ones(hosts),
                PowerBalancerAgent(job_budget_w=hosts * per_host_w,
                                   options=options),
                noise_std=0.005, seed=seed + c,
            )
            _assert_controller_run(
                controller, controller.run(max_epochs=50), ref, ref_report
            )

    @given(
        kinds=st.lists(
            st.sampled_from(
                ["duck", "frequency", "balancer", "balancer@190", "monitor"]
            ),
            min_size=1, max_size=5,
        ),
        seed=st.integers(0, 2**31),
        noise=st.sampled_from([0.0, 0.01]),
        max_epochs=st.integers(1, 30),
    )
    @settings(max_examples=25, deadline=None)
    def test_unbatched_agents_run_per_run(self, kinds, seed, noise,
                                          max_epochs):
        """Duck-typed agents and agents without ``make_batch`` step on the
        per-run fallback next to batched groups, still oracle-exact."""
        hosts = 4
        runs = [
            (_job(f"d{i}", hosts, 8.0, 0.5, 2), np.ones(hosts), kind,
             noise, seed + i)
            for i, kind in enumerate(kinds)
        ]
        _check_case((hosts, runs, max_epochs, 3))


def _sample(epoch, times, powers, limits):
    return PlatformSample(
        epoch=epoch, host_time_s=times, epoch_time_s=float(np.max(times)),
        host_power_w=powers, power_limit_w=limits,
        host_energy_j=powers * times, mean_freq_ghz=np.full(times.size, 2.0),
    )


class TestScalarAgents:
    @given(
        seed=st.integers(0, 2**16),
        hosts=st.integers(2, 12),
        per_host_w=st.sampled_from([240.0, 200.0, 150.0, 100.0]),
        idle_epochs=st.sets(st.integers(1, 11), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_balancer_steps_match_oracle(self, seed, hosts, per_host_w,
                                         idle_epochs):
        """Direct ``adjust``/``converged``/``describe`` calls, including
        epochs whose host times are all zero (the step is skipped), and a
        two-row batch with one such row, all equal the oracle's."""
        rng = np.random.default_rng(seed)
        agent = PowerBalancerAgent(job_budget_w=hosts * per_host_w)
        ref = oracle.PowerBalancerAgent(job_budget_w=hosts * per_host_w)
        pair = PowerBalancerAgent.make_batch([
            PowerBalancerAgent(job_budget_w=hosts * per_host_w),
            PowerBalancerAgent(job_budget_w=hosts * per_host_w),
        ])
        busy = oracle.PowerBalancerAgent(job_budget_w=hosts * per_host_w)
        limits = np.full(hosts, 240.0)
        for epoch in range(12):
            times = rng.uniform(0.5, 1.0, hosts)
            if epoch in idle_epochs:
                times = np.zeros(hosts)
            powers = rng.uniform(150.0, 240.0, hosts)
            sample = _sample(epoch, times, powers, limits)
            busy_sample = _sample(epoch, rng.uniform(0.5, 1.0, hosts),
                                  powers, limits)
            got = agent.adjust(sample)
            want = ref.adjust(sample)
            np.testing.assert_array_equal(got, want)
            both = pair.adjust_batch(
                SampleBatch(
                    epoch=epoch,
                    host_time_s=np.stack([times, busy_sample.host_time_s]),
                    epoch_time_s=np.array([sample.epoch_time_s,
                                           busy_sample.epoch_time_s]),
                    host_power_w=np.stack([powers, powers]),
                    power_limit_w=np.stack([limits, limits]),
                    host_energy_j=np.stack([sample.host_energy_j,
                                            busy_sample.host_energy_j]),
                    mean_freq_ghz=np.stack([sample.mean_freq_ghz] * 2),
                ),
                np.arange(2),
            )
            np.testing.assert_array_equal(both[0], want)
            np.testing.assert_array_equal(both[1], busy.adjust(busy_sample))
            assert agent.converged() == ref.converged()
            assert agent.describe() == ref.describe()
            assert pair.describe_run(0) == ref.describe()
            assert pair.describe_run(1) == busy.describe()
            limits = want


class TestRepeatedRuns:
    @given(
        kind=st.sampled_from(
            ["monitor", "governor", "balancer", "balancer@190", "frequency",
             "duck"]
        ),
        seed=st.integers(0, 2**31),
        noise=st.sampled_from([0.0, 0.01]),
        first=st.integers(1, 30),
        second=st.integers(1, 30),
        min_epochs=st.integers(1, 5),
    )
    @settings(max_examples=30, deadline=None)
    def test_second_run_continues_state(self, kind, seed, noise, first,
                                        second, min_epochs):
        """A second ``run()`` on one controller continues the agent's
        state and the noise stream exactly as the oracle does."""
        hosts = 5
        job = _job("again", hosts, 16.0, 0.5, 2)
        eff = np.linspace(0.95, 1.05, hosts)
        agent, ref_agent = _agent_pair(kind, hosts)
        controller = Controller(job, eff, agent, noise_std=noise, seed=seed)
        ref = oracle.Controller(job, eff, ref_agent, noise_std=noise,
                                seed=seed)
        for max_epochs in (first, second):
            report = controller.run(max_epochs=max_epochs,
                                    min_epochs=min_epochs)
            ref_report = ref.run(max_epochs=max_epochs,
                                 min_epochs=min_epochs)
            _assert_controller_run(controller, report, ref, ref_report)
            assert agent.converged() == ref_agent.converged()
            assert agent.describe() == ref_agent.describe()


class TestAgentState:
    """Which agent objects a batch advances (see ``ControllerRunSpec``)."""

    HOSTS = 4

    def _spec(self, agent, name="s"):
        return ControllerRunSpec(
            job=_job(name, self.HOSTS, 16.0, 0.5, 2),
            efficiencies=np.linspace(0.95, 1.05, self.HOSTS), agent=agent,
        )

    def _balancer(self):
        return PowerBalancerAgent(job_budget_w=self.HOSTS * 200.0)

    def test_lone_balancer_is_advanced(self):
        agent = self._balancer()
        result = run_controller_batch(
            [self._spec(agent), self._spec(MonitorAgent(), "m")], max_epochs=40
        )
        assert agent.converged() == bool(result.converged[0])
        assert agent.describe() == result.reports[0].metadata
        assert agent.describe()["steps"] > 0

    def test_balancer_group_leaves_its_agents_fresh(self):
        agents = [self._balancer(), self._balancer()]
        specs = [self._spec(a, f"g{i}") for i, a in enumerate(agents)]
        first = run_controller_batch(specs, max_epochs=40)
        for c, agent in enumerate(agents):
            assert agent.describe()["steps"] == 0
            assert first.reports[c].metadata["steps"] > 0
        again = run_controller_batch(specs, max_epochs=40)
        assert again.reports == first.reports

    def test_stepped_agent_continues_in_a_later_batch(self):
        agent, ref_agent = self._balancer(), oracle.PowerBalancerAgent(
            job_budget_w=self.HOSTS * 200.0
        )
        spec = self._spec(agent)
        Controller(spec.job, spec.efficiencies, agent).run(max_epochs=5)
        oracle.Controller(spec.job, spec.efficiencies, ref_agent).run(
            max_epochs=5
        )
        # The stepped agent makes its group decline to the fallback,
        # which steps both agent objects in place.
        result = run_controller_batch(
            [spec, self._spec(self._balancer(), "fresh")], max_epochs=40
        )
        ref = oracle.Controller(spec.job, spec.efficiencies, ref_agent)
        _assert_batch_run(result, 0, ref, ref.run(max_epochs=40))
        assert agent.describe() == ref_agent.describe()


class TestFaultInjectedRuns:
    @given(
        scenario=st.sampled_from(SCENARIO_NAMES),
        seed=st.integers(0, 2**31),
        noise=st.sampled_from([0.0, 0.005]),
    )
    @settings(max_examples=25, deadline=None)
    def test_injected_runs_bit_identical(self, scenario, seed, noise):
        hosts = 4
        schedule = STANDARD_SCENARIOS[scenario].build(
            hosts * 240.0, hosts, 60.0
        )
        job = _job("flt", hosts, 16.0, 0.5, 2)

        def injector():
            return RuntimeFaultInjector(schedule, seed=seed)

        specs = [
            # A clean run batches alongside the injected ones.
            ControllerRunSpec(
                job=job, efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(job_budget_w=hosts * 240.0),
                noise_std=noise, seed=seed,
            ),
            ControllerRunSpec(
                job=job, efficiencies=np.ones(hosts),
                agent=PowerBalancerAgent(job_budget_w=hosts * 240.0),
                noise_std=noise, seed=seed, fault_injector=injector(),
            ),
        ]
        result = run_controller_batch(specs, max_epochs=40)
        for c, flt in enumerate([None, injector()]):
            ref = oracle.Controller(
                job, np.ones(hosts),
                oracle.PowerBalancerAgent(job_budget_w=hosts * 240.0),
                noise_std=noise, seed=seed, fault_injector=flt,
            )
            ref_report = ref.run(max_epochs=40)
            _assert_batch_run(result, c, ref, ref_report)
            controller = Controller(
                job, np.ones(hosts),
                PowerBalancerAgent(job_budget_w=hosts * 240.0),
                noise_std=noise, seed=seed,
                fault_injector=None if flt is None else injector(),
            )
            _assert_controller_run(
                controller, controller.run(max_epochs=40), ref, ref_report
            )


class TestBatchSemantics:
    def test_mismatched_hosts_rejected(self):
        specs = [
            ControllerRunSpec(
                job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(3),
                agent=MonitorAgent(),
            ),
            ControllerRunSpec(
                job=_job("b", 4, 8.0, 0.0, 1), efficiencies=np.ones(4),
                agent=MonitorAgent(),
            ),
        ]
        with pytest.raises(ValueError, match="host count"):
            run_controller_batch(specs)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError, match="at least one run"):
            run_controller_batch([])

    def test_bad_efficiency_shape_rejected(self):
        with pytest.raises(ValueError, match="efficiencies"):
            ControllerRunSpec(
                job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(5),
                agent=MonitorAgent(),
            )

    @pytest.mark.parametrize("field", ["noise_std", "barrier_overhead_s"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -0.5])
    def test_out_of_domain_scalars_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            ControllerRunSpec(
                job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(3),
                agent=MonitorAgent(), **{field: value},
            )

    def test_shared_initial_limits_broadcast(self):
        hosts = 3
        init = np.array([200.0, 180.0, 220.0])
        spec = ControllerRunSpec(
            job=_job("a", hosts, 8.0, 0.0, 1), efficiencies=np.ones(hosts),
            agent=MonitorAgent(),
        )
        result = run_controller_batch(
            [spec], initial_limits_w=init, max_epochs=3, min_epochs=3
        )
        ref = oracle.Controller(
            _job("a", hosts, 8.0, 0.0, 1), np.ones(hosts),
            oracle.MonitorAgent(),
        )
        report = ref.run(initial_limits_w=init, max_epochs=3, min_epochs=3)
        assert report == result.reports[0]

    def test_per_run_initial_limits_follow_their_runs(self):
        """A ``(C, hosts)`` start matrix reaches each run although the
        batch regroups its rows by agent batch."""
        hosts = 4
        kinds = ["balancer@200", "monitor", "duck", "governor", "monitor",
                 "balancer@200"]
        init = 150.0 + 15.0 * np.arange(len(kinds) * hosts).reshape(-1, hosts)
        jobs = [_job(f"r{c}", hosts, 8.0, 0.5, 2) for c in range(len(kinds))]
        specs = [
            ControllerRunSpec(job=job, efficiencies=np.ones(hosts),
                              agent=_agent_pair(kind, hosts)[0])
            for job, kind in zip(jobs, kinds)
        ]
        result = run_controller_batch(
            specs, initial_limits_w=init, max_epochs=12
        )
        for c, (job, kind) in enumerate(zip(jobs, kinds)):
            ref = oracle.Controller(job, np.ones(hosts),
                                    _agent_pair(kind, hosts)[1])
            ref_report = ref.run(initial_limits_w=init[c], max_epochs=12)
            _assert_batch_run(result, c, ref, ref_report)

    def test_bad_initial_limit_shape_rejected(self):
        spec = ControllerRunSpec(
            job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(3),
            agent=MonitorAgent(),
        )
        with pytest.raises(ValueError, match="initial limits"):
            run_controller_batch([spec], initial_limits_w=np.ones(2))

    def test_bad_epoch_budget_rejected(self):
        spec = ControllerRunSpec(
            job=_job("a", 3, 8.0, 0.0, 1), efficiencies=np.ones(3),
            agent=MonitorAgent(),
        )
        with pytest.raises(ValueError, match="max_epochs"):
            run_controller_batch([spec], max_epochs=0)
