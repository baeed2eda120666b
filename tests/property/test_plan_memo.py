"""Property suite: the planner's degradation-ladder memo.

:meth:`BatchPlanner.plan_degraded` serves budget-only fault batches from
a per-(shape, efficiencies, budget, config) memo.  Its contract is that
a memoised plan — first computed or replayed — equals a fresh
:func:`plan_with_degradation` run plus :func:`apply_job_runtime` on the
``replan`` tier, field by field and byte for byte, and that a replay
records the same telemetry the ladder would have.  The five paper
policies never fail an allocation at a budget above the floor, so the
retry and clamp tiers are reached through a wrapper that rejects
budgets above a threshold and otherwise delegates to the real policy.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.characterization.mix_characterization import characterize_mix
from repro.core.policy import Policy
from repro.core.registry import POLICY_NAMES, create_policy
from repro.faults.degradation import DegradationConfig, plan_with_degradation
from repro.hardware.cluster import Cluster
from repro.manager.power_manager import PowerManager, apply_job_runtime
from repro.manager.scheduler import Scheduler
from repro.manager import site_simulation
from repro.manager.site_simulation import BatchPlanner
from repro.telemetry import get_bus, get_registry, reset
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import KernelConfig

HOSTS = 4
MIN_CAP_W = 136.0
TDP_W = 240.0
FLOOR_W = HOSTS * MIN_CAP_W


class _CappedPolicy(Policy):
    """A real policy that fails every allocation above ``limit_w``."""

    def __init__(self, base: Policy, limit_w: float) -> None:
        self.base = base
        self.limit_w = limit_w
        self.name = base.name
        self.system_power_aware = base.system_power_aware
        self.application_aware = base.application_aware

    def _allocate(self, char, budget_w):
        if budget_w > self.limit_w:
            raise ValueError("allocation rejected above the limit")
        return self.base._allocate(char, budget_w)


def _scheduled(seed: int = 0, name: str = "batch-0",
               intensities=(0.5, 16.0)):
    mix = WorkloadMix(name=name, jobs=tuple(
        Job(name=f"j{i}", config=KernelConfig(intensity=x), node_count=2,
            iterations=4)
        for i, x in enumerate(intensities)
    ))
    cluster = Cluster(node_count=HOSTS, seed=seed)
    return Scheduler(cluster, shuffle_seed=seed).allocate(mix)


def _fresh(policy, scheduled, budget_w, config, manager):
    """The per-batch chain the memo replaces."""
    char = characterize_mix(scheduled.mix, scheduled.efficiencies,
                            manager.model)
    decision = plan_with_degradation(policy, budget_w, characterization=char,
                                     config=config)
    caps = decision.caps_w
    if decision.tier == "replan" and policy.application_aware:
        caps = apply_job_runtime(char, caps)
    return decision, np.asarray(caps, dtype=float)


def _assert_same_plan(memo, fresh):
    (decision, caps), (expected, expected_caps) = memo, fresh
    assert caps.tobytes() == expected_caps.tobytes()
    assert caps.dtype == expected_caps.dtype
    assert decision.tier == expected.tier
    assert decision.attempts == expected.attempts
    assert decision.backoff_s == expected.backoff_s
    assert decision.planned_budget_w == expected.planned_budget_w
    assert decision.feasible == expected.feasible
    assert decision.caps_w.tobytes() == expected.caps_w.tobytes()
    assert not caps.flags.writeable


def _tier_case(name: str, tier: str):
    """(policy, budget, config, expected (tier, attempts)) for one tier."""
    base = create_policy(name)
    config = DegradationConfig(max_retries=2, retry_margin=0.01,
                               backoff_s=0.25)
    budget = 900.0
    if tier == "floor":
        return base, FLOOR_W - 1.0, config, ("floor", 0)
    if tier == "first_try":
        return base, budget, config, ("replan", 1)
    if tier == "retry":
        # Attempt 0 plans at 900 W (rejected), attempt 1 at 891 W.
        return _CappedPolicy(base, 895.0), budget, config, ("replan", 2)
    # Every attempt is rejected: the ladder falls through to the clamp.
    return _CappedPolicy(base, FLOOR_W), budget, config, ("clamp", 3)


class TestMemoisedPlanEqualsFreshLadder:
    @pytest.mark.parametrize("tier", ["floor", "clamp", "retry", "first_try"])
    @pytest.mark.parametrize("name", POLICY_NAMES)
    def test_every_tier_every_policy(self, name, tier):
        policy, budget, config, (want_tier, want_attempts) = \
            _tier_case(name, tier)
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        scheduled = _scheduled()
        fresh = _fresh(policy, scheduled, budget, config, manager)
        assert (fresh[0].tier, fresh[0].attempts) == \
            (want_tier, want_attempts)
        first = planner.plan_degraded(scheduled, budget, config)
        # A same-shape batch under another name hits the memo.
        again = planner.plan_degraded(_scheduled(name="batch-1"), budget,
                                      config)
        assert (planner.plan_misses, planner.plan_hits) == (1, 1)
        assert again[1] is first[1]
        _assert_same_plan(first, fresh)
        _assert_same_plan(again, fresh)

    def test_budget_and_config_are_both_keyed(self):
        policy = _CappedPolicy(create_policy("JobAdaptive"), 895.0)
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        scheduled = _scheduled()
        no_retry = DegradationConfig(max_retries=0)
        cases = [(900.0, None), (900.0, no_retry), (880.0, no_retry),
                 (900.0, DegradationConfig())]
        tiers = []
        for budget, config in cases:
            fresh = _fresh(policy, scheduled, budget, config, manager)
            _assert_same_plan(
                planner.plan_degraded(scheduled, budget, config), fresh
            )
            tiers.append(fresh[0].tier)
        assert tiers == ["replan", "clamp", "replan", "replan"]

    @given(
        name=st.sampled_from(POLICY_NAMES),
        fraction=st.floats(0.45, 1.3),
        limit=st.one_of(st.none(), st.floats(0.4, 1.3)),
        retries=st.integers(0, 3),
        margin=st.sampled_from([0.0, 0.005, 0.02, 0.1]),
        default_config=st.booleans(),
        seed=st.integers(0, 3),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_budgets_and_configs(self, name, fraction, limit,
                                        retries, margin, default_config,
                                        seed):
        policy = create_policy(name)
        if limit is not None:
            policy = _CappedPolicy(policy, limit * HOSTS * TDP_W)
        config = None if default_config else DegradationConfig(
            max_retries=retries, retry_margin=margin, backoff_s=0.5,
        )
        budget = fraction * HOSTS * TDP_W
        manager = PowerManager()
        planner = BatchPlanner(manager, policy)
        scheduled = _scheduled(seed)
        fresh = _fresh(policy, scheduled, budget, config, manager)
        for _ in range(2):
            _assert_same_plan(
                planner.plan_degraded(scheduled, budget, config), fresh
            )
        assert (planner.plan_misses, planner.plan_hits) == (1, 1)


class TestReplayedTelemetry:
    @pytest.mark.parametrize("tier", ["floor", "clamp", "retry", "first_try"])
    def test_hit_records_what_the_ladder_records(self, tier):
        policy, budget, config, _ = _tier_case("MixedAdaptive", tier)
        manager = PowerManager()
        scheduled = _scheduled()

        def degradation_record():
            counters = {
                name: value
                for name, value
                in get_registry().snapshot()["counters"].items()
                if name.startswith("faults.degradation.")
            }
            events = [
                dict(e.payload) for e in get_bus().events()
                if e.kind == "plan_degraded"
            ]
            return counters, events

        reset()
        for _ in range(3):
            _fresh(policy, scheduled, budget, config, manager)
        expected = degradation_record()
        reset()
        planner = BatchPlanner(manager, policy)
        for _ in range(3):
            planner.plan_degraded(scheduled, budget, config)
        assert planner.plan_hits == 2
        assert degradation_record() == expected
        assert sum(expected[0].values()) >= 3
        assert len(expected[1]) == 3
        assert all(e["requested_budget_w"] == budget for e in expected[1])


class TestMemoBound:
    def test_slot_stays_within_limit(self):
        policy = create_policy("StaticCaps")
        planner = BatchPlanner(PowerManager(), policy)
        scheduled = _scheduled()
        limit = site_simulation._PLAN_MEMO_LIMIT
        for i in range(limit + 40):
            planner.plan_degraded(scheduled, 700.0 + i, None)
            (entry,) = planner._memo.values()
            (slot,) = entry["by_eff"].values()
            assert len(slot["plans"]) <= limit
        assert planner.plan_misses == limit + 40
        # Re-planning a budget evicted by the wholesale clear misses
        # again and still matches the fresh ladder.
        fresh = _fresh(policy, scheduled, 700.0, None, PowerManager())
        _assert_same_plan(planner.plan_degraded(scheduled, 700.0, None),
                          fresh)
