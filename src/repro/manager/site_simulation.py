"""Time-stepped site simulation: arrivals, admission, dispatch, telemetry.

The capstone integration of the resource-manager substrate: jobs *arrive
over time*, the power-aware admission controller decides what starts
whenever capacity frees up, admitted batches run under a policy, and the
site's power telemetry accumulates into the Fig. 1-style record.  This is
the operating loop the paper's stack serves, driven end to end:

    arrivals -> JobQueue -> PowerAwareAdmission -> plan_batch
             -> execute_planned_batches (stacked passes, group finish)
             -> telemetry

The simulation is event-stepped at batch granularity: whenever the
cluster drains, the next admission round runs against everything that has
arrived by then.  (Co-scheduling newly admitted jobs alongside running
ones would need preemptive re-allocation, which the paper leaves to
future work; batch granularity keeps the model inside what the paper's
policies define.)

Every batch runs through one staged pipeline: :func:`plan_batch`
plans it through a memoising :class:`BatchPlanner` (layout, iteration
count and stacking signature come from the planner's per-shape memo),
and :func:`execute_planned_batches` runs each group of same-structure
batches as one ``(S, hosts)`` engine pass and finishes the group from
the pass's stacked arrays into :class:`BatchExecution` records
(:func:`finish_planned_batch` is the S=1 slice of that finish).  The
shift loop itself is one generator,
:func:`shift_rounds`, which yields each planned batch to its caller:
:func:`run_site_simulation` and the streaming engine's replay mode run
one S=1 pass per batch, the fused facility engine fuses the batches of
all clusters.  The rolling streaming engine (:mod:`repro.stream`) plans
and executes every admission flush through the same stages.

Fault replay
------------
An optional :class:`~repro.faults.schedule.FaultSchedule` turns the shift
into a resilience run.  Each admission round queries the schedule at the
site clock: the facility budget in force (drops, ramps, restores), the
failed-host set (scheduling moves to the healthy subset and the failed
hosts are quarantined for the batch), and whether a sensor dropout has
blinded characterization (the batch then plans through the
:func:`~repro.faults.degradation.plan_with_degradation` ladder's
characterization-free clamp tier).  Engine-applicable faults (stuck or
erroring caps, noise bursts) are re-clocked via
:meth:`~repro.faults.schedule.FaultSchedule.engine_slice`; a batch that
carries such a slice runs as its own S=1 group with the slice in its
:class:`~repro.sim.execution.SimulationOptions`.  Every fault
hook is gated on :attr:`~repro.faults.schedule.FaultSchedule.active`, so
``None`` and an *empty* schedule take the identical fault-free code path
and produce bit-identical results.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.characterization.mix_characterization import characterize_mix
from repro.core.policy import Policy
from repro.manager.admission import AdmissionDecision, PowerAwareAdmission
from repro.manager.power_manager import PowerManager, apply_job_runtime
from repro.manager.queue import JobQueue, JobRequest, JobState
from repro.manager.scheduler import ScheduledMix
from repro.hardware.cluster import Cluster
from repro.sim.execution import SimulationOptions
from repro.telemetry import emit, enabled, get_registry, span
from repro.units import ensure_positive
from repro.workload.job import WorkloadMix

__all__ = [
    "Arrival",
    "BatchRecord",
    "BatchExecution",
    "BatchPlanner",
    "PlannedBatch",
    "SiteSimulationResult",
    "execute_planned_batches",
    "finish_planned_batch",
    "plan_batch",
    "run_shift",
    "run_site_simulation",
    "shift_rounds",
    "stack_key",
]


@dataclass(frozen=True)
class Arrival:
    """One job submission with its arrival time."""

    time_s: float
    request: JobRequest

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise ValueError("arrival time must be non-negative")


@dataclass(frozen=True)
class BatchRecord:
    """One admission round and its execution.

    The trailing defaulted fields are only populated on fault-replay
    runs; a fault-free shift records the historical six fields exactly as
    before.
    """

    start_s: float
    end_s: float
    admitted: Tuple[str, ...]
    deferred: Tuple[str, ...]
    mean_power_w: float
    energy_j: float
    #: Facility budget in force when the batch launched (0 = not recorded).
    budget_w: float = 0.0
    #: Degradation-ladder tier that produced the caps ("none" fault-free).
    degradation_tier: str = "none"
    #: Hosts quarantined (out of the schedulable pool) during the batch.
    quarantined: Tuple[int, ...] = ()
    #: Watt-seconds above the *launch* budget after planning — the
    #: post-re-plan compliance quantity (zero on feasible scenarios for
    #: system-power-aware policies).
    planned_overshoot_ws: float = 0.0
    #: Total watt-seconds over budget including the reaction window of
    #: mid-batch budget drops (the pre-re-plan exposure).
    overshoot_ws: float = 0.0
    #: Simulated decision latency charged by degradation-ladder retries.
    backoff_s: float = 0.0

    @property
    def duration_s(self) -> float:
        """Wall time of the batch."""
        return self.end_s - self.start_s


@dataclass(frozen=True)
class BatchExecution:
    """One admitted batch, executed — the unit both site loops share.

    ``completion_s[i]`` is job ``i``'s completion clock **including** the
    degradation ladder's decision latency (``backoff_s``): retries delay
    the launch, so every job finishes no later than the batch's
    ``record.end_s`` (the job on the critical path finishes exactly
    then).
    """

    record: BatchRecord
    job_names: Tuple[str, ...]
    completion_s: Tuple[float, ...]


@dataclass(frozen=True)
class SiteSimulationResult:
    """Everything the simulated shift produced."""

    policy_name: str
    budget_w: float
    batches: Tuple[BatchRecord, ...]
    completed: Tuple[str, ...]
    never_admitted: Tuple[str, ...]
    job_turnaround_s: Dict[str, float]
    #: Name of the replayed fault schedule ("" on fault-free shifts).
    fault_schedule_name: str = ""
    #: Jobs still pending (or not yet arrived) when the shift hit its
    #: ``max_batches`` round limit — unfinished work, *not* jobs the
    #: admission controller rejected as unschedulable.
    truncated: Tuple[str, ...] = ()

    @property
    def makespan_s(self) -> float:
        """Clock time from first arrival to last completion."""
        return float(self.batches[-1].end_s) if self.batches else 0.0

    def total_overshoot_ws(self) -> float:
        """Watt-seconds over budget across the shift (reaction included)."""
        return float(sum(b.overshoot_ws for b in self.batches))

    def planned_overshoot_ws(self) -> float:
        """Watt-seconds over the launch budget after re-planning.

        The post-stage-2 compliance quantity: zero on feasible scenarios
        whenever the policy is system-power-aware.
        """
        return float(sum(b.planned_overshoot_ws for b in self.batches))

    def degraded_batches(self) -> Tuple[int, ...]:
        """Indices of batches planned below the re-plan tier."""
        return tuple(
            i for i, b in enumerate(self.batches)
            if b.degradation_tier not in ("none", "replan")
        )

    @property
    def total_energy_j(self) -> float:
        """Energy across all batches."""
        return float(sum(b.energy_j for b in self.batches))

    def mean_turnaround_s(self) -> float:
        """Mean submission-to-completion time over completed jobs."""
        if not self.job_turnaround_s:
            return 0.0
        return float(np.mean(list(self.job_turnaround_s.values())))

    def peak_power_w(self) -> float:
        """Highest batch mean power (the budget-compliance check)."""
        return max((b.mean_power_w for b in self.batches), default=0.0)


@dataclass(eq=False, slots=True)
class PlannedBatch:
    """An admitted batch, planned but not yet simulated.

    The unit passed between the pipeline's stages, so the expensive
    middle — the engine call — can be shared across co-resident batches:
    :func:`plan_batch` produces one of these per batch,
    :func:`execute_planned_batches` runs any number of them through
    :func:`~repro.sim.batch.simulate_layout_batch` grouped by job
    structure, and finishes each group into the
    :class:`BatchExecution` records the site loops consume.  A plain
    slotted record (one per admitted batch); treat it as read-only.

    ``structure`` is the ``(job boundaries, iterations)`` signature from
    the planner's per-shape memo, which :func:`stack_key` groups on.
    The trailing defaulted fields:

    * ``group_key`` is the cross-site grouping context — the "cluster
      dimension" of the fused facility engine.  Batches only fuse into
      one stacked pass when it matches; ``None`` (shared physics) fuses
      freely, which is correct whenever model and noise settings are
      global, because everything else (caps, efficiencies, seeds,
      budgets) is already per-row.
    * ``tier`` / ``backoff_s`` / ``fault_schedule`` / ``reaction_s`` /
      ``sim_budget_w`` carry the degradation-ladder outcome and the
      compliance-accounting inputs of a batch planned under an active
      fault schedule; ``engine_faults`` is that schedule's
      engine-applicable slice at the batch's clock (``None`` when no cap
      or noise fault can touch the run).  Fault-free batches leave them
      at their defaults.
    """

    clock: float
    batch_index: int
    decision: AdmissionDecision
    scheduled: "ScheduledMix"
    effective_caps: np.ndarray
    batch_seed: int
    policy: Policy
    budget_w: float
    batch_budget_w: float
    quarantined: Tuple[int, ...]
    structure: tuple
    group_key: object = None
    tier: str = "none"
    backoff_s: float = 0.0
    fault_schedule: object = None
    reaction_s: float = 1.0
    #: Budget quoted on the result metadata (``None`` → ``budget_w``);
    #: fault runs quote ``batch_budget_w``.
    sim_budget_w: Optional[float] = None
    engine_faults: object = None

    @property
    def mix(self) -> WorkloadMix:
        """The batch's workload mix (one entry per admitted job)."""
        return self.scheduled.mix


#: Entries held per level of the :class:`BatchPlanner` memo: shapes,
#: efficiency vectors per shape, and caps and ladder plans per (shape,
#: efficiencies) slot.  A level clears wholesale when full — the rule
#: the stacked-layout memo follows — so a stream whose host draws or
#: budgets never repeat cannot grow it without bound.
_PLAN_MEMO_LIMIT = 128


class BatchPlanner:
    """Memoised planning for a stream of admitted batches.

    Characterization and cap allocation depend only on the job *shapes*
    (kernel config, node count, iterations), the host-efficiency vector,
    and the budget — never on job or batch names — so a sustained stream
    drawing from a few job classes plans each (shape, hosts, budget)
    combination once and replays it from the memo thereafter.  This is
    the planning analogue of the admission controller's per-(config,
    nodes) estimate cache, and it reuses the same insight: streams are
    repetitive, physics is deterministic.

    Memo hits return the *identical* caps array (read-only) and a
    characterization re-labelled to the batch's mix name via
    ``dataclasses.replace`` — every numeric field byte-for-byte the one a
    fresh :func:`characterize_mix` + :meth:`PowerManager.plan` +
    :func:`apply_job_runtime` chain would produce, because that is
    exactly what populated the memo.  :meth:`plan_degraded` memoises the
    degradation ladder's plan the same way, for budget-only fault
    batches.
    """

    def __init__(self, manager: PowerManager, policy: Policy) -> None:
        self.manager = manager
        self.policy = policy
        # shape_key -> {"layout": HostLayout, "iters": int,
        #               "structure": (boundaries bytes, iters),
        #               "by_eff": {eff bytes -> {"char": ...,
        #                                        "caps": {budget -> caps},
        #                                        "plans": {(budget, config)
        #                                          -> (decision, caps)}}}}
        # One nested entry per shape so the (potentially expensive)
        # shape-key tuple — it hashes every KernelConfig field — is
        # hashed once per planned batch, not once per memo level.
        self._memo: Dict[tuple, dict] = {}
        #: Characterization-level memo hits/misses (the physics-pass
        #: savings a shared planner delivers across batches and, in the
        #: fused facility engine, across clusters).
        self.char_hits = 0
        self.char_misses = 0
        #: Degradation-ladder memo hits/misses (:meth:`plan_degraded`).
        self.plan_hits = 0
        self.plan_misses = 0

    def _shape_entry(self, mix: WorkloadMix) -> dict:
        """The per-shape memo entry for ``mix``; primes the mix's layout
        and iteration memos from it, so no batch of a known shape
        rebuilds them."""
        shape_key = tuple(
            (job.config, job.node_count, job.iterations) for job in mix.jobs
        )
        entry = self._memo.get(shape_key)
        if entry is None:
            if len(self._memo) >= _PLAN_MEMO_LIMIT:
                self._memo.clear()
            layout = mix.layout()
            iterations = mix.common_iterations()
            entry = {"layout": layout, "iters": iterations,
                     "structure": (layout.job_boundaries.tobytes(),
                                   iterations),
                     "by_eff": {}}
            self._memo[shape_key] = entry
        else:
            mix_memo = mix.__dict__
            mix_memo["_layout"] = entry["layout"]
            mix_memo["_common_iterations"] = entry["iters"]
        return entry

    def _lookup(self, scheduled: "ScheduledMix",
                entry: Optional[dict] = None) -> dict:
        """The per-(shape, efficiencies) memo slot, characterized.

        ``entry`` is the mix's :meth:`_shape_entry`, if already looked
        up.  Counts a characterization hit or miss.
        """
        if entry is None:
            entry = self._shape_entry(scheduled.mix)
        eff_key = scheduled.efficiencies.tobytes()
        by_eff = entry["by_eff"]
        sub = by_eff.get(eff_key)
        if sub is None:
            self.char_misses += 1
            char = characterize_mix(
                scheduled.mix, scheduled.efficiencies, self.manager.model
            )
            sub = {"char": char, "caps": {}, "plans": {}}
            if len(by_eff) >= _PLAN_MEMO_LIMIT:
                by_eff.clear()
            by_eff[eff_key] = sub
        else:
            self.char_hits += 1
        return sub

    def plan(self, scheduled: "ScheduledMix", budget_w: float,
             relabel: bool = True, entry: Optional[dict] = None):
        """Characterize + allocate, memoised.  Returns ``(char, caps)``.

        Also seeds the mix's layout memo from the per-shape cache:
        :meth:`WorkloadMix.layout` memoises per *instance*, but every
        streamed batch is a fresh mix object, so without this the layout
        would be rebuilt per batch even though it depends only on the
        job shapes (names appear nowhere in a :class:`HostLayout`).
        Sharing one read-only layout across same-shape batches also lets
        the vectorised step's stacked-layout cache hit by identity.

        ``relabel=False`` skips rewriting a memo-hit characterization's
        ``mix_name`` to the current batch's name — callers that discard
        the characterization (the streaming planner) shouldn't pay the
        ``dataclasses.replace`` on every batch.  ``entry`` is the mix's
        :meth:`_shape_entry`, when the caller already looked it up.
        """
        sub = self._lookup(scheduled, entry)
        char = sub["char"]
        if relabel and char.mix_name != scheduled.mix.name:
            char = dataclasses.replace(char, mix_name=scheduled.mix.name)
        budget_key = float(budget_w)
        by_budget = sub["caps"]
        caps = by_budget.get(budget_key)
        if caps is None:
            allocation = self.manager.plan(
                scheduled, self.policy, budget_w, char
            )
            caps = allocation.caps_w
            if self.policy.application_aware:
                caps = apply_job_runtime(char, caps)
            caps = np.asarray(caps, dtype=float)
            caps.setflags(write=False)
            if len(by_budget) >= _PLAN_MEMO_LIMIT:
                by_budget.clear()
            by_budget[budget_key] = caps
        return char, caps

    def plan_degraded(self, scheduled: "ScheduledMix", budget_w: float,
                      config=None, entry: Optional[dict] = None):
        """Plan through the degradation ladder, memoised.

        Returns ``(decision, effective_caps)``: the
        :class:`~repro.faults.degradation.DegradationDecision` a fresh
        :func:`~repro.faults.degradation.plan_with_degradation` call
        makes for this batch's characterization at ``budget_w`` under
        ``config``, and the caps the engine runs — the ladder's caps,
        passed through :func:`apply_job_runtime` on the ``replan`` tier
        for application-aware policies — as a read-only array.  The
        ladder is a pure function of (policy, characterization, budget,
        config), and the characterization is this slot's, so the result
        is keyed by ``(budget_w, config)`` inside the slot.

        A memo hit replays the decision's telemetry (the
        ``faults.degradation.*`` counters and the ``plan_degraded``
        event, quoting this call's budget), so registry totals are the
        ones a fresh ladder run per batch records.  Callers must not
        mutate the returned decision.  ``entry`` is as in :meth:`plan`.
        """
        from repro.faults.degradation import (
            plan_with_degradation,
            record_decision,
        )

        sub = self._lookup(scheduled, entry)
        budget = float(budget_w)
        plans = sub["plans"]
        key = (budget, config)
        hit = plans.get(key)
        if hit is not None:
            self.plan_hits += 1
            record_decision(hit[0], budget)
            return hit
        self.plan_misses += 1
        char = sub["char"]
        decision = plan_with_degradation(
            self.policy, budget, characterization=char, config=config,
        )
        caps = decision.caps_w
        if decision.tier == "replan" and self.policy.application_aware:
            caps = apply_job_runtime(char, caps)
        caps = np.asarray(caps, dtype=float)
        caps.setflags(write=False)
        if len(plans) >= _PLAN_MEMO_LIMIT:
            plans.clear()
        plans[key] = (decision, caps)
        return decision, caps


#: Shared read-only ``arange(n)`` vectors for the uniform-hosts fast
#: path of :func:`plan_batch` (one per batch size seen).
_IDENTITY_ORDERS: Dict[int, np.ndarray] = {}


def _identity_order(n: int) -> np.ndarray:
    order = _IDENTITY_ORDERS.get(n)
    if order is None:
        order = np.arange(n)
        order.setflags(write=False)
        _IDENTITY_ORDERS[n] = order
    return order


def plan_batch(
    *,
    clock: float,
    batch_index: int,
    admitted: Sequence[JobRequest],
    decision: AdmissionDecision,
    host_efficiencies: np.ndarray,
    planner: BatchPlanner,
    budget_w: float,
    batch_budget_w: float,
    quarantined: Tuple[int, ...] = (),
    run_seed: Optional[int] = None,
    uniform_hosts: bool = False,
    fault_schedule=None,
    degradation=None,
    reaction_s: float = 1.0,
) -> PlannedBatch:
    """Stage 1 of the batch pipeline: schedule and plan one admitted batch.

    ``host_efficiencies`` (a float array) are the efficiencies of the
    schedulable hosts in ascending host-id order.  Scheduling is :class:`Scheduler`'s draw:
    shuffle ``arange(len(hosts))`` under ``PCG64(batch_index)`` (the
    stream ``default_rng(batch_index)`` produces) and take the first
    ``mix.total_nodes`` entries — the shift loop passes its whole
    schedulable partition, the rolling engine exactly the batch's hosts.
    ``uniform_hosts=True`` asserts every efficiency is equal: the shuffle
    then permutes a constant vector, so it is skipped and a slice of the
    caller's array is bound (read-only by contract).  Every simulated
    quantity is unchanged; only the never-recorded ``node_ids`` differ.

    Caps come from ``planner`` (whose policy the batch runs):
    fault-free (``fault_schedule=None``; callers pass only an *active*
    schedule) through :meth:`BatchPlanner.plan` at ``budget_w``; with
    a ``fault_schedule`` through the degradation ladder at
    ``batch_budget_w`` (:meth:`BatchPlanner.plan_degraded`), or — while
    a sensor dropout blinds characterization at ``clock`` — through the
    ladder's characterization-free clamp tier.  A faulted batch also
    carries the schedule for stage 3's compliance accounting and its
    engine-applicable slice (``engine_slice(clock)``) for stage 2.  The
    batch's layout, iteration count and ``structure`` come from the
    planner's per-shape memo entry.
    """
    policy = planner.policy
    mix = WorkloadMix(f"batch-{batch_index}",
                      tuple(r.to_job() for r in admitted))
    entry = planner._shape_entry(mix)
    n = entry["layout"].host_count
    hosts = len(host_efficiencies)
    if n > hosts:
        raise ValueError(
            f"mix {mix.name!r} needs {n} nodes but the partition has {hosts}"
        )
    if uniform_hosts:
        scheduled = ScheduledMix.trusted(
            mix, _identity_order(n), host_efficiencies[:n]
        )
    else:
        order = np.arange(hosts)
        # Same stream as ``default_rng(batch_index)`` (an int seed is
        # handed straight to PCG64) but skips default_rng's
        # seed-normalisation layer — measurable at thousands of batches
        # per shift.
        np.random.Generator(np.random.PCG64(batch_index)).shuffle(order)
        node_ids = order[:n]
        scheduled = ScheduledMix.trusted(
            mix, node_ids, host_efficiencies[node_ids]
        )
    if run_seed is None:
        batch_seed = batch_index
    else:
        from repro.parallel.seeding import child_seed

        batch_seed = child_seed(run_seed, "site-batch", batch_index)
    faulted = {}
    if fault_schedule is None:
        _, effective_caps = planner.plan(scheduled, budget_w, False, entry)
    else:
        if fault_schedule.sensor_dropout_at(clock):
            from repro.faults.degradation import plan_with_degradation

            power_model = planner.manager.model.power_model
            plan = plan_with_degradation(
                policy, batch_budget_w, host_count=n,
                min_cap_w=power_model.min_cap_w, tdp_w=power_model.tdp_w,
                config=degradation,
            )
            effective_caps = plan.caps_w
        else:
            plan, effective_caps = planner.plan_degraded(
                scheduled, batch_budget_w, degradation, entry
            )
        faulted = dict(
            tier=plan.tier, backoff_s=plan.backoff_s,
            fault_schedule=fault_schedule, reaction_s=reaction_s,
            sim_budget_w=float(batch_budget_w),
            engine_faults=fault_schedule.engine_slice(clock),
        )
    # Positional: this runs once per admitted batch.
    return PlannedBatch(
        clock, batch_index, decision, scheduled, effective_caps,
        int(batch_seed), policy, float(budget_w), float(batch_budget_w),
        quarantined, entry["structure"], **faulted,
    )


def finish_planned_batch(planned: PlannedBatch, result) -> BatchExecution:
    """Stage 3 for one simulated row: the S=1 slice of the group finish.

    ``result`` is the row's :class:`~repro.sim.results.MixRunResult`
    (e.g. a serial ``simulate_mix`` run); it is stacked as a one-row
    pass and finished exactly as a row of a grouped pass would be.
    """
    from repro.sim.batch import LayoutBatchResult

    stacked = LayoutBatchResult.stack([planned.mix], [result])
    return _finish_passes([planned], [([0], stacked)])[0]


def _finish_passes(planned: Sequence[PlannedBatch],
                   passes) -> List[BatchExecution]:
    """Stage 3: fold every simulated row into a :class:`BatchExecution`.

    ``passes`` holds ``(indices into planned, LayoutBatchResult)`` per
    stacked pass.  Elapsed times, durations (critical path plus the
    ladder's ``backoff_s``), completion clocks, power and energy are
    whole-pass array operations whose rows are element-identical to the
    serial ``MixRunResult`` property chain (same summands and order,
    exact max, the same IEEE adds), read back with ``tolist()``.  Rows
    with a ``fault_schedule`` also get compliance accounting: overshoot
    against the launch budget plus the reaction windows of mid-batch
    budget drops.  Counters and the utilization gauge move once per
    call; histogram observations and ``batch_complete`` events stay per
    row, in ``planned`` order.
    """
    count = len(planned)
    executions: List[Optional[BatchExecution]] = [None] * count
    durations = [0.0] * count
    powers = [0.0] * count
    for indices, result in passes:
        rows = [planned[i] for i in indices]
        clocks = np.array([b.clock for b in rows])
        backoffs = np.array([b.backoff_s for b in rows])
        elapsed = result.iteration_times_s.sum(axis=1)
        duration = elapsed.max(axis=1) + backoffs
        completions = (
            clocks[:, None] + (elapsed + backoffs[:, None])
        ).tolist()
        ends = (clocks + duration).tolist()
        duration = duration.tolist()
        power = result.host_mean_power_w.sum(axis=1).tolist()
        energy = result.host_energy_j.sum(axis=1).tolist()
        overshoot = _group_overshoot(rows, result)
        for k, batch in enumerate(rows):
            planned_overshoot_ws = overshoot_ws = 0.0
            schedule = batch.fault_schedule
            if schedule is not None:
                from repro.faults.schedule import FaultKind

                # Reaction windows: each budget drop inside the batch is
                # charged at its mean draw above the dipped budget until
                # the actuator responds or the batch ends.
                planned_overshoot_ws = overshoot_ws = overshoot[k]
                clock, end = batch.clock, batch.clock + duration[k]
                for event in schedule.of_kind(FaultKind.BUDGET_CHANGE):
                    if clock < event.time_s < end:
                        dipped = schedule.budget_at(
                            max(event.time_s, event.end_s), batch.budget_w
                        )
                        window = min(batch.reaction_s, end - event.time_s)
                        overshoot_ws += max(0.0, power[k] - dipped) * window
            decision = batch.decision
            record = BatchRecord(
                batch.clock, ends[k], decision.admitted, decision.deferred,
                power[k], energy[k], batch.batch_budget_w, batch.tier,
                batch.quarantined, planned_overshoot_ws, overshoot_ws,
                batch.backoff_s,
            )
            i = indices[k]
            executions[i] = BatchExecution(
                record, batch.mix.job_names, tuple(completions[k])
            )
            durations[i] = duration[k]
            powers[i] = power[k]
    if count and enabled():
        registry = get_registry()
        histogram = registry.histogram("manager.site.batch_duration_s")
        utilization = 0.0
        for batch, duration_s, power_w in zip(planned, durations, powers):
            utilization = power_w / batch.batch_budget_w
            histogram.observe(duration_s)
            emit(
                "manager.site", "batch_complete",
                batch=batch.batch_index, policy=batch.policy.name,
                admitted=len(batch.decision.admitted),
                deferred=len(batch.decision.deferred),
                duration_s=duration_s, mean_power_w=power_w,
                utilization=utilization,
            )
        registry.gauge("manager.site.utilization").set(utilization)
        registry.counter("manager.site.batches").inc(count)
        registry.counter("manager.site.jobs_completed").inc(
            sum(len(e.job_names) for e in executions)
        )
    return executions


def _group_overshoot(rows: Sequence[PlannedBatch],
                     result) -> Optional[List[float]]:
    """Each row's watt-seconds above its launch budget, group-wide.

    The ``(S, iterations)`` form of
    :meth:`~repro.sim.results.MixRunResult.budget_overshoot_watt_seconds`
    at every row's ``batch_budget_w``: per-iteration wall time (exact
    max over jobs), iteration power, clipped excess, and a row-wise sum
    over the contiguous iteration axis — the same summands in the same
    order as the per-row call, so every row is element-identical to it.
    ``None`` when no row carries a fault schedule (nothing reads it).
    """
    if all(b.fault_schedule is None for b in rows):
        return None
    durations = result.iteration_times_s.max(axis=2)
    with np.errstate(invalid="ignore", divide="ignore"):
        power = np.where(durations > 0,
                         result.iteration_energy_j / durations, 0.0)
    budgets = np.array([b.batch_budget_w for b in rows])
    excess = np.maximum(power - budgets[:, None], 0.0)
    return np.sum(excess * durations, axis=1).tolist()


def stack_key(batch: PlannedBatch) -> object:
    """The stacked-pass group a planned batch joins in stage 2.

    Batches with equal keys share one ``(S, hosts)`` engine pass; a
    batch carrying ``engine_faults`` is keyed by itself, alone.
    """
    if batch.engine_faults is not None:
        return id(batch)
    return (batch.group_key, batch.structure)


def execute_planned_batches(
    planned: Sequence[PlannedBatch],
    manager: PowerManager,
    noise_std: float,
) -> List[BatchExecution]:
    """Stages 2 and 3: simulate all planned batches in grouped passes.

    Batches are grouped by :func:`stack_key`: job block structure
    (``job_boundaries``) and iteration count — the preconditions of
    :func:`~repro.sim.batch.simulate_layout_batch` — plus each batch's
    ``group_key`` (the cross-site grouping context; ``None`` everywhere
    on single-site streams).  Each group runs as one ``(S, hosts)``
    engine pass; batches from *different clusters* with matching
    structure therefore share a pass in the fused facility engine.  A
    batch that carries ``engine_faults`` runs as its own S=1 group with
    that slice in its :class:`~repro.sim.execution.SimulationOptions`.
    Each pass's stacked result is finished group-wise
    (:func:`_finish_passes`).  Per-row bit-identity to the serial
    ``simulate_mix`` call makes grouping invisible in the results: only
    wall clock changes.  Executions come back in input order.
    """
    from repro.sim.batch import simulate_layout_batch

    groups: Dict[object, List[int]] = {}
    for i, batch in enumerate(planned):
        groups.setdefault(stack_key(batch), []).append(i)
    passes = []
    with span("manager.site.batched_step", batches=len(planned),
              groups=len(groups)):
        for indices in groups.values():
            rows = [planned[i] for i in indices]
            passes.append((indices, simulate_layout_batch(
                [b.mix for b in rows],
                np.stack([b.effective_caps for b in rows]),
                np.stack([b.scheduled.efficiencies for b in rows]),
                manager.model,
                SimulationOptions(noise_std=noise_std,
                                  fault_schedule=rows[0].engine_faults),
                seeds=[b.batch_seed for b in rows],
                policy_names=[b.policy.name for b in rows],
                budgets_w=[
                    b.budget_w if b.sim_budget_w is None else b.sim_budget_w
                    for b in rows
                ],
            )))
    return _finish_passes(planned, passes)


def run_site_simulation(
    arrivals: Sequence[Arrival],
    cluster: Cluster,
    policy: Policy,
    budget_w: float,
    admission: Optional[PowerAwareAdmission] = None,
    manager: Optional[PowerManager] = None,
    noise_std: float = 0.004,
    max_batches: int = 100,
    run_seed: Optional[int] = None,
    fault_schedule=None,
    degradation=None,
    reaction_s: float = 1.0,
) -> SiteSimulationResult:
    """Run the arrival stream to completion (or the batch limit).

    Jobs are admitted in batches whenever the cluster is free; a job that
    can never fit (its own estimate exceeds the budget or the cluster) is
    reported in ``never_admitted`` rather than looping forever.  Jobs
    still pending (or unarrived) when the ``max_batches`` round limit
    cuts the shift short are reported separately in ``truncated`` — they
    are unfinished work, not admission rejections.

    ``run_seed`` selects the noise stream for the whole shift: ``None``
    keeps the legacy per-batch seeds (the batch index), while an integer
    derives each batch's seed from ``(run_seed, batch index)`` via
    ``SeedSequence`` — the knob :func:`repro.parallel.tasks.site_replays`
    uses to replay one arrival stream under independent noise.

    ``fault_schedule`` (a :class:`~repro.faults.schedule.FaultSchedule`,
    ``None`` or empty = fault-free, bit-identical to the historical path)
    replays facility/hardware faults against the shift; ``degradation``
    is the optional :class:`~repro.faults.degradation.DegradationConfig`
    for the planning ladder, and ``reaction_s`` the actuation window
    charged when a budget drops *mid-batch* before the next admission
    round can re-plan (overshoot during that window is recorded in
    ``BatchRecord.overshoot_ws``).

    Each round's batch runs as one S=1 :func:`execute_planned_batches`
    pass, planned through a per-shift :class:`BatchPlanner`.
    """
    ensure_positive(budget_w, "budget_w")
    manager = manager if manager is not None else PowerManager()
    injecting = fault_schedule is not None and fault_schedule.active
    with span("manager.site.run", policy=policy.name,
              budget_w=float(budget_w), arrivals=len(arrivals),
              hosts=len(cluster), injecting=injecting) as trace_sp:
        result = run_shift(
            shift_rounds(
                arrivals, cluster, budget_w, BatchPlanner(manager, policy),
                admission=admission, max_batches=max_batches,
                run_seed=run_seed, fault_schedule=fault_schedule,
                degradation=degradation, reaction_s=reaction_s,
            ),
            manager, noise_std,
        )
        if trace_sp is not None:
            trace_sp.set_attribute("batches", len(result.batches))
            trace_sp.set_attribute("completed", len(result.completed))
            trace_sp.set_attribute("makespan_s", result.makespan_s)
    return result


def run_shift(rounds, manager: PowerManager,
              noise_std: float) -> SiteSimulationResult:
    """Drive one :func:`shift_rounds` generator to its result.

    Every yielded batch executes as its own S=1
    :func:`execute_planned_batches` pass and is sent back.
    """
    try:
        batch = next(rounds)
        while True:
            (execution,) = execute_planned_batches(
                [batch], manager, noise_std
            )
            batch = rounds.send(execution)
    except StopIteration as stop:
        return stop.value


def shift_rounds(
    arrivals: Sequence[Arrival],
    cluster: Cluster,
    budget_w: float,
    planner: BatchPlanner,
    *,
    admission: Optional[PowerAwareAdmission] = None,
    max_batches: int = 100,
    run_seed: Optional[int] = None,
    fault_schedule=None,
    degradation=None,
    reaction_s: float = 1.0,
):
    """The shift loop as a resumable round generator.

    Every executable admission round plans its batch via
    :func:`plan_batch` against ``planner`` (whose policy the shift
    runs), **yields** the :class:`PlannedBatch`, and expects the caller
    to ``send()`` back the :class:`BatchExecution` of an
    :func:`execute_planned_batches` pass.  :func:`run_shift` runs one
    S=1 pass per batch; the fused facility engine drives one generator
    per cluster in lockstep and fuses the yielded batches into shared
    stacked passes.  Control flow, RNG draws, seeds, and accumulation
    order live here only, so every caller produces identical results.

    The generator's return value (via ``StopIteration.value``) is the
    :class:`SiteSimulationResult`.
    """
    policy = planner.policy
    injecting = fault_schedule is not None and fault_schedule.active
    if injecting:
        # Clock points at which fault state can change: re-check the
        # world there when an admission round comes up empty.
        fault_boundaries = fault_schedule.boundaries()
    else:
        fault_schedule = None
    if not arrivals:
        raise ValueError("need at least one arrival")
    # JobRequest carries its lifecycle state, so submitting the caller's
    # objects would leave them COMPLETED afterwards and a replay of the
    # same arrival stream would see nothing pending.  Submit fresh copies.
    arrivals = [
        dataclasses.replace(a, request=dataclasses.replace(a.request))
        for a in sorted(arrivals, key=lambda a: a.time_s)
    ]
    admission = admission if admission is not None else PowerAwareAdmission(
        model=planner.manager.model
    )
    efficiencies = cluster.efficiencies
    uniform = bool((efficiencies == efficiencies[0]).all())

    queue = JobQueue()
    arrival_time: Dict[str, float] = {}
    # Cursor into the sorted stream — O(1) per arrival, where the
    # historical list.pop(0) walked the whole tail every admission.
    stream_pos = 0
    clock = 0.0
    batches: List[BatchRecord] = []
    completed: List[str] = []
    failed: List[str] = []
    turnaround: Dict[str, float] = {}

    for _ in range(max_batches):
        # Admit everything that has arrived by the current clock; if the
        # queue is empty, jump to the next arrival.
        while stream_pos < len(arrivals) \
                and arrivals[stream_pos].time_s <= clock:
            arrival = arrivals[stream_pos]
            stream_pos += 1
            queue.submit(arrival.request)
            arrival_time[arrival.request.name] = arrival.time_s
        if not queue.pending():
            if stream_pos >= len(arrivals):
                break
            clock = arrivals[stream_pos].time_s
            continue

        # Query the fault timeline at the site clock.  Fault-free these
        # stay the caller's budget and full cluster.
        batch_budget_w = budget_w
        host_eff = efficiencies
        quarantined: Tuple[int, ...] = ()
        if injecting:
            batch_budget_w = fault_schedule.budget_at(clock, budget_w)
            failed_hosts = fault_schedule.failed_hosts_at(clock)
            if failed_hosts:
                healthy = [
                    i for i in range(len(cluster)) if i not in failed_hosts
                ]
                quarantined = tuple(sorted(failed_hosts))
                # An empty partition is a total outage: wait it out.
                host_eff = efficiencies[healthy]

        can_admit = len(host_eff) > 0 and batch_budget_w > 0
        decision = admission.decide(
            queue, batch_budget_w, nodes_available=len(host_eff), mark=True,
        ) if can_admit else None
        if decision is None or not decision.admitted:
            if injecting:
                # The dip may pass: advance to the next fault boundary
                # and retry admission there instead of failing the job.
                upcoming = [t for t in fault_boundaries if t > clock]
                if upcoming:
                    clock = upcoming[0]
                    continue
            # Nothing fits: drop the head-of-queue job as unschedulable
            # (its estimate alone exceeds capacity) and try again.
            stuck = queue.pending()[0]
            queue.mark(stuck.name, JobState.FAILED)
            failed.append(stuck.name)
            continue

        execution = yield plan_batch(
            clock=clock,
            batch_index=len(batches),
            admitted=[queue.get(name) for name in decision.admitted],
            decision=decision,
            host_efficiencies=host_eff,
            planner=planner,
            budget_w=budget_w,
            batch_budget_w=batch_budget_w,
            quarantined=quarantined,
            run_seed=run_seed,
            uniform_hosts=uniform,
            fault_schedule=fault_schedule,
            degradation=degradation,
            reaction_s=reaction_s,
        )
        batches.append(execution.record)
        for name, completion in zip(execution.job_names,
                                    execution.completion_s):
            queue.mark(name, JobState.RUNNING)
            queue.mark(name, JobState.COMPLETED)
            completed.append(name)
            turnaround[name] = completion - arrival_time[name]
        clock = execution.record.end_s

    truncated = tuple(r.name for r in queue.pending()) + tuple(
        a.request.name for a in arrivals[stream_pos:]
    )
    result = SiteSimulationResult(
        policy_name=policy.name,
        budget_w=float(budget_w),
        batches=tuple(batches),
        completed=tuple(completed),
        never_admitted=tuple(failed),
        job_turnaround_s=turnaround,
        fault_schedule_name=fault_schedule.name if injecting else "",
        truncated=truncated,
    )
    if enabled():
        registry = get_registry()
        registry.histogram("manager.site.makespan_s").observe(result.makespan_s)
        emit(
            "manager.site", "simulation_complete",
            policy=policy.name, batches=len(batches),
            completed=len(completed), never_admitted=len(result.never_admitted),
            makespan_s=result.makespan_s,
            mean_turnaround_s=result.mean_turnaround_s(),
        )
    return result
