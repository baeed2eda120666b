"""Frozen reference for the site batch pipeline (test oracle).

``execute_admitted_batch`` below is the scalar per-batch path the
package ran before every site batch went through the staged
``plan_batch`` → ``execute_planned_batches`` → ``finish_planned_batch``
pipeline: characterize, plan (through the degradation ladder under an
active fault schedule), one ``simulate_mix`` call, compliance accounting.
It is kept here verbatim so the identity suites compare the staged
pipeline against an independent implementation.  Nothing under ``src/``
imports this module; do not edit the function.

``oracle_site_simulation`` runs the shift loop with every batch executed
by the frozen path, and ``OracleStreamEngine`` is a rolling engine whose
admission flushes do the same.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.characterization.mix_characterization import characterize_mix
from repro.core.policy import Policy
from repro.hardware.cluster import Cluster
from repro.manager.admission import AdmissionDecision
from repro.manager.power_manager import PowerManager, apply_job_runtime
from repro.manager.queue import JobRequest
from repro.manager.scheduler import Scheduler
from repro.manager.site_simulation import (
    BatchExecution,
    BatchPlanner,
    BatchRecord,
    shift_rounds,
)
from repro.sim.execution import SimulationOptions
from repro.stream.engine import SiteStreamEngine
from repro.stream.events import EventKind
from repro.telemetry import emit, enabled, get_registry, span
from repro.workload.job import WorkloadMix


def execute_admitted_batch(
    *,
    clock: float,
    batch_index: int,
    admitted: Sequence[JobRequest],
    decision: AdmissionDecision,
    batch_cluster: Cluster,
    policy: Policy,
    budget_w: float,
    batch_budget_w: float,
    quarantined: Tuple[int, ...],
    manager: PowerManager,
    noise_std: float,
    run_seed: Optional[int],
    fault_schedule,
    degradation,
    reaction_s: float,
    injecting: bool,
) -> BatchExecution:
    """Schedule, plan, and execute one admitted batch at ``clock``.

    The per-batch physics of the shift loop, extracted so the streaming
    site engine (:mod:`repro.stream.engine`) runs *exactly* this code:
    identical scheduling shuffle (``shuffle_seed=batch_index``), identical
    noise-seed derivation, identical degradation/overshoot accounting.
    Replaying one arrival list through either loop therefore produces
    bit-identical batch records.

    ``budget_w`` is the budget the planner quotes on fault-free launches
    (the batch's share of the facility budget); ``batch_budget_w`` the
    fault-adjusted budget in force at launch, used by the degradation
    ladder and the compliance accounting.
    """
    mix = WorkloadMix(
        name=f"batch-{batch_index}",
        jobs=tuple(r.to_job() for r in admitted),
    )
    scheduled = Scheduler(
        batch_cluster, shuffle_seed=batch_index
    ).allocate(mix)
    if run_seed is None:
        batch_seed = batch_index
    else:
        from repro.parallel.seeding import child_seed

        batch_seed = child_seed(run_seed, "site-batch", batch_index)
    tier = "none"
    backoff_s = 0.0
    with span("manager.site.batch", batch=batch_index,
              admitted=len(decision.admitted),
              quarantined=len(quarantined)) as batch_sp:
        if not injecting:
            char = characterize_mix(
                mix, scheduled.efficiencies, manager.model
            )
            run = manager.launch(
                scheduled, policy, budget_w, characterization=char,
                options=SimulationOptions(
                    noise_std=noise_std, seed=batch_seed
                ),
            )
            result = run.result
        else:
            from repro.faults.degradation import plan_with_degradation
            from repro.faults.schedule import FaultKind
            from repro.sim.execution import simulate_mix

            # Plan through the degradation ladder: sensor dropouts
            # blind characterization, forcing the clamp tier.
            blinded = bool(fault_schedule.sensor_dropout_at(clock))
            char = None if blinded else characterize_mix(
                mix, scheduled.efficiencies, manager.model
            )
            plan = plan_with_degradation(
                policy, batch_budget_w, characterization=char,
                host_count=scheduled.mix.total_nodes,
                min_cap_w=manager.model.power_model.min_cap_w,
                tdp_w=manager.model.power_model.tdp_w,
                config=degradation,
            )
            tier, backoff_s = plan.tier, plan.backoff_s
            caps = plan.caps_w
            if char is not None and plan.tier == "replan" \
                    and policy.application_aware:
                caps = apply_job_runtime(char, caps)
            result = simulate_mix(
                scheduled.mix, caps, scheduled.efficiencies,
                manager.model,
                SimulationOptions(
                    noise_std=noise_std, seed=batch_seed,
                    fault_schedule=fault_schedule.engine_slice(clock),
                ),
                policy_name=policy.name, budget_w=batch_budget_w,
            )
        duration = float(np.max(result.job_elapsed_s)) + backoff_s
        planned_overshoot_ws = 0.0
        overshoot_ws = 0.0
        if injecting:
            # Post-plan compliance against the launch budget, judged
            # on the iteration power trace...
            planned_overshoot_ws = result.budget_overshoot_watt_seconds(
                batch_budget_w
            )
            overshoot_ws = planned_overshoot_ws
            # ...plus the reaction window of any budget drop landing
            # mid-batch, charged at the batch's mean draw until the
            # actuator responds.
            mean_p = result.mean_system_power_w
            for event in fault_schedule.of_kind(FaultKind.BUDGET_CHANGE):
                if clock < event.time_s < clock + duration:
                    dipped = fault_schedule.budget_at(
                        max(event.time_s, event.end_s), budget_w
                    )
                    window = min(
                        reaction_s, clock + duration - event.time_s
                    )
                    overshoot_ws += max(0.0, mean_p - dipped) * window
        if batch_sp is not None:
            batch_sp.set_attribute("degradation_tier", tier)
            batch_sp.set_attribute("duration_s", duration)
    record = BatchRecord(
        start_s=clock,
        end_s=clock + duration,
        admitted=decision.admitted,
        deferred=decision.deferred,
        mean_power_w=result.mean_system_power_w,
        energy_j=result.total_energy_j,
        budget_w=float(batch_budget_w),
        degradation_tier=tier,
        quarantined=quarantined,
        planned_overshoot_ws=planned_overshoot_ws,
        overshoot_ws=overshoot_ws,
        backoff_s=backoff_s,
    )
    if enabled():
        registry = get_registry()
        utilization = result.mean_system_power_w / batch_budget_w
        registry.gauge("manager.site.utilization").set(utilization)
        registry.histogram("manager.site.batch_duration_s").observe(duration)
        registry.counter("manager.site.batches").inc()
        registry.counter("manager.site.jobs_completed").inc(
            len(result.job_names)
        )
        emit(
            "manager.site", "batch_complete",
            batch=batch_index, policy=policy.name,
            admitted=len(decision.admitted),
            deferred=len(decision.deferred),
            duration_s=duration,
            mean_power_w=float(result.mean_system_power_w),
            utilization=utilization,
        )
    # The ladder's decision latency delays the launch, so it is charged
    # to every job's completion: elapsed + backoff keeps the float
    # operation order of ``duration`` and lands the critical-path job
    # exactly on ``record.end_s`` (fault-free, backoff is 0.0 and the
    # historical values are reproduced bit-for-bit).
    completions = tuple(
        clock + (float(elapsed) + backoff_s)
        for elapsed in result.job_elapsed_s
    )
    return BatchExecution(
        record=record,
        job_names=tuple(result.job_names),
        completion_s=completions,
    )


def oracle_site_simulation(arrivals, cluster, policy, budget_w, *,
                           manager=None, noise_std=0.004, max_batches=100,
                           run_seed=None, fault_schedule=None,
                           degradation=None, reaction_s=1.0):
    """``run_site_simulation`` with each batch run by the frozen path.

    The shift loop's admission rounds come from ``shift_rounds``; every
    batch it yields is discarded and executed by
    :func:`execute_admitted_batch` on the healthy-host subset instead.
    """
    manager = manager if manager is not None else PowerManager()
    injecting = fault_schedule is not None and fault_schedule.active
    requests = {a.request.name: a.request for a in arrivals}
    rounds = shift_rounds(
        arrivals, cluster, budget_w, BatchPlanner(manager, policy),
        max_batches=max_batches, run_seed=run_seed,
        fault_schedule=fault_schedule, degradation=degradation,
        reaction_s=reaction_s,
    )
    try:
        planned = next(rounds)
        while True:
            healthy = [i for i in range(len(cluster))
                       if i not in planned.quarantined]
            planned = rounds.send(execute_admitted_batch(
                clock=planned.clock, batch_index=planned.batch_index,
                admitted=[requests[n] for n in planned.decision.admitted],
                decision=planned.decision,
                batch_cluster=cluster.subset(healthy), policy=policy,
                budget_w=budget_w, batch_budget_w=planned.batch_budget_w,
                quarantined=planned.quarantined, manager=manager,
                noise_std=noise_std, run_seed=run_seed,
                fault_schedule=fault_schedule, degradation=degradation,
                reaction_s=reaction_s, injecting=injecting,
            ))
    except StopIteration as stop:
        return stop.value


class OracleStreamEngine(SiteStreamEngine):
    """A rolling engine whose admission flushes run the frozen path."""

    def _execute_collected(self, collected) -> None:
        for (batch_index, decision, names, host_ids, share_w,
             quarantined) in collected:
            execution = execute_admitted_batch(
                clock=self.clock, batch_index=batch_index,
                admitted=[self.queue.get(n) for n in names],
                decision=decision,
                batch_cluster=self.cluster.subset(host_ids),
                policy=self.policy, budget_w=share_w,
                batch_budget_w=share_w, quarantined=quarantined,
                manager=self.manager, noise_std=self.noise_std,
                run_seed=self.run_seed, fault_schedule=self.fault_schedule,
                degradation=self.degradation, reaction_s=self.reaction_s,
                injecting=self.injecting,
            )
            self.loop.push(
                execution.record.end_s, EventKind.BATCH_COMPLETE,
                execution=execution, hosts=tuple(host_ids), share_w=share_w,
            )
