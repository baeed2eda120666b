"""The bulk-synchronous execution loop, vectorised over hosts x iterations.

Each iteration of the synthetic kernel proceeds as in the paper's Fig. 2:
every host runs its compute phase, the job's iteration time is the maximum
over its hosts (the critical path), and early finishers busy-poll at the
barrier until the iteration ends.  Energy is compute power over the compute
phase plus poll power over the slack.

Noise model: compute-phase times receive i.i.d. multiplicative lognormal
noise per host-iteration (OS jitter, DRAM refresh, cache state), which is
what gives repeated iterations the spread behind the paper's 95 %
confidence intervals.  Work amounts are deterministic — noise stretches
time, not FLOPs.

The engine body (:func:`_execute_scenarios`) carries a leading *scenario*
axis: it evaluates an ``(S, hosts)`` cap matrix as ``S`` independent
executions in one pass over ``(S, iterations, hosts)`` tensors.
:func:`simulate_mix` is the single-scenario entry point (``S = 1``);
:func:`repro.sim.batch.simulate_cap_batch` exposes the full batch.  Both
paths share this one implementation, so batched results are bit-identical
to serial ones by construction — the property pinned by
``tests/property/test_batch_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from repro.sim.engine import ExecutionModel
from repro.sim.results import MixRunResult
from repro.telemetry import ScopedTimer, emit, enabled, get_registry, span
from repro.units import ensure_non_negative
from repro.workload.job import WorkloadMix

if TYPE_CHECKING:  # imported lazily at runtime (repro.faults -> repro.core
    # -> repro.sim would otherwise be a module-level import cycle)
    from repro.faults.schedule import FaultSchedule

__all__ = ["SimulationOptions", "DEFAULT_OPTIONS", "simulate_mix"]


def _active_cache():
    """The process-global characterization cache, if one is installed.

    Imported lazily: the parallel package is an optional consumer of
    this module, and a hot path must not pay for it unless caching is
    actually activated somewhere in the process.
    """
    from repro.parallel.cache import active_cache

    return active_cache()


@dataclass(frozen=True)
class SimulationOptions:
    """Knobs of the execution simulation.

    Attributes
    ----------
    noise_std:
        Standard deviation of the lognormal compute-time noise (relative).
        0.008 gives the ~1 % iteration-to-iteration spread typical of a
        dedicated HPC partition.
    barrier_overhead_s:
        Fixed per-iteration barrier cost added to every job's iteration
        time (tree barrier latency at ~100 nodes).
    seed:
        RNG seed; identical seeds reproduce identical runs bit-for-bit.
    fault_schedule:
        Optional :class:`~repro.faults.schedule.FaultSchedule` injected
        into the execution (run-relative clock).  The engine applies the
        actuator faults (``CAP_STUCK`` / ``CAP_ERROR`` override the
        programmed caps) and ``NOISE_BURST`` windows (compute-noise sigma
        raised over the iterations a burst covers, mapped through each
        scenario's nominal iteration length).  ``None`` or an *empty*
        schedule leaves the execution path untouched — fault-free runs
        are bit-identical to pre-fault-subsystem runs by construction.
        The schedule participates in characterization-cache keys, so
        faulted and fault-free results never collide.
    """

    noise_std: float = 0.008
    barrier_overhead_s: float = 5.0e-4
    seed: int = 0
    fault_schedule: Optional[FaultSchedule] = None

    def __post_init__(self) -> None:
        ensure_non_negative(self.noise_std, "noise_std")
        ensure_non_negative(self.barrier_overhead_s, "barrier_overhead_s")


#: Shared default options.  The dataclass is frozen, so one instance can
#: safely serve every ``options=None`` call — constructing (and
#: re-validating) fresh defaults per simulation was measurable on sweep
#: hot paths.  Never use this as a *def-line* default (see the
#: mutable-default regression test); functions take ``options=None`` and
#: substitute this in the body.
DEFAULT_OPTIONS = SimulationOptions()


@dataclass(frozen=True)
class _ScenarioTensors:
    """Stacked outputs of the batched engine core (leading axis = S),
    named as the :class:`~repro.sim.results.MixRunResult` fields their
    rows become."""

    iteration_times_s: np.ndarray   # (S, iterations, jobs)
    iteration_energy_j: np.ndarray  # (S, iterations)
    host_energy_j: np.ndarray       # (S, hosts)
    host_mean_power_w: np.ndarray   # (S, hosts)
    total_gflop: np.ndarray         # (S,)


def _engine_fault_plan(
    schedule: FaultSchedule,
    caps: np.ndarray,
    layout,
    efficiencies: np.ndarray,
    model: ExecutionModel,
    n_iter: int,
    noise_std: float,
    barrier_overhead_s: float,
):
    """Translate a schedule into static cap overrides + per-iteration sigmas.

    The engine evaluates static-cap runs, so time-varying faults are
    mapped through each scenario's *nominal* clock: iteration ``i`` of
    scenario ``s`` covers ``[i * T_s, (i+1) * T_s)`` where ``T_s`` is the
    deterministic (pre-fault, noise-free) critical-path iteration time.
    Actuator faults whose window overlaps the run override the affected
    caps for the whole run (a static-cap run cannot half-obey a write);
    noise bursts raise the lognormal sigma on exactly the iterations
    their window covers.

    Returns ``(caps_after_overrides, sigma_si or None, overrides_count)``
    with ``sigma_si`` of shape ``(S, n_iter)`` when any burst applies.
    """
    from repro.faults.schedule import FaultKind

    scenarios = caps.shape[0]
    hosts = layout.host_count
    tdp_w = model.power_model.tdp_w
    # Nominal per-scenario iteration length from the *programmed* caps.
    freq0 = model.frequencies(model.power_model.clamp_cap(caps), layout,
                              efficiencies)
    t0 = model.compute_time(freq0, layout)
    iter_s = np.max(np.broadcast_to(t0, (scenarios, hosts)), axis=1) \
        + barrier_overhead_s

    out_caps = np.array(caps, dtype=float, copy=True)
    override_count = 0
    cap_events = schedule.of_kind(FaultKind.CAP_STUCK, FaultKind.CAP_ERROR)
    burst_events = schedule.of_kind(FaultKind.NOISE_BURST)
    sigma_si = None
    if burst_events:
        sigma_si = np.full((scenarios, n_iter), float(noise_std))

    # ``event.window_overlaps(0.0, run_end)`` with the run-end vector: the
    # event's window is one scalar interval, so only the run length varies
    # per scenario.
    run_end = n_iter * iter_s

    def overlapping(event) -> np.ndarray:
        if event.duration_s == 0.0 and event.time_s < 0.0:
            return np.zeros(scenarios, dtype=bool)
        if event.duration_s != 0.0 and event.end_s <= 0.0:
            return np.zeros(scenarios, dtype=bool)
        return event.time_s < run_end

    for event in cap_events:
        affected = [h for h in event.host_ids if h < hosts]
        if not affected:
            continue
        rows = np.nonzero(overlapping(event))[0]
        if not rows.size:
            continue
        value = event.stuck_at_w if event.kind is FaultKind.CAP_STUCK \
            else float(tdp_w)
        out_caps[np.ix_(rows, affected)] = value
        override_count += rows.size * len(affected)
    if burst_events:
        cols = np.arange(n_iter)
        for event in burst_events:
            overlaps = overlapping(event)
            if not np.any(overlaps):
                continue
            first = np.floor(event.time_s / iter_s).astype(int)
            if np.isfinite(event.end_s):
                last = np.ceil(event.end_s / iter_s).astype(int)
            else:
                last = np.full(scenarios, n_iter)
            first = np.clip(first, 0, n_iter)
            last = np.maximum(first, np.minimum(last, n_iter))
            window = overlaps[:, None] & (cols >= first[:, None]) \
                & (cols < last[:, None])
            sigma_si = np.where(
                window, np.maximum(sigma_si, event.sigma), sigma_si
            )
    return out_caps, sigma_si, override_count


def _execute_scenarios(
    layout,
    caps_sw: np.ndarray,
    efficiencies: np.ndarray,
    model: ExecutionModel,
    n_iter: int,
    noise_std: float,
    barrier_overhead_s: float,
    seeds: Sequence[int],
    fault_schedule: Optional[FaultSchedule] = None,
) -> _ScenarioTensors:
    """The uninstrumented engine body, batched over a scenario axis.

    Parameters
    ----------
    layout:
        A :class:`~repro.workload.job.HostLayout` (per-host arrays of
        shape ``(hosts,)``) or a layout-like object whose per-host arrays
        carry a leading scenario axis ``(S, hosts)`` (see
        :class:`repro.sim.batch.LayoutBatch`).  ``job_index`` and
        ``job_boundaries`` are always one-dimensional.
    caps_sw:
        Cap matrix of shape ``(S, hosts)``; clamped into the RAPL range
        here, exactly as the serial path does.
    efficiencies:
        Host-variation multipliers, shape ``(hosts,)`` shared by every
        scenario or ``(S, hosts)`` with one row per scenario (the
        layout-batch case: independent runs on disjoint host subsets).
        Efficiencies only enter elementwise ufunc chains
        (``model.frequencies`` / ``power_at_freq`` / ``poll_power``), so
        either shape broadcasts without changing any element's value.
    seeds:
        One noise seed per scenario (ignored when ``noise_std == 0``).

    Determinism contract: scenario ``s`` of the returned tensors is
    bit-identical to a serial run with ``caps_sw[s]`` and ``seeds[s]`` —
    the physics is an elementwise ufunc chain (exact per element under
    broadcasting), segmented reductions use exact ``max``, axis sums
    accumulate in the same order per scenario slice, and the energy dot
    products run per-scenario on contiguous slices so the same BLAS
    routine sees the same operands.

    ``fault_schedule`` (an *active* one) is the only thing allowed to
    perturb this contract: actuator overrides land before the clamp and
    noise bursts switch the noise draw to a per-iteration-sigma stream.
    The gate is on :attr:`FaultSchedule.active`, so a ``None`` or empty
    schedule leaves every branch below exactly as it was.
    """
    sigma_si = None
    if fault_schedule is not None and fault_schedule.active:
        with span("faults.engine.plan", schedule=fault_schedule.name) as sp:
            caps_sw, sigma_si, override_count = _engine_fault_plan(
                fault_schedule, np.asarray(caps_sw, dtype=float), layout,
                efficiencies, model, n_iter, noise_std, barrier_overhead_s,
            )
            if sp is not None:
                sp.set_attribute("cap_overrides", override_count)
                sp.set_attribute("noise_burst", sigma_si is not None)
        if enabled():
            registry = get_registry()
            registry.counter("faults.engine.runs").inc()
            if override_count:
                registry.counter("faults.engine.cap_overrides").inc(
                    override_count
                )
            emit(
                "faults.engine", "engine_faults_applied",
                schedule=fault_schedule.name,
                cap_overrides=override_count,
                noise_burst=sigma_si is not None,
            )
    caps = model.power_model.clamp_cap(caps_sw)
    scenarios = caps.shape[0]
    hosts = layout.host_count

    # --- deterministic per-host physics (S, hosts) --------------------
    freq = model.frequencies(caps, layout, efficiencies)
    t_compute = model.compute_time(freq, layout)
    p_compute = model.power_model.power_at_freq(freq, layout.kappa, efficiencies)
    p_poll = model.poll_power(caps, layout, efficiencies)
    p_compute = np.ascontiguousarray(np.broadcast_to(p_compute, (scenarios, hosts)))
    p_poll = np.ascontiguousarray(np.broadcast_to(p_poll, (scenarios, hosts)))

    # --- noisy iterations (S, iterations, hosts) ----------------------
    if sigma_si is not None:
        # Noise-burst injection: per-iteration sigmas.  A single standard
        # normal tensor per scenario scaled by the sigma column — outside
        # burst windows this is distributionally the base lognormal draw
        # (bit-identity is only promised for fault-free schedules, which
        # never reach this branch).
        host_times = np.empty((scenarios, n_iter, hosts))
        for s in range(scenarios):
            rng = np.random.default_rng(seeds[s])
            z = rng.standard_normal(size=(n_iter, hosts))
            host_times[s] = np.exp(sigma_si[s][:, np.newaxis] * z)
        host_times *= t_compute[:, np.newaxis, :]
    elif noise_std > 0:
        # The noise tensor doubles as the time tensor: each scenario's
        # lognormal draw lands in its slab, then the deterministic times
        # scale it in place (multiplication commutes bitwise).
        host_times = np.empty((scenarios, n_iter, hosts))
        for s in range(scenarios):
            # Generator(PCG64(seed)) is the stream default_rng(seed)
            # builds for an int seed, minus the seed-normalisation layer
            # — this loop runs once per in-flight batch at streaming
            # rates.
            rng = np.random.Generator(np.random.PCG64(seeds[s]))
            host_times[s] = rng.lognormal(mean=0.0, sigma=noise_std,
                                          size=(n_iter, hosts))
        host_times *= t_compute[:, np.newaxis, :]
    else:
        # Noise-free times repeat the deterministic row; a broadcast view
        # stands in for the former (n_iter, hosts) ones-matrix multiply.
        host_times = np.broadcast_to(
            t_compute[:, np.newaxis, :], (scenarios, n_iter, hosts)
        )

    starts = layout.job_boundaries[:-1]
    # Segmented max per iteration row: reduceat along the host axis.
    job_iter_times = np.maximum.reduceat(host_times, starts, axis=2)
    job_iter_times = job_iter_times + barrier_overhead_s

    # --- energy accounting ---------------------------------------------
    # Slack per host-iteration = job iteration time - own compute time
    # (barrier overhead is spent polling too), with tiny negatives from
    # the shared barrier overhead handling clamped to zero.  The gather
    # along the host axis is not C-contiguous, so the subtraction lands
    # in a fresh contiguous buffer — the reductions and matvecs below
    # must see the same memory order as a serial run.
    slack = np.empty(host_times.shape)
    np.subtract(job_iter_times[:, :, layout.job_index], host_times, out=slack)
    np.maximum(slack, 0.0, out=slack)

    host_compute_s = host_times.sum(axis=1)
    host_slack_s = slack.sum(axis=1)
    host_energy = p_compute * host_compute_s + p_poll * host_slack_s
    # Per-scenario matvecs on contiguous slices: a stacked matmul may pick
    # a different BLAS kernel than the serial path and break bit-identity.
    iteration_energy = np.empty((scenarios, n_iter))
    for s in range(scenarios):
        iteration_energy[s] = host_times[s] @ p_compute[s] + slack[s] @ p_poll[s]
    host_elapsed = host_compute_s + host_slack_s
    with np.errstate(invalid="ignore", divide="ignore"):
        host_mean_power = np.where(host_elapsed > 0, host_energy / host_elapsed, 0.0)

    total_gflop = np.sum(layout.gflop, axis=-1) * float(n_iter)
    total_gflop = np.ascontiguousarray(
        np.broadcast_to(np.asarray(total_gflop, dtype=float), (scenarios,))
    )

    return _ScenarioTensors(
        iteration_times_s=job_iter_times,
        iteration_energy_j=iteration_energy,
        host_energy_j=host_energy,
        host_mean_power_w=host_mean_power,
        total_gflop=total_gflop,
    )


def simulate_mix(
    mix: WorkloadMix,
    caps_w: np.ndarray,
    efficiencies: np.ndarray,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
    policy_name: str = "unmanaged",
    budget_w: float = 0.0,
) -> MixRunResult:
    """Simulate one execution of ``mix`` under per-host power caps.

    Parameters
    ----------
    mix:
        The co-scheduled jobs.
    caps_w:
        Per-host node power caps (W), length ``mix.total_nodes``.  Values
        are clamped into the RAPL-settable range, exactly as programming
        them through :class:`~repro.hardware.rapl.RaplDomain` would.
    efficiencies:
        Per-host variation multipliers (from the cluster allocation).
    model:
        Physics bundle; defaults to the Quartz node model.
    options:
        Noise/seed settings (``None`` means the shared frozen
        :data:`DEFAULT_OPTIONS`; never pass a dataclass instance as a
        def-line default — see the mutable-default regression test).
    policy_name / budget_w:
        Metadata recorded on the result.

    When a :func:`~repro.parallel.cache.active_cache` is installed, the
    result is memoized under a content hash of every physics input; a
    hit skips the execution loop entirely and decodes the stored result
    (bit-identical to a fresh computation).

    To evaluate many cap vectors against one mix, prefer
    :func:`repro.sim.batch.simulate_cap_batch`, which runs the whole
    scenario set through one pass of the same engine body.

    Returns
    -------
    MixRunResult
        Per-iteration job times, per-host energy and mean power, FLOPs.
    """
    if options is None:
        options = DEFAULT_OPTIONS
    with span("sim.simulate_mix", mix=mix.name, hosts=mix.total_nodes,
              policy=policy_name) as trace_sp:
        cache = _active_cache()
        cache_key = None
        if cache is not None:
            cache_key = cache.key(
                "simulate", mix, np.asarray(caps_w, dtype=float),
                np.asarray(efficiencies, dtype=float),
                model if model is not None else ExecutionModel(),
                options, policy_name, float(budget_w),
            )
            payload = cache.get(cache_key)
            if payload is not None:
                from repro.io.serialize import result_from_dict

                if trace_sp is not None:
                    trace_sp.set_attribute("cache_hit", True)
                if enabled():
                    get_registry().counter("sim.execution.cache_hits").inc()
                    emit(
                        "sim.execution", "mix_simulated_cached",
                        mix=mix.name, hosts=mix.total_nodes,
                        policy=policy_name,
                    )
                return result_from_dict(payload)
        if trace_sp is not None:
            trace_sp.set_attribute("cache_hit", False)
        with ScopedTimer("sim.execution.simulate_mix_s") as timer:
            result = _simulate_mix_impl(
                mix, caps_w, efficiencies, model, options, policy_name, budget_w
            )
        if cache is not None and cache_key is not None:
            from repro.io.serialize import result_to_dict

            cache.put(cache_key, result_to_dict(result))
        if enabled():
            registry = get_registry()
            registry.counter("sim.execution.runs").inc()
            sim_s = float(np.max(result.job_elapsed_s))
            if timer.elapsed_s > 0:
                registry.gauge("sim.execution.sim_seconds_per_wall_second").set(
                    sim_s / timer.elapsed_s
                )
            emit(
                "sim.execution", "mix_simulated",
                mix=mix.name, hosts=mix.total_nodes,
                iterations=mix.common_iterations(),
                policy=policy_name, wall_s=timer.elapsed_s, sim_s=sim_s,
            )
    return result


def _simulate_mix_impl(
    mix: WorkloadMix,
    caps_w: np.ndarray,
    efficiencies: np.ndarray,
    model: Optional[ExecutionModel],
    options: SimulationOptions,
    policy_name: str,
    budget_w: float,
) -> MixRunResult:
    """The uninstrumented single-scenario body (see :func:`simulate_mix`)."""
    model = model if model is not None else ExecutionModel()
    layout = mix.layout()
    caps = np.asarray(caps_w, dtype=float)
    eff = np.asarray(efficiencies, dtype=float)
    if caps.shape != (layout.host_count,):
        raise ValueError(
            f"caps_w must have shape ({layout.host_count},), got {caps.shape}"
        )
    if eff.shape != (layout.host_count,):
        raise ValueError(
            f"efficiencies must have shape ({layout.host_count},), got {eff.shape}"
        )
    n_iter = mix.common_iterations()

    out = _execute_scenarios(
        layout, caps[np.newaxis, :], eff, model, n_iter,
        options.noise_std, options.barrier_overhead_s, (options.seed,),
        fault_schedule=options.fault_schedule,
    )

    return MixRunResult(
        mix_name=mix.name,
        policy_name=policy_name,
        budget_w=float(budget_w),
        job_names=mix.job_names,
        iteration_times_s=out.iteration_times_s[0],
        iteration_energy_j=out.iteration_energy_j[0],
        host_energy_j=out.host_energy_j[0],
        host_mean_power_w=out.host_mean_power_w[0],
        host_job_index=layout.job_index,
        total_gflop=float(out.total_gflop[0]),
    )
