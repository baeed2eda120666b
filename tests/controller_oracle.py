"""Frozen reference for the controller runtime (test oracle).

``Controller`` below is the serial per-job feedback loop the package ran
before the controller became the one-run slice of
:class:`~repro.runtime.batch.ControllerBatch`: its own physics step
(``_run_epoch``), run loop and report path.  ``MonitorAgent``,
``PowerGovernorAgent`` and ``PowerBalancerAgent`` are the scalar agent
step bodies from before the agents delegated to their one-row batches,
and ``attach_tracer`` is the tracer that wrapped ``_run_epoch``.  They
are kept here verbatim (minus registry registration and ``make_batch``,
so the oracle agents never batch) so the identity suites compare the
runtime against an independent implementation.  Nothing under ``src/``
imports this module; do not edit the classes.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.runtime.agent import Agent, PlatformSample
from repro.runtime.controller import EpochResult
from repro.runtime.power_balancer import BalancerOptions
from repro.runtime.reports import JobReport, report_from_arrays
from repro.runtime.trace import TraceWriter
from repro.sim.engine import ExecutionModel
from repro.telemetry import ScopedTimer, emit, enabled, get_registry, span
from repro.units import ensure_positive
from repro.workload.job import Job, WorkloadMix

__all__ = [
    "Controller",
    "MonitorAgent",
    "PowerGovernorAgent",
    "PowerBalancerAgent",
    "attach_tracer",
]


class Controller:
    """Run one job under an agent until convergence or an epoch budget.

    Parameters
    ----------
    job:
        The job to execute.
    efficiencies:
        Per-host variation multipliers (length ``job.node_count``).
    agent:
        The runtime agent making power decisions.
    model:
        Physics bundle (defaults to the Quartz node model).
    noise_std:
        Relative lognormal noise on per-epoch compute times.  The
        characterization pipeline uses 0 for deterministic steady states;
        convergence tests use small positive values.
    seed:
        RNG seed for epoch noise.
    fault_injector:
        Optional :class:`~repro.faults.injection.RuntimeFaultInjector`
        (duck-typed so this module never imports :mod:`repro.faults`).
        When set and active, each epoch the injector filters the limits
        the agent requested (actuator faults), raises the compute-noise
        sigma during bursts, and corrupts the sample the *agent* sees —
        ``history`` and the job report keep the truthful physics.  A
        ``None`` or inactive injector leaves the fault-free code path
        bit-identical.
    """

    def __init__(
        self,
        job: Job,
        efficiencies: np.ndarray,
        agent: Agent,
        model: Optional[ExecutionModel] = None,
        noise_std: float = 0.0,
        seed: int = 0,
        barrier_overhead_s: float = 5.0e-4,
        fault_injector=None,
    ) -> None:
        eff = np.asarray(efficiencies, dtype=float)
        if eff.shape != (job.node_count,):
            raise ValueError(
                f"efficiencies must have shape ({job.node_count},), got {eff.shape}"
            )
        self.job = job
        self.efficiencies = eff
        self.agent = agent
        self.model = model if model is not None else ExecutionModel()
        self.noise_std = float(noise_std)
        self.barrier_overhead_s = float(barrier_overhead_s)
        self._rng = np.random.default_rng(seed)
        self.fault_injector = fault_injector
        self._clock_s = 0.0
        # A single-job mix gives the controller the same flattened layout
        # the vectorised engine uses.
        self._layout = WorkloadMix(name=job.name, jobs=(job,)).layout()
        self.history: List[EpochResult] = []

    @property
    def _injecting(self) -> bool:
        return self.fault_injector is not None and self.fault_injector.active

    # ------------------------------------------------------------------
    def _run_epoch(self, epoch: int, limits_w: np.ndarray) -> PlatformSample:
        """Simulate one bulk-synchronous iteration under ``limits_w``."""
        layout = self._layout
        sigma = self.noise_std
        if self._injecting:
            limits_w = self.fault_injector.filter_limits(limits_w, self._clock_s)
            sigma = self.fault_injector.noise_sigma(sigma, self._clock_s)
        caps = self.model.power_model.clamp_cap(limits_w)
        freq = self.model.frequencies(caps, layout, self.efficiencies)
        t = self.model.compute_time(freq, layout)
        if sigma > 0:
            t = t * self._rng.lognormal(0.0, sigma, size=t.shape)
        epoch_time = float(np.max(t)) + self.barrier_overhead_s
        p_compute = self.model.power_model.power_at_freq(
            freq, layout.kappa, self.efficiencies
        )
        p_poll = self.model.poll_power(caps, layout, self.efficiencies)
        slack = np.maximum(epoch_time - t, 0.0)
        energy = p_compute * t + p_poll * slack
        mean_power = energy / epoch_time
        return PlatformSample(
            epoch=epoch,
            host_time_s=t,
            epoch_time_s=epoch_time,
            host_power_w=mean_power,
            power_limit_w=caps,
            host_energy_j=energy,
            mean_freq_ghz=freq,
        )

    def run(
        self,
        initial_limits_w: Optional[np.ndarray] = None,
        max_epochs: int = 200,
        min_epochs: int = 3,
    ) -> JobReport:
        """Execute epochs until the agent converges (or the budget runs out).

        Returns the GEOPM-style job report aggregated over all epochs run.
        """
        if max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        n = self.job.node_count
        if initial_limits_w is None:
            limits = np.full(n, self.model.power_model.tdp_w)
        else:
            limits = np.asarray(initial_limits_w, dtype=float)
            if limits.shape != (n,):
                raise ValueError(f"initial limits must have shape ({n},)")

        self.history.clear()
        self._clock_s = 0.0
        with span("runtime.controller.run", job=self.job.name,
                  agent=self.agent.name, hosts=n,
                  injecting=self._injecting) as trace_sp, \
                ScopedTimer("runtime.controller.run_s") as timer:
            for epoch in range(max_epochs):
                epoch_start_s = self._clock_s
                sample = self._run_epoch(epoch, limits)
                self._clock_s += sample.epoch_time_s
                observed = sample
                if self._injecting:
                    # The agent steers on the corrupted view; history and
                    # the report keep the truthful physics sample.
                    observed = self.fault_injector.corrupt_sample(
                        sample, epoch_start_s
                    )
                limits = self.agent.adjust(observed)
                self.history.append(EpochResult(epoch, sample, limits.copy()))
                if epoch + 1 >= min_epochs and self.agent.converged():
                    break
            if trace_sp is not None:
                trace_sp.set_attribute("epochs", len(self.history))
                trace_sp.set_attribute("converged", self.agent.converged())
        converged = self.agent.converged()
        report = self._build_report()
        if enabled():
            registry = get_registry()
            registry.counter("runtime.controller.runs").inc()
            registry.histogram("runtime.controller.epochs").observe(
                len(self.history)
            )
            if converged:
                registry.counter("runtime.controller.converged").inc()
            emit(
                "runtime.controller", "run_complete",
                job=self.job.name, agent=self.agent.name,
                epochs=len(self.history), converged=converged,
                wall_s=timer.elapsed_s,
            )
            report.telemetry.update({
                "run_wall_s": timer.elapsed_s,
                "epochs": float(len(self.history)),
                "epoch_wall_s_mean": timer.elapsed_s / len(self.history),
                "converged": 1.0 if converged else 0.0,
            })
        return report

    # ------------------------------------------------------------------
    def steady_state_sample(self) -> PlatformSample:
        """Telemetry of the final epoch (the converged operating point)."""
        if not self.history:
            raise RuntimeError("controller has not run")
        return self.history[-1].sample

    def final_limits_w(self) -> np.ndarray:
        """Limits in force after the final epoch."""
        if not self.history:
            raise RuntimeError("controller has not run")
        return self.history[-1].limits_applied_w.copy()

    def _build_report(self) -> JobReport:
        # One pass over the history stacking the per-epoch arrays; the
        # reductions (and the total-time sum the figure of merit reuses)
        # happen once in :func:`report_from_arrays` instead of the former
        # per-record accumulation loop plus a per-host ``float()`` loop.
        samples = [record.sample for record in self.history]
        return report_from_arrays(
            job_name=self.job.name,
            agent=self.agent.name,
            epoch_times_s=np.array([s.epoch_time_s for s in samples]),
            host_energy_j=np.stack([s.host_energy_j for s in samples]),
            mean_freq_ghz=np.stack([s.mean_freq_ghz for s in samples]),
            final_limits_w=self.history[-1].limits_applied_w,
            metadata=dict(self.agent.describe()),
        )


class MonitorAgent(Agent):
    """Leave limits untouched; exist only so reports get generated."""

    name = "monitor"

    def __init__(self) -> None:
        self._last_limits: np.ndarray | None = None

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """Echo back whatever limits are already in force."""
        self._last_limits = np.array(sample.power_limit_w, dtype=float, copy=True)
        return self._last_limits


class PowerGovernorAgent(Agent):
    """Hold every host at ``job_budget_w / host_count``.

    Parameters
    ----------
    job_budget_w:
        Total node-power budget for the job (W).
    """

    name = "power_governor"

    def __init__(self, job_budget_w: float) -> None:
        ensure_positive(job_budget_w, "job_budget_w")
        self.job_budget_w = float(job_budget_w)

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """Uniform per-host limit; constant across epochs."""
        hosts = sample.power_limit_w.size
        return np.full(hosts, self.job_budget_w / hosts)

    def describe(self):
        """Report the governed budget."""
        return {"job_budget_w": self.job_budget_w}


class PowerBalancerAgent(Agent):
    """Shift power from slack hosts to critical-path hosts within a job.

    Parameters
    ----------
    job_budget_w:
        Total node-power budget for the job.  The sum of limits the agent
        programs never exceeds this budget; power it cannot place (all
        receivers at TDP) is retained in an internal pool and reported via
        :meth:`describe` as ``unallocated_w`` — the figure a coordinating
        resource manager would harvest.
    options:
        Feedback-loop tuning.
    """

    name = "power_balancer"

    def __init__(self, job_budget_w: float,
                 options: "BalancerOptions | None" = None) -> None:
        ensure_positive(job_budget_w, "job_budget_w")
        self.job_budget_w = float(job_budget_w)
        self.options = options if options is not None else BalancerOptions()
        self._limits: np.ndarray | None = None
        self._pool_w = 0.0
        self._last_step_w = np.inf
        self._cut_floor_w: np.ndarray | None = None
        self._steps = 0
        self._harvested_w = 0.0
        self._redistributed_w = 0.0
        self._convergence_recorded = False

    # ------------------------------------------------------------------
    def _initial_limits(self, hosts: int) -> np.ndarray:
        """Uniform split of the job budget, clamped to the settable range."""
        uniform = self.job_budget_w / hosts
        limits = np.full(hosts, uniform)
        clamped = np.clip(limits, self.options.min_limit_w, self.options.max_limit_w)
        # Budget that clamping released (or consumed) goes to the pool so
        # the invariant sum(limits) + pool == budget holds from epoch 0.
        self._pool_w = self.job_budget_w - float(np.sum(clamped))
        return clamped

    def adjust(self, sample: PlatformSample) -> np.ndarray:
        """One feedback step; returns the next epoch's node limits."""
        opts = self.options
        if self._limits is None:
            self._limits = self._initial_limits(sample.power_limit_w.size)
            # The first epoch's observed power anchors the per-host cut
            # floor: the balancer will not take more than harvest_fraction
            # of the distance from that draw to the RAPL floor.
            reference = np.asarray(sample.host_power_w, dtype=float)
            self._cut_floor_w = np.maximum(
                reference - opts.harvest_fraction * (reference - opts.min_limit_w),
                opts.min_limit_w,
            )
            return self._limits.copy()

        limits = self._limits
        times = np.asarray(sample.host_time_s, dtype=float)
        target = float(np.max(times))
        if target <= 0:
            return limits.copy()

        slack_frac = 1.0 - times / target

        # --- donors: hosts comfortably off the critical path ------------
        cut_floor = (
            self._cut_floor_w
            if self._cut_floor_w is not None
            else np.full_like(limits, opts.min_limit_w)
        )
        donors = slack_frac > opts.margin
        cut = np.zeros_like(limits)
        cut[donors] = opts.gain * slack_frac[donors] * (
            limits[donors] - cut_floor[donors]
        )
        cut = np.maximum(cut, 0.0)
        new_limits = np.maximum(limits - cut, cut_floor)
        cut = limits - new_limits
        # Entries go negative when the cut floor sits above the current
        # limit (the floor *raised* that host); only positive entries are
        # power actually harvested from donors.
        harvested = float(np.sum(np.maximum(cut, 0.0)))
        pool = self._pool_w + float(np.sum(cut))

        # --- receivers: near-critical hosts with headroom ---------------
        receivers = (slack_frac <= opts.margin) & (new_limits < opts.max_limit_w - 1e-9)
        grant_total = 0.0
        if pool > 0 and np.any(receivers):
            headroom = opts.max_limit_w - new_limits[receivers]
            grant_total = min(pool, float(np.sum(headroom)))
            grants = grant_total * headroom / float(np.sum(headroom))
            new_limits[receivers] += grants
            pool -= grant_total

        self._pool_w = pool
        self._last_step_w = float(np.max(np.abs(new_limits - limits)))
        self._limits = new_limits
        self._steps += 1
        self._harvested_w += harvested
        self._redistributed_w += grant_total
        if enabled():
            registry = get_registry()
            registry.counter("runtime.balancer.steps").inc()
            registry.counter("runtime.balancer.harvested_w").inc(harvested)
            registry.counter("runtime.balancer.redistributed_w").inc(grant_total)
        return new_limits.copy()

    def converged(self) -> bool:
        """Limits stopped moving (relative to the settable range width).

        The first positive answer also records the feedback loop's
        steps-to-converge and cumulative power moved into the telemetry
        registry (once per agent instance).
        """
        span = self.options.max_limit_w - self.options.min_limit_w
        is_converged = self._last_step_w < self.options.tolerance * span
        if is_converged and not self._convergence_recorded and enabled():
            self._convergence_recorded = True
            get_registry().histogram(
                "runtime.balancer.steps_to_converge"
            ).observe(self._steps)
            emit(
                "runtime.balancer", "converged",
                steps=self._steps,
                harvested_w=self._harvested_w,
                redistributed_w=self._redistributed_w,
                unallocated_w=self._pool_w,
            )
        return is_converged

    def describe(self):
        """Budget, pool, step size, and shifting totals for report
        metadata."""
        return {
            "job_budget_w": self.job_budget_w,
            "unallocated_w": self._pool_w,
            "last_step_w": self._last_step_w if np.isfinite(self._last_step_w) else -1.0,
            "steps": float(self._steps),
            "harvested_w": self._harvested_w,
            "redistributed_w": self._redistributed_w,
        }


def attach_tracer(controller) -> TraceWriter:
    """Attach a tracer to a controller without touching its agent.

    Wraps the controller's ``_run_epoch`` so every sample is recorded
    before the agent sees it.  Returns the writer; read
    ``writer.trace`` after :meth:`Controller.run`.
    """
    writer = TraceWriter(job_name=controller.job.name)
    original = controller._run_epoch

    def traced(epoch, limits_w):
        sample = original(epoch, limits_w)
        writer.record(sample)
        return sample

    controller._run_epoch = traced
    return writer
