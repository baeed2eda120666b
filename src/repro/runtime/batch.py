"""The controller runtime: many feedback loops stepped in lockstep.

GEOPM's Controller sits inside the job, samples platform telemetry each
epoch (one bulk-synchronous iteration of the synthetic kernel), hands the
sample to the agent, and programs the limits the agent returns.
:class:`ControllerBatch` is the one implementation of that loop here: it
advances ``C`` independent runs together, one vectorised physics step per
epoch over ``(C, hosts)`` tensors (reusing
:class:`~repro.sim.engine.ExecutionModel`), then one agent step per agent
group, and builds every run's :class:`~repro.runtime.reports.JobReport`
through :func:`~repro.runtime.reports.report_from_arrays`.  The per-job
:class:`~repro.runtime.controller.Controller` is its ``C = 1`` case.

Determinism contract
--------------------
Run ``c`` of a batch is **bit-identical** to the same run alone (and to
the frozen serial loop ``tests/property/test_controller_batch.py`` pins
it against) — not merely close:

* every physics quantity is a pure elementwise ufunc chain, so a leading
  run axis cannot change any element's value;
* per-run reductions (epoch critical path, report energy sums) operate on
  contiguous rows in one fixed order;
* noise is drawn from *per-run* ``default_rng(seed)`` streams, only on
  epochs where that run's effective sigma is positive;
* batched agents (:meth:`~repro.runtime.agent.AgentBatch.adjust_batch`)
  are written to the same contract.

Agent batching and the fallback
-------------------------------
Runs are grouped by agent class; a class that defines a
``make_batch(agents)`` classmethod gets one vectorised
:class:`~repro.runtime.agent.AgentBatch` stepping the whole group.
Everything else — duck-typed third-party agents, groups ``make_batch``
declines (e.g. heterogeneous balancer options), and runs carrying an
active fault injector (whose corrupted observation is inherently
per-run) — falls back to per-run ``agent.adjust`` stepping.  Fallback
runs still share the batched physics step; only the agent call and its
sample materialisation are per-run.  The batch's rows hold each group's
runs in turn, then the fallback runs, so a group reads its rows of an
epoch's sample as views.

Convergence freezing
--------------------
A converged run leaves the active set: its state is recorded and it is
excluded from further physics and agent work, exactly like a single run
that stopped iterating.  The active set only shrinks, so run ``c``'s
history is always the first ``epochs[c]`` entries of the batch log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.runtime.agent import Agent, AgentBatch, PlatformSample, SampleBatch
from repro.runtime.reports import JobReport, report_from_arrays
from repro.sim.batch import LayoutBatch, stack_layouts
from repro.sim.engine import ExecutionModel
from repro.telemetry import ScopedTimer, emit, enabled, get_registry, span
from repro.units import ensure_non_negative
from repro.workload.job import Job, WorkloadMix

__all__ = [
    "EpochResult",
    "ControllerRunSpec",
    "ControllerBatch",
    "ControllerBatchResult",
    "run_controller_batch",
]


@dataclass(frozen=True)
class EpochResult:
    """Telemetry of one simulated control epoch."""

    epoch: int
    sample: PlatformSample
    limits_applied_w: np.ndarray


@dataclass(frozen=True)
class ControllerRunSpec:
    """One run's configuration — the arguments of a ``Controller``.

    Attributes
    ----------
    job:
        The job to execute.
    efficiencies:
        Per-host variation multipliers (length ``job.node_count``).
    agent:
        The runtime agent making power decisions.  Agents are stateful
        and a run may advance the object (the per-run fallback steps it;
        a balancer alone in its group steps as its own one-row batch),
        so give each run its own agent and do not reuse one across
        batches: a later batch starts from the state the object holds.
    noise_std:
        Relative lognormal noise on per-epoch compute times (finite,
        >= 0).  The characterization pipeline uses 0 for deterministic
        steady states; convergence tests use small positive values.
    seed:
        RNG seed for epoch noise.
    barrier_overhead_s:
        Per-epoch barrier time added to the critical path (finite, >= 0).
    fault_injector:
        Optional :class:`~repro.faults.injection.RuntimeFaultInjector`
        (duck-typed so this module never imports :mod:`repro.faults`).
        When set and active, each epoch the injector filters the limits
        the agent requested (actuator faults), raises the compute-noise
        sigma during bursts, and corrupts the sample the *agent* sees —
        the history and the job report keep the truthful physics.  A
        ``None`` or inactive injector leaves the fault-free code path
        bit-identical.
    """

    job: Job
    efficiencies: np.ndarray
    agent: Agent
    noise_std: float = 0.0
    seed: int = 0
    barrier_overhead_s: float = 5.0e-4
    fault_injector: object = None

    def __post_init__(self) -> None:
        eff = np.asarray(self.efficiencies, dtype=float)
        if eff.shape != (self.job.node_count,):
            raise ValueError(
                f"efficiencies must have shape ({self.job.node_count},), "
                f"got {eff.shape}"
            )
        ensure_non_negative(self.noise_std, "noise_std")
        ensure_non_negative(self.barrier_overhead_s, "barrier_overhead_s")
        object.__setattr__(self, "efficiencies", eff)

    @property
    def injecting(self) -> bool:
        """Whether this run carries an active fault injector."""
        return self.fault_injector is not None and self.fault_injector.active


class _EpochLog(NamedTuple):
    """One epoch's record for all runs active that epoch.

    Entries between two convergence events share one ``rows`` object.
    """

    epoch: int
    rows: np.ndarray              # (A,) active batch rows, sorted
    sample: SampleBatch           # truthful physics, one row per entry of rows
    limits_applied_w: np.ndarray  # (A, hosts) limits the agents returned


class _ActiveView:
    """The active rows' physics arrays and agent dispatch.

    The batch builds the view of all its rows once; each convergence
    event compacts the current view with :meth:`keep`, as the run loop
    compacts ``limits`` and ``clock``.  ``active`` holds the sorted batch
    rows in the view.  Batch rows hold the runs grouped by agent batch
    (see :meth:`ControllerBatch._plan_agents`), so each group's active
    rows are one contiguous block of the sample, which the group reads
    as views.
    """

    def __init__(
        self,
        batch: "ControllerBatch",
        active: np.ndarray,
        layout: LayoutBatch,
        eff: np.ndarray,
        noise: np.ndarray,
        barrier: np.ndarray,
        rngs: List[np.random.Generator],
    ) -> None:
        self.batch, self.active = batch, active
        self.layout, self.eff, self.rngs = layout, eff, rngs
        self.noise, self.barrier = noise, barrier
        self.noisy = np.flatnonzero(noise > 0).tolist()
        starts = batch._starts.tolist()
        edges = np.searchsorted(active, starts).tolist()
        self.groups = [
            (agents, active[lo:hi] - start, slice(lo, hi))
            for agents, start, lo, hi in zip(
                batch._agent_batches, starts, edges, edges[1:]
            )
            if hi > lo
        ]
        tail = edges[-1]
        self.fallback = [
            (batch.specs[run], pos)
            for pos, run in enumerate(batch._runs[active[tail:]].tolist(), tail)
        ]
        self.injected = [(s, pos) for s, pos in self.fallback if s.injecting]

    def keep(self, mask: np.ndarray) -> "_ActiveView":
        """The view of the rows ``mask`` selects."""
        return _ActiveView(
            self.batch, self.active[mask], self.layout.take(mask),
            self.eff[mask], self.noise[mask], self.barrier[mask],
            [rng for rng, k in zip(self.rngs, mask.tolist()) if k],
        )


#: The sample fields a report reduces, in ``_build_result`` order.
_REPORT_FIELDS = ("epoch_time_s", "host_energy_j", "mean_freq_ghz")


def _slice_sample(sample: SampleBatch, positions: slice) -> SampleBatch:
    """Rows ``positions`` of a sample (views)."""
    return SampleBatch(
        epoch=sample.epoch,
        host_time_s=sample.host_time_s[positions],
        epoch_time_s=sample.epoch_time_s[positions],
        host_power_w=sample.host_power_w[positions],
        power_limit_w=sample.power_limit_w[positions],
        host_energy_j=sample.host_energy_j[positions],
        mean_freq_ghz=sample.mean_freq_ghz[positions],
    )


@dataclass(frozen=True)
class ControllerBatchResult:
    """Outcome of a batched controller run.

    ``reports[c]``, ``epochs[c]``, ``converged[c]``, and the per-run
    accessors are bit-identical to the same run alone (reports compared
    under disabled telemetry — wall-clock telemetry fields necessarily
    differ).
    """

    reports: Tuple[JobReport, ...]
    epochs: np.ndarray          # (C,) epochs each run executed
    converged: np.ndarray       # (C,) final convergence verdicts
    _log: Tuple[_EpochLog, ...]
    _final_limits_w: np.ndarray  # (C, hosts)
    _row_of: np.ndarray          # (C,) each run's batch row

    @property
    def run_count(self) -> int:
        """Runs in the batch."""
        return len(self.reports)

    def _position(self, log: _EpochLog, run: int) -> int:
        row = self._row_of[run]
        pos = int(np.searchsorted(log.rows, row))
        if pos >= log.rows.size or log.rows[pos] != row:
            raise IndexError(f"run {run} was not active in epoch {log.epoch}")
        return pos

    def final_limits_w(self, run: int) -> np.ndarray:
        """Limits in force after run ``run``'s final epoch."""
        return self._final_limits_w[run].copy()

    def steady_state_sample(self, run: int) -> PlatformSample:
        """Run ``run``'s final-epoch telemetry (its converged point)."""
        log = self._log[int(self.epochs[run]) - 1]
        return log.sample.sample_for(self._position(log, run))

    def history_for(self, run: int) -> List[EpochResult]:
        """Materialise run ``run``'s epoch history."""
        out: List[EpochResult] = []
        for log in self._log[: int(self.epochs[run])]:
            pos = self._position(log, run)
            out.append(
                EpochResult(
                    epoch=log.epoch,
                    sample=log.sample.sample_for(pos),
                    limits_applied_w=log.limits_applied_w[pos].copy(),
                )
            )
        return out


class ControllerBatch:
    """Advance ``C`` controller runs in lockstep (see module docstring).

    The batch keeps its per-run noise streams and agent groups across
    :meth:`run` calls, so a second call continues every run's RNG stream
    and agent state where the first left them.

    Parameters
    ----------
    specs:
        One :class:`ControllerRunSpec` per run.  Jobs may differ freely in
        kernel configuration but must share one host count so their
        layouts stack.
    model:
        Physics bundle shared by every run (defaults to the Quartz node
        model).
    """

    def __init__(
        self,
        specs: Sequence[ControllerRunSpec],
        model: Optional[ExecutionModel] = None,
    ) -> None:
        specs = list(specs)
        if not specs:
            raise ValueError("a controller batch needs at least one run")
        hosts = specs[0].job.node_count
        for spec in specs:
            if spec.job.node_count != hosts:
                raise ValueError(
                    "all runs in a controller batch must share one host count"
                )
        self.specs = specs
        self.model = model if model is not None else ExecutionModel()
        self.hosts = int(hosts)
        self.run_count = len(specs)
        self._agent_batches, self._runs, self._starts = self._plan_agents(
            specs
        )
        self._row_of = np.argsort(self._runs)
        rows = [specs[run] for run in self._runs.tolist()]
        self._all_rows = _ActiveView(
            self,
            np.arange(self.run_count),
            # Stacking unifies the runs' compute-ceiling vocabularies.
            stack_layouts([
                WorkloadMix(name=s.job.name, jobs=(s.job,)).layout()
                for s in rows
            ]),
            np.array([s.efficiencies for s in rows]),
            np.array([s.noise_std for s in rows], dtype=float),
            np.array([s.barrier_overhead_s for s in rows], dtype=float),
            [np.random.default_rng(s.seed) for s in rows],
        )
        self._agent_names = ",".join(sorted({s.agent.name for s in specs}))

    # ------------------------------------------------------------------
    @staticmethod
    def _plan_agents(
        specs: Sequence[ControllerRunSpec],
    ) -> Tuple[List[AgentBatch], np.ndarray, np.ndarray]:
        """Split runs into vectorised agent groups and the per-run fallback.

        A run batches when its agent's own class (not an inherited base)
        defines ``make_batch`` and no fault injector is corrupting its
        observations; ``make_batch`` may still decline a group by
        returning ``None``.  Returns the group batches, the run held by
        each batch row — every group's runs in run order, one group after
        another, then the fallback runs in run order — and the first row
        of each group followed by the first fallback row.
        """
        by_class: Dict[type, List[int]] = {}
        fallback: List[int] = []
        for c, spec in enumerate(specs):
            cls = type(spec.agent)
            if spec.injecting or "make_batch" not in vars(cls):
                fallback.append(c)
            else:
                by_class.setdefault(cls, []).append(c)
        batches: List[AgentBatch] = []
        runs: List[int] = []
        starts: List[int] = []
        for cls, members in by_class.items():
            batch = cls.make_batch([specs[c].agent for c in members])
            if batch is None:
                fallback.extend(members)
            else:
                batches.append(batch)
                starts.append(len(runs))
                runs.extend(members)
        starts.append(len(runs))
        runs.extend(sorted(fallback))
        return batches, np.array(runs), np.array(starts)

    # ------------------------------------------------------------------
    def _step(
        self,
        epoch: int,
        limits: np.ndarray,
        clock: np.ndarray,
        view: _ActiveView,
    ) -> SampleBatch:
        """One vectorised physics step for the active rows.

        Every quantity is an elementwise ufunc chain over ``(A, hosts)``
        tensors; only the critical path reduces over each row.
        """
        sigma, noisy = view.noise, view.noisy
        if view.injected:
            limits = limits.copy()
            sigma = sigma.copy()
            for spec, pos in view.injected:
                injector = spec.fault_injector
                t_now = float(clock[pos])
                limits[pos] = injector.filter_limits(limits[pos], t_now)
                sigma[pos] = injector.noise_sigma(float(sigma[pos]), t_now)
            noisy = np.flatnonzero(sigma > 0).tolist()
        model, layout, eff = self.model, view.layout, view.eff
        caps = model.power_model.clamp_cap(limits)
        freq, p_compute, p_poll = model.operating_point(caps, layout, eff)
        t = model.compute_time(freq, layout)
        for pos in noisy:
            t[pos] = t[pos] * view.rngs[pos].lognormal(
                0.0, float(sigma[pos]), size=t.shape[1]
            )
        epoch_time = np.maximum.reduce(t, axis=1) + view.barrier
        slack = np.maximum(epoch_time[:, None] - t, 0.0)
        energy = p_compute * t + p_poll * slack
        return SampleBatch(
            epoch=epoch,
            host_time_s=t,
            epoch_time_s=epoch_time,
            host_power_w=energy / epoch_time[:, None],
            power_limit_w=caps,
            host_energy_j=energy,
            mean_freq_ghz=freq,
        )

    def _adjust(
        self, sample: SampleBatch, view: _ActiveView, clock: np.ndarray
    ) -> np.ndarray:
        """All active runs' agent steps; returns fresh ``(A, hosts)`` limits."""
        new_limits = np.empty((sample.run_count, self.hosts))
        for agents, in_group, positions in view.groups:
            new_limits[positions] = agents.adjust_batch(
                _slice_sample(sample, positions), in_group
            )
        for spec, pos in view.fallback:
            observed = sample.sample_for(pos)
            if spec.injecting:
                observed = spec.fault_injector.corrupt_sample(
                    observed, float(clock[pos])
                )
            new_limits[pos] = spec.agent.adjust(observed)
        return new_limits

    def _converged(self, view: _ActiveView, active_size: int) -> np.ndarray:
        """Active rows' convergence verdicts."""
        conv = np.zeros(active_size, dtype=bool)
        for agents, in_group, positions in view.groups:
            conv[positions] = agents.converged_mask(in_group)
        for spec, pos in view.fallback:
            conv[pos] = spec.agent.converged()
        return conv

    def _describe_run(self, run: int) -> Dict[str, float]:
        row = int(self._row_of[run])
        group = int(np.searchsorted(self._starts, row, side="right")) - 1
        if group < len(self._agent_batches):
            return dict(self._agent_batches[group].describe_run(
                row - int(self._starts[group])
            ))
        return dict(self.specs[run].agent.describe())

    # ------------------------------------------------------------------
    def run(
        self,
        initial_limits_w: Optional[np.ndarray] = None,
        max_epochs: int = 200,
        min_epochs: int = 3,
    ) -> ControllerBatchResult:
        """Execute every run until it converges or the budget runs out.

        ``initial_limits_w`` may be ``None`` (TDP everywhere), one
        ``(hosts,)`` vector shared by all runs, or a per-run
        ``(C, hosts)`` matrix.  Convergence is first consulted after
        ``min_epochs`` epochs, and once more after the loop for runs that
        exhausted ``max_epochs``.
        """
        if max_epochs < 1:
            raise ValueError("max_epochs must be positive")
        runs, hosts = self.run_count, self.hosts
        if initial_limits_w is None:
            limits = np.full((runs, hosts), self.model.power_model.tdp_w)
        else:
            init = np.asarray(initial_limits_w, dtype=float)
            if init.shape == (hosts,):
                limits = np.tile(init, (runs, 1))
            elif init.shape == (runs, hosts):
                limits = init[self._runs]
            else:
                raise ValueError(
                    f"initial limits must have shape ({hosts},) or "
                    f"({runs}, {hosts}), got {init.shape}"
                )

        # ``limits`` and ``clock`` hold the active rows only; they are
        # compacted with ``active`` whenever runs converge.
        log: List[_EpochLog] = []
        clock = np.zeros(runs)
        epochs_run = np.zeros(runs, dtype=int)
        converged = np.zeros(runs, dtype=bool)
        view = self._all_rows
        active = view.active
        with span("runtime.controller.run", runs=runs, hosts=hosts,
                  agents=self._agent_names) as trace_sp, \
                ScopedTimer("runtime.controller.run_s") as timer:
            for epoch in range(max_epochs):
                sample = self._step(epoch, limits, clock, view)
                limits = self._adjust(sample, view, clock)
                clock = clock + sample.epoch_time_s
                log.append(_EpochLog(epoch, active, sample, limits))
                if epoch + 1 >= min_epochs:
                    conv = self._converged(view, active.size)
                    n_conv = np.count_nonzero(conv)
                    if n_conv == active.size:
                        converged[active] = True
                        break
                    if n_conv:
                        done = active[conv]
                        converged[done] = True
                        epochs_run[done] = epoch + 1
                        keep = ~conv
                        view = view.keep(keep)
                        active, limits, clock = (
                            view.active, limits[keep], clock[keep]
                        )
            else:
                converged[active] = self._converged(view, active.size)
            epochs_run[active] = len(log)
            if trace_sp is not None:
                trace_sp.set_attribute("epochs", int(np.sum(epochs_run)))
                trace_sp.set_attribute("converged", int(np.sum(converged)))

        epochs_run, converged = epochs_run[self._row_of], converged[self._row_of]
        result = self._build_result(tuple(log), epochs_run, converged)
        if enabled():
            registry = get_registry()
            registry.counter("runtime.controller.runs").inc(runs)
            epochs_hist = registry.histogram("runtime.controller.epochs")
            for n in epochs_run.tolist():
                epochs_hist.observe(n)
            n_converged = int(np.sum(converged))
            if n_converged:
                registry.counter("runtime.controller.converged").inc(
                    n_converged
                )
            emit(
                "runtime.controller", "run_complete",
                runs=runs,
                agents=self._agent_names,
                epochs=int(np.sum(epochs_run)),
                epochs_max=int(np.max(epochs_run)),
                converged=n_converged,
                wall_s=timer.elapsed_s,
            )
            for c, report in enumerate(result.reports):
                report.telemetry.update({
                    "runs": float(runs),
                    "run_wall_s": timer.elapsed_s,
                    "epochs": float(epochs_run[c]),
                    "converged": 1.0 if converged[c] else 0.0,
                })
        return result

    # ------------------------------------------------------------------
    def _build_result(
        self,
        log: Tuple[_EpochLog, ...],
        epochs_run: np.ndarray,
        converged: np.ndarray,
    ) -> ControllerBatchResult:
        """Gather the epoch log into per-run reports.

        One concatenation per stretch of epochs with an unchanged active
        set, zero-padded to every row when some runs had already
        converged; the stacks are ``(epochs, rows, ...)``.  ``epochs_run``
        and ``converged`` are in run order.
        """
        runs = self.run_count
        parts: Tuple[List[np.ndarray], ...] = ([], [], [])
        final_limits = np.empty((runs, self.hosts))
        start = 0
        for stop in range(1, len(log) + 1):
            rows = log[start].rows
            if stop < len(log) and log[stop].rows is rows:
                continue
            stretch = log[start:stop]
            for out, field in zip(parts, _REPORT_FIELDS):
                arrays = [getattr(e.sample, field) for e in stretch]
                block = np.concatenate(arrays).reshape(
                    (len(stretch),) + arrays[0].shape
                )
                if rows.size < runs:
                    padded = np.zeros((len(stretch), runs) + block.shape[2:])
                    padded[:, rows] = block
                    block = padded
                out.append(block)
            final_limits[rows] = stretch[-1].limits_applied_w
            start = stop
        times, energy, freq = (
            p[0] if len(p) == 1 else np.concatenate(p) for p in parts
        )
        final_limits = final_limits[self._row_of]
        reports = tuple(
            report_from_arrays(
                job_name=spec.job.name,
                agent=spec.agent.name,
                epoch_times_s=times[:n, row],
                host_energy_j=energy[:n, row],
                mean_freq_ghz=freq[:n, row],
                final_limits_w=final_limits[c],
                metadata=self._describe_run(c),
            )
            for c, (spec, n, row) in enumerate(zip(
                self.specs, epochs_run.tolist(), self._row_of.tolist()
            ))
        )
        return ControllerBatchResult(
            reports=reports,
            epochs=epochs_run,
            converged=converged,
            _log=log,
            _final_limits_w=final_limits,
            _row_of=self._row_of,
        )


def run_controller_batch(
    specs: Sequence[ControllerRunSpec],
    model: Optional[ExecutionModel] = None,
    initial_limits_w: Optional[np.ndarray] = None,
    max_epochs: int = 200,
    min_epochs: int = 3,
) -> ControllerBatchResult:
    """Build a :class:`ControllerBatch` and run it (convenience wrapper)."""
    return ControllerBatch(specs, model=model).run(
        initial_limits_w=initial_limits_w,
        max_epochs=max_epochs,
        min_epochs=min_epochs,
    )
