"""Batched scenario evaluation: many cap vectors through one engine pass.

Every headline experiment in the paper is a *sweep* — the Fig. 5 balancer
heat map, the Table III budget ladders, Fig. 8's mix x budget x policy
grid.  Evaluating a sweep one :func:`~repro.sim.execution.simulate_mix`
call at a time pays full per-call overhead per scenario even though the
physics is a pure ufunc chain that broadcasts.  This module adds the
*scenario axis*: an ``(S, hosts)`` cap matrix runs through one pass of the
shared engine body (:func:`repro.sim.execution._execute_scenarios`) as
``(S, iterations, hosts)`` tensors.

Determinism contract
--------------------
``simulate_cap_batch(mix, caps_sw, ...)[s]`` is **bit-identical** to
``simulate_mix(mix, caps_sw[s], ...)`` with the matching per-scenario
seed — not merely close.  Both entry points share one implementation, the
noise stream is drawn per scenario from its own ``default_rng(seed)``, and
the reductions are arranged so each scenario slice sees the exact
floating-point operation order of a serial run.  The property is pinned by
``tests/property/test_batch_properties.py``.

Batch vs pool
-------------
Batching removes *per-call* overhead inside one process; the
:mod:`repro.parallel` pool removes *wall-clock* by using more processes.
They compose: ladder helpers chunk their rungs across pool workers and
each worker evaluates its chunk as one batch.  Batched runs also share
the content-addressed result cache with serial runs — per-scenario cache
keys are identical, so a batch can be partially served from cache and a
later serial call hits entries a batch stored.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.sim.engine import ExecutionModel
from repro.sim.execution import (
    DEFAULT_OPTIONS,
    SimulationOptions,
    _execute_scenarios,
)
from repro.sim.results import MixRunResult
from repro.telemetry import ScopedTimer, emit, enabled, get_registry, span
from repro.workload.job import HostLayout, WorkloadMix

__all__ = [
    "LayoutBatch",
    "LayoutBatchResult",
    "stack_cache_info",
    "stack_layouts",
    "simulate_cap_batch",
    "simulate_layout_batch",
]


@dataclass(frozen=True)
class LayoutBatch:
    """A stack of per-scenario host layouts sharing one job structure.

    The engine body treats this interchangeably with a
    :class:`~repro.workload.job.HostLayout`: per-host physics arrays carry
    a leading scenario axis ``(S, hosts)`` while the job index structure
    (``job_index``, ``job_boundaries``) stays one-dimensional and common
    to every scenario.  Built via :func:`stack_layouts` from layouts whose
    *workloads* differ (the heat-map case: every cell is a different
    kernel configuration over the same hosts).
    """

    job_index: np.ndarray             # (hosts,)
    job_boundaries: np.ndarray        # (jobs + 1,)
    critical: np.ndarray              # (S, hosts)
    kappa: np.ndarray                 # (S, hosts)
    poll_kappa: np.ndarray            # (S, hosts)
    traffic_gb: np.ndarray            # (S, hosts)
    gflop: np.ndarray                 # (S, hosts)
    compute_ceiling_index: np.ndarray  # (S, hosts)
    ceiling_names: Tuple[str, ...]

    @property
    def host_count(self) -> int:
        """Hosts per scenario."""
        return int(self.job_index.size)

    @property
    def scenario_count(self) -> int:
        """Scenarios stacked in this batch."""
        return int(self.kappa.shape[0])

    def take(self, rows: np.ndarray) -> "LayoutBatch":
        """Scenario rows ``rows`` as a new batch (fancy-index copies)."""
        return LayoutBatch(
            job_index=self.job_index,
            job_boundaries=self.job_boundaries,
            ceiling_names=self.ceiling_names,
            **{name: getattr(self, name)[rows] for name in _PER_SCENARIO},
        )


#: The :class:`LayoutBatch` fields with a leading scenario axis.
_PER_SCENARIO = tuple(
    f.name for f in dataclasses.fields(LayoutBatch)
    if f.name not in ("job_index", "job_boundaries", "ceiling_names")
)


def stack_layouts(layouts: Sequence[HostLayout]) -> LayoutBatch:
    """Stack per-scenario layouts into one :class:`LayoutBatch`.

    All layouts must share the same host count and job block structure
    (``job_index`` / ``job_boundaries``); their physics arrays may differ
    freely.  Compute-ceiling indices are remapped onto the union of the
    ceiling-name vocabularies, so layouts built from different kernel
    configurations stack without renaming.
    """
    if not layouts:
        raise ValueError("stack_layouts needs at least one layout")
    first = layouts[0]
    names: List[str] = []
    lookup = {}
    remapped = []
    for layout in layouts[1:]:
        if not np.array_equal(layout.job_index, first.job_index) or \
                not np.array_equal(layout.job_boundaries, first.job_boundaries):
            raise ValueError(
                "all layouts in a batch must share one job block structure"
            )
    for layout in layouts:
        for name in layout.ceiling_names:
            if name not in lookup:
                lookup[name] = len(names)
                names.append(name)
        table = np.array([lookup[n] for n in layout.ceiling_names], dtype=int)
        remapped.append(table[layout.compute_ceiling_index])
    return LayoutBatch(
        job_index=first.job_index,
        job_boundaries=first.job_boundaries,
        critical=np.array([la.critical for la in layouts]),
        kappa=np.array([la.kappa for la in layouts]),
        poll_kappa=np.array([la.poll_kappa for la in layouts]),
        traffic_gb=np.array([la.traffic_gb for la in layouts]),
        gflop=np.array([la.gflop for la in layouts]),
        compute_ceiling_index=np.array(remapped),
        ceiling_names=tuple(names),
    )


#: Identity-keyed memo for :func:`_stack_layouts_cached`.  Values hold
#: strong references to the source layouts so the ``id`` keys stay valid
#: for the lifetime of the entry.
_STACK_CACHE: dict = {}
_STACK_CACHE_LIMIT = 128
_STACK_CACHE_HITS = 0
_STACK_CACHE_MISSES = 0


def stack_cache_info() -> dict:
    """Statistics for the stacked-layout memo (for tests and tuning).

    ``entries`` is bounded by ``limit`` — the memo clears wholesale when
    full, so long-running fused facility campaigns cannot grow it without
    bound.  ``hits``/``misses`` count lookups since process start.
    """
    return {
        "entries": len(_STACK_CACHE),
        "limit": _STACK_CACHE_LIMIT,
        "hits": _STACK_CACHE_HITS,
        "misses": _STACK_CACHE_MISSES,
    }


def _stack_layouts_cached(layouts: Sequence[HostLayout]) -> LayoutBatch:
    """:func:`stack_layouts`, memoised on layout *identity*.

    The streaming engine's batched rolling mode stacks the same shared
    read-only layout objects (one per job shape, primed by the batch
    planner) group after group, so the stacked batch can be reused
    outright instead of re-gathering ``S × hosts`` physics arrays per
    step.  Layouts are immutable by contract (:meth:`WorkloadMix.layout`
    marks the arrays read-only), which is what makes the stacked result
    shareable; callers that mutate layouts must use :func:`stack_layouts`
    directly.

    The fused facility engine drives group sizes that vary round to
    round (clusters drop out as their streams drain), so the all-same
    path additionally memoises the *one-row* stack under
    ``(id(first), 1)``: a new scenario count pays only the ``np.repeat``
    fan-out, never a re-gather of the physics arrays.
    """
    global _STACK_CACHE_HITS, _STACK_CACHE_MISSES
    first = layouts[0]
    scenarios = len(layouts)
    if all(layout is first for layout in layouts):
        # All rows share one layout object (the planner's primed-layout
        # case): the stacked batch is S copies of a single row, built by
        # repeating a one-row stack instead of re-gathering S rows.
        key = (id(first), scenarios)
        entry = _STACK_CACHE.get(key)
        if entry is not None and entry[0][0] is first:
            _STACK_CACHE_HITS += 1
            return entry[1]
        _STACK_CACHE_MISSES += 1
        single_key = (id(first), 1)
        single_entry = _STACK_CACHE.get(single_key)
        if single_entry is not None and single_entry[0][0] is first:
            single = single_entry[1]
        else:
            single = stack_layouts([first])
            if len(_STACK_CACHE) >= _STACK_CACHE_LIMIT:
                _STACK_CACHE.clear()
            _STACK_CACHE[single_key] = ((first,), single)
        if scenarios == 1:
            return single
        batch = single.take(np.zeros(scenarios, dtype=int))
        held = (first,)
    else:
        key = tuple(id(layout) for layout in layouts)
        entry = _STACK_CACHE.get(key)
        if entry is not None:
            held, batch = entry
            if all(a is b for a, b in zip(held, layouts)):
                _STACK_CACHE_HITS += 1
                return batch
        _STACK_CACHE_MISSES += 1
        batch = stack_layouts(layouts)
        held = tuple(layouts)
    if len(_STACK_CACHE) >= _STACK_CACHE_LIMIT:
        _STACK_CACHE.clear()
    _STACK_CACHE[key] = (held, batch)
    return batch


def _per_scenario(value, scenarios: int, name: str, kind) -> list:
    """Broadcast a scalar-or-sequence argument to one value per scenario."""
    if isinstance(value, (str, float, int)) and not isinstance(value, bool):
        return [kind(value)] * scenarios
    values = [kind(v) for v in value]
    if len(values) != scenarios:
        raise ValueError(
            f"{name} must be a scalar or length-{scenarios} sequence, "
            f"got length {len(values)}"
        )
    return values


def simulate_cap_batch(
    mix: WorkloadMix,
    caps_sw: np.ndarray,
    efficiencies: np.ndarray,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
    seeds: Optional[Sequence[int]] = None,
    policy_names: Union[str, Sequence[str]] = "unmanaged",
    budgets_w: Union[float, Sequence[float]] = 0.0,
) -> List[MixRunResult]:
    """Simulate ``S`` cap scenarios against one mix in a single pass.

    Parameters
    ----------
    mix / efficiencies:
        As in :func:`~repro.sim.execution.simulate_mix` — one workload on
        one host allocation, shared by every scenario.
    caps_sw:
        Cap matrix of shape ``(S, hosts)``; row ``s`` is scenario ``s``'s
        per-host node caps.
    options:
        Noise/barrier settings shared by all scenarios (``None`` means
        :data:`~repro.sim.execution.DEFAULT_OPTIONS`).
    seeds:
        Per-scenario noise seeds, length ``S``.  ``None`` replicates
        ``options.seed`` — all scenarios then share one noise stream,
        exactly as ``S`` serial calls with the same options would.
    policy_names / budgets_w:
        Result metadata, scalar (shared) or per-scenario sequences.

    Returns
    -------
    list of MixRunResult
        One result per scenario, in row order; element ``s`` is
        bit-identical to the corresponding serial ``simulate_mix`` call.

    When a :func:`~repro.parallel.cache.active_cache` is installed, each
    scenario is looked up under the *serial* cache key; only the missing
    rows go through the engine, and their results are stored for later
    serial or batched runs to hit.
    """
    if options is None:
        options = DEFAULT_OPTIONS
    model = model if model is not None else ExecutionModel()
    layout = mix.layout()
    caps = np.asarray(caps_sw, dtype=float)
    eff = np.asarray(efficiencies, dtype=float)
    if caps.ndim != 2 or caps.shape[1] != layout.host_count:
        raise ValueError(
            f"caps_sw must have shape (S, {layout.host_count}), got {caps.shape}"
        )
    if eff.shape != (layout.host_count,):
        raise ValueError(
            f"efficiencies must have shape ({layout.host_count},), got {eff.shape}"
        )
    n_iter = mix.common_iterations()

    def execute(misses, seed_list):
        return _execute_scenarios(
            layout, caps[misses], eff, model, n_iter, options.noise_std,
            options.barrier_overhead_s, seed_list,
            fault_schedule=options.fault_schedule,
        )

    return list(_simulate_scenarios(
        "simulate_cap_batch", "mix_batch_simulated", [mix] * caps.shape[0],
        caps, np.broadcast_to(eff, caps.shape), model, options, seeds,
        policy_names, budgets_w, layout.job_index, n_iter, execute,
        mix=mix.name, hosts=layout.host_count,
    ))


def _simulate_scenarios(kind, event, mixes, caps, effs, model, options,
                        seeds, policy_names, budgets_w, job_index, n_iter,
                        execute, **attrs) -> "LayoutBatchResult":
    """The cache-aware body both batch entry points share.

    Row ``s`` is ``mixes[s]`` under ``caps[s]`` on ``effs[s]``; every
    row is looked up under its *serial* cache key, and
    ``execute(misses, seeds)`` runs the missed rows through the engine.
    ``kind`` names the span (``sim.<kind>``) and the timer, ``event`` the
    completion event; ``attrs`` lead both.
    """
    scenarios = len(mixes)
    if seeds is None:
        seed_list = [int(options.seed)] * scenarios
    else:
        seed_list = [int(s) for s in seeds]
        if len(seed_list) != scenarios:
            raise ValueError(
                f"seeds must have length {scenarios}, got {len(seed_list)}"
            )
    names = _per_scenario(policy_names, scenarios, "policy_names", str)
    budgets = _per_scenario(budgets_w, scenarios, "budgets_w", float)

    from repro.parallel.cache import active_cache

    with span(f"sim.{kind}", **attrs, scenarios=scenarios) as trace_sp:
        cache = active_cache()
        cached: dict = {}
        keys: List[Optional[str]] = [None] * scenarios
        misses = list(range(scenarios))
        if cache is not None:
            from repro.io.serialize import result_from_dict

            misses = []
            for s in range(scenarios):
                opts_s = dataclasses.replace(options, seed=seed_list[s])
                keys[s] = cache.key(
                    "simulate", mixes[s], caps[s], effs[s], model, opts_s,
                    names[s], budgets[s],
                )
                payload = cache.get(keys[s])
                if payload is not None:
                    cached[s] = result_from_dict(payload)
                else:
                    misses.append(s)
        hits = len(cached)
        if trace_sp is not None:
            trace_sp.set_attribute("cache_hits", hits)

        with ScopedTimer(f"sim.execution.{kind}_s") as timer:
            out = None
            if misses or not cached:
                out = execute(misses, [seed_list[s] for s in misses])
            result = LayoutBatchResult(
                mixes, names, budgets, job_index,
                *_stacked_rows(out, misses, cached, scenarios),
            )
        if cache is not None and misses:
            from repro.io.serialize import result_to_dict

            for s in misses:
                cache.put(keys[s], result_to_dict(result[s]))

        if enabled():
            registry = get_registry()
            registry.counter("sim.execution.batch_runs").inc()
            if misses:
                registry.counter("sim.execution.runs").inc(len(misses))
            if hits:
                registry.counter("sim.execution.cache_hits").inc(hits)
            emit(
                "sim.execution", event, **attrs, scenarios=scenarios,
                cache_hits=hits, iterations=n_iter, wall_s=timer.elapsed_s,
            )
    return result


#: The per-row output arrays a pass stacks (the engine's tensors and
#: :class:`LayoutBatchResult` share these names).
_ROW_ARRAYS = ("iteration_times_s", "iteration_energy_j", "host_energy_j",
               "host_mean_power_w", "total_gflop")


def _stacked_rows(out, misses: List[int], cached: dict,
                  scenarios: int) -> List[np.ndarray]:
    """The pass's ``(S, ...)`` output arrays, in :data:`_ROW_ARRAYS` order:
    the engine tensors themselves, or — when the cache served some rows
    — fresh arrays holding the engine rows and the decoded cached rows."""
    if not cached:
        return [getattr(out, name) for name in _ROW_ARRAYS]
    stacked = []
    for name in _ROW_ARRAYS:
        row_shape = np.shape(getattr(next(iter(cached.values())), name))
        array = np.empty((scenarios,) + row_shape)
        for s, row in cached.items():
            array[s] = getattr(row, name)
        if misses:
            array[misses] = getattr(out, name)
        stacked.append(array)
    return stacked


@dataclass(frozen=True, eq=False)
class LayoutBatchResult(SequenceABC):
    """The stacked outputs of one :func:`simulate_layout_batch` pass.

    Consumers that reduce over the whole pass — the site pipeline's
    stage 3 — read the ``(S, ...)`` arrays directly.  The object is also
    a sequence of per-row :class:`~repro.sim.results.MixRunResult`, each
    built on access from its row's slices, for callers that want one
    result per scenario.
    """

    mixes: Sequence[WorkloadMix]
    policy_names: Sequence[str]
    budgets_w: Sequence[float]
    host_job_index: np.ndarray        # (hosts,), common to every row
    iteration_times_s: np.ndarray     # (S, iterations, jobs)
    iteration_energy_j: np.ndarray    # (S, iterations)
    host_energy_j: np.ndarray         # (S, hosts)
    host_mean_power_w: np.ndarray     # (S, hosts)
    total_gflop: np.ndarray           # (S,)

    def __len__(self) -> int:
        return len(self.mixes)

    def __getitem__(self, s: int) -> MixRunResult:
        mix = self.mixes[s]
        return MixRunResult(
            mix_name=mix.name,
            policy_name=self.policy_names[s],
            budget_w=self.budgets_w[s],
            job_names=mix.job_names,
            iteration_times_s=self.iteration_times_s[s],
            iteration_energy_j=self.iteration_energy_j[s],
            host_energy_j=self.host_energy_j[s],
            host_mean_power_w=self.host_mean_power_w[s],
            host_job_index=self.host_job_index,
            total_gflop=float(self.total_gflop[s]),
        )

    @classmethod
    def stack(cls, mixes: Sequence[WorkloadMix],
              results: Sequence[MixRunResult]) -> "LayoutBatchResult":
        """Stack per-row results (e.g. serial ``simulate_mix`` runs)."""
        return cls(
            mixes, [r.policy_name for r in results],
            [r.budget_w for r in results], results[0].host_job_index,
            *(np.stack([np.asarray(getattr(r, name)) for r in results])
              for name in _ROW_ARRAYS),
        )


def simulate_layout_batch(
    mixes: Sequence[WorkloadMix],
    caps_sw: np.ndarray,
    efficiencies_sw: np.ndarray,
    model: Optional[ExecutionModel] = None,
    options: Optional[SimulationOptions] = None,
    seeds: Optional[Sequence[int]] = None,
    policy_names: Union[str, Sequence[str]] = "unmanaged",
    budgets_w: Union[float, Sequence[float]] = 0.0,
) -> LayoutBatchResult:
    """Simulate ``S`` *independent mixes* on ``S`` host rows in one pass.

    Where :func:`simulate_cap_batch` sweeps cap vectors over one mix on
    one host allocation, this entry point batches whole co-resident
    *runs*: scenario ``s`` is mix ``mixes[s]`` on its own hosts with its
    own efficiencies row — the shape of the streaming engine's rolling
    mode, where several admitted batches occupy disjoint node subsets at
    once.  All mixes must share one job block structure (same per-job
    node counts) and one iteration count, the precondition of
    :func:`stack_layouts`; callers group heterogeneous batches by that
    structure signature first.

    Parameters
    ----------
    mixes:
        One workload mix per scenario, length ``S``.
    caps_sw / efficiencies_sw:
        ``(S, hosts)`` matrices; row ``s`` is scenario ``s``'s per-host
        caps and host efficiencies.
    seeds / policy_names / budgets_w:
        As in :func:`simulate_cap_batch`.

    Returns
    -------
    LayoutBatchResult
        The pass's stacked ``(S, ...)`` output arrays; element ``s`` is
        **bit-identical** to
        ``simulate_mix(mixes[s], caps_sw[s], efficiencies_sw[s], ...)``
        with the matching seed: the engine body is a pure elementwise
        ufunc chain over the host axis with per-scenario contiguous
        reductions, so stacking independent rows cannot change any
        element (pinned by ``tests/property/test_stream_properties.py``).

    Per-scenario cache keys are the *serial* keys, so a layout batch
    interoperates with serial runs through any installed
    :func:`~repro.parallel.cache.active_cache` exactly as cap batches do;
    rows served from the cache land in the same stacked arrays.
    """
    if not mixes:
        raise ValueError("simulate_layout_batch needs at least one mix")
    if options is None:
        options = DEFAULT_OPTIONS
    model = model if model is not None else ExecutionModel()
    layouts = [mix.layout() for mix in mixes]
    hosts = layouts[0].host_count
    scenarios = len(mixes)
    caps = np.asarray(caps_sw, dtype=float)
    eff = np.asarray(efficiencies_sw, dtype=float)
    if caps.shape != (scenarios, hosts):
        raise ValueError(
            f"caps_sw must have shape ({scenarios}, {hosts}), got {caps.shape}"
        )
    if eff.shape != (scenarios, hosts):
        raise ValueError(
            f"efficiencies_sw must have shape ({scenarios}, {hosts}), "
            f"got {eff.shape}"
        )
    n_iter = mixes[0].common_iterations()
    for mix in mixes[1:]:
        if mix.common_iterations() != n_iter:
            raise ValueError(
                "all mixes in a layout batch must share one iteration count"
            )

    def execute(misses, seed_list):
        return _execute_scenarios(
            _stack_layouts_cached([layouts[s] for s in misses]),
            caps[misses], eff[misses], model, n_iter, options.noise_std,
            options.barrier_overhead_s, seed_list,
            fault_schedule=options.fault_schedule,
        )

    return _simulate_scenarios(
        "simulate_layout_batch", "layout_batch_simulated", mixes, caps, eff,
        model, options, seeds, policy_names, budgets_w,
        layouts[0].job_index, n_iter, execute, hosts=hosts,
    )
