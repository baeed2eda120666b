"""Power-balancer characterization: the paper's Fig. 5 heat map.

"We obtain Metric-(b) by observing the actual power consumed by each
workload when subjected to an average power budget equal to the total TDP
of each node ... using the GEOPM power balancer agent" (§IV-B).  Under the
balancer, hosts off the critical path are throttled down to the power that
just preserves the job's iteration time, so the measured mean power is the
workload's *needed* power.

Two paths are provided:

* :func:`needed_caps_for_job` / :func:`balancer_heatmap` — the analytic
  steady state (shared physics with
  :func:`~repro.characterization.mix_characterization.characterize_mix`);
* :func:`balancer_power_for_config` — the authentic feedback loop through
  :class:`~repro.runtime.power_balancer.PowerBalancerAgent`, used by the
  test suite to validate the analytic path and by users who want to watch
  the balancer converge.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.hardware.cluster import Cluster
from repro.runtime.controller import Controller
from repro.runtime.power_balancer import BalancerOptions, PowerBalancerAgent
from repro.sim.engine import ExecutionModel
from repro.workload.job import Job, WorkloadMix
from repro.workload.kernel import (
    WAITING_IMBALANCE_GRID,
    KernelConfig,
    Precision,
    VectorWidth,
)
from repro.characterization.monitor_runs import DEFAULT_HEATMAP_INTENSITIES, HeatmapGrid

__all__ = [
    "needed_caps_for_job",
    "balancer_power_for_config",
    "balancer_heatmap",
    "balancer_heatmap_runtime",
]


def needed_caps_for_job(
    job: Job,
    efficiencies: np.ndarray,
    model: Optional[ExecutionModel] = None,
) -> np.ndarray:
    """Analytic balancer steady state: per-host needed power for one job.

    Wraps the mix-level characterization for the single-job case and
    returns the per-host needed power (W), already bounded by the floor
    consumption and the unconstrained draw.
    """
    from repro.characterization.mix_characterization import characterize_mix

    mix = WorkloadMix(name=job.name, jobs=(job,))
    char = characterize_mix(mix, efficiencies, model)
    return char.needed_power_w.copy()


def balancer_power_for_config(
    config: KernelConfig,
    cluster: Cluster,
    node_ids: Sequence[int],
    model: Optional[ExecutionModel] = None,
    options: Optional[BalancerOptions] = None,
    max_epochs: int = 300,
) -> Tuple[float, np.ndarray]:
    """Run the real balancer feedback loop for one configuration.

    The job budget is TDP x hosts (the paper's Fig. 5 operating point).
    Returns ``(mean node power at steady state, per-host steady powers)``.
    """
    ids = np.asarray(node_ids, dtype=int)
    model = model if model is not None else ExecutionModel()
    options = options if options is not None else BalancerOptions()
    job = Job(name=f"balance-{config.label()}", config=config,
              node_count=int(ids.size), iterations=max_epochs)
    budget = model.power_model.tdp_w * ids.size
    agent = PowerBalancerAgent(job_budget_w=budget, options=options)
    controller = Controller(
        job=job,
        efficiencies=cluster.efficiencies[ids],
        agent=agent,
        model=model,
    )
    controller.run(max_epochs=max_epochs)
    steady = controller.steady_state_sample()
    return float(np.mean(steady.host_power_w)), np.asarray(steady.host_power_w)


def balancer_heatmap(
    cluster: Cluster,
    node_ids: Sequence[int],
    vector: VectorWidth = VectorWidth.YMM,
    intensities: Sequence[float] = DEFAULT_HEATMAP_INTENSITIES,
    columns: Sequence[Tuple[float, int]] = WAITING_IMBALANCE_GRID,
    model: Optional[ExecutionModel] = None,
    precision: Precision = Precision.DOUBLE,
) -> HeatmapGrid:
    """The full Fig. 5 grid via the analytic steady state.

    Cell value = mean node power when the configuration runs under the
    power balancer with a TDP-level budget: critical-path hosts draw their
    unconstrained power, waiting hosts draw the minimum that preserves the
    iteration time (plus barrier polling at the reduced limit).

    All cells are evaluated as one batch: the per-cell layouts stack into
    an ``(S, hosts)`` :class:`~repro.sim.batch.LayoutBatch`, both
    characterization passes and the deterministic cap execution run once
    over the scenario axis, and each cell value is bit-identical to the
    former per-cell ``characterize_mix`` + ``simulate_mix`` loop.
    """
    from repro.characterization.mix_characterization import (
        DEFAULT_HARVEST_FRACTION,
        _apply_harvest,
        _characterization_arrays,
    )
    from repro.sim.batch import stack_layouts
    from repro.sim.execution import DEFAULT_OPTIONS, _execute_scenarios

    model = model if model is not None else ExecutionModel()
    ids = np.asarray(node_ids, dtype=int)
    eff = cluster.efficiencies[ids]
    layouts = []
    for intensity in intensities:
        for waiting, imbalance in columns:
            config = KernelConfig(
                intensity=intensity,
                vector=vector,
                precision=precision,
                waiting_fraction=waiting,
                imbalance=imbalance,
            )
            job = Job(name="cell", config=config, node_count=int(ids.size), iterations=1)
            layouts.append(WorkloadMix(name="cell", jobs=(job,)).layout())
    batch = stack_layouts(layouts)
    monitor_power, theoretical = _characterization_arrays(model, batch, eff)
    _, needed_cap = _apply_harvest(
        monitor_power, theoretical, DEFAULT_HARVEST_FRACTION, model.power_model
    )
    # Measured power under the balancer's converged caps: run the
    # deterministic execution with needed caps applied.
    out = _execute_scenarios(
        batch, needed_cap, eff, model, n_iter=1, noise_std=0.0,
        barrier_overhead_s=DEFAULT_OPTIONS.barrier_overhead_s,
        seeds=[0] * batch.scenario_count,
    )
    values = np.mean(out.host_mean_power_w, axis=1).reshape(
        len(intensities), len(columns)
    )
    return HeatmapGrid(
        title=f"Needed CPU power per node ({vector.value}, power balancer agent)",
        intensities=tuple(intensities),
        columns=tuple(columns),
        values=values,
    )


def balancer_heatmap_runtime(
    cluster: Cluster,
    node_ids: Sequence[int],
    vector: VectorWidth = VectorWidth.YMM,
    intensities: Sequence[float] = DEFAULT_HEATMAP_INTENSITIES,
    columns: Sequence[Tuple[float, int]] = WAITING_IMBALANCE_GRID,
    model: Optional[ExecutionModel] = None,
    precision: Precision = Precision.DOUBLE,
    options: Optional[BalancerOptions] = None,
    max_epochs: int = 300,
) -> HeatmapGrid:
    """The full Fig. 5 grid through the *authentic* balancer feedback loop.

    Every cell converges the real :class:`PowerBalancerAgent` under a
    TDP x hosts budget, exactly as :func:`balancer_power_for_config` does,
    but all cells advance in lockstep through one
    :class:`~repro.runtime.batch.ControllerBatch`; converged cells freeze
    while stragglers keep iterating.  Cell ``(r, c)`` is bit-identical to
    the per-cell serial helper, so the test suite can validate the
    feedback-loop grid against the analytic :func:`balancer_heatmap` at
    every cell instead of a sampled handful.
    """
    from repro.runtime.batch import ControllerRunSpec, run_controller_batch

    model = model if model is not None else ExecutionModel()
    options = options if options is not None else BalancerOptions()
    ids = np.asarray(node_ids, dtype=int)
    eff = cluster.efficiencies[ids]
    budget = model.power_model.tdp_w * ids.size
    specs = []
    for intensity in intensities:
        for waiting, imbalance in columns:
            config = KernelConfig(
                intensity=intensity,
                vector=vector,
                precision=precision,
                waiting_fraction=waiting,
                imbalance=imbalance,
            )
            job = Job(
                name=f"balance-{config.label()}", config=config,
                node_count=int(ids.size), iterations=max_epochs,
            )
            specs.append(
                ControllerRunSpec(
                    job=job,
                    efficiencies=eff,
                    agent=PowerBalancerAgent(job_budget_w=budget, options=options),
                )
            )
    result = run_controller_batch(specs, model=model, max_epochs=max_epochs)
    values = np.array(
        [
            float(np.mean(result.steady_state_sample(c).host_power_w))
            for c in range(result.run_count)
        ]
    ).reshape(len(intensities), len(columns))
    return HeatmapGrid(
        title=f"Needed CPU power per node ({vector.value}, power balancer "
              "agent, feedback loop)",
        intensities=tuple(intensities),
        columns=tuple(columns),
        values=values,
    )
