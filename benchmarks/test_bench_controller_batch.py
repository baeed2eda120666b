"""Bench: batched controller runtime vs the serial feedback loop.

The acceptance benchmark of the batched runtime: the full Fig. 5
characterization sweep — 8 intensities x 7 waiting/imbalance columns =
56 balancer cells on 8 hosts, each converging the real balancer under a
TDP x hosts budget — run once as 56 serial controller loops and once as
a single ``ControllerBatch``.  This is the regime the batch was built
for: every epoch of the serial path pays Python-loop and small-array
overhead per cell, while the batch advances all still-active cells
through one ``(runs, hosts)`` physics pass and one batched agent step.

The serial side is the frozen serial controller and balancer of
``tests/controller_oracle.py``: ``Controller`` itself is now the
one-run slice of ``ControllerBatch``, so timing it against the batch
would compare the batch with itself.  The same 56 runs also go through
``Controller`` one at a time; that line is the one-run (S=1) cost of
the single runtime, printed with its ratio to the serial loop and not
gated.

Bit-identity between the serial loop and the batch is asserted
unconditionally for every cell (reports and final limits).  The >= 4x
speedup assertion and best-of-N timing are skipped under
``REPRO_SMOKE=1`` (the CI smoke job, which only checks the benchmark
still runs).

Writes ``benchmarks/output/controller_batch.txt`` with the measured
timings.
"""

import os
import time

import numpy as np

from repro import telemetry
from repro.hardware.cluster import Cluster
from repro.io.bench_artifacts import BenchMetric
from repro.runtime.batch import ControllerRunSpec, run_controller_batch
from repro.runtime.controller import Controller
from repro.runtime.power_balancer import PowerBalancerAgent
from repro.sim.engine import ExecutionModel
from repro.workload.job import Job
from repro.workload.kernel import WAITING_IMBALANCE_GRID, KernelConfig
from repro.characterization.monitor_runs import DEFAULT_HEATMAP_INTENSITIES
from tests import controller_oracle as oracle

HOSTS = 8
MAX_EPOCHS = 300
SMOKE = os.environ.get("REPRO_SMOKE") == "1"


def _cell_configs():
    return [
        KernelConfig(intensity=intensity, waiting_fraction=waiting,
                     imbalance=imbalance)
        for intensity in DEFAULT_HEATMAP_INTENSITIES
        for waiting, imbalance in WAITING_IMBALANCE_GRID
    ]


def _sweep(model, eff, budget):
    configs = _cell_configs()
    jobs = [
        Job(name=f"bench-{config.label()}", config=config, node_count=HOSTS)
        for config in configs
    ]

    def looped():
        results = []
        for job in jobs:
            controller = oracle.Controller(
                job, eff, oracle.PowerBalancerAgent(job_budget_w=budget),
                model=model,
            )
            report = controller.run(max_epochs=MAX_EPOCHS)
            results.append((report, controller.final_limits_w()))
        return results

    def one_at_a_time():
        for job in jobs:
            Controller(
                job, eff, PowerBalancerAgent(job_budget_w=budget),
                model=model,
            ).run(max_epochs=MAX_EPOCHS)

    def batched():
        specs = [
            ControllerRunSpec(
                job=job, efficiencies=eff,
                agent=PowerBalancerAgent(job_budget_w=budget),
            )
            for job in jobs
        ]
        return run_controller_batch(specs, model=model, max_epochs=MAX_EPOCHS)

    return configs, looped, one_at_a_time, batched


def test_balancer_sweep_batched_vs_looped(emit):
    cluster = Cluster(node_count=HOSTS, variation=None, seed=0)
    eff = cluster.efficiencies
    model = ExecutionModel()
    budget = model.power_model.tdp_w * HOSTS
    repeats = 1 if SMOKE else 3

    with telemetry.disabled():
        configs, looped, one_at_a_time, batched = _sweep(model, eff, budget)

        # Correctness first, always: every cell bit-identical to serial.
        serial_results = looped()
        batch_result = batched()
        assert len(serial_results) == len(configs)
        for c, (report, limits) in enumerate(serial_results):
            assert report == batch_result.reports[c], configs[c].label()
            np.testing.assert_array_equal(
                limits, batch_result.final_limits_w(c)
            )

        # Interleaved repeats, so a drift in host speed hits all three.
        timings = {fn: [] for fn in (looped, batched, one_at_a_time)}
        for _ in range(repeats):
            for fn, times in timings.items():
                times.append(_timed(fn))
        t_loop, t_batch, t_single = (min(t) for t in timings.values())

    speedup = t_loop / t_batch
    single_ratio = t_single / t_loop
    epochs = batch_result.epochs
    lines = [
        "Batched controller runtime: full Fig. 5 balancer sweep, "
        f"{len(configs)} cells x {HOSTS} hosts",
        "",
        f"convergence: {int(np.min(epochs))}-{int(np.max(epochs))} epochs "
        f"per cell (mean {float(np.mean(epochs)):.1f}), "
        f"{int(np.count_nonzero(batch_result.converged))}/{len(configs)} "
        "converged",
        f"  looped  ({len(configs)}x serial loop):  {t_loop * 1e3:8.2f} ms",
        f"  batched (1x ControllerBatch.run):   {t_batch * 1e3:8.2f} ms",
        f"  speedup: {speedup:.2f}x  (best of {repeats}, interleaved)",
        f"  S=1     ({len(configs)}x Controller.run):  "
        f"{t_single * 1e3:8.2f} ms  ({single_ratio:.2f}x the serial loop, "
        "not gated)",
        "  bit-identical to serial: True (all cells, reports + limits)",
    ]
    emit(
        "controller_batch", "\n".join(lines),
        metrics=[
            BenchMetric("speedup", speedup, "x", direction="higher_better"),
            BenchMetric("looped_ms", t_loop * 1e3, "ms",
                        direction="lower_better"),
            BenchMetric("batched_ms", t_batch * 1e3, "ms",
                        direction="lower_better"),
            BenchMetric("single_ms", t_single * 1e3, "ms",
                        direction="lower_better"),
            BenchMetric("mean_epochs", float(np.mean(epochs)), "epochs"),
            BenchMetric(
                "converged_cells",
                float(np.count_nonzero(batch_result.converged)), "cells",
            ),
        ],
        params={"cells": len(configs), "hosts": HOSTS,
                "max_epochs": MAX_EPOCHS, "repeats": repeats,
                "smoke": SMOKE},
        seed=0,
    )
    if not SMOKE:
        assert speedup >= 4.0, (
            f"batched sweep only {speedup:.2f}x faster than the serial loop"
        )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
