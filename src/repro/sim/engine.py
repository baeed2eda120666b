"""The simulator's physics: caps, frequencies, phase times, and inverses.

:class:`ExecutionModel` binds the node power model (cap -> frequency ->
power) to the roofline throughput model (frequency -> phase time for a work
quantum) and exposes the vectorised forward and inverse maps everything
else is built on:

forward
    ``compute_time(caps, layout)`` — per-host compute-phase time under
    per-host caps, and the power drawn while computing / polling.

inverse
    ``required_frequency(layout, target_time)`` — the lowest frequency at
    which each host still finishes its work inside ``target_time``; and
    ``required_power`` — the node power that frequency costs.  This is the
    analytic core of the GEOPM power balancer (paper §IV-B): power can be
    removed from a host exactly down to the point where its compute phase
    stretches to the job's critical-path time.

Batch dimensions
----------------
Every map is a pure ufunc chain and broadcasts over *leading* axes: pass
caps of shape ``(S, hosts)`` (or a layout-like object whose per-host
arrays are ``(S, hosts)``, see :mod:`repro.sim.batch`) and each method
returns ``(S, hosts)`` — ``S`` independent scenarios evaluated in one
pass.  Per-job reductions use ``axis=-1`` so the host axis is always the
last one.  :func:`repro.sim.batch.simulate_cap_batch` builds on exactly
this property.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.node import NodePowerModel
from repro.hardware.roofline import NODE_LEVEL_ROOFLINE, RooflineModel
from repro.workload.job import HostLayout

__all__ = ["ExecutionModel"]


@dataclass(frozen=True)
class ExecutionModel:
    """Physics bundle: power model + roofline, vectorised over hosts."""

    power_model: NodePowerModel = field(default_factory=NodePowerModel)
    roofline: RooflineModel = NODE_LEVEL_ROOFLINE

    # ------------------------------------------------------------------
    # roofline plumbing
    # ------------------------------------------------------------------
    def _ceiling_gflops(self, layout: HostLayout) -> np.ndarray:
        """Base-frequency compute ceiling per host (GFLOPS)."""
        base = np.array(
            [self.roofline.compute(name).gflops for name in layout.ceiling_names]
        )
        return base[layout.compute_ceiling_index]

    def _bandwidth_params(self):
        ceiling = self.roofline.bandwidth(self.roofline.working_set_level)
        return ceiling.bw_gbps, ceiling.freq_sensitivity

    # ------------------------------------------------------------------
    # forward map
    # ------------------------------------------------------------------
    def frequencies(self, caps_w: np.ndarray, layout: HostLayout,
                    efficiencies: np.ndarray) -> np.ndarray:
        """Achieved compute-phase frequency per host under node caps."""
        return self.power_model.freq_at_cap(caps_w, layout.kappa, efficiencies)

    def compute_time(self, freq_ghz: np.ndarray, layout: HostLayout) -> np.ndarray:
        """Compute-phase time per host at the given frequencies (s).

        The phase must both stream its memory traffic and retire its FLOPs;
        the time is the larger requirement, with bandwidth and compute
        ceilings scaled to the host's frequency.
        """
        ratio = np.asarray(freq_ghz, dtype=float) / self.roofline.base_freq_ghz
        bw0, sens = self._bandwidth_params()
        bw = bw0 * ((1.0 - sens) + sens * ratio)
        peak = self._ceiling_gflops(layout) * ratio
        with np.errstate(divide="ignore"):
            t_mem = layout.traffic_gb / bw
            t_cpu = np.where(layout.gflop > 0, layout.gflop / peak, 0.0)
        return np.maximum(t_mem, t_cpu)

    def compute_power(self, caps_w: np.ndarray, layout: HostLayout,
                      efficiencies: np.ndarray) -> np.ndarray:
        """Node power drawn during the compute phase under node caps (W)."""
        f = self.frequencies(caps_w, layout, efficiencies)
        return self.power_model.power_at_freq(f, layout.kappa, efficiencies)

    def poll_power(self, caps_w: np.ndarray, layout: HostLayout,
                   efficiencies: np.ndarray) -> np.ndarray:
        """Node power drawn while busy-polling at the barrier (W).

        Polling runs the spin loop as fast as the cap allows at the poll
        activity factor; with generous caps this is turbo-limited and
        lands a little below compute power.
        """
        f = self.power_model.freq_at_cap(caps_w, layout.poll_kappa, efficiencies)
        return self.power_model.power_at_freq(f, layout.poll_kappa, efficiencies)

    def operating_point(self, caps_w: np.ndarray, layout: HostLayout,
                        efficiencies: np.ndarray):
        """``(frequency, compute power, poll power)`` per host under caps.

        Element for element the values of :meth:`frequencies`,
        ``power_model.power_at_freq`` at those frequencies, and
        :meth:`poll_power`, computed in one power-model pass over both
        phases laid side by side on the host axis.  ``caps_w`` must
        already be clamped.
        """
        caps = np.asarray(caps_w, dtype=float)
        eff = np.asarray(efficiencies, dtype=float)
        hosts = caps.shape[-1]
        kappa = np.concatenate((layout.kappa, layout.poll_kappa), axis=-1)
        eff = np.concatenate((eff, eff), axis=-1)
        freq = self.power_model.freq_at_cap(
            np.concatenate((caps, caps), axis=-1), kappa, eff
        )
        power = self.power_model.power_at_freq(freq, kappa, eff)
        return freq[..., :hosts], power[..., :hosts], power[..., hosts:]

    # ------------------------------------------------------------------
    # inverse map (the balancer's primitive)
    # ------------------------------------------------------------------
    def required_frequency(self, layout: HostLayout, target_time_s) -> np.ndarray:
        """Lowest frequency at which each host finishes within the target.

        Inverts both roofline requirements: bandwidth
        ``traffic / bw(f) <= t`` and compute ``gflop / peak(f) <= t``;
        the required frequency is the larger of the two, clamped into the
        DVFS band.  When the bandwidth requirement is met even at a
        freq-ratio of 0 (the frequency-insensitive bandwidth fraction
        already suffices) it imposes no constraint.
        """
        t = np.asarray(target_time_s, dtype=float)
        if np.any(t <= 0):
            raise ValueError("target_time_s must be positive")
        bw0, sens = self._bandwidth_params()
        base = self.roofline.base_freq_ghz

        peak0 = self._ceiling_gflops(layout)
        ratio_cpu = layout.gflop / (peak0 * t)

        bw_needed = layout.traffic_gb / t
        if sens > 0:
            ratio_mem = (bw_needed / bw0 - (1.0 - sens)) / sens
        else:
            ratio_mem = np.zeros_like(bw_needed)
        ratio = np.maximum.reduce([ratio_cpu, ratio_mem, np.zeros_like(ratio_cpu)])
        freq = ratio * base
        return np.clip(freq, self.power_model.spec.min_freq_ghz,
                       self.power_model.spec.turbo_freq_ghz)

    def required_power(self, layout: HostLayout, target_time_s,
                       efficiencies) -> np.ndarray:
        """Node power needed for each host to finish within the target (W).

        The balancer's "needed power": power at the required frequency,
        floored at what the node draws at minimum frequency (a cap cannot
        push consumption below that) and at the RAPL floor's consumption.
        """
        f = self.required_frequency(layout, target_time_s)
        return self.power_model.power_at_freq(f, layout.kappa, efficiencies)

    def job_critical_time(self, caps_w: np.ndarray, layout: HostLayout,
                          efficiencies: np.ndarray) -> np.ndarray:
        """Noise-free per-job iteration time (segmented max over hosts).

        Broadcasts over leading scenario axes: ``(S, hosts)`` caps yield
        ``(S, jobs)`` critical times.
        """
        f = self.frequencies(caps_w, layout, efficiencies)
        t = self.compute_time(f, layout)
        return np.maximum.reduceat(t, layout.job_boundaries[:-1], axis=-1)
