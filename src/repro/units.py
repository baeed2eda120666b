"""Physical-unit conventions and validation helpers.

Every quantity in this library is a plain ``float`` or :class:`numpy.ndarray`
in a fixed SI-derived unit.  The conventions are:

===============  ==========================  =======================
Quantity         Unit                        Typical symbol
===============  ==========================  =======================
power            watt (W)                    ``power_w``
energy           joule (J)                   ``energy_j``
time             second (s)                  ``time_s``
frequency        gigahertz (GHz)             ``freq_ghz``
bandwidth        gigabytes per second        ``bw_gbps``
throughput       gigaFLOPS (GFLOP/s)         ``gflops``
work (compute)   gigaFLOPs                   ``gflop``
work (memory)    gigabytes                   ``gbyte``
intensity        FLOPs per byte              ``intensity``
===============  ==========================  =======================

Frequencies are kept in GHz (not Hz) because the power model's polynomial
coefficients are calibrated against GHz, and GFLOPS = GHz x FLOPs/cycle
then works without scale factors.

The helpers here raise :class:`ValueError` early with a descriptive message
instead of letting a bad unit propagate into the vectorised simulation where
it would surface as a cryptic broadcast error.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

__all__ = [
    "KILO",
    "MEGA",
    "GIGA",
    "JOULES_PER_KWH",
    "SECONDS_PER_HOUR",
    "SECONDS_PER_DAY",
    "watts_to_kilowatts",
    "kilowatts_to_watts",
    "joules_to_kwh",
    "ensure_positive",
    "ensure_non_negative",
    "ensure_fraction",
    "ensure_in_range",
    "ensure_monotonic_increasing",
]

KILO = 1.0e3
MEGA = 1.0e6
GIGA = 1.0e9

SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0
JOULES_PER_KWH = 3.6e6


def watts_to_kilowatts(power_w: float) -> float:
    """Convert watts to kilowatts."""
    return power_w / KILO


def kilowatts_to_watts(power_kw: float) -> float:
    """Convert kilowatts to watts."""
    return power_kw * KILO


def joules_to_kwh(energy_j: float) -> float:
    """Convert joules to kilowatt-hours."""
    return energy_j / JOULES_PER_KWH


def _ensure(value, name: str, accepts, requirement: str):
    """Check ``value`` is finite and ``accepts(value)`` holds everywhere.

    A plain ``float`` or ``int`` (exact type, so ``bool`` and numpy
    scalars take the array path) is checked without building an array;
    it accepts and rejects exactly what the array path does, and an
    ``int`` too large for a float still raises ``OverflowError``.
    """
    if type(value) is float or type(value) is int:
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
        if not accepts(value):
            raise ValueError(f"{name} must be {requirement}, got {value!r}")
        return value
    arr = np.asarray(value, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite, got {value!r}")
    if not np.all(accepts(arr)):
        raise ValueError(f"{name} must be {requirement}, got {value!r}")
    return value


def ensure_positive(value, name: str):
    """Validate that ``value`` (scalar or array) is strictly positive.

    Returns the value unchanged so the helper can be used inline::

        self.tdp_w = ensure_positive(tdp_w, "tdp_w")
    """
    return _ensure(value, name, lambda v: v > 0, "strictly positive")


def ensure_non_negative(value, name: str):
    """Validate that ``value`` (scalar or array) is >= 0; return it."""
    return _ensure(value, name, lambda v: v >= 0, "non-negative")


def ensure_fraction(value, name: str):
    """Validate that ``value`` lies in the closed interval [0, 1]; return it."""
    return _ensure(value, name, lambda v: (v >= 0) & (v <= 1),
                   "within [0, 1]")


def ensure_in_range(value, low: float, high: float, name: str):
    """Validate ``low <= value <= high`` element-wise; return ``value``."""
    if math.isnan(low) or math.isnan(high) or low > high:
        raise ValueError(f"invalid range [{low}, {high}] for {name}")
    return _ensure(value, name, lambda v: (v >= low) & (v <= high),
                   f"within [{low}, {high}]")


def ensure_monotonic_increasing(values: Iterable[float], name: str):
    """Validate that a sequence is strictly increasing; return it as a list."""
    seq = list(values)
    for a, b in zip(seq, seq[1:]):
        if not b > a:
            raise ValueError(f"{name} must be strictly increasing, got {seq!r}")
    return seq
