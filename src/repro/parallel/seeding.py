"""Deterministic child-seed derivation for fanned-out work items.

Every parallel work item (a grid cell, a ladder rung, a site replay)
needs its own noise seed.  Drawing those seeds from a parent RNG would
make them depend on *submission order* — which worker counts and
chunking change — so instead each child seed is derived from
``np.random.SeedSequence`` spawned purely from ``(run_seed, item
identity)``.  Identical inputs produce identical seeds whether the item
runs serially, in a pool of 4, or alone; the parent RNG is never
consulted.

String identities are folded to integers with CRC-32 (Python's
``hash()`` is salted per process and therefore unusable for
reproducibility).
"""

from __future__ import annotations

import functools
import zlib
from typing import Iterable, List, Tuple, Union

import numpy as np

__all__ = ["child_seed", "child_seeds"]

_SeedPart = Union[int, str]


@functools.lru_cache(maxsize=1024)
def _fold_str(part: str) -> int:
    """CRC-32 of a string identity, computed once per distinct string
    (identities such as ``"site-batch"`` recur on every batch)."""
    return zlib.crc32(part.encode("utf-8"))


def _fold(part: _SeedPart) -> int:
    """One entropy word from an identity component."""
    if isinstance(part, bool) or not isinstance(part, (int, str)):
        raise TypeError(f"seed parts must be int or str, got {type(part).__name__}")
    if isinstance(part, int):
        if part < 0:
            raise ValueError("integer seed parts must be non-negative")
        return part
    return _fold_str(part)


def child_seed(run_seed: int, *identity: _SeedPart) -> int:
    """The deterministic seed for one work item.

    Parameters
    ----------
    run_seed:
        The experiment-level seed (e.g. ``ExperimentConfig.run_seed``).
    identity:
        What the item *is* — indices and/or names.  Content-addressed:
        the same identity yields the same seed regardless of how many
        other items exist or in what order they are submitted.

    Returns
    -------
    int
        A 32-bit seed suitable for ``np.random.default_rng`` and
        :class:`~repro.sim.execution.SimulationOptions`.
    """
    entropy = [_fold(run_seed)] + [_fold(part) for part in identity]
    sequence = np.random.SeedSequence(entropy)
    return int(sequence.generate_state(1, dtype=np.uint32)[0])


def child_seeds(
    run_seed: int,
    identities: Iterable[Union[_SeedPart, Tuple[_SeedPart, ...]]],
) -> List[int]:
    """Seeds for a batch of items, one per identity.

    Each identity may be a single part or a tuple of parts (e.g. a grid
    cell's ``(mix, level, policy)`` key).
    """
    return [
        child_seed(run_seed, *identity)
        if isinstance(identity, (tuple, list))
        else child_seed(run_seed, identity)
        for identity in identities
    ]
