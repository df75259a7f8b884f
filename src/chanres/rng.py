"""Counter-based random streams for order-independent reproducibility."""

from __future__ import annotations

import math

import numpy as np

from .channel import _integer


def _key(seed: int, index: int) -> np.ndarray:
    return np.array([_integer(seed, "seed", 0, 2 ** 64),
                     _integer(index, "stream index", 0, 2 ** 64)], dtype=np.uint64)


def stream(seed: int, index: int) -> np.random.Generator:
    """Independent generator keyed by (seed, index).

    Randomness is a pure function of the key, so per-trial results do
    not depend on evaluation order or worker count.
    """
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


def uniforms(seed: int, indices, shape=()) -> np.ndarray:
    """The draws of one `stream` per index, stacked, bit for bit.

    Equal to ``np.stack([stream(seed, i).random(shape) for i in indices])``.

    Philox output is a pure function of (key, counter), so one generator
    whose key is swapped and whose counter and buffer are reset draws
    what a new generator per index would, without building one each time.
    """
    shape = tuple(shape)
    idx = np.asarray(indices)
    if idx.dtype.kind not in "iu" or idx.min(initial=0) < 0:
        idx = [_key(seed, i)[1] for i in indices]   # each as `stream` checks it
    bits = np.random.Philox(key=_key(seed, 0))
    gen = np.random.Generator(bits)
    fresh = bits.state          # zero counter, empty buffer
    key = fresh["state"]["key"]
    out = np.empty((len(indices),) + shape)
    # one flat row per index, a view of out (reshape(len, -1) fails on
    # no indices), which each stream fills in place
    for row, i in zip(out.reshape(len(out), math.prod(shape)), idx):
        key[1] = i
        bits.state = fresh
        gen.random(out=row)
    return out


def sample_indices(probs: np.ndarray, u) -> np.ndarray:
    """Inverse-CDF sampling of symbol indices from uniforms u in [0, 1)."""
    support = np.flatnonzero(probs > 0)
    edges = np.cumsum(probs[support])
    k = np.searchsorted(edges, np.asarray(u), side="right")
    return support[np.minimum(k, support.size - 1)]
