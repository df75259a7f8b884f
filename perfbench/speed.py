"""Probe of the machine's current speed, which steadies the timings.

The 2-vCPU virtual machine the benchmark was built on runs at two
speeds: in loaded spells, which last from seconds to many minutes,
interpreted code takes about 1.5 times as long as in calm ones, and
large-array numpy work slows less.  A run cannot avoid the spells, but
it can measure them: the worker calls `probe()` before and after every
job and divides the job's time by the mean of the two.  A probe is the
machine's current slowness, 1 when its loops take their reference
times.  The scaled figure is the time the job would take at that
reference speed; it moves with the program, whose code the probe does
not share, and not with the spell.

Most workloads are interpreted code and are probed with the
interpreted loop alone.  A workload whose time is mostly large-array
traffic passes an `array_share`, the weight of the array loop in a
geometric mean of the two loops' slowness (see workloads.ARRAY_SHARE).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# the loops' median durations on the baseline machine (see README.md);
# fixed constants, so that scaled times of different runs compare
REF_S = 0.004
ARRAY_REF_S = 0.0011

_ROUNDS = 3
_A = np.full((4, 4), 0.25)
_V = np.full(4, 0.25)


def _interpreted() -> float:
    # interpreted arithmetic, dict and list traffic, and numpy calls on
    # tiny arrays, as in the program's scalar code
    t0 = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(12000):
        acc += (i & 7) * 0.5
        table[i & 255] = acc
    items = sorted(table.values())
    v = _V
    for _ in range(600):
        v = _A @ v
        acc += float(np.log(v).sum())
    del items
    return time.perf_counter() - t0


def _arrays() -> float:
    # a fresh 4 MiB array, written and read twice: page faults and
    # memory traffic, as in the program's atom enumeration
    t0 = time.perf_counter()
    a = np.ones(1 << 19)
    b = a * 1.5
    float(b.sum())
    del a, b
    return time.perf_counter() - t0


def _median(loop) -> float:
    return statistics.median(loop() for _ in range(_ROUNDS))


def probe(array_share: float = 0.0) -> float:
    """The machine's slowness now, relative to the reference speed."""
    slow = _median(_interpreted) / REF_S
    if array_share:
        slow = (slow ** (1.0 - array_share)
                * (_median(_arrays) / ARRAY_REF_S) ** array_share)
    return slow


def scale(before: float, after: float) -> float:
    """Factor that turns a time measured between two probes into a time
    at the reference speed."""
    return 2.0 / (before + after)
