"""One-dimensional maximization of many objectives in lockstep: golden
section, refinement of a grid scan's best cells, and the bisection that
finds the best cell of a concave objective."""

from __future__ import annotations

import math

import numpy as np


_GOLDEN_TOL = 1e-12


def _golden_max(f, lo, hi):
    """Golden-section maxima of objectives i on [lo_i, hi_i], in lockstep,
    each narrowed until its interval is at most _GOLDEN_TOL long.

    f(i, x) returns the values of the objectives i (an index array) at
    the points x.  Each interval takes exactly the steps of a search of
    its objective alone, and each step evaluates every unfinished
    objective in one call of f.  Returns the arrays (argmax, max).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = np.array(lo, dtype=float), np.array(hi, dtype=float)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    every = np.arange(a.size)
    fc, fd = np.split(f(np.tile(every, 2), np.concatenate([c, d])), 2)
    run = every[(b - a) > _GOLDEN_TOL]
    while run.size:
        left = fc[run] >= fd[run]
        lt, rt = run[left], run[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - invphi * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + invphi * (b[rt] - a[rt])
        new = f(run, np.where(left, c[run], d[run]))
        fc[lt], fd[rt] = new[left], new[~left]
        run = run[(b[run] - a[run]) > _GOLDEN_TOL]
    x = 0.5 * (a + b)
    return x, f(every, x)


def _cells(xs: np.ndarray, best: np.ndarray) -> tuple:
    """(xs[b - 1], xs[b], xs[b + 1]) for each grid index b of best,
    clipped to the grid."""
    return (xs[np.maximum(best - 1, 0)], xs[best],
            xs[np.minimum(best + 1, len(xs) - 1)])


def _refine_cells(f, cells: tuple, best_vals: np.ndarray):
    """Golden section on the cell [lo_i, hi_i] around each grid argmax
    x_i, cells = (lo, x, hi), in lockstep, keeping the grid point where
    the section ends below it.

    f is as in `_golden_max`; best_vals holds f at the grid points x.
    Returns the arrays (argmax, max).
    """
    lo, x, hi = cells
    xg, vg = _golden_max(f, lo, hi)
    keep = vg >= best_vals
    return np.where(keep, xg, x), np.where(keep, vg, best_vals)


# A computed value f of a concave objective is taken to lie within
# _CELL_TOL * max(1, |f|) of its exact value.  Even on a 256 x 256
# product, phi is the log of sums of a few hundred rounded terms, so its
# error is far below 1e-12 relative; adjacent grid values at a peak of
# ordinary curvature differ by about f'' * h^2 / 2 at the grid step
# h = `exponents.GRID_STEP`, some 1e-7 to 1e-6.  1e-9 is far from both.
_CELL_TOL = 1e-9


def _bisect_cell(f, xs: np.ndarray):
    """(b, f at xs[b]) for the grid argmax b of a concave objective, or
    None when b cannot be certified.

    f is as in `_golden_max`, for one objective.  The increments of a
    concave function fall along the grid, so the first b with
    f(xs[b]) >= f(xs[b + 1]) (else the last point) is found by
    bisection, each step evaluating its two points in one call of f.
    b is certified when f(xs[b]) exceeds each grid neighbour by more
    than twice the rounding bound _CELL_TOL: the exact values then rise
    strictly into b and fall strictly out of it, so by concavity every
    other computed grid value lies below f(xs[b]), and b is the
    `np.argmax` of the full scan.
    """
    vals = {}

    def at(*idx):
        new = sorted({i for i in idx if 0 <= i < xs.size} - vals.keys())
        if new:
            vals.update(zip(new, f(None, xs[new]).tolist()))

    lo, hi = 0, xs.size - 1
    while lo < hi:
        mid = (lo + hi) // 2
        at(mid, mid + 1)
        if vals[mid] >= vals[mid + 1]:
            hi = mid
        else:
            lo = mid + 1
    at(lo - 1, lo + 1)
    gap = 2.0 * _CELL_TOL * max(1.0, abs(vals[lo]))
    if all(vals[lo] - vals[j] > gap for j in (lo - 1, lo + 1) if j in vals):
        return lo, vals[lo]
    return None
