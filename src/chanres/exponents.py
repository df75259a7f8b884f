"""Cumulant-style generating functions and the exponent bounds they yield.

Two families of generating functions drive every exponential bound in
this package:

    psi(s | W, p) = log E_p sum_y W_x(y)^(1+s) W_p(y)^(-s)
    phi(t | W, p) = log sum_y ( E_p W_x(y)^(1/(1+t)) )^(1+t)

Both vanish at the origin, are convex in the parameter, and are
additive over memoryless products, so single-letter optimization gives
blocklength exponents directly.  Worst-case variants maximize over the
input distribution; the inner maximand is concave in p, so a Newton
ascent on the simplex solves it, certified by its stationarity (KKT)
residual.  An array of parameters is solved as one stack.  A sweep
over rates evaluates each family's curves once on the scan grids and
refines the optima of all rates by one golden section in lockstep.
The random-coding (Gallager) search finds its grid cell by bisection,
as its objective is concave.
The same Newton step maximizes the mutual information for `capacity`,
and the secrecy rate of `secrecy_capacity_lb` in convex-concave rounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    Distribution,
    _blocks,
    _check_inputs,
    _check_positive,
    _integer,
    _kl_rows,
    dispersion_J,
    mutual_information,
    output_distribution,
)
from .rng import stream

GIVEN_FAMILIES = (
    "vd_psi",
    "kl_phi",
    "vd_phi_half",
    "vd_psi_worst",
    "kl_phi_worst",
    "vd_phi_half_worst",
)

WORST_FAMILIES = ("vd_psi_worst", "kl_phi_worst", "vd_phi_half_worst")

GRID_STEP = 1e-3

# the parameter grids every exponent optimization scans; they do not
# depend on the rate, so a sweep evaluates psi and phi on them once
S_GRID = np.linspace(0.0, 1.0, int(round(1.0 / GRID_STEP)) + 1)
T_GRID = np.linspace(-0.5, 0.0, int(round(0.5 / GRID_STEP)) + 1)

_KKT_TOL = 1e-9
_NEWTON_ITER = 100


class ConvergenceError(RuntimeError):
    """An iterative optimizer could not certify its result."""

    def __init__(self, message, best_value=None, residual=None,
                 parameter=None):
        super().__init__(message)
        self.best_value = best_value
        self.residual = residual
        self.parameter = parameter


def _params(x, name: str, W: Channel, p: Distribution) -> np.ndarray:
    """The parameter(s) x as an (n, 1, 1) array, after the domain checks."""
    e = np.asarray(x, dtype=float).reshape(-1, 1, 1)
    if not np.all(e > -1):
        raise ValueError(f"{name} must exceed -1")
    _check_inputs(W, p)
    return e


def _power(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """x ** e for e of shape (n, 1, ...); slice i equals x_i ** float(e_i).

    x is one array for every exponent, or a stack of n arrays.  numpy
    takes a scalar exponent of -1, 0, 1/2, 1 or 2 as reciprocal, ones,
    sqrt, copy or square, which can differ in the last bit from its
    array-exponent power; those slices are redone with the scalar
    exponent, so an array of parameters gives exactly the scalar values.
    """
    out = x ** e
    for i, v in enumerate(e.ravel().tolist()):
        if v in (-1.0, 0.0, 0.5, 1.0, 2.0):
            out[i] = (x[i] if x.ndim == out.ndim else x) ** v
    return out


def _shaped(vals: np.ndarray, x):
    """vals in the shape of the parameter(s) x, exactly 0 where x is 0."""
    if np.ndim(x) == 0:
        return 0.0 if x == 0 else float(vals[0])
    vals[np.ravel(x) == 0] = 0.0
    return vals.reshape(np.shape(x))


def psi(s, W: Channel, p: Distribution):
    """log E_p sum_y W_x(y)^(1+s) W_p(y)^(-s); psi(0) == 0 exactly.

    s may be an array of any shape: the result then has that shape and
    each entry equals the scalar call.  An array call works through
    `channel._blocks` of |X| * |Y| floats per parameter.
    """
    e = _params(s, "s", W, p)
    wp = output_distribution(W, p).probs
    live = wp > 0
    sup = p.support()
    rows = W.rows[np.ix_(sup, live)]
    vals = np.empty(e.shape[0])
    for blk in _blocks(e.shape[0], W.rows.size):
        inner = np.sum(_power(rows, 1.0 + e[blk]) * _power(wp[live], -e[blk]),
                       axis=2)
        vals[blk] = np.log(np.matmul(p.probs[sup], inner[:, :, None])[:, 0])
    return _shaped(vals, s)


def phi(t, W: Channel, p: Distribution):
    """log sum_y (E_p W_x(y)^(1/(1+t)))^(1+t); phi(0) == 0 exactly.

    t may be an array, as the argument s of `psi`.  Each distinct channel
    entry (`Channel.levels`) is raised to the power once and gathered
    into place: the same floats as powers of the full matrix.
    """
    e = _params(t, "t", W, p)
    vals = np.empty(e.shape[0])
    values, index = W.levels
    for blk in _blocks(e.shape[0], W.rows.size):
        powers = np.take(_power(values, 1.0 / (1.0 + e[blk, 0])), index, axis=1)
        g = np.matmul(p.probs, powers)
        vals[blk] = np.log(np.sum(_power(g, 1.0 + e[blk, 0]), axis=1))
    return _shaped(vals, t)


# ---------------------------------------------------------------------------
# Concave maximization of F(p) = sum_y (p @ A)_y^c over the simplex.
#
# The gradient is c * D with D_x = sum_y A[x,y] (p @ A)_y^(c-1), p @ D
# == F, and the Hessian is c (c-1) A diag((p @ A)^(c-2)) A^T.
# Stationarity: D_x == F on the support of the maximizer and D_x <= F
# off it; as F is concave, a stationary point is the global maximum.
# ---------------------------------------------------------------------------


def _kkt_residual(p: np.ndarray, D: np.ndarray, F) -> np.ndarray:
    """The stationarity residual of each law p, letters on the last axis."""
    F = np.asarray(F)
    gap = D - F[..., None]
    on = p > 1e-10
    resid = np.maximum(np.max(np.where(on, np.abs(gap), 0.0), axis=-1),
                       np.max(np.where(on, 0.0, gap), axis=-1))
    return resid / np.maximum(np.abs(F), 1.0)


def _f_slices(A: np.ndarray) -> np.ndarray:
    """A copy of the stack A with each (K, Y) slice in Fortran order.

    A column mask of one matrix leaves it in that order, and BLAS sums
    p @ A and A @ v in an order that depends on the layout, so each
    slice gets the bits of a solve of that matrix alone.
    """
    return np.ascontiguousarray(A.transpose(0, 2, 1)).transpose(0, 2, 1)


def _power_sum(g: np.ndarray, c: float):
    """sum_y g_y^c, or None where an output g_y is empty."""
    return np.sum(g ** c) if np.all(g > 0) else None


def _newton_step(p, D, F, resid, neg_hess, value):
    """The next law of a Newton ascent on a concave objective, or None if
    it cannot move.  See `_certified_power_max`.

    D is the gradient at the law p up to a constant, F == p @ D and
    resid the stationarity residual.  neg_hess(S) is minus the Hessian
    on the letters S; value(q) is the objective at q, or None where q
    empties an output (whose infinite marginal gain the gradient no
    longer sees).  The step is clipped to the simplex and halved until
    the value does not fall by more than rounding.  A Newton matrix that
    is not finite (a tiny output mass can overflow it) is no step.
    """
    active = (p > 0) | (D > F)
    while True:
        S = np.flatnonzero(active)
        kkt = np.ones((S.size + 1, S.size + 1))
        kkt[-1, -1] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            kkt[:-1, :-1] = neg_hess(S) + resid * F * np.eye(S.size)
        if not np.all(np.isfinite(kkt)):
            return None
        d = np.linalg.lstsq(kkt, np.append(D[S], 0.0), rcond=None)[0][:-1]
        drop = (p[S] == 0) & (d < 0)
        if not drop.any():
            break
        active[S[drop]] = False
    step = np.zeros(p.size)
    step[S] = d
    t = 1.0
    for _ in range(60):  # a step cut 2^60-fold is lost in rounding
        q = np.maximum(p + t * step, 0.0)
        q /= q.sum()
        v = value(q)
        if v is not None and v >= F * (1.0 - 1e-15):
            return q
        t /= 2.0
    return None


def _uncertified(name: str, x: float, F: float, resid: float):
    return ConvergenceError(
        f"input-distribution maximization failed to certify at "
        f"{name} = {x!r} (best value {F!r}, stationarity residual {resid!r})",
        best_value=F, residual=resid, parameter=x,
    )


def _certified_power_max(A: np.ndarray, c: np.ndarray, x: np.ndarray,
                         name: str):
    """Maximizes sum_y (p @ A_i)_y^c_i over input laws p, for each slice i.

    A has shape (G, K, Y); c holds one power per slice and x the
    parameter a ConvergenceError names (as `name`).  Returns the arrays
    (F_max, argmax laws, KKT residuals), each certified.

    Newton ascent from the uniform law, constrained to sum(p) == 1 on
    the active set: the support, plus the letters with D_x > F, minus
    the letters with p_x == 0 the step would make negative.  The Newton
    matrix is damped by residual * F along the identity, since F is
    linear along the Hessian's null space when |X| > |Y|.  The step
    (`_newton_step`) keeps every output's mass positive and F from
    falling.

    Each iteration computes g, D, F and `_kkt_residual` of every
    uncertified slice in array operations; a slice stops once its
    residual is <= _KKT_TOL, and only the others take a step, one slice
    at a time.  Raises ConvergenceError after _NEWTON_ITER steps or a
    step a slice cannot take.  Slices are grouped by their live output
    columns, since a column of tiny entries can underflow to zero at
    some parameters only; each slice gets exactly the bits a stack of
    one would.
    """
    G, K, _ = A.shape
    F_max, P, R = np.empty(G), np.full((G, K), 1.0 / K), np.empty(G)
    # the outputs with positive mass at the uniform start: D would be
    # infinite at the others, whether their entries or their mass underflow
    live = np.any(A * (1.0 / K) > 0, axis=1)
    rest = np.arange(G)
    while rest.size:
        cols = live[rest[0]]
        same = np.all(live[rest] == cols, axis=1)
        todo, rest = rest[same], rest[~same]
        As, cs, p = _f_slices(A[todo][:, :, cols]), c[todo], P[todo]
        for _ in range(_NEWTON_ITER):
            g = np.matmul(p[:, None, :], As)
            D = np.matmul(As, _power(g, (cs - 1.0)[:, None, None])
                          .transpose(0, 2, 1))[:, :, 0]
            F = np.matmul(p[:, None, :], D[:, :, None])[:, 0, 0]
            resid = _kkt_residual(p, D, F)
            done = resid <= _KKT_TOL
            F_max[todo[done]], P[todo[done]], R[todo[done]] = (
                F[done], p[done], resid[done])
            left = np.flatnonzero(~done)
            if not left.size:
                break
            for i in left.tolist():
                Ai, ci, gi = As[i], float(cs[i]), g[i, 0]
                q = _newton_step(
                    p[i], D[i], float(F[i]), float(resid[i]),
                    lambda S: (1.0 - ci) * (Ai[S] * gi ** (ci - 2.0)) @ Ai[S].T,
                    lambda u: _power_sum(u @ Ai, ci))
                if q is None:
                    raise _uncertified(name, float(x[todo[i]]),
                                       float(F[i]), float(resid[i]))
                p[i] = q
            todo, As, cs, p = todo[left], _f_slices(As[left]), cs[left], p[left]
        else:
            raise _uncertified(name, float(x[todo[0]]), float(F[left[0]]),
                               float(resid[left[0]]))
    return F_max, P, R


# each worst-case family: its parameter range, as checked and as told
_RANGES = {"s": (0.0, 1.0, "[0, 1]"), "t": (-0.5, 0.0, "[-1/2, 0]")}


def _worst_solve(x, W: Channel, family: str):
    """(max_p log sum_y (p @ W^e)_y^c, argmax) for an array of parameters x.

    family "s" is psi's (e = 1 + s, c = 1 - s), "t" phi's (e = 1/(1+t),
    c = 1 + t).  x = 0 gives 0 and the uniform law; s = 1 counts the
    outputs reachable from supp(p).  The other powered channels are solved
    as stacks in `channel._blocks`: memory does not grow with their count.
    """
    x = np.asarray(x, dtype=float).ravel()
    lo, hi, text = _RANGES[family]
    if not np.all((x >= lo) & (x <= hi)):
        raise ValueError(f"{family} must lie in {text}")
    K = W.input_size
    vals, P = np.zeros(x.size), np.full((x.size, K), 1.0 / K)
    top = x == 1.0
    if top.any():
        vals[top] = math.log(np.count_nonzero(np.any(W.rows > 0, axis=0)))
    mid = np.flatnonzero((x != 0.0) & ~top)
    v = x[mid]
    e, c = (1.0 + v, 1.0 - v) if family == "s" else (1.0 / (1.0 + v), 1.0 + v)
    for blk in _blocks(mid.size, W.rows.size):
        F, P[mid[blk]], _ = _certified_power_max(
            _power(W.rows, e[blk].reshape(-1, 1, 1)), c[blk], v[blk], family)
        vals[mid[blk]] = np.log(F)
    return vals, P


def psi_worst(s: float, W: Channel) -> tuple[float, Distribution]:
    """max_p psi-style generating function, with its maximizing input law."""
    vals, P = _worst_solve(s, W, "s")
    return float(vals[0]), Distribution(P[0])


def phi_worst(t: float, W: Channel) -> tuple[float, Distribution]:
    """max_p phi(t | W, p) over input laws, for t in [-1/2, 0]."""
    vals, P = _worst_solve(t, W, "t")
    return float(vals[0]), Distribution(P[0])


def _golden_max(f, lo, hi, tol: float = 1e-12):
    """Golden-section maxima of objectives i on [lo_i, hi_i], in lockstep.

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
    run = every[(b - a) > tol]
    while run.size:
        left = fc[run] >= fd[run]
        lt, rt = run[left], run[~left]
        b[lt], d[lt], fd[lt] = d[lt], c[lt], fc[lt]
        c[lt] = b[lt] - invphi * (b[lt] - a[lt])
        a[rt], c[rt], fc[rt] = c[rt], d[rt], fd[rt]
        d[rt] = a[rt] + invphi * (b[rt] - a[rt])
        new = f(run, np.where(left, c[run], d[run]))
        fc[lt], fd[rt] = new[left], new[~left]
        run = run[(b[run] - a[run]) > tol]
    x = 0.5 * (a + b)
    return x, f(every, x)


def _grid_golden_max(f, xs: np.ndarray, rows):
    """Dense grid scan refined by golden section around the best cell,
    for every objective in lockstep.

    f is as in `_golden_max`; rows yields, for each objective i in
    turn, its values on the grid xs.  Returns the arrays (argmax, max).
    """
    best, best_vals = [], []
    for v in rows:
        best.append(int(np.argmax(v)))
        best_vals.append(float(v[best[-1]]))
    return _refine_cells(f, xs, np.array(best), np.array(best_vals))


def _refine_cells(f, xs: np.ndarray, best: np.ndarray, best_vals: np.ndarray):
    """Golden section on [xs[b - 1], xs[b + 1]] around each grid argmax b,
    in lockstep, keeping the grid point where the section ends below it.

    f is as in `_golden_max`; best_vals holds f at the grid points
    xs[best].  Returns the arrays (argmax, max).
    """
    xg, vg = _golden_max(f, xs[np.maximum(best - 1, 0)],
                         xs[np.minimum(best + 1, len(xs) - 1)])
    keep = vg >= best_vals
    return np.where(keep, xg, xs[best]), np.where(keep, vg, best_vals)


# A computed value f of a concave objective is taken to lie within
# _CELL_TOL * max(1, |f|) of its exact value.  Even on a 256 x 256
# product, phi is the log of sums of a few hundred rounded terms, so its
# error is far below 1e-12 relative; adjacent grid values at a peak of
# ordinary curvature differ by about f'' * GRID_STEP^2 / 2, some 1e-7 to
# 1e-6.  1e-9 is far from both.
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


@dataclass(frozen=True)
class ExponentReport:
    """One optimized exponent bound at a given coding rate."""

    rate_R: float
    bound_value: float
    optimizer: float
    family: str


def _family_reports(rates: list[float], psi_fn, phi_fn,
                    suffix: str) -> list[list[ExponentReport]]:
    """The three reports of one family at each rate, one list per rate.

    psi_fn and phi_fn take arrays of s and t; each is evaluated once on
    its scan grid (S_GRID, T_GRID).  The golden sections of all rates
    run in lockstep, so each of their steps is one call of psi_fn or
    phi_fn.
    """
    R = np.array(rates)
    psi_grid, phi_grid = psi_fn(S_GRID), phi_fn(T_GRID)

    def vd(i, s, psi_s):
        return (s * R[i] - psi_s) / (1.0 + s)

    def kl(i, t, phi_t):
        return -phi_t - t * R[i]

    s_star, vd_val = _grid_golden_max(
        lambda i, s: vd(i, s, psi_fn(s)), S_GRID,
        (vd(i, S_GRID, psi_grid) for i in range(R.size)))
    t_star, kl_val = _grid_golden_max(
        lambda i, t: kl(i, t, phi_fn(t)), T_GRID,
        (kl(i, T_GRID, phi_grid) for i in range(R.size)))
    reports = []
    for rate, s, v, t, k in zip(rates, s_star.tolist(), vd_val.tolist(),
                                t_star.tolist(), kl_val.tolist()):
        # max(0.0, -0.0) is 0.0, where max(-0.0, 0.0) would keep -0.0
        v, k = max(0.0, v), max(0.0, k)
        reports.append([
            ExponentReport(rate, v, s, "vd_psi" + suffix),
            ExponentReport(rate, k, t, "kl_phi" + suffix),
            ExponentReport(rate, k / 2.0, t, "vd_phi_half" + suffix),
        ])
    return reports


def _given_family(W: Channel, p: Distribution) -> tuple:
    return lambda s: psi(s, W, p), lambda t: phi(t, W, p), ""


def _worst_family(W: Channel) -> tuple:
    return (lambda s: _worst_solve(s, W, "s")[0],
            lambda t: _worst_solve(t, W, "t")[0], "_worst")


def _gallager_max(W: Channel, p: Distribution, rate: float
                  ) -> tuple[float, float]:
    """(argmax, max) over s in [0, 1] of the random-coding error exponent
    -phi(s | W, p) - s * rate, found on S_GRID and refined by golden section.

    The objective is E_0(s) - s * rate, concave in s for every input law
    (Gallager 1968, Thm 5.6.3), so `_bisect_cell` finds the best grid
    cell in about 20 evaluations where a scan takes 1,001.  Its
    certificate makes that cell the one the scan would pick.  A flat
    objective (a useless channel or a point-mass law at rate 0, a
    noiseless channel at rate log|Y|) cannot be certified and is scanned
    in full.  Either way the result is bit for bit that of
    `_grid_golden_max` on the scan.
    """
    def f(_, s):
        return -phi(s, W, p) - s * rate

    cell = _bisect_cell(f, S_GRID)
    if cell is None:
        s, v = _grid_golden_max(f, S_GRID, [f(None, S_GRID)])
    else:
        s, v = _refine_cells(f, S_GRID, np.array([cell[0]]),
                             np.array([cell[1]]))
    return float(s[0]), float(v[0])


def _check_rates(*rates: float) -> None:
    if not all(0.0 <= R < math.inf for R in rates):
        raise ValueError("rates must be nonnegative and finite")


def exponent_sweep(W: Channel, rates, p: Distribution | None = None
                   ) -> list[ExponentReport]:
    """Exponent reports for every rate in `rates`.

    With an input law p, six families are reported per rate: the
    direct psi and phi bounds for that p plus the worst-case variants.
    With p=None only the three worst-case families apply.
    """
    rates = [float(R) for R in rates]
    _check_rates(*rates)
    if not rates:
        return []
    families = ([] if p is None else [_given_family(W, p)]) + [_worst_family(W)]
    per_family = [_family_reports(rates, *fam) for fam in families]
    return [rep for per_rate in zip(*per_family) for reps in per_rate
            for rep in reps]


def resolvability_exponents(R: float, W: Channel,
                            p: Distribution | None = None
                            ) -> list[ExponentReport]:
    """Exponent bounds on approximation error decay at rate R."""
    return exponent_sweep(W, [R], p)


@dataclass(frozen=True)
class WiretapExponentReport:
    """Joint error/leakage exponents for rate pair (R, R')."""

    R: float
    R_prime: float
    error_exponent: float
    leak_kl_exponent: float
    leak_vd_exponent_psi: float
    leak_vd_exponent_phi: float
    error_s: float
    leak_kl_t: float
    leak_vd_psi_s: float
    error_saturated: bool
    leak_kl_saturated: bool
    leak_vd_psi_saturated: bool


def wiretap_exponents(R: float, R_prime: float, W_B: Channel, W_E: Channel,
                      p: Distribution) -> WiretapExponentReport:
    """Exponents of decoding error and of the three leakage measures.

    The leakage exponents are the resolvability exponents of Eve's
    channel at the randomization rate R'.
    """
    _check_rates(R, R_prime)
    _check_inputs(W_E, p)
    s_err, e_err = _gallager_max(W_B, p, R + R_prime)
    vd, kl, half = _family_reports([R_prime], *_given_family(W_E, p))[0]
    edge = 2.0 * GRID_STEP
    return WiretapExponentReport(
        R=float(R), R_prime=float(R_prime),
        error_exponent=max(0.0, e_err), leak_kl_exponent=kl.bound_value,
        leak_vd_exponent_psi=vd.bound_value,
        leak_vd_exponent_phi=half.bound_value,
        error_s=s_err, leak_kl_t=kl.optimizer, leak_vd_psi_s=vd.optimizer,
        error_saturated=(1.0 - s_err) <= edge,
        leak_kl_saturated=(kl.optimizer + 0.5) <= edge,
        leak_vd_psi_saturated=(1.0 - vd.optimizer) <= edge,
    )


@dataclass(frozen=True)
class CapacityResult:
    value: float
    argmax: Distribution
    iterations: int
    residual: float


def _info_max(W, cost, p, tol, max_iter):
    """Newton ascent on the concave I(p;W) - p @ cost over input laws.

    W is a channel matrix and cost <= 0; the start law p reaches every
    output a letter reaches, and the ascent keeps it so.  The gradient
    is D(W_x || W_p) - cost_x, minus the Hessian sum_y W_xy W_x'y / W_p(y).
    Returns (law, value, iterations, residual); the residual
    max_x (D_x - cost_x) - value bounds the distance to the maximum.
    Stops at residual <= tol, a step that cannot move, or max_iter.
    """
    rows = W[:, p @ W > 0]

    def value(q):
        wq = q @ rows
        return None if np.any(wq <= 0) else q @ (_kl_rows(rows, wq) - cost)

    for it in range(1, max_iter + 1):
        wp = p @ rows
        D = _kl_rows(rows, wp) - cost
        F = float(p @ D)
        resid = float(np.max(D)) - F
        q = None if resid <= tol or it == max_iter else _newton_step(
            p, D, F, resid, lambda S: (rows[S] / wp) @ rows[S].T, value)
        if q is None:
            return p, F, it, resid
        p = q


def capacity(W: Channel, tol: float = 1e-8,
             max_iter: int = 200_000) -> CapacityResult:
    """Channel capacity in nats by Newton ascent from the uniform law.

    The stationarity certificate is max_x D(W_x || W_p) - I <= tol.
    """
    _check_positive(tol, "tol")
    max_iter = _integer(max_iter, "max_iter")
    K = W.input_size
    p, i_val, iterations, resid = _info_max(W.rows, np.zeros(K),
                                            np.full(K, 1.0 / K), tol, max_iter)
    if resid > tol:
        raise ConvergenceError(f"capacity iteration cap {max_iter} exceeded "
                               f"(best value {i_val!r}, residual {resid!r})",
                               best_value=i_val, residual=resid)
    return CapacityResult(max(i_val, 0.0), Distribution(p), iterations, resid)


def secrecy_rate(W_B: Channel, W_E: Channel, p: Distribution) -> float:
    """I(p; W_B) - I(p; W_E); may be negative."""
    return mutual_information(p, W_B) - mutual_information(p, W_E)


def secrecy_capacity_lb(W_B: Channel, W_E: Channel) -> tuple[float, Distribution]:
    """Best found value of max_p [I(p;W_B) - I(p;W_E)].

    The objective is not concave, so this is a certified-achievable
    lower bound: the returned value is the exact secrecy rate of the
    returned input law.  From each of 21 starts, the convex-concave
    procedure replaces I(q;W_E) by its tangent q @ D(W_E,x || W_E,p) at
    the current law p, which lies above it, and maximizes I(q;W_B) less
    the tangent by `_info_max`, until the secrecy rate stops rising.  A
    letter that reaches an Eve output p leaves empty has an infinite
    tangent slope and sits out the round.
    """
    K = W_B.input_size
    starts = [np.full(K, 1.0 / K), *(0.9 * np.eye(K)[:8] + 0.1 / K),
              *stream(0x5EC2EC, 0).dirichlet(np.ones(K), size=12)]
    best_v, best_p = -math.inf, None
    for p in starts:
        p = p / p.sum()
        v = secrecy_rate(W_B, W_E, Distribution(p))
        for _ in range(_NEWTON_ITER):
            slope = _kl_rows(W_E.rows, p @ W_E.rows)
            keep = np.isfinite(slope)
            q = np.zeros(K)
            q[keep] = _info_max(W_B.rows[keep], slope[keep] - slope[keep].max(),
                                p[keep], _KKT_TOL, _NEWTON_ITER)[0]
            rate = secrecy_rate(W_B, W_E, Distribution(q))
            if not rate > v:
                break
            p, v = q, rate
        if v > best_v:
            best_v, best_p = v, p
    return best_v, Distribution(best_p)


@dataclass(frozen=True)
class TaylorComparison:
    """Quadratic small-deviation approximations next to the exact bounds."""

    Delta: float
    approx_psi: float
    approx_phi_half: float
    exact_psi_bound: float
    exact_phi_half_bound: float


def _taylor_terms(R: float, i_val: float, J: float) -> tuple[float, float, float]:
    """(Delta, approx_psi, approx_phi_half): the quadratic expansions of
    the vd_psi and vd_phi_half exponents about i_val = I(p;W), J > 0."""
    delta = float(R) - i_val
    approx_phi_half = delta * delta / (8.0 * J)
    return delta, 2.0 * approx_phi_half, approx_phi_half


def taylor_compare(R: float, W: Channel, p: Distribution) -> TaylorComparison:
    """Compare exact exponents at rate R with their quadratic expansions.

    Requires positive information-density variance; noiseless and
    constant channels have none, so the expansion is undefined there.
    """
    J = dispersion_J(p, W)
    if J <= 0.0:
        raise ValueError("zero information-density variance: "
                         "quadratic approximation undefined")
    _check_rates(R)
    vd_psi, _, vd_phi_half = _family_reports(
        [float(R)], *_given_family(W, p))[0]
    return TaylorComparison(*_taylor_terms(R, mutual_information(p, W), J),
                            vd_psi.bound_value, vd_phi_half.bound_value)
