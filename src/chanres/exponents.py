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
over rates evaluates its curves once on the scan grids and refines the
s and t optima of all rates by one golden section in lockstep: both
families share each step's one call, a Newton stack in the worst case.
The random-coding (Gallager) search finds its grid cell by bisection,
as its objective is concave.
The same Newton step maximizes the mutual information for `capacity`,
and the secrecy rate of `secrecy_capacity_lb` in convex-concave rounds.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    Distribution,
    _blocks,
    _check_inputs,
    _check_positive,
    _kl_rows,
    dispersion_J,
    mutual_information,
    output_distribution,
)
from .rng import stream
from .search import _bisect_cell, _cells, _refine_cells

# the exponent families of a sweep, in report order, each with the
# multiple c of (R - I)^2 / (8 J) that approximates it near I = I(p;W)
_FAMILIES = {"vd_psi": 2.0, "kl_phi": 2.0, "vd_phi_half": 1.0}

GRID_STEP = 1e-3
# an optimizer this close to its range's edge is reported as saturated
_EDGE = 2.0 * GRID_STEP

# the parameter grids every exponent optimization scans; they do not
# depend on the rate, so a sweep evaluates psi and phi on them once
S_GRID = np.linspace(0.0, 1.0, int(round(1.0 / GRID_STEP)) + 1)
T_GRID = np.linspace(-0.5, 0.0, int(round(0.5 / GRID_STEP)) + 1)

_KKT_TOL = 1e-9
_NEWTON_ITER = 100
# 5,969 of 6,000 random channels certify within 387 iterations, 2 later
_CAPACITY_ITER = 1000
# Newton steps in a row that may leave `_info_max`'s best value unraised
_STALL_ITER = 20


class ConvergenceError(RuntimeError):
    """An iterative optimizer could not certify its result."""

    def __init__(self, message, best_value=None, residual=None,
                 parameter=None):
        super().__init__(message)
        self.best_value = best_value
        self.residual = residual
        self.parameter = parameter


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


def _powers(W: Channel, e: np.ndarray, index=None) -> np.ndarray:
    """W ** e for e of shape (n, 1, 1), or its entries at `index`, a part of
    the `Channel.levels` index: each distinct entry is powered once and
    gathered into place, the same floats as powers of the full matrix."""
    values, full = W.levels
    return np.take(_power(values, e[:, 0]), full if index is None else index,
                   axis=1)


def _curve(W: Channel, p: Distribution | None):
    """f(x, is_t): psi(. | W, p) at the s and phi at the t (where is_t is
    set) of the array x in `channel._blocks`, exactly 0 at 0; for p = None,
    their worst cases.  psi's W_p, live columns and support rows are formed
    at its first s, which phi-only callers skip."""
    if p is None:
        return lambda x, is_t: _worst_solve(x, W, is_t)[0]

    @functools.cache
    def psi_state():
        wp = output_distribution(W, p).probs
        live, sup = wp > 0, p.support()
        return W.levels[1][np.ix_(sup, live)], wp[live], p.probs[sup]

    def psi_at(e):
        index, wp, ps = psi_state()
        inner = np.sum(_powers(W, 1.0 + e, index) * _power(wp, -e), axis=2)
        return np.log(np.matmul(ps, inner[:, :, None])[:, 0])

    def phi_at(e):
        g = np.matmul(p.probs, _powers(W, 1.0 / (1.0 + e)))
        return np.log(np.sum(_power(g, 1.0 + e[:, 0]), axis=1))

    def f(x, is_t):
        vals = np.empty(x.size)
        for side, at in ((~is_t, psi_at), (is_t, phi_at)):
            e = x[side].reshape(-1, 1, 1)
            part = np.empty(e.shape[0])
            for blk in _blocks(part.size, W.rows.size):
                part[blk] = at(e[blk])
            vals[side] = part
        vals[x == 0] = 0.0
        return vals
    return f


def _given(x, is_t: bool, W: Channel, p: Distribution):
    """`_curve(W, p)` at the checked s or t of x, in the shape of x."""
    name, e = "t" if is_t else "s", np.asarray(x, dtype=float).ravel()
    if not np.all(e > -1):
        raise ValueError(f"{name} must exceed -1")
    if not np.all(e < math.inf):
        raise ValueError(f"{name} must be finite")
    _check_inputs(W, p)
    vals = _curve(W, p)(e, np.full(e.size, is_t))
    return float(vals[0]) if np.ndim(x) == 0 else vals.reshape(np.shape(x))


def psi(s, W: Channel, p: Distribution):
    """log E_p sum_y W_x(y)^(1+s) W_p(y)^(-s); psi(0) == 0 exactly.

    s may be an array of any shape: the result then has that shape and
    each entry equals the scalar call.  Both this and `phi` read `_curve`.
    """
    return _given(s, False, W, p)


def phi(t, W: Channel, p: Distribution):
    """log sum_y (E_p W_x(y)^(1/(1+t)))^(1+t); phi(0) == 0 exactly.

    t may be an array, as the argument s of `psi`."""
    return _given(t, True, W, p)


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


def _uncertified(x: float, is_t: bool, F: float, resid: float):
    return ConvergenceError(
        f"input-distribution maximization failed to certify at "
        f"{'t' if is_t else 's'} = {x!r} (best value {F!r}, "
        f"stationarity residual {resid!r})",
        best_value=F, residual=resid, parameter=x,
    )


def _certified_power_max(A: np.ndarray, c: np.ndarray, x: np.ndarray,
                         is_t: np.ndarray):
    """Maximizes sum_y (p @ A_i)_y^c_i over input laws p, for each slice i.

    A has shape (G, K, Y); c holds one power per slice and x the
    parameter a ConvergenceError names, as t where is_t is set, else as
    s.  Returns the arrays (F_max, argmax laws, KKT residuals), each
    certified.

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
                    raise _uncertified(float(x[todo[i]]), is_t[todo[i]],
                                       float(F[i]), float(resid[i]))
                p[i] = q
            todo, As, cs, p = todo[left], _f_slices(As[left]), cs[left], p[left]
        else:
            raise _uncertified(float(x[todo[0]]), is_t[todo[0]],
                               float(F[left[0]]), float(resid[left[0]]))
    return F_max, P, R


# each worst-case family: its parameter range, as checked and as told
_RANGES = {"s": (0.0, 1.0, "[0, 1]"), "t": (-0.5, 0.0, "[-1/2, 0]")}


def _worst_solve(x, W: Channel, is_t):
    """(max_p log sum_y (p @ W^e)_y^c, argmax) for an array of parameters x.

    is_t (a bool, or one per parameter) marks phi's t (e = 1/(1+t),
    c = 1 + t); the others are psi's s (e = 1 + s, c = 1 - s), so one
    call serves both families of a sweep step.  x = 0 gives 0 and the
    uniform law; s = 1 counts the outputs reachable from supp(p).  The
    other powered channels are solved as one Newton stack, s slices
    before t, in `channel._blocks`: memory does not grow with their count.
    """
    x = np.asarray(x, dtype=float).ravel()
    is_t = np.broadcast_to(is_t, x.shape)
    for name, side in (("s", ~is_t), ("t", is_t)):
        lo, hi, text = _RANGES[name]
        if not np.all((x[side] >= lo) & (x[side] <= hi)):
            raise ValueError(f"{name} must lie in {text}")
    K = W.input_size
    vals, P = np.zeros(x.size), np.full((x.size, K), 1.0 / K)
    top = (x == 1.0) & ~is_t
    if top.any():
        vals[top] = math.log(np.count_nonzero(np.any(W.rows > 0, axis=0)))
    mid = np.flatnonzero((x != 0.0) & ~top)
    mid = np.concatenate([mid[~is_t[mid]], mid[is_t[mid]]])
    v, t = x[mid], is_t[mid]
    e, c = np.where(t, 1.0 / (1.0 + v), 1.0 + v), np.where(t, 1.0 + v, 1.0 - v)
    for blk in _blocks(mid.size, W.rows.size):
        F, P[mid[blk]], _ = _certified_power_max(
            _powers(W, e[blk].reshape(-1, 1, 1)), c[blk], v[blk], t[blk])
        vals[mid[blk]] = np.log(F)
    return vals, P


def _worst_at(x, W: Channel, is_t: bool) -> tuple[float, Distribution]:
    """`_worst_solve` at the one parameter x, which must be a scalar."""
    if np.ndim(x):
        raise ValueError(f"{'t' if is_t else 's'} must be a scalar, got "
                         f"shape {np.shape(x)}")
    vals, P = _worst_solve(x, W, is_t)
    return float(vals[0]), Distribution(P[0])


def psi_worst(s: float, W: Channel) -> tuple[float, Distribution]:
    """max_p psi-style generating function, with its maximizing input law."""
    return _worst_at(s, W, False)


def phi_worst(t: float, W: Channel) -> tuple[float, Distribution]:
    """max_p phi(t | W, p) over input laws, for t in [-1/2, 0]."""
    return _worst_at(t, W, True)


@dataclass(frozen=True)
class ExponentReport:
    """One optimized exponent bound at a given coding rate."""

    rate_R: float
    bound_value: float
    optimizer: float
    family: str


def _family_reports(rates: list[float], W: Channel, p: Distribution | None
                    ) -> list[list[ExponentReport]]:
    """The reports of the three `_FAMILIES` at each rate, one list per
    rate, for the law p, or their worst cases (+ "_worst") for p = None.

    The curve `_curve(W, p)` is evaluated once on S_GRID and once on
    T_GRID.  Per block of rates (`channel._blocks`, so memory does not
    grow with their count) the s and t optima of every rate, each in its
    own grid cell, share one golden section in lockstep, each step one
    call of the curve: for the worst case, one Newton stack.
    """
    curve, suffix = _curve(W, p), "_worst" if p is None else ""
    psi_grid = curve(S_GRID, np.zeros(S_GRID.size, bool))
    phi_grid = curve(T_GRID, np.ones(T_GRID.size, bool))

    def vd(r, s, psi_s):
        return (s * r - psi_s) / (1.0 + s)

    def kl(r, t, phi_t):
        return -phi_t - t * r

    reports = []
    for blk in _blocks(len(rates), S_GRID.size + T_GRID.size):
        R = np.array(rates[blk])
        n = R.size
        r, is_t = np.tile(R, 2), np.repeat([False, True], n)

        def f(i, x):
            v = curve(x, is_t[i])
            return np.where(is_t[i], kl(r[i], x, v), vd(r[i], x, v))

        vd_rows, kl_rows = (vd(R[:, None], S_GRID, psi_grid),
                            kl(R[:, None], T_GRID, phi_grid))
        s_best, t_best = np.argmax(vd_rows, axis=1), np.argmax(kl_rows, axis=1)
        x, val = _refine_cells(
            f, [np.concatenate(pair) for pair in
                zip(_cells(S_GRID, s_best), _cells(T_GRID, t_best))],
            np.concatenate([vd_rows[np.arange(n), s_best],
                            kl_rows[np.arange(n), t_best]]))
        for rate, s, v, t, k in zip(rates[blk], *np.stack(
                [x[:n], val[:n], x[n:], val[n:]]).tolist()):
            # max(0.0, -0.0) is 0.0, where max(-0.0, 0.0) would keep -0.0
            v, k = max(0.0, v), max(0.0, k)
            reports.append([ExponentReport(rate, *pair, name + suffix)
                            for pair, name in zip(
                                ((v, s), (k, t), (k / 2.0, t)), _FAMILIES,
                                strict=True)])
    return reports


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
    in full.  Either way the argmax cell and its value go to one
    `_refine_cells` call.
    """
    def f(_, s):
        return -phi(s, W, p) - s * rate

    cell = _bisect_cell(f, S_GRID)
    if cell is None:
        vals = f(None, S_GRID)
        b = int(np.argmax(vals))
        cell = b, vals[b]
    s, v = _refine_cells(f, _cells(S_GRID, np.array([cell[0]])),
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
    laws = [None] if p is None else [p, None]
    per_family = [_family_reports(rates, W, law) for law in laws]
    return [rep for per_rate in zip(*per_family) for reps in per_rate
            for rep in reps]


@dataclass(frozen=True)
class WiretapExponentReport:
    """Joint error/leakage exponents for rate pair (R, R')."""

    error_exponent: float
    leak_kl_exponent: float
    leak_vd_exponent_psi: float
    leak_vd_exponent_phi: float
    error_s: float
    leak_kl_t: float
    leak_vd_psi_s: float

    # each optimizer within _EDGE of its range's edge: s = 1 for the
    # error and psi searches, t = -1/2 for the divergence search
    @property
    def error_saturated(self) -> bool:
        return 1.0 - self.error_s <= _EDGE

    @property
    def leak_kl_saturated(self) -> bool:
        return self.leak_kl_t + 0.5 <= _EDGE

    @property
    def leak_vd_psi_saturated(self) -> bool:
        return 1.0 - self.leak_vd_psi_s <= _EDGE


def wiretap_exponents(R: float, R_prime: float, W_B: Channel, W_E: Channel,
                      p: Distribution) -> WiretapExponentReport:
    """Exponents of decoding error and of the three leakage measures.

    The leakage exponents are the resolvability exponents of Eve's
    channel at the randomization rate R'.
    """
    _check_rates(R, R_prime)
    _check_inputs(W_B, p)
    _check_inputs(W_E, p)
    s_err, e_err = _gallager_max(W_B, p, R + R_prime)
    vd, kl, half = _family_reports([R_prime], W_E, p)[0]
    return WiretapExponentReport(
        error_exponent=max(0.0, e_err), leak_kl_exponent=kl.bound_value,
        leak_vd_exponent_psi=vd.bound_value,
        leak_vd_exponent_phi=half.bound_value,
        error_s=s_err, leak_kl_t=kl.optimizer, leak_vd_psi_s=vd.optimizer)


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
    Stops at residual <= tol, a step that cannot move, or max_iter, or
    once _STALL_ITER steps in a row leave the best value unraised; it
    then returns the best law.
    """
    rows = W[:, p @ W > 0]

    def value(q):
        wq = q @ rows
        return None if np.any(wq <= 0) else q @ (_kl_rows(rows, wq) - cost)

    best, stalled = None, 0
    for it in range(1, max_iter + 1):
        wp = p @ rows
        D = _kl_rows(rows, wp) - cost
        F = float(p @ D)
        resid = float(np.max(D)) - F
        if best is None or F > best[1]:
            best, stalled = (p, F, resid), 0
        else:
            stalled += 1
        if resid > tol and stalled == _STALL_ITER:
            return best[0], best[1], it, best[2]
        q = None if resid <= tol or it == max_iter else _newton_step(
            p, D, F, resid, lambda S: (rows[S] / wp) @ rows[S].T, value)
        if q is None:
            return p, F, it, resid
        p = q


def capacity(W: Channel, tol: float = 1e-8) -> CapacityResult:
    """Channel capacity in nats by Newton ascent from the uniform law.

    The stationarity certificate is max_x D(W_x || W_p) - I <= tol.
    """
    _check_positive(tol, "tol")
    K = W.input_size
    p, i_val, iterations, resid = _info_max(
        W.rows, np.zeros(K), np.full(K, 1.0 / K), tol, _CAPACITY_ITER)
    if resid > tol:
        raise ConvergenceError(f"capacity not certified after {iterations} "
                               f"iterations (best value {i_val!r}, residual "
                               f"{resid!r})", best_value=i_val, residual=resid)
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

    approx_psi: float
    approx_phi_half: float
    exact_psi_bound: float
    exact_phi_half_bound: float


def _taylor_column(rates, W: Channel, p: Distribution) -> dict | None:
    """{(R, family): c * (R - I)^2 / (8 J)} for the `_FAMILIES` and their
    multiples c, with I = I(p;W) and J the information-density variance;
    entries past the float range are left out.  None on a noiseless
    channel, where J <= 1e-12 is rounding dust."""
    J = dispersion_J(p, W)
    if J <= 1e-12:
        return None
    i_val = mutual_information(p, W)
    column = {(R, name): c * (R - i_val) * (R - i_val) / (8.0 * J)
              for R in rates for name, c in _FAMILIES.items()}
    return {key: v for key, v in column.items() if math.isfinite(v)}


def taylor_compare(R: float, W: Channel, p: Distribution) -> TaylorComparison:
    """Compare exact exponents at rate R with their quadratic expansions.

    Raises ValueError where `_taylor_column` is None, on noiseless and
    constant channels: the expansion is undefined there.  It also raises
    where the expansion is past the float range.
    """
    _check_rates(R)
    R = float(R)
    column = _taylor_column([R], W, p)
    if column is None:
        raise ValueError("zero information-density variance: "
                         "quadratic approximation undefined")
    if len(column) < len(_FAMILIES):
        raise ValueError(f"quadratic approximation at R = {R!r} "
                         "is past the float range")
    vd_psi, _, vd_phi_half = _family_reports([R], W, p)[0]
    return TaylorComparison(column[R, "vd_psi"], column[R, "vd_phi_half"],
                            vd_psi.bound_value, vd_phi_half.bound_value)
