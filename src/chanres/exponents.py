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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    Channel,
    Distribution,
    dispersion_J,
    mutual_information,
    output_distribution,
)

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
# the most floats of powered channel matrices an array call of psi, phi
# or the worst-case solve stacks at once (256 KiB); its temporaries are
# a few times this
_BLOCK_FLOATS = 1 << 15


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
    if any(v <= -1 for v in e.ravel().tolist()):
        raise ValueError(f"{name} must exceed -1")
    if p.size != W.input_size:
        raise ValueError("distribution does not match channel input")
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


def _blocks(n: int, floats_each: int) -> list[slice]:
    """Slices of range(n), each of at most _BLOCK_FLOATS // floats_each
    entries (and at least one)."""
    per = max(1, _BLOCK_FLOATS // floats_each)
    return [slice(lo, lo + per) for lo in range(0, n, per)]


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
    blocks of at most _BLOCK_FLOATS // (|X| * |Y|) parameters (at least
    one).
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

    t may be an array, as the argument s of `psi`.
    """
    e = _params(t, "t", W, p)
    vals = np.empty(e.shape[0])
    for blk in _blocks(e.shape[0], W.rows.size):
        g = np.matmul(p.probs, _power(W.rows, 1.0 / (1.0 + e[blk])))
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


def _compositions(total: int, parts: int) -> np.ndarray:
    """Every vector of `parts` nonnegative integers summing to `total`.

    One row each, in lexicographic order; built one column at a time,
    each row of the first j columns repeated once per value the next
    column can take.
    """
    rows = np.zeros((1, 0), dtype=np.int64)
    left = np.array([total])
    for _ in range(parts - 1):
        reps = left + 1
        k = np.arange(reps.sum()) - np.repeat(np.cumsum(reps) - reps, reps)
        rows = np.column_stack([np.repeat(rows, reps, axis=0), k])
        left = np.repeat(left, reps) - k
    return np.column_stack([rows, left])


def _f_slices(A: np.ndarray) -> np.ndarray:
    """A copy of the stack A with each (K, Y) slice in Fortran order.

    A column mask of one matrix leaves it in that order, and BLAS sums
    p @ A and A @ v in an order that depends on the layout, so each
    slice gets the bits of a solve of that matrix alone.
    """
    return np.ascontiguousarray(A.transpose(0, 2, 1)).transpose(0, 2, 1)


def _newton_step(A, c, p, g, D, F, resid):
    """The next law of one Newton ascent, or None if it cannot move.

    A is the slice, g = p @ A and D = A @ g^(c-1); F and resid are
    floats.  See `_certified_power_max`.  An output of tiny mass can
    overflow g^(c-2); a Newton matrix that is not finite is a step this
    cannot take.
    """
    active = (p > 0) | (D > F)
    while True:
        S = np.flatnonzero(active)
        AS = A[S]
        kkt = np.ones((S.size + 1, S.size + 1))
        kkt[-1, -1] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            kkt[:-1, :-1] = ((1.0 - c) * (AS * g ** (c - 2.0)) @ AS.T
                             + resid * F * np.eye(S.size))
        if not np.all(np.isfinite(kkt)):
            return None
        d = np.linalg.lstsq(kkt, np.append(D[S], 0.0), rcond=None)[0][:-1]
        drop = (p[S] == 0) & (d < 0)
        if not drop.any():
            break
        active[S[drop]] = False
    step = np.zeros(p.size)
    step[S] = d
    neg = np.flatnonzero(step < 0)
    ratios = -p[neg] / step[neg]
    t, hit = 1.0, None
    if neg.size and ratios.min() < 1.0:
        t, hit = float(ratios.min()), neg[np.argmin(ratios)]
    for _ in range(60):  # a step cut 2^60-fold is lost in rounding
        q = np.maximum(p + t * step, 0.0)
        if hit is not None:
            q[hit] = 0.0
        q /= q.sum()
        gq = q @ A
        if np.all(gq > 0) and np.sum(gq ** c) >= F * (1.0 - 1e-15):
            return q
        t, hit = t / 2.0, None
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
    linear along the Hessian's null space when |X| > |Y|.  The step is
    capped to the simplex and halved until every output keeps positive
    mass (an emptied output has infinite marginal gain, which the
    gradient there no longer sees) and F does not fall by more than
    rounding.

    Each iteration computes g, D, F and `_kkt_residual` of every
    uncertified slice in array operations; a slice stops once its
    residual is <= _KKT_TOL, and only the others take a step
    (`_newton_step`, one slice at a time).  Raises ConvergenceError
    after _NEWTON_ITER steps or a step a slice cannot take.  Slices are
    grouped by their live output columns, since a column of tiny
    entries can underflow to zero at some parameters only; each slice
    gets exactly the bits a stack of one would.
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
                q = _newton_step(As[i], float(cs[i]), p[i], g[i, 0], D[i],
                                 float(F[i]), float(resid[i]))
                if q is None:
                    raise _uncertified(name, float(x[todo[i]]),
                                       float(F[i]), float(resid[i]))
                p[i] = q
            todo, As, cs, p = todo[left], _f_slices(As[left]), cs[left], p[left]
        else:
            raise _uncertified(name, float(x[todo[0]]), float(F[left[0]]),
                               float(resid[left[0]]))
    return F_max, P, R


def _worst_solve(W: Channel, x: np.ndarray, e: np.ndarray, c: np.ndarray,
                 name: str):
    """(log max_p sum_y (p @ W^e_i)_y^c_i, argmax) for each parameter x_i.

    The stack of powered channels is built and solved in `_blocks`, so
    memory does not grow with the parameter count.
    """
    vals, P = np.empty(x.size), np.empty((x.size, W.input_size))
    for blk in _blocks(x.size, W.rows.size):
        F, P[blk], _ = _certified_power_max(
            _power(W.rows, e[blk].reshape(-1, 1, 1)), c[blk], x[blk], name)
        vals[blk] = np.log(F)
    return vals, P


def _psi_worst_solve(s, W: Channel):
    """(max_p log sum_y (p @ W^(1+s))_y^(1-s), argmax) for an array of s."""
    s = np.asarray(s, dtype=float).ravel()
    if not np.all((s >= 0.0) & (s <= 1.0)):
        raise ValueError("s must lie in [0, 1]")
    K = W.input_size
    vals, P = np.zeros(s.size), np.full((s.size, K), 1.0 / K)
    mid = (s > 0.0) & (s < 1.0)
    vals[mid], P[mid] = _worst_solve(W, s[mid], 1.0 + s[mid], 1.0 - s[mid], "s")
    # at s = 1 the maximand counts the outputs reachable from supp(p)
    vals[s == 1.0] = math.log(np.count_nonzero(np.any(W.rows > 0, axis=0)))
    return vals, P


def _phi_worst_solve(t, W: Channel):
    """(max_p phi(t | W, p), argmax) for an array of t."""
    t = np.asarray(t, dtype=float).ravel()
    if not np.all((t >= -0.5) & (t <= 0.0)):
        raise ValueError("t must lie in [-1/2, 0]")
    K = W.input_size
    vals, P = np.zeros(t.size), np.full((t.size, K), 1.0 / K)
    mid = t != 0.0
    vals[mid], P[mid] = _worst_solve(W, t[mid], 1.0 / (1.0 + t[mid]),
                                     1.0 + t[mid], "t")
    return vals, P


def psi_worst(s: float, W: Channel) -> tuple[float, Distribution]:
    """max_p psi-style generating function, with its maximizing input law."""
    vals, P = _psi_worst_solve(s, W)
    return float(vals[0]), Distribution(P[0])


def phi_worst(t: float, W: Channel) -> tuple[float, Distribution]:
    """max_p phi(t | W, p) over input laws, for t in [-1/2, 0]."""
    vals, P = _phi_worst_solve(t, W)
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
    best, best_vals = np.array(best), np.array(best_vals)
    xg, vg = _golden_max(f, xs[np.maximum(best - 1, 0)],
                         xs[np.minimum(best + 1, len(xs) - 1)])
    keep = vg >= best_vals
    return np.where(keep, xg, xs[best]), np.where(keep, vg, best_vals)


@dataclass(frozen=True)
class ExponentReport:
    """One optimized exponent bound at a given coding rate."""

    rate_R: float
    bound_value: float
    optimizer: float
    family: str


def _family_reports(rates: list[float], psi_fn, psi_grid, phi_fn, phi_grid,
                    suffix: str) -> list[list[ExponentReport]]:
    """The three reports of one family at each rate, one list per rate.

    psi_fn and phi_fn take arrays of s and t; psi_grid and phi_grid hold
    them on S_GRID and T_GRID.  The golden sections of all rates run in
    lockstep, so each of their steps is one call of psi_fn or phi_fn.
    """
    R = np.array(rates)

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
    return (lambda s: psi(s, W, p), psi(S_GRID, W, p),
            lambda t: phi(t, W, p), phi(T_GRID, W, p), "")


def _worst_family(W: Channel) -> tuple:
    def psi_fn(s):
        return _psi_worst_solve(s, W)[0]

    def phi_fn(t):
        return _phi_worst_solve(t, W)[0]

    return psi_fn, psi_fn(S_GRID), phi_fn, phi_fn(T_GRID), "_worst"


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
    """Exponents of decoding error and of the three leakage measures."""
    _check_rates(R, R_prime)
    if W_B.input_size != W_E.input_size:
        raise ValueError("channels must share an input alphabet")

    def best(f, xs):
        x, v = _grid_golden_max(f, xs, [f(None, xs)])
        return float(x[0]), max(0.0, float(v[0]))

    s_err, e_err = best(
        lambda _, s: -phi(s, W_B, p) - s * (R + R_prime), S_GRID)
    t_kl, e_kl = best(lambda _, t: -phi(t, W_E, p) - t * R_prime, T_GRID)
    s_vd, e_vd = best(
        lambda _, s: (s * R_prime - psi(s, W_E, p)) / (1.0 + s), S_GRID)
    edge = 2.0 * GRID_STEP
    return WiretapExponentReport(
        R=float(R), R_prime=float(R_prime),
        error_exponent=e_err, leak_kl_exponent=e_kl,
        leak_vd_exponent_psi=e_vd, leak_vd_exponent_phi=e_kl / 2.0,
        error_s=s_err, leak_kl_t=t_kl, leak_vd_psi_s=s_vd,
        error_saturated=(1.0 - s_err) <= edge,
        leak_kl_saturated=(t_kl + 0.5) <= edge,
        leak_vd_psi_saturated=(1.0 - s_vd) <= edge,
    )


@dataclass(frozen=True)
class CapacityResult:
    value: float
    argmax: Distribution
    iterations: int
    residual: float


def capacity(W: Channel, tol: float = 1e-8,
             max_iter: int = 200_000) -> CapacityResult:
    """Channel capacity in nats by alternating maximization.

    The stationarity certificate is max_x D(W_x || W_p) - I <= tol.
    """
    if not 0 < tol < math.inf:
        raise ValueError("tol must be positive and finite")
    rows = W.rows
    K = rows.shape[0]
    logrows = np.where(rows > 0, np.log(np.where(rows > 0, rows, 1.0)), 0.0)
    p = np.full(K, 1.0 / K)
    for it in range(max_iter):
        wp = p @ rows
        lwp = np.where(wp > 0, np.log(np.where(wp > 0, wp, 1.0)), 0.0)
        D = np.sum(np.where(rows > 0, rows * (logrows - lwp), 0.0), axis=1)
        i_val = float(p @ D)
        resid = float(np.max(D) - i_val)
        if resid <= tol:
            return CapacityResult(max(i_val, 0.0), Distribution(p), it + 1, resid)
        p = p * np.exp(D - np.max(D))
        p = np.maximum(p, 1e-300)
        p = p / p.sum()
    raise ConvergenceError(
        f"capacity iteration cap {max_iter} exceeded "
        f"(best value {i_val!r}, residual {resid!r})",
        best_value=i_val, residual=resid,
    )


def secrecy_rate(W_B: Channel, W_E: Channel, p: Distribution) -> float:
    """I(p; W_B) - I(p; W_E); may be negative."""
    if W_B.input_size != W_E.input_size:
        raise ValueError("channels must share an input alphabet")
    return mutual_information(p, W_B) - mutual_information(p, W_E)


def secrecy_capacity_lb(W_B: Channel, W_E: Channel) -> tuple[float, Distribution]:
    """Best found value of max_p [I(p;W_B) - I(p;W_E)].

    The objective is not concave, so this is a certified-achievable
    lower bound: the returned value is the exact secrecy rate of the
    returned input law, found by multi-start ascent (plus a dense grid
    on alphabets of size <= 4).
    """
    from scipy.optimize import minimize

    if W_B.input_size != W_E.input_size:
        raise ValueError("channels must share an input alphabet")
    K = W_B.input_size

    def exact(pv: np.ndarray) -> float:
        return secrecy_rate(W_B, W_E, Distribution(pv))

    def neg_obj(pv: np.ndarray) -> float:
        pv = np.maximum(pv, 0.0)
        tot = pv.sum()
        if tot <= 0:
            return 1e9
        pv = pv / tot
        val = exact(pv)
        return -val if math.isfinite(val) else 1e9

    starts = [np.full(K, 1.0 / K)]
    for x in range(min(K, 8)):
        v = np.full(K, 0.1 / K)
        v[x] += 0.9
        starts.append(v)
    rng = np.random.Generator(np.random.Philox(key=[0x5EC2EC, 0]))
    for _ in range(12):
        starts.append(rng.dirichlet(np.ones(K)))
    if K <= 4:
        # the first composition with the largest rate, as a start
        best_g = max(_compositions(50, K) / 50, key=exact)
        starts.append(0.98 * best_g + 0.02 * np.full(K, 1.0 / K))

    best_p = None
    best_v = -math.inf
    cons = ({"type": "eq", "fun": lambda v: v.sum() - 1.0},)
    bounds = [(0.0, 1.0)] * K
    for start in starts:
        res = minimize(neg_obj, start / start.sum(), method="SLSQP",
                       bounds=bounds, constraints=cons,
                       options={"maxiter": 400, "ftol": 1e-14})
        pv = np.maximum(res.x, 0.0)
        if pv.sum() <= 0:
            continue
        pv = pv / pv.sum()
        v = exact(pv)
        if v > best_v:
            best_v = v
            best_p = pv
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
