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
residual.
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


class ConvergenceError(RuntimeError):
    """An iterative optimizer could not certify its result."""

    def __init__(self, message, best_value=None, residual=None):
        super().__init__(message)
        self.best_value = best_value
        self.residual = residual


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


def _shaped(vals: np.ndarray, x):
    """vals in the shape of the parameter(s) x, exactly 0 where x is 0."""
    if np.ndim(x) == 0:
        return 0.0 if x == 0 else float(vals[0])
    vals[np.ravel(x) == 0] = 0.0
    return vals.reshape(np.shape(x))


def psi(s, W: Channel, p: Distribution):
    """log E_p sum_y W_x(y)^(1+s) W_p(y)^(-s); psi(0) == 0 exactly.

    s may be an array of any shape: the result then has that shape and
    each entry equals the scalar call.  An array call allocates
    s.size * |X| * |Y| floats at a time.
    """
    e = _params(s, "s", W, p)
    wp = output_distribution(W, p).probs
    live = wp > 0
    sup = p.support()
    rows = W.rows[np.ix_(sup, live)]
    inner = np.sum(_power(rows, 1.0 + e) * _power(wp[live], -e), axis=2)
    return _shaped(np.log(np.matmul(p.probs[sup], inner[:, :, None])[:, 0]), s)


def phi(t, W: Channel, p: Distribution):
    """log sum_y (E_p W_x(y)^(1/(1+t)))^(1+t); phi(0) == 0 exactly.

    t may be an array, as the argument s of `psi`.
    """
    e = _params(t, "t", W, p)
    g = np.matmul(p.probs, _power(W.rows, 1.0 / (1.0 + e)))
    return _shaped(np.log(np.sum(_power(g, 1.0 + e[:, 0]), axis=1)), t)


# ---------------------------------------------------------------------------
# Concave maximization of F(p) = sum_y (p @ A)_y^c over the simplex.
#
# The gradient is c * D with D_x = sum_y A[x,y] (p @ A)_y^(c-1), p @ D
# == F, and the Hessian is c (c-1) A diag((p @ A)^(c-2)) A^T.
# Stationarity: D_x == F on the support of the maximizer and D_x <= F
# off it; as F is concave, a stationary point is the global maximum.
# ---------------------------------------------------------------------------


def _kkt_residual(p: np.ndarray, D: np.ndarray, F: float) -> float:
    scale = max(abs(F), 1.0)
    on = p > 1e-10
    r_on = float(np.max(np.abs(D[on] - F))) if np.any(on) else 0.0
    off = ~on
    r_off = float(max(0.0, np.max(D[off] - F))) if np.any(off) else 0.0
    return max(r_on, r_off) / scale


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


def _certified_power_max(A: np.ndarray, c: float):
    """Returns (F_max, argmax p, residual) with a stationarity certificate.

    Newton ascent from the uniform law, constrained to sum(p) == 1 on
    the active set: the support, plus the letters with D_x > F, minus
    the letters with p_x == 0 the step would make negative.  The Newton
    matrix is damped by residual * F along the identity, since F is
    linear along the Hessian's null space when |X| > |Y|.  The step is
    capped to the simplex and halved until every output keeps positive
    mass (an emptied output has infinite marginal gain, which the
    gradient there no longer sees) and F does not fall by more than
    rounding.  Stops once `_kkt_residual` <= _KKT_TOL, and raises
    ConvergenceError after _NEWTON_ITER steps or a step it cannot take.
    """
    A = A[:, np.any(A > 0, axis=0)]
    K = A.shape[0]
    p = np.full(K, 1.0 / K)
    for _ in range(_NEWTON_ITER):
        g = p @ A
        D = A @ g ** (c - 1.0)
        F = float(p @ D)
        resid = _kkt_residual(p, D, F)
        if resid <= _KKT_TOL:
            return F, p, resid
        active = (p > 0) | (D > F)
        while True:
            S = np.flatnonzero(active)
            AS = A[S]
            kkt = np.ones((S.size + 1, S.size + 1))
            kkt[-1, -1] = 0.0
            kkt[:-1, :-1] = ((1.0 - c) * (AS * g ** (c - 2.0)) @ AS.T
                             + resid * F * np.eye(S.size))
            d = np.linalg.lstsq(kkt, np.append(D[S], 0.0), rcond=None)[0][:-1]
            drop = (p[S] == 0) & (d < 0)
            if not drop.any():
                break
            active[S[drop]] = False
        step = np.zeros(K)
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
                break
            t, hit = t / 2.0, None
        else:
            break
        p = q
    raise ConvergenceError(
        f"input-distribution maximization failed to certify "
        f"(best value {F!r}, stationarity residual {resid!r})",
        best_value=F, residual=resid,
    )


def _psi_worst_solve(s: float, W: Channel):
    if not 0.0 <= s <= 1.0:
        raise ValueError("s must lie in [0, 1]")
    K = W.input_size
    if s == 0.0:
        return 0.0, np.full(K, 1.0 / K)
    if s == 1.0:
        # the maximand degenerates to counting outputs reachable from supp(p)
        covered = int(np.count_nonzero(np.any(W.rows > 0, axis=0)))
        return math.log(covered), np.full(K, 1.0 / K)
    A = W.rows ** (1.0 + s)
    F, p, _ = _certified_power_max(A, 1.0 - s)
    return float(np.log(F)), p


def _phi_worst_solve(t: float, W: Channel):
    if not -0.5 <= t <= 0.0:
        raise ValueError("t must lie in [-1/2, 0]")
    K = W.input_size
    if t == 0.0:
        return 0.0, np.full(K, 1.0 / K)
    A = W.rows ** (1.0 / (1.0 + t))
    F, p, _ = _certified_power_max(A, 1.0 + t)
    return float(np.log(F)), p


def psi_worst(s: float, W: Channel) -> tuple[float, Distribution]:
    """max_p psi-style generating function, with its maximizing input law."""
    val, p = _psi_worst_solve(s, W)
    return val, Distribution(p)


def phi_worst(t: float, W: Channel) -> tuple[float, Distribution]:
    """max_p phi(t | W, p) over input laws, for t in [-1/2, 0]."""
    val, p = _phi_worst_solve(t, W)
    return val, Distribution(p)


def _golden_max(f, lo: float, hi: float, tol: float = 1e-12):
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def _grid_golden_max(f, xs: np.ndarray, vals=None):
    """Dense grid scan refined by golden-section around the best cell.

    vals[i] must equal f(xs[i]); by default f takes the grid as one array.
    """
    if vals is None:
        vals = f(xs)
    i = int(np.argmax(vals))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, len(xs) - 1)])
    xg, vg = _golden_max(f, a, b)
    if vg >= vals[i]:
        return float(xg), float(vg)
    return float(xs[i]), float(vals[i])


@dataclass(frozen=True)
class ExponentReport:
    """One optimized exponent bound at a given coding rate."""

    rate_R: float
    bound_value: float
    optimizer: float
    family: str


def _family_reports(R: float, psi_fn, psi_grid, phi_fn, phi_grid,
                    suffix: str) -> list[ExponentReport]:
    """The three reports of one family at rate R; psi_grid and phi_grid
    hold psi_fn on S_GRID and phi_fn on T_GRID."""
    def vd(s, psi_s):
        return (s * R - psi_s) / (1.0 + s)

    def kl(t, phi_t):
        return -phi_t - t * R

    s_star, vd_val = _grid_golden_max(
        lambda s: vd(s, psi_fn(s)), S_GRID, vd(S_GRID, psi_grid))
    t_star, kl_val = _grid_golden_max(
        lambda t: kl(t, phi_fn(t)), T_GRID, kl(T_GRID, phi_grid))
    # max(0.0, -0.0) is 0.0, where max(-0.0, 0.0) would keep -0.0
    vd_val, kl_val = max(0.0, vd_val), max(0.0, kl_val)
    return [
        ExponentReport(R, vd_val, s_star, "vd_psi" + suffix),
        ExponentReport(R, kl_val, t_star, "kl_phi" + suffix),
        ExponentReport(R, kl_val / 2.0, t_star, "vd_phi_half" + suffix),
    ]


def _given_family(W: Channel, p: Distribution) -> tuple:
    return (lambda s: psi(s, W, p), psi(S_GRID, W, p),
            lambda t: phi(t, W, p), phi(T_GRID, W, p), "")


def _worst_family(W: Channel) -> tuple:
    def psi_fn(s):
        return _psi_worst_solve(s, W)[0]

    def phi_fn(t):
        return _phi_worst_solve(t, W)[0]

    return (psi_fn, np.array([psi_fn(s) for s in S_GRID.tolist()]),
            phi_fn, np.array([phi_fn(t) for t in T_GRID.tolist()]),
            "_worst")


def exponent_sweep(W: Channel, rates, p: Distribution | None = None
                   ) -> list[ExponentReport]:
    """Exponent reports for every rate in `rates`.

    With an input law p, six families are reported per rate: the
    direct psi and phi bounds for that p plus the worst-case variants.
    With p=None only the three worst-case families apply.
    """
    rates = [float(R) for R in rates]
    if any(R < 0 for R in rates):
        raise ValueError("rates must be nonnegative")
    if not rates:
        return []
    families = ([] if p is None else [_given_family(W, p)]) + [_worst_family(W)]
    return [rep for R in rates for fam in families
            for rep in _family_reports(R, *fam)]


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
    if R < 0 or R_prime < 0:
        raise ValueError("rates must be nonnegative")
    if W_B.input_size != W_E.input_size:
        raise ValueError("channels must share an input alphabet")
    s_err, e_err = _grid_golden_max(
        lambda s: -phi(s, W_B, p) - s * (R + R_prime), S_GRID)
    t_kl, e_kl = _grid_golden_max(
        lambda t: -phi(t, W_E, p) - t * R_prime, T_GRID)
    s_vd, e_vd = _grid_golden_max(
        lambda s: (s * R_prime - psi(s, W_E, p)) / (1.0 + s), S_GRID)
    e_err, e_kl, e_vd = max(0.0, e_err), max(0.0, e_kl), max(0.0, e_vd)
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
    if R < 0:
        raise ValueError("rates must be nonnegative")
    vd_psi, _, vd_phi_half = _family_reports(float(R), *_given_family(W, p))
    return TaylorComparison(*_taylor_terms(R, mutual_information(p, W), J),
                            vd_psi.bound_value, vd_phi_half.bound_value)
