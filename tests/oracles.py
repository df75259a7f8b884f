"""Slow exact references the tests compare the package against: one
scalar call per point, explicit loops, the materialized n-fold product,
a full grid scan, a formula written out, or the loop that a blocked or
vectorized path replaced.  A test of a fast path imports its slow path
from here.  Module attributes that tests monkeypatch
(`identification.stream` and its draw cap, `exponents._powers`) are
read at call time, so a reference follows the patch as the code under
test does.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from chanres import (Channel, eval_wiretap, output_distribution, phi,
                     phi_worst, product, product_dist, psi, psi_worst,
                     sample_wiretap_code, tail_pair, wiretap_bounds)
from chanres import exponents, identification, wiretap
from chanres.channel import _blocks, _density
from chanres.exponents import (GRID_STEP, S_GRID, T_GRID, ExponentReport,
                               _power, _worst_solve)
from chanres.resolvability import PHI_T_GRID
from chanres.rng import sample_indices, stream
from chanres.search import _cells, _refine_cells
from chanres.spectrum import eta


def binary_entropy(w: float) -> float:
    return -w * math.log(w) - (1.0 - w) * math.log(1.0 - w)


def tail_oracle(p, W, C):
    # direct sum over all (x, y) cells with W_p(y) > 0
    wp = p.probs @ W.rows
    delta = 0.0
    delta_prime = 0.0
    for x in range(W.input_size):
        for y in range(W.output_size):
            if wp[y] == 0:
                continue
            ratio = W.rows[x, y] / wp[y]
            mass = p.probs[x] * W.rows[x, y]
            if ratio > C:
                delta += mass
            else:
                delta_prime += mass * ratio
    return delta, delta_prime


def _product_densities(p, W, n):
    """log(W^n_x(y)/W^n_p(y)) and the joint mass of every product atom."""
    pn, Wn = product_dist(p, n), product(W, n)
    joint = pn.probs[:, None] * Wn.rows
    wpn = pn.probs @ Wn.rows
    live = joint > 0
    ratio = Wn.rows[live] / np.broadcast_to(wpn, Wn.rows.shape)[live]
    return np.log(ratio), joint[live]


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


def _masked_kl(a, b):
    """D(a||b) summed over supp(a) alone; +inf when a has mass outside
    supp(b)."""
    mask = a > 0
    if np.any(b[mask] == 0):
        return math.inf
    return max(float(np.sum(a[mask] * (np.log(a[mask]) - np.log(b[mask])))),
               0.0)


def psi_oracle(s, W, p):
    wp = p.probs @ W.rows
    total = 0.0
    for x in range(W.input_size):
        inner = 0.0
        for y in range(W.output_size):
            if wp[y] > 0:
                inner += W.rows[x, y] ** (1.0 + s) * wp[y] ** (-s)
        total += p.probs[x] * inner
    return math.log(total)


def phi_oracle(t, W, p):
    total = 0.0
    for y in range(W.output_size):
        g = 0.0
        for x in range(W.input_size):
            g += p.probs[x] * W.rows[x, y] ** (1.0 / (1.0 + t))
        total += g ** (1.0 + t)
    return math.log(total)


def _shaped(vals, x):
    """vals in the shape of the parameter(s) x, exactly 0 where x is 0."""
    if np.ndim(x) == 0:
        return 0.0 if x == 0 else float(vals[0])
    vals[np.ravel(x) == 0] = 0.0
    return vals.reshape(np.shape(x))


def _full_matrix_phi(t, W, p):
    """`phi` as it was before `Channel.levels`: every entry of W raised
    to the power."""
    e = np.asarray(t, dtype=float).reshape(-1, 1, 1)
    vals = np.empty(e.shape[0])
    for blk in _blocks(e.shape[0], W.rows.size):
        g = np.matmul(p.probs, _power(W.rows, 1.0 / (1.0 + e[blk])))
        vals[blk] = np.log(np.sum(_power(g, 1.0 + e[blk, 0]), axis=1))
    return _shaped(vals, t)


def _full_matrix_psi(s, W, p):
    """`psi` as it was before it gathered through `Channel.levels`: every
    entry of the support rows and live columns of W raised to the power."""
    wp = output_distribution(W, p).probs
    live, sup = wp > 0, p.support()
    rows, wp, ps = W.rows[np.ix_(sup, live)], wp[live], p.probs[sup]
    e = np.asarray(s, dtype=float).reshape(-1, 1, 1)
    vals = np.empty(e.shape[0])
    for blk in _blocks(e.shape[0], W.rows.size):
        inner = np.sum(_power(rows, 1.0 + e[blk]) * _power(wp, -e[blk]),
                       axis=2)
        vals[blk] = np.log(np.matmul(ps, inner[:, :, None])[:, 0])
    return _shaped(vals, s)


def _full_matrix_worst(x, W, is_t):
    """`_worst_solve` as it was before it gathered through `Channel.levels`:
    its Newton stacks on every entry of W raised to the power."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(exponents, "_powers", lambda W, e: _power(W.rows, e))
        return _worst_solve(x, W, is_t)


def _scalar_golden_max(f, lo, hi, tol=1e-12):
    """The golden section of one objective, one point per call of f."""
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


def _reference_grid_golden_max(f, lo, hi):
    npts = int(round((hi - lo) / GRID_STEP)) + 1
    xs = np.linspace(lo, hi, npts)
    vals = [f(float(x)) for x in xs]
    i = int(np.argmax(vals))
    a = float(xs[max(i - 1, 0)])
    b = float(xs[min(i + 1, npts - 1)])
    xg, vg = _scalar_golden_max(f, a, b)
    if vg >= vals[i]:
        return float(xg), float(vg)
    return float(xs[i]), float(vals[i])


def _reference_sweep(W, rates, p):
    """The sweep with one scalar call per grid point and rate."""
    @functools.lru_cache(maxsize=None)
    def psi_curve(s):
        return psi_worst(s, W)[0]

    @functools.lru_cache(maxsize=None)
    def phi_curve(t):
        return phi_worst(t, W)[0]

    reports = []
    for R in rates:
        families = [] if p is None else [
            (lambda s: psi(s, W, p), lambda t: phi(t, W, p), "")]
        families.append((psi_curve, phi_curve, "_worst"))
        for psi_fn, phi_fn, suffix in families:
            s_star, vd_val = _reference_grid_golden_max(
                lambda s: (s * R - psi_fn(s)) / (1.0 + s), 0.0, 1.0)
            t_star, kl_val = _reference_grid_golden_max(
                lambda t: -phi_fn(t) - t * R, -0.5, 0.0)
            reports += [
                ExponentReport(R, max(vd_val, 0.0), s_star, "vd_psi" + suffix),
                ExponentReport(R, max(kl_val, 0.0), t_star, "kl_phi" + suffix),
                ExponentReport(R, max(kl_val, 0.0) / 2.0, t_star,
                               "vd_phi_half" + suffix),
            ]
    return reports


def _scan_and_refine(f, xs):
    """One objective f, as in `search._golden_max`, scanned on the grid
    xs and refined by golden section on its best cell: arrays (argmax,
    max) of one entry."""
    vals = np.asarray(f(None, xs))
    best = np.array([np.argmax(vals)])
    return _refine_cells(f, _cells(xs, best), vals[best])


def _gallager_objective(W, p, rate):
    def f(_, s):
        return -phi(s, W, p) - s * rate
    return f


def _scanned_gallager_max(W, p, rate):
    """The Gallager search as a scan of every S_GRID point, then the
    golden section around the best one."""
    f = _gallager_objective(W, p, rate)
    s, v = _scan_and_refine(f, S_GRID)
    return float(s[0]), float(v[0])


def _alternating_capacity(W: Channel, tol: float = 1e-8,
                          max_iter: int = 200_000) -> float:
    """Capacity by Blahut-Arimoto alternation, the loop the Newton ascent
    replaced, with the same certificate max_x D(W_x || W_p) - I <= tol."""
    rows = W.rows
    logrows = np.where(rows > 0, np.log(np.where(rows > 0, rows, 1.0)), 0.0)
    p = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for _ in range(max_iter):
        wp = p @ rows
        lwp = np.where(wp > 0, np.log(np.where(wp > 0, wp, 1.0)), 0.0)
        D = np.sum(np.where(rows > 0, rows * (logrows - lwp), 0.0), axis=1)
        i_val = float(p @ D)
        if float(np.max(D) - i_val) <= tol:
            return max(i_val, 0.0)
        p = p * np.exp(D - np.max(D))
        p = np.maximum(p, 1e-300)
        p = p / p.sum()
    raise AssertionError("the alternation did not converge")


def _pairwise_loop(q_e):
    """Mean distance over ordered pairs (i, j), i != j, one add per pair."""
    M = len(q_e)
    if M == 1:
        return 0.0
    total = 0.0
    for i in range(M):
        for j in range(M):
            if i != j:
                total += float(np.abs(q_e[i] - q_e[j]).sum())
    return total / (M * (M - 1))


def pairwise_bound_oracle(code, W_E, p):
    """Twice the mean distance of Eve's message mixtures to W_p, which
    bounds their mean pairwise distance d_E by the triangle inequality."""
    q_e = W_E.rows[code.codewords].mean(axis=1)
    wp_e = output_distribution(W_E, p).probs
    return 2.0 * float(np.mean([np.abs(q - wp_e).sum() for q in q_e]))


def _spelled_out_wiretap_bounds(W_B, W_E, p, M, L, C, C_prime):
    """The fields of `wiretap_bounds`, each formula written out for the
    wiretap code alone, with one scalar phi call per grid point."""
    log_ml = math.log(M) + math.log(L)

    def gallager(s):
        return -(s * log_ml + phi(s, W_B, p))

    s_star, neg = _scan_and_refine(lambda _, s: gallager(s), S_GRID)
    miss_b = 1.0 - tail_pair(p, W_B, C_prime).delta
    error_threshold = 3.0 * (miss_b + M * L / C_prime)
    tp_e = tail_pair(p, W_E, C)
    leak_eta = 3.0 * (eta(tp_e.delta)
                      + tp_e.delta * math.log(W_E.output_size)
                      + tp_e.delta_prime / L)
    log_l = math.log(L)
    best_phi, t_star = min(
        (math.log1p(math.exp(t * log_l + phi(t, W_E, p))) / (-t), t)
        for t in PHI_T_GRID)
    return dict(
        error_gallager=3.0 * math.exp(-float(neg[0])),
        error_threshold=error_threshold, leak_kl_eta=leak_eta,
        leak_kl_phi=3.0 * float(best_phi),
        secrecy_vd=6.0 * (2.0 * tp_e.delta + math.sqrt(tp_e.delta_prime / L)),
        gallager_s=float(s_star[0]), phi_t=float(t_star))


def _spelled_out_wiretap_exponents(R, R_prime, W_B, W_E, p):
    """The fields of `wiretap_exponents`, one grid-and-golden search per
    exponent."""
    def best(f, xs):
        x, v = _scan_and_refine(f, xs)
        return float(x[0]), max(0.0, float(v[0]))

    s_err, e_err = best(
        lambda _, s: -phi(s, W_B, p) - s * (R + R_prime), S_GRID)
    t_kl, e_kl = best(lambda _, t: -phi(t, W_E, p) - t * R_prime, T_GRID)
    s_vd, e_vd = best(
        lambda _, s: (s * R_prime - psi(s, W_E, p)) / (1.0 + s), S_GRID)
    edge = 2.0 * GRID_STEP
    return dict(
        error_exponent=e_err,
        leak_kl_exponent=e_kl, leak_vd_exponent_psi=e_vd,
        leak_vd_exponent_phi=e_kl / 2.0, error_s=s_err, leak_kl_t=t_kl,
        leak_vd_psi_s=s_vd, error_saturated=(1.0 - s_err) <= edge,
        leak_kl_saturated=(t_kl + 0.5) <= edge,
        leak_vd_psi_saturated=(1.0 - s_vd) <= edge)


def _construct_reference(p, W_B, W_E, M, L, C, C_prime, seed, max_retries,
                         decoder_kind="maximum_likelihood", on_attempt=None):
    # the retry loop as it was written before it kept one best-attempt
    # record: a full result per attempt, patched on exhaustion
    bounds = wiretap_bounds(W_B, W_E, p, M, L, C, C_prime)
    eps_target = (bounds.error_threshold if decoder_kind == "threshold"
                  else bounds.error_gallager)
    leak_target = min(bounds.leak_kl_eta, bounds.leak_kl_phi)
    vd_target = bounds.secrecy_vd

    best = None
    best_key = None
    for attempt in range(max_retries):
        code = sample_wiretap_code(p, M, L, W_B, seed, index=attempt,
                                   decoder_kind=decoder_kind, C_prime=C_prime)
        report = eval_wiretap(code, W_B, W_E, p)
        ok_eps = report.eps_B <= eps_target
        ok_leak = report.I_E <= leak_target
        ok_vd = report.d_E <= vd_target
        if on_attempt is not None:
            on_attempt(attempt, report, (ok_eps, ok_leak, ok_vd))
        result = wiretap.ConstructionResult(
            code=code, report=report, bounds=bounds,
            targets=(eps_target, leak_target, vd_target),
            flags=(ok_eps, ok_leak, ok_vd), attempts=attempt + 1,
        )
        if ok_eps and ok_leak and ok_vd:
            return result
        excess = max(
            (report.eps_B - eps_target) / max(eps_target, 1e-300),
            (report.I_E - leak_target) / max(leak_target, 1e-300),
            (report.d_E - vd_target) / max(vd_target, 1e-300),
        )
        key = (-(ok_eps + ok_leak + ok_vd), excess)
        if best is None or key < best_key:
            best = result
            best_key = key
    return dataclasses.replace(best, attempts=max_retries)


def eval_reference(code, W, p):
    """(mu, lam, region sizes) of `eval_id_code` by a double loop over
    (i, j), one masked 1-D sum per pair, one message at a time.  A pair
    is over C as `channel._density` decides it."""
    level = _density(W, p)[1] > math.log(code.C)
    mixtures, regions = [], []
    for s in code.subsets:
        idx = [code.codewords[k] for k in s]
        mixtures.append(W.rows[idx].mean(axis=0))
        regions.append(np.any(level[idx], axis=0))
    mu = lam = 0.0
    for i, region in enumerate(regions):
        mu = max(mu, float(1.0 - mixtures[i][region].sum()))
        for j, mixture in enumerate(mixtures):
            if j != i:
                lam = max(lam, float(mixture[region].sum()))
    return mu, lam, [int(r.sum()) for r in regions]


def cap_attempts(monkeypatch, max_attempts):
    """Make `build_set_family` stop after max_attempts draws."""
    monkeypatch.setattr(identification, "_DRAWS_PER_SUBSET", 0)
    monkeypatch.setattr(identification, "_EXTRA_DRAWS", max_attempts)


def build_reference(params, seed):
    """The pair loop: each candidate against every chosen frozenset."""
    size = params.subset_size
    target = max(params.family_size, 1)
    cap = params.kappa * size
    max_attempts = (identification._DRAWS_PER_SUBSET * target
                    + identification._EXTRA_DRAWS)
    gen = identification.stream(seed, 0)
    chosen = []
    attempts = 0
    while len(chosen) < target and attempts < max_attempts:
        attempts += 1
        cand = frozenset(int(v) for v in
                         gen.choice(params.M, size=size, replace=False))
        if all(len(cand & s) < cap for s in chosen):
            chosen.append(cand)
    return tuple(chosen), attempts, len(chosen) >= target


class CrowdedStream:
    """Draws confined to the first size + 6 elements, so many overlap."""

    def __init__(self, seed, index):
        self.gen = np.random.default_rng([seed, index])

    def choice(self, M, size, replace):
        return self.gen.choice(size + 6, size=size, replace=replace)


def _first_pair_loop(subsets, cap):
    for i in range(len(subsets)):
        for j in range(i + 1, len(subsets)):
            inter = len(subsets[i] & subsets[j])
            if not inter < cap:
                return (f"subsets {i} and {j} share {inter} elements, "
                        f"not below the cap {cap!r}")
    return None


def select_reference(W, p, params, seed, max_retries=100):
    """The screening loop with one masked 1-D sum per candidate.

    Returns the selection fields and how many candidates the union
    screen alone refused.
    """
    miss_avg = 1.0 - tail_pair(p, W, params.C).delta
    m_prime = params.m_prime
    miss_bound = params.alpha * params.beta * miss_avg
    union_bound = params.alpha_prime * params.beta_prime * m_prime / params.C
    level = _density(W, p)[1] > math.log(params.C)
    rows = W.rows
    union_refused = 0
    for attempt in range(max_retries):
        xs = sample_indices(p.probs, stream(seed, attempt).random(m_prime))
        over = level[xs]
        counts = over.sum(axis=0)
        picked = []
        for i, x in enumerate(xs):
            miss = 1.0 - np.sum(rows[x] * over[i])
            union = float(np.sum(rows[x] * ((counts - over[i]) >= 1)))
            union_refused += miss <= miss_bound and union > union_bound
            if (miss <= miss_bound and union <= union_bound
                    and int(x) not in picked
                    and len(picked) < params.family.M):
                picked.append(int(x))
        if len(picked) < params.family.M:
            continue
        sel_level = level[picked]
        sel_counts = sel_level.sum(axis=0)
        union = tuple(float(np.sum(rows[x] * ((sel_counts - sel_level[i]) >= 1)))
                      for i, x in enumerate(picked))
        miss = tuple(float(1.0 - np.sum(rows[x] * sel_level[i]))
                     for i, x in enumerate(picked))
        return (tuple(picked), miss, union, attempt + 1), union_refused
    return None, union_refused
