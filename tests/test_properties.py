"""Property tests on random channels: the type-class path, additivity,
array generating functions, the worst-case input solve, the secrecy
bound, the divergence decomposition of wiretap leakage, the wiretap
bounds and exponents against the per-formula code they replaced, and
the bisected Gallager search against the full scan of S_GRID.

Channels and input laws are drawn with some zero entries, so dead
output columns, zero-probability inputs and merged single-letter
densities all occur.  Each fast path is checked against the
materialized n-fold product or the scalar call, and the worst-case
solve and the secrecy bound against a simplex grid.
"""

import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from chanres import (
    Channel,
    Distribution,
    identity_channel,
    output_distribution,
    phi,
    phi_worst,
    product,
    product_dist,
    product_tail_pair,
    psi,
    psi_worst,
    secrecy_capacity_lb,
    secrecy_rate,
    spectrum_cdf,
    tail_pair,
)
from chanres.channel import _kl
from chanres.exponents import (S_GRID, _gallager_max, _worst_solve,
                               wiretap_exponents)
from chanres.search import _bisect_cell
from chanres.wiretap import (
    _DECOMP_TOL,
    WiretapCode,
    eval_wiretap,
    wiretap_bounds,
)
from corpus import (DEAD_COLUMN, PROPERTY, _normalized, _seeded_law,
                    channel_and_law, small_channel)
from oracles import (_compositions, _gallager_objective, _product_densities,
                     _scanned_gallager_max, _spelled_out_wiretap_bounds,
                     _spelled_out_wiretap_exponents)


def _away_from_atoms(dens, thr):
    # the paths sum the density in different orders; a threshold within
    # rounding of an atom can fall on either side of it
    return bool(np.all(np.abs(dens - thr) > 1e-9 * max(1.0, abs(thr))))


@PROPERTY
@given(channel_and_law(), st.integers(1, 4), st.floats(-3.0, 3.0))
def test_product_tail_pair_equals_materialized_product(law, n, log_C):
    W, p = law
    dens, _ = _product_densities(p, W, n)
    assume(_away_from_atoms(dens, log_C))
    C = math.exp(log_C)
    fast = product_tail_pair(p, W, C, n)
    slow = tail_pair(product_dist(p, n), product(W, n), C)
    assert math.isclose(fast.delta, slow.delta, rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(fast.delta_prime, slow.delta_prime,
                        rel_tol=1e-9, abs_tol=1e-12)


@PROPERTY
@given(channel_and_law(), st.integers(1, 4), st.floats(-2.0, 2.0))
def test_spectrum_cdf_equals_brute_force(law, n, a):
    W, p = law
    dens, mass = _product_densities(p, W, n)
    assume(_away_from_atoms(dens, n * a))
    brute = min(float(np.sum(mass[dens <= n * a])), 1.0)
    assert math.isclose(spectrum_cdf(p, W, a, n), brute,
                        rel_tol=1e-9, abs_tol=1e-12)


@PROPERTY
@given(channel_and_law(), st.integers(2, 3),
       st.floats(0.01, 2.0), st.floats(-0.9, -0.01))
def test_psi_phi_additive_over_products(law, n, s, t):
    W, p = law
    Wn, pn = product(W, n), product_dist(p, n)
    assert math.isclose(psi(s, Wn, pn), n * psi(s, W, p),
                        rel_tol=1e-9, abs_tol=1e-12)
    assert math.isclose(phi(t, Wn, pn), n * phi(t, W, p),
                        rel_tol=1e-9, abs_tol=1e-12)


# a step-0.02 grid on the simplex of up to 4 inputs (23,426 points)
_GRID_STEPS = 50

# without the rounding slack in the line search, the last Newton step
# here at t = -0.44 is refused and the solve stops at residual 4.2e-9
NEAR_FLAT = Channel(np.array([[0.623, 0.377], [0.715, 0.285],
                              [0.543, 0.457]]))


def _power_sums(A, c, P):
    """sum_y (p @ A)_y^c for each row p of P."""
    return np.sum((P @ A) ** c, axis=-1)


@PROPERTY
@given(small_channel(),
       st.one_of(st.floats(1e-6, 1e-3), st.floats(1e-3, 1.0 - 1e-6)),
       st.one_of(st.floats(-1e-3, -1e-6), st.floats(-0.5, -1e-3)))
@example(DEAD_COLUMN, 0.05, -0.05)
@example(NEAR_FLAT, 0.5, -0.44)
def test_worst_case_beats_simplex_grid(W, s, t):
    grid = _compositions(_GRID_STEPS, W.input_size) / _GRID_STEPS
    for (val, arg), A, c in (
            (psi_worst(s, W), W.rows ** (1.0 + s), 1.0 - s),
            (phi_worst(t, W), W.rows ** (1.0 / (1.0 + t)), 1.0 + t)):
        F = math.exp(val)
        assert F >= float(np.max(_power_sums(A, c, grid))) * (1.0 - 1e-9)
        assert math.isclose(float(_power_sums(A, c, arg.probs)), F,
                            rel_tol=1e-12)


# only letter 2 reaches Eve's output 2, and Bob cannot tell letter 2
# from letter 0: the best law leaves letter 2 out, and at a law without
# it, letter 2's tangent slope D(W_E,2 || W_E,p) is infinite
SOLE_EVE_READER = (
    Channel(np.array([[0.9, 0.1], [0.1, 0.9], [0.9, 0.1]])),
    Channel(np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0], [0.0, 0.2, 0.8]])))


def _secrecy_pairs() -> list:
    """SOLE_EVE_READER and seeded random pairs of 2 or 3 inputs, half of
    them with zero entries."""
    rng = np.random.default_rng(11)
    pairs = [SOLE_EVE_READER]
    for i in range(10):
        K = 2 + i % 2
        sides = []
        for Y in rng.integers(2, 4, size=2).tolist():
            rows = rng.dirichlet(np.ones(Y), size=K)
            if i % 4 >= 2:
                rows = rows * (rng.random((K, Y)) < 0.6)
                rows[np.arange(K), rng.integers(0, Y, K)] += 0.1
            sides.append(Channel(rows / rows.sum(axis=1, keepdims=True)))
        pairs.append(tuple(sides))
    return pairs


SECRECY_PAIRS = _secrecy_pairs()


@pytest.mark.parametrize("i", range(len(SECRECY_PAIRS)))
def test_secrecy_bound_beats_simplex_grid_without_scipy(monkeypatch, i):
    monkeypatch.setitem(sys.modules, "scipy", None)
    monkeypatch.setitem(sys.modules, "scipy.optimize", None)
    W_B, W_E = SECRECY_PAIRS[i]
    val, arg = secrecy_capacity_lb(W_B, W_E)
    assert val == secrecy_rate(W_B, W_E, arg)
    grid = _compositions(40, W_B.input_size) / 40
    assert val >= max(secrecy_rate(W_B, W_E, Distribution(g)) for g in grid)
    if i == 0:
        assert arg.probs[2] == 0.0


_S = st.one_of(st.floats(0.0, 1e-3), st.floats(1e-3, 1.0))
_T = st.one_of(st.floats(-1e-3, 0.0), st.floats(-0.5, -1e-3))


@PROPERTY
@given(small_channel(), st.lists(_S, min_size=1, max_size=6),
       st.lists(_T, min_size=1, max_size=6))
@example(DEAD_COLUMN, [0.05, 0.0, 1.0], [-0.05, -0.5])
@example(NEAR_FLAT, [0.5], [-0.44, -0.1])
def test_worst_curves_equal_scalar_calls(W, s, t):
    for solve, xs in ((functools.partial(_worst_solve, is_t=False), s),
                      (functools.partial(_worst_solve, is_t=True), t)):
        vals, laws = solve(np.array(xs), W)
        for x, v, law in zip(xs, vals.tolist(), laws):
            one, one_law = solve(x, W)
            assert one[0] == v and np.array_equal(one_law[0], law)


@PROPERTY
@given(channel_and_law(), st.lists(st.floats(-0.9, 2.0), min_size=1,
                                   max_size=6),
       st.lists(st.floats(-0.9, 1.0), min_size=1, max_size=6))
def test_array_psi_phi_equal_scalar_calls(law, s, t):
    W, p = law
    assert psi(np.array(s), W, p).tolist() == [psi(x, W, p) for x in s]
    assert phi(np.array(t), W, p).tolist() == [phi(x, W, p) for x in t]


@st.composite
def wiretap_code_and_channels(draw):
    """A code on random channels.  Its codewords may use inputs outside
    supp(p), whose outputs W_p can miss: then D(Q_m || W_p) is infinite."""
    W_B, p = draw(channel_and_law())
    K = W_B.input_size
    L_E = draw(st.integers(2, 4))
    W_E = Channel(np.array([_normalized(draw, L_E) for _ in range(K)]))
    M = draw(st.integers(1, 12))
    L = draw(st.integers(1, 3))
    cw = draw(st.lists(st.integers(0, K - 1), min_size=M * L,
                       max_size=M * L))
    dec = draw(st.lists(st.integers(-1, M - 1), min_size=W_B.output_size,
                        max_size=W_B.output_size))
    code = WiretapCode(np.reshape(cw, (M, L)), dec)
    return code, W_B, W_E, p


@PROPERTY
@given(wiretap_code_and_channels())
def test_divergence_decomposition_residual(case):
    code, W_B, W_E, p = case
    report = eval_wiretap(code, W_B, W_E, p)
    q_e = W_E.rows[code.codewords].mean(axis=1)
    wp_e = output_distribution(W_E, p).probs
    to_wp = [_kl(q, wp_e) for q in q_e]
    phi_to_wp = _kl(q_e.mean(axis=0), wp_e)
    if not all(map(math.isfinite, to_wp + [phi_to_wp])):
        assert math.isnan(report.decomposition_residual)
        return
    # mean_m D(Q_m || W_p) == I_E + D(Phi || W_p), up to rounding
    rhs = float(np.mean(to_wp))
    residual = abs(report.I_E + phi_to_wp - rhs)
    assert report.decomposition_residual == residual
    assert residual <= _DECOMP_TOL * max(1.0, abs(rhs))


def _fields_equal(report, expected):
    # the oracle names every stored field, in order; its other names are
    # the report's properties, which getattr reads as well
    assert list(vars(report)) == [k for k in expected if k in vars(report)]
    for name, want in expected.items():
        got = getattr(report, name)
        assert got == want, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(channel_and_law(), st.integers(2, 3), st.integers(1, 3),
       st.integers(1, 60), st.integers(1, 60), st.floats(-2.0, 3.0),
       st.floats(-2.0, 3.0),
       st.floats(0.0, 2.0), st.floats(0.0, 2.0), st.data())
def test_wiretap_reuse_equals_spelled_out_formulas(law, Y_E, n, M, L, log_C,
                                                   log_C_prime, R, R_prime,
                                                   data):
    W_B, p = law
    W_E = Channel(np.array([_normalized(data.draw, Y_E)
                            for _ in range(W_B.input_size)]))
    W_B, W_E, p = product(W_B, n), product(W_E, n), product_dist(p, n)
    C = math.exp(log_C)
    C_prime = math.exp(log_C_prime)
    _fields_equal(wiretap_bounds(W_B, W_E, p, M, L, C, C_prime),
                  _spelled_out_wiretap_bounds(W_B, W_E, p, M, L, C, C_prime))
    _fields_equal(wiretap_exponents(R, R_prime, W_B, W_E, p),
                  _spelled_out_wiretap_exponents(R, R_prime, W_B, W_E, p))


@PROPERTY
@given(channel_and_law(), st.integers(1, 3),
       st.one_of(st.just(0.0),
                 st.builds(lambda M, L: math.log(M) + math.log(L),
                           st.integers(1, 60), st.integers(1, 60)),
                 st.floats(0.0, 3.0)))
def test_bisected_gallager_search_equals_full_scan(law, n, rate):
    W, p = law
    W, p = product(W, n), product_dist(p, n)
    assert (repr(_gallager_max(W, p, rate))
            == repr(_scanned_gallager_max(W, p, rate)))


# flat objectives: no information at rate 0, or E_0(s) = s * rate
_FLAT = {
    "rows-equal": (Channel(np.tile([0.2, 0.3, 0.5], (3, 1))),
                   Distribution([0.2, 0.3, 0.5]), 0.0),
    "point-mass": (_seeded_law(5, 3, 3)[0], Distribution([0.0, 1.0, 0.0]),
                   0.0),
    "identity-at-log-Y": (identity_channel(4), Distribution(np.full(4, 0.25)),
                          math.log(4)),
}


@pytest.mark.parametrize("name", list(_FLAT))
@pytest.mark.parametrize("n", [1, 2])
def test_flat_gallager_objective_takes_the_full_scan(name, n):
    W, p, rate = _FLAT[name]
    W, p, rate = product(W, n), product_dist(p, n), n * rate
    assert _bisect_cell(_gallager_objective(W, p, rate), S_GRID) is None
    assert (repr(_gallager_max(W, p, rate))
            == repr(_scanned_gallager_max(W, p, rate)))


@pytest.mark.parametrize("seed", range(12))
def test_generic_gallager_objective_is_certified(seed):
    K, Y, n = 2 + seed % 3, 2 + seed % 2, 1 + seed % 3
    W, p = _seeded_law(seed, K, Y)
    W, p = product(W, n), product_dist(p, n)
    for rate in (0.0, math.log(8), np.random.default_rng(seed).uniform(0, 2)):
        f = _gallager_objective(W, p, rate)
        b, value = _bisect_cell(f, S_GRID)
        grid = f(None, S_GRID)
        assert b == int(np.argmax(grid)) and value == grid[b]
        assert (repr(_gallager_max(W, p, rate))
                == repr(_scanned_gallager_max(W, p, rate)))
