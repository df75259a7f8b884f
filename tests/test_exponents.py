"""Generating functions, exponent optimization, capacity, secrecy."""

import functools
import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from chanres import (
    Channel,
    ConvergenceError,
    Distribution,
    bsc,
    capacity,
    constant_channel,
    identity_channel,
    mutual_information,
    phi,
    phi_worst,
    product,
    product_dist,
    psi,
    psi_worst,
    exponent_sweep,
    secrecy_capacity_lb,
    secrecy_rate,
    taylor_compare,
    uniform,
    wiretap_exponents,
)
from chanres import channel, exponents
from chanres.exponents import (
    S_GRID,
    T_GRID,
    _KKT_TOL,
    _kkt_residual,
    _newton_step,
    _power,
    _worst_solve,
)
from chanres.search import _cells, _golden_max, _refine_cells
from corpus import (ASYM, ASYM_P, CHANNEL_3X5_ROWS, DEAD_COLUMN,
                    STALL_4X4_ROWS, TINY_COLUMN, TINY_COLUMN_3X3, Z_ROWS,
                    _rounded_channels, dirichlet_law)
from oracles import (_alternating_capacity, _reference_grid_golden_max,
                     _reference_sweep, _scalar_golden_max, binary_entropy,
                     phi_oracle, psi_oracle)

# no input reaches output 2, so W_p has a zero entry
DEAD_OUTPUT = Channel(np.array([[0.6, 0.4, 0.0], [0.1, 0.9, 0.0]]))
# four inputs on two outputs: near s = 0 and t = 0 the maximand is
# nearly flat along the null space of its Hessian, where a first-order
# ascent crawls for tens of seconds without certifying
HARD_4X2 = Channel(np.array([[0.42190983, 0.57809017],
                             [0.75488368, 0.24511632],
                             [0.38190314, 0.61809686],
                             [0.79701893, 0.20298107]]))


def test_origin_values_are_exact_zero():
    rng = np.random.default_rng(21)
    for _ in range(20):
        W, p = dirichlet_law(rng, (2, 5))
        assert psi(0.0, W, p) == 0.0
        assert phi(0.0, W, p) == 0.0


def test_domain_errors():
    W, p = bsc(0.1), uniform(2)
    with pytest.raises(ValueError):
        psi(-1.0, W, p)
    with pytest.raises(ValueError):
        phi(-1.0, W, p)
    with pytest.raises(ValueError):
        psi(0.5, W, uniform(3))
    # NaN is refused, not carried into the result
    with pytest.raises(ValueError, match="^s must exceed -1$"):
        psi(math.nan, W, p)
    with pytest.raises(ValueError, match="^t must exceed -1$"):
        phi([0.1, math.nan], W, p)
    with pytest.raises(ValueError, match="^s must exceed -1$"):
        psi(-math.inf, W, p)
    # +inf is refused, not turned into NaN (psi) or log 2 (phi)
    for f, name in ((psi, "s"), (phi, "t")):
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            f(math.inf, W, p)
        with pytest.raises(ValueError, match=f"^{name} must be finite$"):
            f(np.array([0.1, math.inf]), W, p)


def test_psi_phi_frozen_values():
    W, p = bsc(0.1), uniform(2)
    assert math.isclose(psi(1.0, W, p), math.log(1.64), rel_tol=1e-14)
    assert math.isclose(psi(0.5, W, p), psi_oracle(0.5, W, p), rel_tol=1e-13)
    assert math.isclose(psi(0.5, W, p), 0.22490046096410807, rel_tol=1e-14)
    assert math.isclose(phi(-0.5, W, p), phi_oracle(-0.5, W, p), rel_tol=1e-13)
    assert math.isclose(phi(-0.5, W, p), 0.24734812091805358, rel_tol=1e-14)
    # t = -1/2 collapses to log of twice the root mean square column
    assert math.isclose(phi(-0.5, W, p), math.log(2.0 * math.sqrt(0.41)),
                        rel_tol=1e-14)


def test_identity_channel_closed_forms():
    W, p = identity_channel(2), uniform(2)
    for s in (0.1, 0.3, 0.5, 0.9, 1.0):
        assert math.isclose(psi(s, W, p), s * math.log(2.0), rel_tol=1e-13)
    for t in (-0.5, -0.3, -0.1):
        assert math.isclose(phi(t, W, p), -t * math.log(2.0), rel_tol=1e-13)


def test_psi_phi_match_oracle_random():
    rng = np.random.default_rng(22)
    for _ in range(50):
        W, p = dirichlet_law(rng, (2, 6))
        s = float(rng.uniform(0.05, 1.0))
        t = float(rng.uniform(-0.5, -0.05))
        assert math.isclose(psi(s, W, p), psi_oracle(s, W, p),
                            rel_tol=1e-11, abs_tol=1e-12)
        assert math.isclose(phi(t, W, p), phi_oracle(t, W, p),
                            rel_tol=1e-11, abs_tol=1e-12)


@pytest.mark.parametrize("W, p", [(bsc(0.1), uniform(2)), (ASYM, ASYM_P),
                                  (DEAD_OUTPUT, uniform(2))])
def test_array_psi_phi_equal_scalar_calls(W, p):
    # the scan grids, plus parameters that make numpy's scalar power take
    # its square, sqrt and reciprocal shortcuts in either function
    s = np.concatenate([S_GRID, [-0.5, -0.25, 1.5, 3.0]])
    t = np.concatenate([T_GRID, [-0.75, 0.5, 1.0]])
    psi_arr, phi_arr = psi(s, W, p), phi(t, W, p)
    assert psi_arr.shape == s.shape and phi_arr.shape == t.shape
    assert [float(v) for v in psi_arr] == [psi(v, W, p) for v in s.tolist()]
    assert [float(v) for v in phi_arr] == [phi(v, W, p) for v in t.tolist()]
    block = s[:6].reshape(2, 3)
    assert np.array_equal(psi(block, W, p), psi_arr[:6].reshape(2, 3))


def test_stacked_power_equals_scalar_power():
    x = np.random.default_rng(26).uniform(0.01, 1.0, size=(40, 50))
    e = np.array([-1.0, -0.5, 0.0, 0.5, 0.7, 1.0, 1.5, 2.0, 3.0])
    stacked = _power(x, e.reshape(-1, 1, 1))
    for i, v in enumerate(e.tolist()):
        assert np.array_equal(stacked[i], x ** v)


def test_array_origin_and_domain():
    W, p = ASYM, ASYM_P
    vals = psi(np.array([0.3, 0.0, -0.0, 0.7]), W, p)
    assert vals[1] == 0.0 and vals[2] == 0.0 and not np.signbit(vals[1:3]).any()
    vals = phi(np.array([[-0.3, 0.0], [0.0, 0.5]]), W, p)
    assert vals[0, 1] == 0.0 and vals[1, 0] == 0.0
    with pytest.raises(ValueError):
        psi(np.array([0.5, -1.0, 0.2]), W, p)
    with pytest.raises(ValueError):
        phi(np.array([[-0.2], [-1.5]]), W, p)


# psi(0) and phi(0) compute as -1.1e-16 here, before they are set to 0
RANDOM_4X3 = Channel(np.random.default_rng(31).dirichlet(np.ones(3), size=4))


@pytest.mark.parametrize("W, p, rates", [
    (bsc(0.1), uniform(2), [0.3, 0.8, 1.2]),
    (ASYM, ASYM_P, [0.05, 0.25, 0.45]),
    (ASYM, None, [0.1, 0.4]),
    (HARD_4X2, None, [0.0, 0.01, 0.2]),
    (DEAD_COLUMN, uniform(3), [0.05, 0.4, 0.9]),
    (TINY_COLUMN, Distribution(np.array([1.0, 0.0])), [0.0, 0.3, 1.0]),
    (bsc(0.1), Distribution(np.array([0.0, 1.0])), [0.0, 0.2, 0.6]),
    (RANDOM_4X3, Distribution(np.random.default_rng(32).dirichlet(np.ones(4))),
     [0.0, 0.1, 0.5]),
])
def test_exponent_sweep_matches_scalar_reference(W, p, rates):
    assert exponent_sweep(W, rates, p) == _reference_sweep(W, rates, p)


def test_leak_and_taylor_fields_match_scalar_reference():
    R = 0.45
    ref = {r.family: r for r in _reference_sweep(ASYM, [R], ASYM_P)}
    vd, kl, half = ref["vd_psi"], ref["kl_phi"], ref["vd_phi_half"]
    rep = wiretap_exponents(0.05, R, identity_channel(3), ASYM, ASYM_P)
    assert (rep.leak_vd_exponent_psi, rep.leak_vd_psi_s) == (
        vd.bound_value, vd.optimizer)
    assert (rep.leak_kl_exponent, rep.leak_kl_t) == (kl.bound_value,
                                                     kl.optimizer)
    assert rep.leak_vd_exponent_phi == half.bound_value
    cmp_ = taylor_compare(R, ASYM, ASYM_P)
    assert cmp_.exact_psi_bound == vd.bound_value
    assert cmp_.exact_phi_half_bound == half.bound_value


@pytest.mark.parametrize("W", [bsc(0.1), ASYM, HARD_4X2, DEAD_COLUMN,
                               TINY_COLUMN],
                         ids=["bsc", "asym", "hard4x2", "dead", "tiny"])
def test_worst_curves_equal_scalar_calls(W):
    # the whole grid in one call against every third point alone
    curves = []
    for solve, single, grid in (
            (functools.partial(_worst_solve, is_t=False), psi_worst, S_GRID),
            (functools.partial(_worst_solve, is_t=True), phi_worst, T_GRID)):
        vals, laws = solve(grid, W)
        for i in range(0, grid.size, 3):
            one, one_law = solve(grid[i], W)
            assert one[0] == vals[i] and np.array_equal(one_law[0], laws[i])
        assert single(float(grid[1]), W)[0] == vals[1]
        curves.append((vals, laws))
    # both grids in one shuffled stack give the single-family values and laws
    x = np.concatenate([S_GRID, T_GRID])
    is_t = np.arange(x.size) >= S_GRID.size
    order = np.random.default_rng(7).permutation(x.size)
    vals, laws = _worst_solve(x[order], W, is_t[order])
    assert np.array_equal(vals, np.concatenate([c[0] for c in curves])[order])
    assert np.array_equal(laws, np.concatenate([c[1] for c in curves])[order])


@pytest.mark.parametrize("W", [bsc(0.1), ASYM], ids=["bsc", "asym"])
def test_worst_curves_equal_unstacked_products(W):
    # the uniform law certifies at once on these channels, so each value
    # is log(p @ D) at p uniform; the stack must give the bits of the
    # plain two-dimensional products, whose BLAS summation order
    # depends on the layout a column mask leaves
    p = np.full(W.input_size, 1.0 / W.input_size)

    def log_F(A, c):
        A = A[:, np.any(A > 0, axis=0)]
        return float(np.log(float(p @ (A @ (p @ A) ** (c - 1.0)))))

    s, t = S_GRID[1:-1], T_GRID[:-1]
    assert _worst_solve(s, W, False)[0].tolist() == [
        log_F(W.rows ** (1.0 + x), 1.0 - x) for x in s.tolist()]
    assert _worst_solve(t, W, True)[0].tolist() == [
        log_F(W.rows ** (1.0 / (1.0 + x)), 1.0 + x) for x in t.tolist()]


def test_tiny_column_drops_out_where_it_underflows():
    # the grid's stack mixes slices with three and two live columns
    live = np.any(TINY_COLUMN.rows ** (1.0 + S_GRID[:, None, None]) > 0,
                  axis=1)
    assert live[:, 2].any() and not live[:, 2].all()
    vals, laws = _worst_solve(S_GRID, TINY_COLUMN, False)
    assert np.all(np.isfinite(vals))
    # the symmetric rows make the uniform law optimal at every s
    assert np.all(laws == 0.5)


def test_groups_of_live_columns_that_take_steps_equal_scalar_calls():
    # the tiny entry raised to 1 + s or 1/(1+t) underflows at s = 0.95
    # and t = -0.5, not at s = 0.05 and t = -0.05, so each stack is
    # solved in two groups; the optimum is not uniform, so both step
    W = Channel(np.array([[0.6, 0.4, 1e-200], [0.1, 0.9, 0.0],
                          [0.5, 0.5, 0.0]]))
    for solve, xs in ((functools.partial(_worst_solve, is_t=False),
                       [0.05, 0.95]),
                      (functools.partial(_worst_solve, is_t=True),
                       [-0.05, -0.5])):
        vals, laws = solve(np.array(xs), W)
        assert not np.allclose(laws, 1.0 / 3.0)
        for x, v, law in zip(xs, vals.tolist(), laws):
            one, one_law = solve(x, W)
            assert one[0] == v and np.array_equal(one_law[0], law)


@pytest.mark.parametrize("solve, x, name", [(psi_worst, 0.35, "s"),
                                            (phi_worst, -0.45, "t")])
def test_overflowing_newton_matrix_is_uncertified(solve, x, name):
    with pytest.raises(ConvergenceError, match=f"at {name} = {x} ") as err:
        solve(x, TINY_COLUMN_3X3)
    assert err.value.parameter == x


def test_block_size_does_not_change_curves(monkeypatch):
    curves = [(_worst_solve(S_GRID, W, False), _worst_solve(T_GRID, W, True))
              for W in (HARD_4X2, TINY_COLUMN)]
    given = psi(S_GRID, ASYM, ASYM_P), phi(T_GRID, ASYM, ASYM_P)
    monkeypatch.setattr(channel, "_BLOCK_FLOATS", 64)
    assert np.array_equal(psi(S_GRID, ASYM, ASYM_P), given[0])
    assert np.array_equal(phi(T_GRID, ASYM, ASYM_P), given[1])
    for W, ((a, A), (b, B)) in zip((HARD_4X2, TINY_COLUMN), curves):
        (a1, A1), (b1, B1) = (_worst_solve(S_GRID, W, False),
                              _worst_solve(T_GRID, W, True))
        assert np.array_equal(a, a1) and np.array_equal(A, A1)
        assert np.array_equal(b, b1) and np.array_equal(B, B1)


def test_sweep_in_rate_blocks_equals_rate_by_rate():
    # the (rates x grid) scan takes a block of rates at a time, so that
    # its memory does not grow with the rate count; 23 rates take three
    rates = [0.05 * i for i in range(23)]
    assert len(channel._blocks(len(rates), S_GRID.size + T_GRID.size)) == 3
    for W, p in ((bsc(0.1), uniform(2)), (ASYM, None)):
        assert exponent_sweep(W, rates, p) == [
            rep for R in rates for rep in exponent_sweep(W, [R], p)]


def test_lockstep_golden_section_equals_scalar_search():
    rates = np.array([0.0, 0.05, 0.25, 0.45, 3.0])

    def vd(i, s):
        return (s * rates[i] - psi(s, ASYM, ASYM_P)) / (1.0 + s)

    rows = np.array([vd(i, S_GRID) for i in range(rates.size)])
    best = np.argmax(rows, axis=1)
    # rate 0 peaks at s = 0 and rate 3 at s = 1: cells GRID_STEP wide
    assert best[0] == 0 and best[-1] == S_GRID.size - 1
    xs, vs = _refine_cells(vd, _cells(S_GRID, best),
                           rows[np.arange(rates.size), best])
    for i, R in enumerate(rates.tolist()):
        ref = _reference_grid_golden_max(
            lambda s: (s * R - psi(s, ASYM, ASYM_P)) / (1.0 + s), 0.0, 1.0)
        assert (float(xs[i]), float(vs[i])) == ref
    # raw intervals of assorted widths, edge cells among them
    lo = np.array([0.0, 0.3, 0.999, 0.1, 0.0])
    hi = lo + np.array([1e-3, 2e-3, 1e-3, 0.5, 1.0])
    xs, vs = _golden_max(vd, lo, hi)
    for i in range(lo.size):
        ref = _scalar_golden_max(lambda s: float(vd(i, s)), lo[i], hi[i])
        assert (float(xs[i]), float(vs[i])) == ref


def test_sweep_solver_calls_bounded(monkeypatch):
    # one solve per grid and one per lockstep golden-section step of both
    # families: 49 here; a solve per family and step was 96, and one per
    # grid point and per rate and step would be 2,351
    calls = {}

    def counter(name, solve):
        def counted(*args):
            calls[name] = calls.get(name, 0) + 1
            return solve(*args)
        return counted

    for name in ("_worst_solve", "_certified_power_max"):
        monkeypatch.setattr(exponents, name,
                            counter(name, getattr(exponents, name)))
    for p in (None, uniform(2)):
        calls.clear()
        exponent_sweep(bsc(0.1), np.linspace(0.8, 1.2, 9), p)
        assert 0 < calls["_worst_solve"] <= 50
        assert calls["_certified_power_max"] <= 50


@pytest.mark.parametrize("p", [None, uniform(64)], ids=["worst", "given"])
def test_sweep_memory_bounded(p):
    # the 1,001 powered 64x64 matrices of S_GRID alone are 33 MB
    tracemalloc.start()
    try:
        exponent_sweep(identity_channel(64), [0.5], p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


def test_convergence_error_names_parameter(monkeypatch):
    monkeypatch.setattr(exponents, "_NEWTON_ITER", 1)
    with pytest.raises(ConvergenceError, match=r"at s = 0\.001 ") as err:
        psi_worst(0.001, HARD_4X2)
    assert err.value.parameter == 0.001
    assert err.value.residual > _KKT_TOL
    assert err.value.best_value > 0.0
    # in a stack, the entry that fails is the one named
    with pytest.raises(ConvergenceError, match=r"at t = -0\.002 ") as err:
        _worst_solve(np.array([0.0, -0.002]), HARD_4X2, True)
    assert err.value.parameter == -0.002
    # in a stack of both families, with its own letter; 1e-9 from the
    # origin the uniform law certifies at once, and s goes before t
    for x, is_t, name, bad in (([1e-9, -0.002], [False, True], "t", -0.002),
                               ([-1e-9, 0.001], [True, False], "s", 0.001),
                               ([-0.002, 0.001], [True, False], "s", 0.001)):
        with pytest.raises(ConvergenceError, match=f"at {name} = {bad} "
                           ) as err:
            _worst_solve(np.array(x), HARD_4X2, np.array(is_t))
        assert err.value.parameter == bad


@pytest.mark.parametrize("falls", [None, -1.0], ids=["empties", "falls"])
def test_newton_step_that_never_rises_is_no_step(falls):
    # the step toward letter 0 is halved 60 times, until it is lost in
    # rounding, and then given up
    tried = []

    def value(q):
        tried.append(q)
        return falls

    p, D = np.array([0.5, 0.5]), np.array([1.0, 0.0])
    assert _newton_step(p, D, p @ D, 0.1, lambda S: np.eye(S.size),
                        value) is None
    assert len(tried) == 60
    assert tried[0][0] > 0.5 and np.array_equal(tried[-1], p)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_rates_rejected(bad):
    W_B, W_E, p = bsc(0.1), bsc(0.3), uniform(2)
    with pytest.raises(ValueError, match="finite"):
        exponent_sweep(W_B, [0.5, bad], p)
    with pytest.raises(ValueError, match="finite"):
        exponent_sweep(W_B, [bad], None)
    with pytest.raises(ValueError, match="finite"):
        wiretap_exponents(bad, 0.1, W_B, W_E, p)
    with pytest.raises(ValueError, match="finite"):
        wiretap_exponents(0.1, bad, W_B, W_E, p)
    with pytest.raises(ValueError, match="finite"):
        taylor_compare(bad, W_B, p)


def test_convexity_and_tangent_lower_bounds():
    rng = np.random.default_rng(23)
    for _ in range(20):
        W, p = dirichlet_law(rng, (2, 5))
        i_val = mutual_information(p, W)
        a, b = sorted(rng.uniform(0.01, 1.0, size=2))
        mid = 0.5 * (a + b)
        assert psi(mid, W, p) <= 0.5 * (psi(a, W, p) + psi(b, W, p)) + 1e-12
        ta, tb = sorted(rng.uniform(-0.5, -0.01, size=2))
        tm = 0.5 * (ta + tb)
        assert phi(tm, W, p) <= 0.5 * (phi(ta, W, p) + phi(tb, W, p)) + 1e-12
        # both curves pass through the origin with slope +/- I
        s = float(rng.uniform(0.01, 1.0))
        assert psi(s, W, p) >= s * i_val - 1e-9
        t = float(rng.uniform(-0.5, -0.01))
        assert phi(t, W, p) >= -t * i_val - 1e-9


def test_slopes_at_origin_equal_mutual_information():
    rng = np.random.default_rng(24)
    h = 1e-5
    for _ in range(10):
        W, p = dirichlet_law(rng, (2, 5))
        i_val = mutual_information(p, W)
        fd_psi = psi(h, W, p) / h
        fd_phi = phi(-h, W, p) / (-h)
        scale = max(i_val, 1e-6)
        assert abs(fd_psi - i_val) <= 1e-3 * scale
        assert abs(fd_phi - (-i_val)) <= 1e-3 * scale


def test_additive_over_independent_blocks():
    rng = np.random.default_rng(25)
    W = Channel(rng.dirichlet(np.ones(3), size=2))
    p = Distribution(rng.dirichlet(np.ones(2)))
    W2, p2 = product(W, 2), product_dist(p, 2)
    for s in (0.2, 0.7):
        assert math.isclose(psi(s, W2, p2), 2.0 * psi(s, W, p), rel_tol=1e-12)
    for t in (-0.4, -0.1):
        assert math.isclose(phi(t, W2, p2), 2.0 * phi(t, W, p), rel_tol=1e-12)


def test_worst_case_identity_and_constant():
    for s in (0.25, 0.5, 0.75):
        val, arg = psi_worst(s, identity_channel(2))
        assert math.isclose(val, s * math.log(2.0), rel_tol=1e-9)
        assert np.allclose(arg.probs, 0.5, atol=1e-6)
    val, _ = psi_worst(0.5, identity_channel(3))
    assert math.isclose(val, 0.5 * math.log(3.0), rel_tol=1e-9)
    # uniform-row constant: (sum_x p W^(1+s))^(1-s) = L^(s^2 - 1) per output
    val, _ = psi_worst(0.5, constant_channel([0.5, 0.5], 2))
    assert math.isclose(val, 0.25 * math.log(2.0), rel_tol=1e-9)
    # deterministic constant: a single output column, maximand == 1
    val, _ = psi_worst(0.5, constant_channel([1.0], 3))
    assert abs(val) <= 1e-12
    for t in (-0.5, -0.25):
        val, arg = phi_worst(t, identity_channel(2))
        assert math.isclose(val, -t * math.log(2.0), rel_tol=1e-9)
        assert np.allclose(arg.probs, 0.5, atol=1e-6)


def test_worst_case_degenerate_s_one():
    # at s = 1 the maximand no longer depends on p and counts the
    # output columns reachable from some input
    val, _ = psi_worst(1.0, identity_channel(3))
    assert val == math.log(3.0)
    W = Channel(np.array([[0.5, 0.5, 0.0], [0.3, 0.7, 0.0]]))
    val, _ = psi_worst(1.0, W)
    assert val == math.log(2.0)


def test_worst_case_domain():
    with pytest.raises(ValueError):
        psi_worst(1.2, bsc(0.1))
    with pytest.raises(ValueError):
        psi_worst(-0.1, bsc(0.1))
    with pytest.raises(ValueError):
        phi_worst(0.1, bsc(0.1))
    with pytest.raises(ValueError):
        phi_worst(-0.6, bsc(0.1))
    with pytest.raises(ValueError, match=r"^s must lie in \[0, 1\]$"):
        psi_worst(math.nan, bsc(0.1))
    with pytest.raises(ValueError, match=r"^t must lie in \[-1/2, 0\]$"):
        phi_worst(math.nan, bsc(0.1))
    # a stack of both families checks each parameter against its own range
    with pytest.raises(ValueError, match=r"^t must lie in \[-1/2, 0\]$"):
        _worst_solve([0.5, 0.5], bsc(0.1), [False, True])
    with pytest.raises(ValueError, match=r"^s must lie in \[0, 1\]$"):
        _worst_solve([-0.25, -0.25], bsc(0.1), [True, False])


@pytest.mark.parametrize("solve, name, x", [
    (psi_worst, "s", np.array([0.1, 0.5])),
    (psi_worst, "s", [0.1]),
    (phi_worst, "t", np.array([[-0.2]])),
    (phi_worst, "t", (-0.1, -0.3)),
])
def test_worst_case_refuses_an_array_parameter(solve, name, x):
    # it solved the whole array and returned the first value alone
    text = f"{name} must be a scalar, got shape {np.shape(x)}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        solve(x, bsc(0.1))


def test_worst_case_values_where_the_3x5_channel_certifies():
    # the solves fail near the origin here (s up to 0.02, t down to
    # -0.1); a mend for those must keep these values
    W = Channel(np.array(CHANNEL_3X5_ROWS))
    for solve, x, value in ((psi_worst, 0.1, 0.07397726534423418),
                            (psi_worst, 0.5, 0.4777672811646211),
                            (phi_worst, -0.3, 0.20757114519753342),
                            (phi_worst, -0.5, 0.34683846046772326)):
        assert math.isclose(solve(x, W)[0], value, rel_tol=1e-12)


def test_worst_case_takes_numpy_scalars():
    W = bsc(0.1)
    for x in (np.float64(0.3), np.array(0.3)):
        assert psi_worst(x, W)[0] == psi_worst(0.3, W)[0]
        assert phi_worst(-x, W)[0] == phi_worst(-0.3, W)[0]


def worst_psi_maximand(s, W, p):
    # p sits inside the power here, unlike the fixed-law psi
    return math.log(float(np.sum((p.probs @ W.rows ** (1.0 + s)) ** (1.0 - s))))


def test_worst_case_dominates_fixed_laws():
    rng = np.random.default_rng(26)
    for _ in range(10):
        K = int(rng.integers(2, 5))
        L = int(rng.integers(2, 5))
        W = Channel(rng.dirichlet(np.ones(L), size=K))
        s = float(rng.uniform(0.05, 0.95))
        t = float(rng.uniform(-0.5, -0.05))
        psi_val, psi_arg = psi_worst(s, W)
        phi_val, phi_arg = phi_worst(t, W)
        for _ in range(20):
            q = Distribution(rng.dirichlet(np.ones(K)))
            assert psi_val >= worst_psi_maximand(s, W, q) - 1e-8
            assert psi_val >= psi(s, W, q) - 1e-8
            assert phi_val >= phi(t, W, q) - 1e-8
        # the returned argmax achieves the returned value
        assert math.isclose(psi_val, worst_psi_maximand(s, W, psi_arg),
                            rel_tol=1e-9, abs_tol=1e-11)
        assert math.isclose(phi_val, phi(t, W, phi_arg), rel_tol=1e-9,
                            abs_tol=1e-11)


def test_worst_case_certified_fast_near_origin():
    s, t = 0.001, -0.001
    start = time.perf_counter()
    psi_val, psi_arg = psi_worst(s, HARD_4X2)
    phi_val, phi_arg = phi_worst(t, HARD_4X2)
    assert time.perf_counter() - start < 1.0
    for val, arg, A, c in (
            (psi_val, psi_arg, HARD_4X2.rows ** (1.0 + s), 1.0 - s),
            (phi_val, phi_arg, HARD_4X2.rows ** (1.0 / (1.0 + t)), 1.0 + t)):
        g = arg.probs @ A
        D = A @ g ** (c - 1.0)
        F = float(arg.probs @ D)
        assert _kkt_residual(arg.probs, D, F) <= _KKT_TOL
        assert math.isclose(val, math.log(F), rel_tol=1e-9)
        assert val >= math.log(float(np.sum((np.full(4, 0.25) @ A) ** c)))


def test_worst_case_one_dim_grid_oracle():
    # brute force over p = (q, 1-q) for a 2-input channel
    rng = np.random.default_rng(27)
    W = Channel(rng.dirichlet(np.ones(3), size=2))
    s = 0.4
    best = -math.inf
    for q in np.linspace(0.0, 1.0, 20001):
        p = np.array([q, 1.0 - q])
        best = max(best, float(np.sum((p @ W.rows ** 1.4) ** 0.6)))
    val, _ = psi_worst(s, W)
    assert math.isclose(val, math.log(best), rel_tol=1e-7)


def test_worst_case_symmetric_channel_uniform():
    W = bsc(0.1)
    for t in (-0.5, -0.2):
        val, arg = phi_worst(t, W)
        assert math.isclose(val, phi(t, W, uniform(2)), rel_tol=1e-8,
                            abs_tol=1e-10)
        assert np.allclose(arg.probs, 0.5, atol=1e-4)


def test_exponent_sweep_structure(monkeypatch):
    W, p = bsc(0.1), uniform(2)
    reports = exponent_sweep(W, [0.5, 0.8], p)
    assert [r.family for r in reports[:6]] == [
        "vd_psi", "kl_phi", "vd_phi_half", "vd_psi_worst", "kl_phi_worst",
        "vd_phi_half_worst"]
    assert len(reports) == 12
    worst_only = exponent_sweep(W, [0.5], None)
    assert [r.family for r in worst_only] == [
        "vd_psi_worst", "kl_phi_worst", "vd_phi_half_worst"]
    with pytest.raises(ValueError):
        exponent_sweep(W, [-0.1], p)

    def evaluated(*args):
        raise AssertionError("an empty sweep evaluated psi or phi")

    for name in ("psi", "phi", "_curve", "_powers", "_worst_solve"):
        monkeypatch.setattr(exponents, name, evaluated)
    assert exponent_sweep(W, [], p) == []
    assert exponent_sweep(W, [], None) == []


def test_exponents_zero_at_and_below_capacity():
    W, p = bsc(0.1), uniform(2)
    i_val = mutual_information(p, W)
    for R in (0.0, 0.5 * i_val, i_val):
        for rep in exponent_sweep(W, [R], p):
            if rep.family.endswith("_worst") and R == i_val:
                # exactly at capacity the optimizer sits at s = 0 and
                # the certified solver can leave rounding dust behind
                assert rep.bound_value <= 1e-15
            else:
                assert rep.bound_value == 0.0


def test_exponents_monotone_in_rate():
    W, p = bsc(0.1), uniform(2)
    rates = [0.4, 0.5, 0.6, 0.69]
    by_family = {}
    for rep in exponent_sweep(W, rates, p):
        by_family.setdefault(rep.family, []).append(rep.bound_value)
    for vals in by_family.values():
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_identity_rate_closed_forms():
    # noiseless channel: psi route gives (R - log K)/2 exactly, phi
    # route gives the same value to rounding, and the halved phi bound
    # shares its optimizer with the kl bound
    W, p = identity_channel(2), uniform(2)
    R = 1.0
    reports = {r.family: r for r in exponent_sweep(W, [R], p)}
    expected = (R - math.log(2.0)) / 2.0
    assert reports["vd_psi"].bound_value == expected
    assert math.isclose(reports["kl_phi"].bound_value, expected, rel_tol=1e-12)
    assert reports["vd_phi_half"].bound_value == (
        reports["kl_phi"].bound_value / 2.0)
    assert reports["vd_phi_half"].optimizer == reports["kl_phi"].optimizer
    # worst families agree with the given uniform law on this channel
    assert math.isclose(reports["vd_psi_worst"].bound_value, expected,
                        rel_tol=1e-8)


def test_wiretap_exponents_fields():
    W_B, W_E, p = bsc(0.1), bsc(0.3), uniform(2)
    rep = wiretap_exponents(0.05, 0.2, W_B, W_E, p)
    assert rep.error_exponent >= 0.0
    assert rep.leak_kl_exponent > 0.0          # R' above Eve's capacity
    assert rep.leak_vd_exponent_phi == rep.leak_kl_exponent / 2.0
    assert rep.leak_vd_exponent_psi >= rep.leak_vd_exponent_phi - 1e-12
    # tiny rates push the error optimizer to the s = 1 edge
    assert wiretap_exponents(0.001, 0.001, W_B, W_E, p).error_saturated
    assert not wiretap_exponents(1.0, 1.0, W_B, W_E, p).error_saturated
    # large R' pushes the divergence optimizer to the t = -1/2 edge
    assert wiretap_exponents(0.05, 1.0, W_B, W_E, p).leak_kl_saturated
    with pytest.raises(ValueError):
        wiretap_exponents(-0.1, 0.1, W_B, W_E, p)
    with pytest.raises(ValueError):
        wiretap_exponents(0.1, 0.1, bsc(0.1), identity_channel(3), p)


def test_capacity_closed_forms():
    for w in (0.05, 0.1, 0.25):
        res = capacity(bsc(w))
        assert abs(res.value - (math.log(2.0) - binary_entropy(w))) <= 1e-9
        assert np.allclose(res.argmax.probs, 0.5, atol=1e-4)
        assert res.residual <= 1e-8
    for K in (2, 3, 4):
        res = capacity(identity_channel(K))
        assert res.value == math.log(K)
        assert res.iterations == 1
    assert capacity(constant_channel([0.3, 0.7], 3)).value == 0.0


def test_capacity_convergence_error(monkeypatch):
    W = Channel(np.array(Z_ROWS))
    # reachable in 5 iterations
    assert capacity(W, tol=1e-15).iterations == 5
    monkeypatch.setattr(exponents, "_CAPACITY_ITER", 3)
    with pytest.raises(ConvergenceError) as err:
        capacity(W, tol=1e-30)
    assert err.value.best_value is not None
    assert err.value.residual is not None
    # stopped by the cap
    with pytest.raises(ConvergenceError, match="not certified after 3 "):
        capacity(W, tol=1e-15)


def test_capacity_stall_stop_keeps_every_certified_result(monkeypatch):
    # the first channels of two random families, one of which stalls
    channels = [*_rounded_channels(5, 60, (2, 5)),
                *_rounded_channels(6, 10, (5, 17))]

    def run():
        out = []
        for W in channels:
            try:
                r = capacity(W)
                out.append((r.value, r.argmax.probs.tolist(), r.iterations,
                            r.residual))
            except ConvergenceError as exc:
                out.append(str(exc))
        return out

    fast = run()
    monkeypatch.setattr(exponents, "_STALL_ITER", exponents._CAPACITY_ITER)
    full = run()
    failed = [i for i, r in enumerate(full) if isinstance(r, str)]
    assert failed and all(isinstance(fast[i], str) for i in failed)
    assert [r for r in fast if not isinstance(r, str)] == [
        r for r in full if not isinstance(r, str)]
    assert all("after 1000 iterations" not in fast[i] for i in failed)


def test_info_max_stall_returns_the_best_law(monkeypatch):
    # 20 steps that do not raise the best value (step 154's) end the
    # ascent
    W = np.array(STALL_4X4_ROWS)
    values, step = [], exponents._newton_step

    def newton_step(p, D, F, *args):
        values.append(F)
        return step(p, D, F, *args)

    monkeypatch.setattr(exponents, "_newton_step", newton_step)
    p, F, it, resid = exponents._info_max(W, np.zeros(4), np.full(4, 0.25),
                                          1e-8, exponents._CAPACITY_ITER)
    assert it == 174 and len(values) == 173
    assert F == max(values) == values[153]
    assert F == float(p @ channel._kl_rows(W, p @ W))
    assert resid == float(np.max(channel._kl_rows(W, p @ W))) - F > 1e-8


@pytest.mark.parametrize("tol", [-1.0, math.nan, 0.0, math.inf])
def test_capacity_rejects_invalid_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        capacity(bsc(0.1), tol=tol)


def _capacity_cases() -> dict:
    rng = np.random.default_rng(2024)
    cases = {f"dense-{K}x{Y}": rng.dirichlet(np.ones(Y), size=K)
             for K, Y in ((16, 16), (64, 16), (256, 4))}
    for K, Y in ((8, 8), (16, 6), (12, 24)):
        rows = rng.dirichlet(np.ones(Y), size=K) * (rng.random((K, Y)) < 0.4)
        rows[np.arange(K), rng.integers(0, Y, K)] += 0.05
        cases[f"sparse-{K}x{Y}"] = rows / rows.sum(axis=1, keepdims=True)
    rows = rng.dirichlet(np.ones(5), size=6)
    rows[:, 2] = 0.0
    cases["zero-column-6x5"] = rows / rows.sum(axis=1, keepdims=True)
    return cases


CAPACITY_CASES = _capacity_cases()


@pytest.mark.parametrize("name", sorted(CAPACITY_CASES))
def test_capacity_equals_alternating_maximization(name):
    W = Channel(CAPACITY_CASES[name])
    res = capacity(W)
    ref = _alternating_capacity(W)
    assert res.value >= ref - 1e-12
    assert abs(res.value - ref) <= 1e-8
    assert res.residual <= 1e-8


def test_capacity_z_channel_closed_form():
    # input 1 crosses to output 0 with probability q; with
    # z = q^(q/(1-q)), the capacity is log(1 + (1-q) z), reached at
    # P(input 1) = z / (1 + (1-q) z)
    q = 0.3
    z = q ** (q / (1.0 - q))
    res = capacity(Channel(np.array([[1.0, 0.0], [q, 1.0 - q]])))
    assert abs(res.argmax.probs[1] - z / (1.0 + (1.0 - q) * z)) <= 1e-10
    assert math.isclose(res.value, math.log1p((1.0 - q) * z), rel_tol=1e-12)


def test_secrecy_rate_and_lower_bound():
    W_B, W_E, p = bsc(0.1), bsc(0.3), uniform(2)
    closed = binary_entropy(0.3) - binary_entropy(0.1)
    assert math.isclose(secrecy_rate(W_B, W_E, p), closed, rel_tol=1e-12)
    assert secrecy_rate(W_E, W_B, p) < 0.0
    val, arg = secrecy_capacity_lb(W_B, W_E)
    assert math.isclose(val, closed, rel_tol=1e-6)
    # the reported value is the exact rate of the reported law
    assert math.isclose(val, secrecy_rate(W_B, W_E, arg), rel_tol=1e-12,
                        abs_tol=1e-15)
    same, _ = secrecy_capacity_lb(W_B, W_B)
    assert abs(same) <= 1e-9
    with pytest.raises(ValueError):
        secrecy_rate(bsc(0.1), identity_channel(3), p)


def test_taylor_compare():
    W, p = bsc(0.1), uniform(2)
    R = mutual_information(p, W) + 0.02
    cmp_ = taylor_compare(R, W, p)
    assert math.isclose(cmp_.Delta, 0.02, rel_tol=1e-9)
    assert cmp_.approx_psi == 2.0 * cmp_.approx_phi_half
    assert cmp_.exact_psi_bound > 0.0
    assert cmp_.exact_phi_half_bound > 0.0
    with pytest.raises(ValueError):
        taylor_compare(1.0, identity_channel(2), uniform(2))


def test_taylor_compare_refuses_past_the_float_range():
    with pytest.raises(ValueError, match="float range"):
        taylor_compare(1e200, bsc(0.1), uniform(2))


def test_taylor_compare_solves_no_worst_case(monkeypatch):
    R = 0.4
    by_family = {r.family: r for r in exponent_sweep(ASYM, [R], ASYM_P)}

    def refuse(*args):
        raise AssertionError("worst-case solve")

    monkeypatch.setattr(exponents, "_worst_solve", refuse)
    cmp_ = taylor_compare(R, ASYM, ASYM_P)
    assert cmp_.exact_psi_bound == by_family["vd_psi"].bound_value
    assert cmp_.exact_phi_half_bound == by_family["vd_phi_half"].bound_value
