"""Tail functionals delta / delta_prime and the density spectrum."""

import math
import time

import numpy as np
import pytest

from chanres import (
    BudgetError,
    Channel,
    Distribution,
    EnumerationBudget,
    TailPair,
    bsc,
    eta,
    identity_channel,
    product,
    product_dist,
    spectrum_cdf,
    tail_pair,
    product_tail_pair,
    uniform,
)


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


def test_tail_pair_bsc():
    tp = tail_pair(uniform(2), bsc(0.1), 1.5)
    # ratios are 1.8 (match) and 0.2 (flip): only matches exceed 1.5
    assert math.isclose(tp.delta, 0.9, rel_tol=1e-15)
    assert math.isclose(tp.delta_prime, 2.0 * 0.5 * 0.1 * 0.2, rel_tol=1e-13)
    assert tp.threshold_C == 1.5


def test_tail_pair_threshold_is_strict():
    # both match atoms sit exactly at ratio 1.8: strict > excludes them,
    # so the inclusive second moment absorbs every cell
    tp = tail_pair(uniform(2), bsc(0.1), 1.8)
    assert tp.delta == 0.0
    oracle = 2.0 * 0.5 * (0.9 * 1.8 + 0.1 * 0.2)
    assert math.isclose(tp.delta_prime, oracle, rel_tol=1e-13)


def test_tail_pair_identity():
    tp = tail_pair(uniform(2), identity_channel(2), 2.0)
    assert tp.delta == 0.0
    assert tp.delta_prime == 2.0       # == C, the extreme allowed value
    tp = tail_pair(uniform(2), identity_channel(2), 1.9)
    assert tp.delta == 1.0
    assert tp.delta_prime == 0.0


def test_tail_pair_dead_output_column():
    # an output with W_p = 0 reachable only off-support never contributes
    W = Channel(np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    p = Distribution(np.array([1.0, 0.0]))
    tp = tail_pair(p, W, 1.5)
    assert tp.delta == 0.0
    assert math.isclose(tp.delta_prime, 1.0, rel_tol=1e-15)


def test_tail_pair_matches_oracle_random():
    rng = np.random.default_rng(11)
    for _ in range(300):
        K = int(rng.integers(2, 7))
        L = int(rng.integers(2, 7))
        W = Channel(rng.dirichlet(np.ones(L), size=K))
        p = Distribution(rng.dirichlet(np.ones(K)))
        C = float(rng.uniform(0.05, 4.0))
        d0, dp0 = tail_oracle(p, W, C)
        tp = tail_pair(p, W, C)
        assert math.isclose(tp.delta, d0, rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(tp.delta_prime, dp0, rel_tol=1e-12, abs_tol=1e-14)


def test_delta_prime_never_exceeds_threshold():
    rng = np.random.default_rng(12)
    for _ in range(200):
        K = int(rng.integers(2, 7))
        L = int(rng.integers(2, 7))
        W = Channel(rng.dirichlet(np.ones(L), size=K))
        p = Distribution(rng.dirichlet(np.ones(K)))
        C = float(rng.uniform(0.05, 5.0))
        tp = tail_pair(p, W, C)
        assert tp.delta_prime <= C
        assert 0.0 <= tp.delta <= 1.0


def test_delta_monotone_in_threshold():
    rng = np.random.default_rng(13)
    W = Channel(rng.dirichlet(np.ones(4), size=3))
    p = Distribution(rng.dirichlet(np.ones(3)))
    deltas = [tail_pair(p, W, C).delta for C in (0.25, 0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(deltas, deltas[1:]))


def test_tail_pair_validation():
    with pytest.raises(ValueError):
        tail_pair(uniform(2), bsc(0.1), 0.0)
    with pytest.raises(ValueError):
        TailPair(delta=1.5, delta_prime=0.0, threshold_C=1.0)
    with pytest.raises(ValueError):
        TailPair(delta=0.5, delta_prime=1.1, threshold_C=1.0)
    # sub-tolerance overshoot is clamped, not rejected
    tp = TailPair(delta=1.0 + 1e-12, delta_prime=0.0, threshold_C=1.0)
    assert tp.delta == 1.0


def test_product_tail_equals_single_letter_at_n1():
    rng = np.random.default_rng(14)
    for _ in range(50):
        K = int(rng.integers(2, 5))
        L = int(rng.integers(2, 5))
        W = Channel(rng.dirichlet(np.ones(L), size=K))
        p = Distribution(rng.dirichlet(np.ones(K)))
        C = float(rng.uniform(0.3, 3.0))
        a = tail_pair(p, W, C)
        b = product_tail_pair(p, W, C, 1)
        assert math.isclose(a.delta, b.delta, rel_tol=1e-12, abs_tol=1e-14)
        assert math.isclose(a.delta_prime, b.delta_prime,
                            rel_tol=1e-12, abs_tol=1e-14)


def test_product_tail_many_letter_densities():
    # K = 40 gives 1,600 distinct letter densities, one class each at n = 1
    K = 40
    W = Channel(np.random.default_rng(1).dirichlet(np.ones(K), size=K))
    start = time.perf_counter()
    fast = product_tail_pair(uniform(K), W, math.e, 1)
    assert time.perf_counter() - start < 1.0
    slow = tail_pair(uniform(K), W, math.e)
    assert math.isclose(fast.delta, slow.delta, rel_tol=1e-12)
    assert math.isclose(fast.delta_prime, slow.delta_prime, rel_tol=1e-12)


def test_product_tail_matches_materialized_product():
    rng = np.random.default_rng(15)
    for _ in range(20):
        K = int(rng.integers(2, 4))
        L = int(rng.integers(2, 4))
        W = Channel(rng.dirichlet(np.ones(L), size=K))
        p = Distribution(rng.dirichlet(np.ones(K)))
        C = float(rng.uniform(0.3, 3.0))
        fast = product_tail_pair(p, W, C, 3)
        slow = tail_pair(product_dist(p, 3), product(W, 3), C)
        assert math.isclose(fast.delta, slow.delta, rel_tol=1e-10, abs_tol=1e-12)
        assert math.isclose(fast.delta_prime, slow.delta_prime,
                            rel_tol=1e-10, abs_tol=1e-12)


def test_product_tail_binomial_closed_form():
    # BSC(0.1), uniform input, n = 4, C = e: a block exceeds the
    # threshold iff all four coordinates match (density 4*log 1.8 > 1,
    # any flip drops it below), so delta = 0.9^4 and the truncated
    # second moment is (full second moment)^4 minus the over part
    tp = product_tail_pair(uniform(2), bsc(0.1), math.e, 4)
    assert math.isclose(tp.delta, 0.9 ** 4, rel_tol=1e-13)
    second_full = (2.0 * 0.5 * (0.9 ** 2 / 0.5 + 0.1 ** 2 / 0.5)) ** 4
    over_part = (0.9 * 1.8) ** 4
    assert math.isclose(tp.delta_prime, second_full - over_part, rel_tol=1e-12)
    assert math.isclose(tp.delta_prime, 0.34647280000000047, rel_tol=1e-12)


def test_product_tail_budget():
    # the budget counts type classes: nine distinct letter densities give
    # C(38, 8) = 48,903,492 classes at n = 30
    W = Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]))
    p = Distribution(np.array([0.5, 0.3, 0.2]))
    with pytest.raises(BudgetError, match="needs 48903492 "):
        product_tail_pair(p, W, 1.5, 30, EnumerationBudget(10 ** 6))
    with pytest.raises(BudgetError, match="needs 48903492 "):
        spectrum_cdf(p, W, 0.0, 30, EnumerationBudget(10 ** 6))


def test_product_tail_bsc_n30_within_budget():
    # 31 classes, where the 4^30 atoms would be far over the cap; a class
    # with k flips has density (n - k) log 1.8 + k log 0.2
    n, C = 30, 1.5
    tp = product_tail_pair(uniform(2), bsc(0.1), C, n, EnumerationBudget(31))
    delta = delta_prime = 0.0
    for k in range(n + 1):
        mass = math.comb(n, k) * 0.9 ** (n - k) * 0.1 ** k
        dens = (n - k) * math.log(1.8) + k * math.log(0.2)
        if dens > math.log(C):
            delta += mass
        else:
            delta_prime += mass * math.exp(dens)
    assert tp.delta == pytest.approx(delta, rel=1e-12)
    assert tp.delta_prime == pytest.approx(delta_prime, rel=1e-12)
    with pytest.raises(BudgetError, match="needs 31 "):
        product_tail_pair(uniform(2), bsc(0.1), C, n, EnumerationBudget(30))


def test_spectrum_cdf_bsc():
    # density is log 1.8 on matches and log 0.2 on flips; at a = 0 only
    # the flip mass (total 0.1) lies at or below
    val = spectrum_cdf(uniform(2), bsc(0.1), 0.0)
    assert math.isclose(val, 0.1, rel_tol=1e-13)
    assert spectrum_cdf(uniform(2), bsc(0.1), 0.6) == pytest.approx(1.0)
    assert spectrum_cdf(uniform(2), bsc(0.1), -2.0) == 0.0
    with pytest.raises(ValueError, match="^a must not be NaN$"):
        spectrum_cdf(uniform(2), bsc(0.1), math.nan, 2)


def test_spectrum_cdf_identity_inclusive_edge():
    # every atom of the identity channel has density exactly log 2 per
    # coordinate, so the inclusive cdf jumps to 1 exactly at a = log 2
    assert spectrum_cdf(uniform(2), identity_channel(2), math.log(2.0), 2) == 1.0
    assert spectrum_cdf(uniform(2), identity_channel(2), 0.69, 2) == 0.0


@pytest.mark.parametrize("b", [2, 4])
def test_lattice_threshold_tie_rule(b):
    # uniform input on identity_channel(b): every product pair has
    # density exactly n*log(b), one letter repeated n times, so both
    # thresholds sit on the lattice; the cdf is inclusive there and
    # delta strict for every n, also where adding log(b) n times one by
    # one rounds away from n*log(b)
    p, W = uniform(b), identity_channel(b)
    for n in range(1, 13):
        edge = n * math.log(b)
        assert spectrum_cdf(p, W, math.log(b), n) == 1.0
        assert spectrum_cdf(p, W, math.log(b) - 1e-12, n) == 0.0
        C = float(b ** n)
        assert math.log(C) == edge
        tp = product_tail_pair(p, W, C, n)
        assert tp.delta == 0.0
        assert math.isclose(tp.delta_prime, C, rel_tol=1e-12)
        below = product_tail_pair(p, W, C * (1.0 - 1e-12), n)
        assert below.delta == 1.0 and below.delta_prime == 0.0


def test_spectrum_cdf_partitions_with_delta():
    # P{density <= n*a} + delta(C = e^{n*a}) covers everything once:
    # the cdf is inclusive and delta is strict on the same atoms
    rng = np.random.default_rng(16)
    for _ in range(40):
        K = int(rng.integers(2, 5))
        L = int(rng.integers(2, 5))
        W = Channel(rng.dirichlet(np.ones(L), size=K))
        p = Distribution(rng.dirichlet(np.ones(K)))
        a = float(rng.uniform(-1.0, 1.0))
        for n in (1, 2):
            cdf = spectrum_cdf(p, W, a, n)
            tp = product_tail_pair(p, W, math.exp(n * a), n)
            assert math.isclose(cdf + tp.delta, 1.0, rel_tol=1e-9)


def test_eta():
    assert eta(0.0) == 0.0
    assert eta(1.0) == 0.0
    assert math.isclose(eta(1.0 / math.e), 1.0 / math.e, rel_tol=1e-15)
    assert math.isclose(eta(0.5), 0.5 * math.log(2.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        eta(-0.1)
    with pytest.raises(ValueError):
        eta(1.1)


@pytest.mark.parametrize("C", [math.nan, math.inf])
def test_non_finite_threshold_rejected(C):
    W, p = bsc(0.1), uniform(2)
    with pytest.raises(ValueError, match="finite"):
        tail_pair(p, W, C)
    with pytest.raises(ValueError, match="finite"):
        product_tail_pair(p, W, C, 2)
    with pytest.raises(ValueError, match="finite"):
        TailPair(delta=0.5, delta_prime=0.0, threshold_C=C)
