"""Codebook sampling, exact gap evaluation, Monte Carlo vs bounds."""

import math
import threading
import tracemalloc

import numpy as np
import pytest

from chanres import (
    BudgetError,
    Channel,
    Distribution,
    EnumerationBudget,
    McEstimate,
    ResolvabilityCode,
    brute_force_min,
    bsc,
    constant_channel,
    eval_code,
    expectation_bounds,
    identity_channel,
    mc_expectation,
    output_distribution,
    point_mass,
    product,
    sample_code,
    size_ceiling_check,
    uniform,
)
from chanres import channel
from chanres.channel import _kron_chain
from chanres.exponents import phi
from chanres.resolvability import PHI_T_GRID
from chanres.rng import sample_indices, stream
from corpus import ASYM, ASYM_P, Z_ROWS


def test_code_validation():
    with pytest.raises(ValueError, match="^M must be an integer >= 1, got 0$"):
        ResolvabilityCode(())
    with pytest.raises(ValueError):
        ResolvabilityCode((-1,))
    code = ResolvabilityCode((1, 1, 0))
    assert code.codewords == (1, 1, 0)


def test_sample_code_deterministic():
    p = uniform(3)
    a = sample_code(p, 5, seed=9)
    b = sample_code(p, 5, seed=9)
    assert a.codewords == b.codewords
    assert sample_code(p, 5, seed=10).codewords != a.codewords
    assert sample_code(point_mass(1, 3), 4, seed=0).codewords == (1, 1, 1, 1)
    with pytest.raises(ValueError):
        sample_code(p, 0, seed=1)


def test_sample_code_frequencies():
    p = uniform(2)
    draws = [sample_code(p, 1, seed=s).codewords[0] for s in range(2000)]
    ones = sum(draws)
    # 5 sigma band around the binomial mean
    assert abs(ones - 1000) <= 5 * math.sqrt(2000 * 0.25)


def test_eval_code_oracle():
    W, p = bsc(0.1), uniform(2)
    eps, div = eval_code(ResolvabilityCode((0,)), W, p)
    assert math.isclose(eps, 0.8, rel_tol=1e-14)
    assert math.isclose(div, 0.36806420716849714, rel_tol=1e-14)
    eps, div = eval_code(ResolvabilityCode((0, 1)), W, p)
    assert eps == 0.0 and div == 0.0
    with pytest.raises(ValueError):
        eval_code(ResolvabilityCode((2,)), W, p)


def test_eval_code_infinite_divergence():
    W = identity_channel(2)
    p = point_mass(0, 2)
    eps, div = eval_code(ResolvabilityCode((1,)), W, p)
    assert eps == 2.0
    assert div == math.inf


def test_expectation_bounds_frozen():
    W, p = bsc(0.1), uniform(2)
    tp, vd, kl_eta, kl_phi = expectation_bounds(p, W, 1, 1.64)
    assert math.isclose(tp.delta, 0.9, rel_tol=1e-14)
    assert math.isclose(tp.delta_prime, 0.02, rel_tol=1e-12)
    assert math.isclose(vd, 2 * 0.9 + math.sqrt(0.02), rel_tol=1e-13)
    assert math.isclose(vd, 1.9414213562373095, rel_tol=1e-13)
    eta_oracle = -0.9 * math.log(0.9) + 0.9 * math.log(2.0) + 0.02
    assert math.isclose(kl_eta, eta_oracle, rel_tol=1e-12)
    assert math.isclose(kl_eta, 0.7386569265959945, rel_tol=1e-13)
    phi_oracle = min(
        math.log1p(math.exp(t * 0.0 + phi(t, W, p))) / (-t) for t in PHI_T_GRID)
    assert math.isclose(kl_phi, phi_oracle, rel_tol=1e-14)
    assert math.isclose(kl_phi, 1.648898922670098, rel_tol=1e-13)
    with pytest.raises(ValueError):
        expectation_bounds(p, W, 0, 1.64)


def test_expectation_bounds_product_blocks():
    W, p = bsc(0.1), uniform(2)
    tp, vd, kl_eta, kl_phi = expectation_bounds(p, W, 16, math.e, n=4)
    assert math.isclose(tp.delta, 0.9 ** 4, rel_tol=1e-13)
    assert math.isclose(tp.delta_prime, 0.34647280000000047, rel_tol=1e-12)
    # the eta-route divergence term scales the output alphabet by n
    d = tp.delta
    eta_oracle = -d * math.log(d) + d * 4 * math.log(2.0) + tp.delta_prime / 16
    assert math.isclose(kl_eta, eta_oracle, rel_tol=1e-12)
    assert vd > 0 and kl_phi > 0


def test_mc_expectation_validation():
    W, p = bsc(0.1), uniform(2)
    with pytest.raises(ValueError):
        mc_expectation(p, W, 4, 1.5, trials=50, seed=1)
    with pytest.raises(ValueError):
        mc_expectation(p, W, 0, 1.5, trials=100, seed=1)
    with pytest.raises(ValueError):
        McEstimate(mean=0.1, std_error=0.0, trials=1, bound=1.0)


def test_mc_expectation_dense_and_streamed_paths_agree():
    # a zero channel entry keeps the tail enumeration at 9 atoms while
    # the dense product would need 16 states, so a cap of 9 forces the
    # per-word path; the numbers must not depend on which path ran
    W = Channel(np.array(Z_ROWS))
    p = uniform(2)
    kwargs = dict(trials=100, seed=7, n=2)
    dense = mc_expectation(p, W, 3, 1.5, **kwargs)
    lean = mc_expectation(p, W, 3, 1.5, budget=EnumerationBudget(9), **kwargs)
    for a, b in zip(dense, lean):
        assert a.mean == b.mean
        assert a.std_error == b.std_error


def test_mc_expectation_budget_error():
    with pytest.raises(BudgetError):
        mc_expectation(uniform(2), bsc(0.1), 4, 1.5, trials=100, seed=1, n=30)


def test_mc_mean_matches_binomial_oracle():
    # identity channel: the distance of a sampled code is a function of
    # its symbol counts, so the exact mean is a binomial sum
    W, p = identity_channel(2), uniform(2)
    M = 8
    exact_mean = sum(
        math.comb(M, c) / 2.0 ** M * 2.0 * abs(c / M - 0.5) for c in range(M + 1)
    )
    est_vd, _, _ = mc_expectation(p, W, M, 2.5, trials=400, seed=11)
    spread = max(est_vd.std_error, 1e-6)
    assert abs(est_vd.mean - exact_mean) <= 4.0 * spread


def test_mc_mean_decays_with_codebook_size():
    W, p = identity_channel(2), uniform(2)
    means = []
    for M in (16, 64, 256):
        est_vd, est_eta, est_phi = mc_expectation(
            p, W, M, 2.5, trials=200, seed=13)
        means.append(est_vd.mean)
        assert est_vd.mean <= est_vd.bound + 3.0 * est_vd.std_error
        assert est_eta.mean <= est_eta.bound + 3.0 * est_eta.std_error
        assert est_phi.mean <= est_phi.bound + 3.0 * est_phi.std_error
    assert means[0] > means[1] > means[2]


def test_sampled_codes_respect_pinsker():
    W, p = bsc(0.1), uniform(2)
    for s in range(50):
        code = sample_code(p, 3, seed=s)
        eps, div = eval_code(code, W, p)
        assert div >= eps * eps / 2.0 - 1e-12


def test_brute_force_min():
    W, p = identity_channel(2), uniform(2)
    res = brute_force_min(1, W, p)
    assert res.eps_min == 1.0
    res = brute_force_min(2, W, p)
    assert res.eps_min == 0.0
    assert tuple(sorted(res.best_code.codewords)) == (0, 1)
    assert res.div_min == 0.0
    # the reported minimizers achieve the reported minima
    eps, _ = eval_code(res.best_code, W, p)
    _, div = eval_code(res.best_code_div, W, p)
    assert eps == res.eps_min and div == res.div_min
    res = brute_force_min(2, bsc(0.1), uniform(2))
    assert res.eps_min == 0.0
    with pytest.raises(BudgetError, match="^brute force would scan 1623160 "
                       "multisets, over the cap of 1000000$"):
        brute_force_min(6, identity_channel(30), uniform(30))
    with pytest.raises(ValueError):
        brute_force_min(0, W, p)


def test_size_ceiling_check():
    v = size_ceiling_check(0.2, 0.2, 0.3, input_size=3, M=2)
    assert v.hypothesis_holds and v.size_ceiling == 9
    v = size_ceiling_check(0.2, 0.2, 0.7, input_size=3, M=2)
    assert not v.hypothesis_holds and v.size_ceiling is None
    with pytest.raises(ValueError):
        size_ceiling_check(1.2, 0.0, 0.1, 2, 2)
    with pytest.raises(ValueError):
        size_ceiling_check(0.0, 0.0, -0.1, 2, 2)
    with pytest.raises(ValueError, match="^eps must be nonnegative$"):
        size_ceiling_check(0.1, 0.1, math.nan, 2, 3)


def test_mc_expectation_does_not_depend_on_the_budget():
    # a cap of 10000 states is below the 2^16-state W^8, which must not
    # change a single bit of the estimates
    W = Channel(np.array(Z_ROWS))
    p = uniform(2)
    kwargs = dict(trials=300, seed=0, n=8)
    lean = mc_expectation(p, W, 16, math.e, budget=EnumerationBudget(10000),
                          **kwargs)
    full = mc_expectation(p, W, 16, math.e, **kwargs)
    for a, b in zip(lean, full):
        assert a.mean == b.mean
        assert a.std_error == b.std_error


def test_mc_expectation_runs_without_threads(monkeypatch):
    W, p = bsc(0.1), uniform(2)
    base = mc_expectation(p, W, 4, math.e, trials=120, seed=5, n=2)

    def refuse(self):
        raise AssertionError("mc_expectation started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    assert mc_expectation(p, W, 4, math.e, trials=120, seed=5, n=2) == base


def test_mc_expectation_words_spanning_blocks():
    # M * |Y|^n above one block: each trial's rows are summed over
    # several blocks and must equal the mean over the materialized rows
    W, p = ASYM, ASYM_P
    M, n, trials, seed = 50, 6, 100, 3
    rows = product(W, n).rows
    wpn = _kron_chain([output_distribution(W, p).probs] * n)
    eps = []
    for i in range(trials):
        words = sample_indices(p.probs, stream(seed, i).random((M, n)))
        mix = rows[words @ 3 ** np.arange(n)].mean(axis=0)
        eps.append(float(np.abs(mix - wpn).sum()))
    est = mc_expectation(p, W, M, math.e, trials=trials, seed=seed, n=n)[0]
    assert 3 ** n * M > channel._BLOCK_FLOATS
    assert est.mean == float(np.mean(eps))


def test_mc_expectation_blocks_count_the_draws():
    # one output letter: a trial's mixture is one float, but it draws
    # M*n uniforms and letters; a block of all 100 trials would hold
    # 12.8 MB of them
    W, p = constant_channel([1.0], 16), uniform(16)
    tracemalloc.start()
    try:
        est = mc_expectation(p, W, 16, 1.0, trials=100, seed=0, n=500)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.mean == 0.0
    assert peak < 2 * 2 ** 20
