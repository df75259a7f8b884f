"""Subset families, codeword screening, identification error evaluation."""

import math

import numpy as np
import pytest

from chanres import (
    AdParams,
    Channel,
    IdCode,
    InfeasibleParams,
    RetriesExhausted,
    SelectionParams,
    SetFamily,
    assemble_id_code,
    asymptotic_schedule,
    bsc,
    build_set_family,
    eval_id_code,
    id_error_bounds,
    identity_channel,
    load_id_code,
    product,
    product_dist,
    save_id_code,
    select_codewords,
    uniform,
)


def z_channel():
    return Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))


def test_ad_params():
    params = AdParams(M=100, tau=0.1, kappa=0.8)
    assert params.subset_size == 10
    assert params.family_size == 81
    with pytest.raises(ValueError):
        AdParams(M=100, tau=0.4, kappa=0.8)
    with pytest.raises(ValueError):
        AdParams(M=100, tau=0.1, kappa=1.0)
    # kappa * log(1/tau - 1) must clear log(2) + 1
    with pytest.raises(ValueError):
        AdParams(M=100, tau=0.1, kappa=0.5)
    with pytest.raises(ValueError):
        AdParams(M=0, tau=0.1, kappa=0.8)


def test_set_family_validation():
    fam = SetFamily((frozenset({0, 1, 2}), frozenset({3, 4, 5})), 3, 2.0)
    assert fam.size == 2
    # sharing exactly the cap is refused, strictly below is required
    with pytest.raises(ValueError):
        SetFamily((frozenset({0, 1, 2}), frozenset({0, 1, 3})), 3, 2.0)
    with pytest.raises(ValueError):
        SetFamily((frozenset({0, 1, 2}), frozenset({0, 1, 2})), 3, 2.0)
    with pytest.raises(ValueError):
        SetFamily((frozenset({0, 1}),), 3, 2.0)
    with pytest.raises(ValueError):
        SetFamily((), 3, 2.0)
    with pytest.raises(ValueError):
        SetFamily((frozenset({0, 1, 2}),), 3, 0.0)
    singles = SetFamily((frozenset({0}), frozenset({1})), 1, 0.8)
    assert singles.size == 2


def test_build_set_family():
    params = AdParams(M=100, tau=0.1, kappa=0.8)
    built = build_set_family(params, seed=5)
    assert built.complete and built.target_size == 81
    assert built.family.size == 81
    assert all(len(s) == 10 for s in built.family.subsets)
    worst = max(len(a & b)
                for i, a in enumerate(built.family.subsets)
                for b in built.family.subsets[i + 1:])
    assert worst <= 7
    again = build_set_family(params, seed=5)
    assert built.family.subsets == again.family.subsets
    # the guaranteed count can be zero for small M, one is still built
    small = build_set_family(AdParams(M=7, tau=0.15, kappa=0.99), seed=3)
    assert small.target_size == 1 and small.family.size == 1
    with pytest.raises(ValueError):
        build_set_family(AdParams(M=2, tau=0.1, kappa=0.8), seed=0)


def test_selection_params():
    params = SelectionParams(alpha=1.5, alpha_prime=4.0, beta=1.5,
                             beta_prime=4.0, tau=0.1, kappa=0.8, M=2, C=2.0)
    assert math.isclose(params.gamma, 1.0 / 12.0, rel_tol=1e-12)
    assert params.m_prime == 24
    with pytest.raises(ValueError):
        SelectionParams(1.0, 4.0, 1.5, 4.0, 0.1, 0.8, 2, 2.0)
    with pytest.raises(ValueError):
        SelectionParams(1.5, 2.5, 1.5, 4.0, 0.1, 0.8, 2, 2.0)
    with pytest.raises(ValueError):
        SelectionParams(1.5, 4.0, 1.5, 1.2, 0.1, 0.8, 2, 2.0)
    with pytest.raises(ValueError):
        SelectionParams(1.5, 4.0, 1.5, 4.0, 0.1, 0.8, 2, 0.0)
    with pytest.raises(ValueError):
        SelectionParams(1.5, 4.0, 1.5, 4.0, 0.1, 0.8, 0, 2.0)


def test_select_codewords_fixture():
    W = product(bsc(0.05), 3)
    p = product_dist(uniform(2), 3)
    params = SelectionParams(1.5, 4.0, 1.5, 4.0, 0.1, 0.8, 2, 2.0)
    sel = select_codewords(W, p, params, seed=1)
    assert sel.codewords == (2, 6)
    assert sel.attempts == 1
    assert sel.miss_bound == 0.32090625
    for v in sel.miss_values:
        assert math.isclose(v, 0.142625, rel_tol=1e-13)
        assert v <= sel.miss_bound
    for v in sel.union_values:
        assert math.isclose(v, 0.045125000000000005, rel_tol=1e-13)
        assert v <= sel.union_bound
    assert sel.union_bound == 4.0 * 4.0 * 24 / 2.0
    assert math.isclose(sel.feasibility_lhs, 192.2139375, rel_tol=1e-12)
    assert not sel.feasible

    # recompute the screened masses directly from the matrices
    wp = p.probs @ W.rows
    for x, miss, union in zip(sel.codewords, sel.miss_values,
                              sel.union_values):
        level = W.rows[x] > params.C * wp
        assert math.isclose(1.0 - W.rows[x][level].sum(), miss, rel_tol=1e-12)
        others = [c for c in sel.codewords if c != x]
        other_level = np.any(W.rows[others] > params.C * wp, axis=0)
        assert math.isclose(W.rows[x][other_level].sum(), union,
                            rel_tol=1e-12)


def test_select_codewords_deterministic():
    W = product(bsc(0.05), 3)
    p = product_dist(uniform(2), 3)
    params = SelectionParams(1.5, 4.0, 1.5, 4.0, 0.1, 0.8, 2, 2.0)
    a = select_codewords(W, p, params, seed=1)
    b = select_codewords(W, p, params, seed=1)
    assert a.codewords == b.codewords
    assert a.miss_values == b.miss_values


def test_select_infeasible():
    # every density ratio sits at or below C = 10, so the average miss
    # mass is 1 and beta times it can never stay below 1
    params = SelectionParams(1.2, 8.0, 1.2, 8.0, 0.1, 0.8, 2, 10.0)
    with pytest.raises(InfeasibleParams):
        select_codewords(z_channel(), uniform(2), params, seed=0)


def test_select_retries_exhausted():
    # symbol 1 always fails the miss screen and two distinct survivors
    # are required, so every attempt falls short
    params = SelectionParams(1.2, 8.0, 1.2, 8.0, 0.1, 0.8, 2, 1.2)
    with pytest.raises(RetriesExhausted) as info:
        select_codewords(z_channel(), uniform(2), params, seed=0,
                         max_retries=5)
    assert info.value.attempts == 5


def test_id_code_validation():
    code = IdCode((3, 1, 2), ((1, 0), (2,)), 2.0)
    assert code.messages == 2
    assert code.subsets == ((0, 1), (2,))
    with pytest.raises(ValueError):
        IdCode((1, 1), ((0,),), 2.0)
    with pytest.raises(ValueError):
        IdCode((0, 1), ((0, 2),), 2.0)
    with pytest.raises(ValueError):
        IdCode((0, 1), (), 2.0)
    with pytest.raises(ValueError):
        IdCode((0, 1), ((0,),), 0.0)
    with pytest.raises(ValueError):
        assemble_id_code((0, 9), SetFamily((frozenset({0}),), 1, 0.5),
                         identity_channel(4), uniform(4), 2.0)


def test_eval_identity_two_messages():
    # disjoint level sets on a noiseless channel identify perfectly
    W, p = identity_channel(4), uniform(4)
    fam = SetFamily((frozenset({0, 1}), frozenset({2, 3})), 2, 1.5)
    code = assemble_id_code((0, 1, 2, 3), fam, W, p, 2.0)
    metrics = eval_id_code(code, W, p)
    assert metrics.mu == 0.0 and metrics.lam == 0.0
    single = IdCode((0, 1), ((0, 1),), 2.0)
    assert eval_id_code(single, W, p).lam == 0.0


def test_eval_oracle_two_messages():
    # hand evaluation: mixtures and acceptance unions spelled out
    W = product(bsc(0.05), 3)
    p = product_dist(uniform(2), 3)
    params = SelectionParams(1.5, 4.0, 1.5, 4.0, 0.1, 0.8, 2, 2.0)
    sel = select_codewords(W, p, params, seed=1)
    fam = SetFamily((frozenset({0}), frozenset({1})), 1, 0.8)
    code = assemble_id_code(sel.codewords, fam, W, p, params.C)
    metrics = eval_id_code(code, W, p)
    assert math.isclose(metrics.mu, 0.142625, rel_tol=1e-13)
    assert math.isclose(metrics.lam, 0.045125000000000005, rel_tol=1e-13)
    wp = p.probs @ W.rows
    mu_hand = 0.0
    lam_hand = 0.0
    for i, own in enumerate(sel.codewords):
        region = W.rows[own] > params.C * wp
        mu_hand = max(mu_hand, 1.0 - W.rows[own][region].sum())
        other = sel.codewords[1 - i]
        lam_hand = max(lam_hand, W.rows[other][region].sum())
    assert math.isclose(metrics.mu, mu_hand, rel_tol=1e-12)
    assert math.isclose(metrics.lam, lam_hand, rel_tol=1e-12)
    mu_bound, lam_bound = id_error_bounds(params, p, W)
    assert math.isclose(mu_bound, 0.32090625, rel_tol=1e-13)
    assert math.isclose(lam_bound, 192.8, rel_tol=1e-13)
    assert metrics.mu <= mu_bound and metrics.lam <= lam_bound


def test_full_pipeline_small_alphabet():
    # smallest alphabet where floor(tau*M) >= 1 coexists with the
    # growth condition; everything resolves exactly on the identity
    params = SelectionParams(2.0, 4.0, 2.0, 4.0, 0.15, 0.99, 7, 2.0)
    W, p = identity_channel(7), uniform(7)
    sel = select_codewords(W, p, params, seed=2)
    assert sel.codewords == (3, 2, 6, 5, 1, 0, 4)
    assert sel.attempts == 1
    built = build_set_family(AdParams(M=7, tau=0.15, kappa=0.99), seed=3)
    assert built.family.subsets == (frozenset({6}),)
    code = assemble_id_code(sel.codewords, built.family, W, p, params.C)
    metrics = eval_id_code(code, W, p)
    assert metrics.mu == 0.0 and metrics.lam == 0.0
    mu_bound, lam_bound = id_error_bounds(params, p, W)
    assert mu_bound == 0.0
    assert math.isclose(lam_bound, 0.99 + 16.0 * 28 / 2.0, rel_tol=1e-13)


def test_asymptotic_schedule():
    sched = asymptotic_schedule(4, 0.2, 0.1)
    assert sched["M"] == 3
    assert math.isclose(sched["C"], math.exp(0.4), rel_tol=1e-14)
    assert math.isclose(sched["alpha"], 1.5, rel_tol=1e-14)
    assert math.isclose(sched["alpha_prime"], 1.0 / 6.0, rel_tol=1e-14)
    assert math.isclose(sched["tau"], 1.0 / 6.0, rel_tol=1e-14)
    assert math.isclose(sched["kappa"],
                        (math.log(2.0) + 1.0) / math.log(4.0), rel_tol=1e-14)
    # the schedule is a reference point, not a runnable configuration:
    # its alpha_prime falls below 1 and the screening constructor
    # refuses it
    with pytest.raises(ValueError):
        SelectionParams(sched["alpha"], sched["alpha_prime"], sched["beta"],
                        sched["beta_prime"], sched["tau"], sched["kappa"],
                        sched["M"], sched["C"])
    assert asymptotic_schedule(1, 0.2, 0.1)["kappa"] == math.inf
    with pytest.raises(ValueError):
        asymptotic_schedule(0, 0.2, 0.1)


def test_id_code_json_round_trip(tmp_path):
    code = IdCode((3, 1, 2), ((0, 1), (2,)), 2.5)
    path = tmp_path / "code.json"
    save_id_code(code, path)
    back = load_id_code(path)
    assert back.codewords == code.codewords
    assert back.subsets == code.subsets
    assert back.C == code.C
    bad = tmp_path / "bad.json"
    bad.write_text('{"codewords": [0], "C": 2.0}')
    with pytest.raises(ValueError, match="subsets"):
        load_id_code(bad)


@pytest.mark.parametrize("C", [math.nan, math.inf])
def test_non_finite_threshold_rejected(C):
    with pytest.raises(ValueError, match="finite"):
        SelectionParams(1.5, 4.0, 1.5, 4.0, 0.1, 0.8, 2, C)
    with pytest.raises(ValueError, match="finite"):
        IdCode((3, 1, 2), ((1, 0), (2,)), C)
