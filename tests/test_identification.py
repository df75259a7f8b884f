"""Subset families, codeword screening, identification error evaluation."""

import math

import numpy as np
import pytest

from chanres import (
    AdParams,
    BudgetError,
    Channel,
    Distribution,
    EnumerationBudget,
    IdCode,
    InfeasibleParams,
    RetriesExhausted,
    SelectionParams,
    SetFamily,
    assemble_id_code,
    bsc,
    build_set_family,
    eval_id_code,
    id_error_bounds,
    identity_channel,
    load_id_code,
    output_distribution,
    product,
    product_dist,
    save_id_code,
    select_codewords,
    tail_pair,
    uniform,
)
from chanres import identification
from corpus import dirichlet_channel as random_channel, z_channel
from oracles import (build_reference, cap_attempts, eval_reference,
                     select_reference)


def _screens(W, p, params, sel):
    """(miss, union) of the picked words, from the screen the candidate
    pass runs."""
    level = identification._screen_bounds(params, p, W)[0]
    miss, union = identification._screens(W, level, sel.codewords)
    return tuple(miss.tolist()), tuple(union.tolist())


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
    fam = SetFamily((frozenset({0, 1, 2}), frozenset({3, 4, 5})), 2.0)
    assert fam.size == 2
    # sharing exactly the cap is refused, strictly below is required
    with pytest.raises(ValueError):
        SetFamily((frozenset({0, 1, 2}), frozenset({0, 1, 3})), 2.0)
    with pytest.raises(ValueError):
        SetFamily((frozenset({0, 1, 2}), frozenset({0, 1, 2})), 2.0)
    with pytest.raises(ValueError, match="^subset 1 has size 2, expected 3$"):
        SetFamily((frozenset({0, 1, 2}), frozenset({3, 4})), 2.0)
    with pytest.raises(ValueError):
        SetFamily((), 2.0)
    with pytest.raises(ValueError):
        SetFamily((frozenset({0, 1, 2}),), 0.0)
    singles = SetFamily((frozenset({0}), frozenset({1})), 0.8)
    assert singles.size == 2
    # fractional elements are refused, not truncated to {0, 1}
    with pytest.raises(ValueError, match="not an integer"):
        SetFamily((frozenset({0.5, 1.7}),), 1.5)
    integral = SetFamily((frozenset({0.0, 1.0}),), 1.5)
    assert integral.subsets == (frozenset({0, 1}),)
    assert all(type(v) is int for v in integral.subsets[0])


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


def test_build_set_family_budget():
    # the 81 x 100 incidence matrix of the family above fits 8100 entries
    params = AdParams(M=100, tau=0.1, kappa=0.8)
    built = build_set_family(params, seed=5, budget=EnumerationBudget(8100))
    assert built.family.size == 81
    with pytest.raises(BudgetError, match="max_joint_states >= 8100"):
        build_set_family(params, seed=5, budget=EnumerationBudget(8099))
    # 13.1e9 guaranteed subsets of 300 elements: refused before sampling
    with pytest.raises(BudgetError):
        build_set_family(AdParams(M=300, tau=0.1, kappa=0.8), seed=0)
    # e^(tau*M - 1) past the float range: no size to compare with a cap
    past = AdParams(M=8000, tau=0.1, kappa=0.99)
    text = "^family size exceeds the representable range$"
    with pytest.raises(BudgetError, match=text):
        past.family_size
    with pytest.raises(BudgetError, match=text):
        build_set_family(past, seed=0)


def test_selection_params():
    params = SelectionParams(alpha=1.5, alpha_prime=4.0, beta=1.5,
                             beta_prime=4.0, family=AdParams(2, 0.1, 0.8),
                             C=2.0)
    assert math.isclose(params.gamma, 1.0 / 12.0, rel_tol=1e-12)
    assert params.m_prime == 24
    with pytest.raises(ValueError):
        SelectionParams(1.0, 4.0, 1.5, 4.0, AdParams(2, 0.1, 0.8), 2.0)
    with pytest.raises(ValueError):
        SelectionParams(1.5, 2.5, 1.5, 4.0, AdParams(2, 0.1, 0.8), 2.0)
    with pytest.raises(ValueError):
        SelectionParams(1.5, 4.0, 1.5, 1.2, AdParams(2, 0.1, 0.8), 2.0)
    with pytest.raises(ValueError):
        SelectionParams(1.5, 4.0, 1.5, 4.0, AdParams(2, 0.1, 0.8), 0.0)


def test_select_codewords_fixture():
    W = product(bsc(0.05), 3)
    p = product_dist(uniform(2), 3)
    params = SelectionParams(1.5, 4.0, 1.5, 4.0, AdParams(2, 0.1, 0.8), 2.0)
    sel = select_codewords(W, p, params, seed=1)
    assert sel.codewords == (2, 6)
    assert sel.attempts == 1
    assert sel.miss_bound == 0.32090625
    miss_values, union_values = _screens(W, p, params, sel)
    for v in miss_values:
        assert math.isclose(v, 0.142625, rel_tol=1e-13)
        assert v <= sel.miss_bound
    for v in union_values:
        assert math.isclose(v, 0.045125000000000005, rel_tol=1e-13)
        assert v <= 4.0 * 4.0 * 24 / 2.0
    assert math.isclose(sel.feasibility_lhs, 192.2139375, rel_tol=1e-12)
    assert not sel.feasible

    # recompute the screened masses directly from the matrices
    wp = p.probs @ W.rows
    for x, miss, union in zip(sel.codewords, miss_values, union_values):
        level = W.rows[x] > params.C * wp
        assert math.isclose(1.0 - W.rows[x][level].sum(), miss, rel_tol=1e-12)
        others = [c for c in sel.codewords if c != x]
        other_level = np.any(W.rows[others] > params.C * wp, axis=0)
        assert math.isclose(W.rows[x][other_level].sum(), union,
                            rel_tol=1e-12)


def test_select_codewords_deterministic():
    W = product(bsc(0.05), 3)
    p = product_dist(uniform(2), 3)
    params = SelectionParams(1.5, 4.0, 1.5, 4.0, AdParams(2, 0.1, 0.8), 2.0)
    a = select_codewords(W, p, params, seed=1)
    b = select_codewords(W, p, params, seed=1)
    assert a == b


def test_select_infeasible():
    # every density ratio sits at or below C = 10, so the average miss
    # mass is 1 and beta times it can never stay below 1
    params = SelectionParams(1.2, 8.0, 1.2, 8.0, AdParams(2, 0.1, 0.8), 10.0)
    with pytest.raises(InfeasibleParams):
        select_codewords(z_channel(), uniform(2), params, seed=0)


@pytest.mark.parametrize("probs, M, support", [
    ((0.5, 0.5, 0, 0, 0, 0, 0), 7, 2),
    ((1 / 7,) * 7, 8, 7),
    ((1 / 7,) * 7, 100000, 7),
])
def test_select_needs_as_many_words_as_the_law_reaches(monkeypatch, probs, M,
                                                      support):
    # M distinct codewords can never be drawn from fewer words, so the
    # call is refused before its first draw
    def draw(seed, index):
        raise AssertionError("drew candidates")

    monkeypatch.setattr(identification, "stream", draw)
    params = SelectionParams(2.0, 4.0, 2.0, 4.0, AdParams(M, 0.15, 0.99), 1.5)
    with pytest.raises(InfeasibleParams, match=(
            f"^M = {M} distinct codewords, but p gives positive mass to "
            f"{support} input words: screening cannot succeed$")):
        select_codewords(identity_channel(7), Distribution(probs), params,
                         seed=0)


def test_select_retries_exhausted():
    # symbol 1 always fails the miss screen and two distinct survivors
    # are required, so every attempt falls short
    params = SelectionParams(1.2, 8.0, 1.2, 8.0, AdParams(2, 0.1, 0.8), 1.2)
    with pytest.raises(RetriesExhausted) as info:
        select_codewords(z_channel(), uniform(2), params, seed=0,
                         max_retries=5)
    assert info.value.attempts == 5


@pytest.mark.parametrize("max_retries", [0, -1])
def test_select_needs_a_retry(max_retries):
    params = SelectionParams(1.5, 4.0, 1.5, 4.0, AdParams(2, 0.1, 0.8), 2.0)
    with pytest.raises(ValueError, match="max_retries"):
        select_codewords(product(bsc(0.05), 3), product_dist(uniform(2), 3),
                         params, seed=1, max_retries=max_retries)


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
    # a negative codeword would index the last input; a repeated
    # position would weight its codeword twice in the uniform mixture
    with pytest.raises(ValueError, match="nonnegative"):
        IdCode((-1, 0), ((0,), (1,)), 2.0)
    with pytest.raises(ValueError, match="repeats"):
        IdCode((0, 1, 2), ((0, 0, 1), (2,)), 2.0)
    with pytest.raises(ValueError, match="^subset 1 is empty$"):
        IdCode((0, 1), ((0,), ()), 2.0)
    with pytest.raises(ValueError):
        assemble_id_code((0, 9), SetFamily((frozenset({0}),), 0.5),
                         identity_channel(4), uniform(4), 2.0)


@pytest.mark.parametrize("codewords, subsets", [
    ((0.9, 1.5, 2), ((0,), (1, 2))),
    ((0, 1, 2), ((0.2,), (1.7, 2))),
    ((math.inf, 1, 2), ((0,), (1, 2))),
    ((math.nan, 1, 2), ((0,), (1, 2))),
    (("1", 0), ((0,), (1,))),
])
def test_id_code_rejects_non_integral_entries(codewords, subsets):
    # int() would truncate 0.9 and 1.7 to valid positions
    with pytest.raises(ValueError, match="not an integer"):
        IdCode(codewords, subsets, 2.0)


def test_id_code_accepts_integral_floats():
    code = IdCode((2.0, 0, 1), ((0.0, 1), (2,)), 2.0)
    assert code.codewords == (2, 0, 1)
    assert code.subsets == ((0, 1), (2,))


def test_load_id_code_rejects_fractional_entries(tmp_path):
    path = tmp_path / "code.json"
    path.write_text('{"codewords": [0.9, 1.5, 2], '
                    '"subsets": [[0.2], [1.7, 2]], "C": 2.0}')
    with pytest.raises(ValueError, match="codeword 0.9"):
        load_id_code(path)


def test_eval_identity_two_messages():
    # disjoint level sets on a noiseless channel identify perfectly
    W, p = identity_channel(4), uniform(4)
    fam = SetFamily((frozenset({0, 1}), frozenset({2, 3})), 1.5)
    code = assemble_id_code((0, 1, 2, 3), fam, W, p, 2.0)
    metrics = eval_id_code(code, W, p)
    assert metrics.mu == 0.0 and metrics.lam == 0.0
    single = IdCode((0, 1), ((0, 1),), 2.0)
    assert eval_id_code(single, W, p).lam == 0.0


def test_eval_oracle_two_messages():
    # hand evaluation: mixtures and acceptance unions spelled out
    W = product(bsc(0.05), 3)
    p = product_dist(uniform(2), 3)
    params = SelectionParams(1.5, 4.0, 1.5, 4.0, AdParams(2, 0.1, 0.8), 2.0)
    sel = select_codewords(W, p, params, seed=1)
    fam = SetFamily((frozenset({0}), frozenset({1})), 0.8)
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
    params = SelectionParams(2.0, 4.0, 2.0, 4.0, AdParams(7, 0.15, 0.99), 2.0)
    W, p = identity_channel(7), uniform(7)
    sel = select_codewords(W, p, params, seed=2)
    assert sel.codewords == (3, 2, 6, 5, 1, 0, 4)
    assert sel.attempts == 1
    built = build_set_family(params.family, seed=3)
    assert built.family.subsets == (frozenset({6}),)
    code = assemble_id_code(sel.codewords, built.family, W, p, params.C)
    metrics = eval_id_code(code, W, p)
    assert metrics.mu == 0.0 and metrics.lam == 0.0
    mu_bound, lam_bound = id_error_bounds(params, p, W)
    assert mu_bound == 0.0
    assert math.isclose(lam_bound, 0.99 + 16.0 * 28 / 2.0, rel_tol=1e-13)


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
        SelectionParams(1.5, 4.0, 1.5, 4.0, AdParams(2, 0.1, 0.8), C)
    with pytest.raises(ValueError, match="finite"):
        IdCode((3, 1, 2), ((1, 0), (2,)), C)


# numpy sums fewer than 8 entries one by one, unrolls by 8 up to 128,
# and splits pairwise above that: one output count per regime
@pytest.mark.parametrize("Y, C, lo, hi", [
    (6, 1.5, 1, 7),
    (120, 1.2, 8, 128),
    (400, 0.5, 129, 400),
])
def test_eval_id_code_equals_pair_loop(Y, C, lo, hi):
    rng = np.random.default_rng(Y)
    K = 30
    for _ in range(4):
        W = random_channel(rng, K, Y, 0.3)
        p = Distribution(rng.dirichlet(np.ones(K)))
        codewords = tuple(int(v) for v in rng.permutation(K)[:20])
        # unequal subset sizes, positions drawn without repeats
        subsets = tuple(
            tuple(int(v) for v in rng.choice(20, size=int(rng.integers(1, 7)),
                                             replace=False))
            for _ in range(25))
        code = IdCode(codewords, subsets, C)
        mu, lam, sizes = eval_reference(code, W, p)
        assert lo <= min(sizes) and max(sizes) <= hi
        metrics = eval_id_code(code, W, p)
        assert (metrics.mu, metrics.lam) == (mu, lam)
        single = IdCode(codewords, subsets[:1], C)
        metrics = eval_id_code(single, W, p)
        assert metrics.lam == 0.0
        assert (metrics.mu, metrics.lam) == eval_reference(single, W, p)[:2]


def test_eval_id_code_at_a_computed_tie():
    # C is the computed ratio W_0(0)/W_p(0), 4.999999999999999, and
    # C * W_p(0) rounds below W_0(0); by the density rule the pair is not
    # over C, so both regions are empty, mu is 1 and lam 0
    W, p = bsc(0.1), Distribution([0.1, 0.9])
    wp = output_distribution(W, p).probs
    code = IdCode((0, 1), ((0,), (1,)), float(W.rows[0, 0] / wp[0]))
    assert W.rows[0, 0] > code.C * wp[0]
    metrics = eval_id_code(code, W, p)
    assert (metrics.mu, metrics.lam, [0, 0]) == eval_reference(code, W, p)
    assert (metrics.mu, metrics.lam) == (1.0, 0.0)


@pytest.mark.parametrize("M, tau, kappa", [
    (100, 0.1, 0.8), (120, 0.1, 0.8), (60, 0.15, 0.98), (200, 0.05, 0.6),
])
def test_build_set_family_equals_pair_loop(monkeypatch, M, tau, kappa):
    params = AdParams(M=M, tau=tau, kappa=kappa)
    for seed in range(4):
        built = build_set_family(params, seed)
        assert (built.family.subsets, built.attempts, built.complete) \
            == build_reference(params, seed)
    # stopped by an attempt cap of 5 before the target
    cap_attempts(monkeypatch, 5)
    built = build_set_family(params, 0)
    assert not built.complete and built.attempts == 5
    assert (built.family.subsets, built.attempts, built.complete) \
        == build_reference(params, 0)


def test_select_codewords_equals_candidate_loop():
    rng = np.random.default_rng(4)
    nonzero_unions = 0
    for trial in range(12):
        K, Y = int(rng.integers(4, 30)), int(rng.integers(4, 300))
        W = random_channel(rng, K, Y, 0.05)
        p = Distribution(rng.dirichlet(np.full(K, 3.0)))
        family = AdParams(int(rng.integers(1, 4)), 0.1, 0.8)
        params = SelectionParams(2.0, 4.0, 2.0, 4.0, family, 2.0)
        sel = select_codewords(W, p, params, seed=trial, max_retries=20)
        ref, _ = select_reference(W, p, params, trial, max_retries=20)
        miss_values, union_values = _screens(W, p, params, sel)
        assert (sel.codewords, miss_values, union_values,
                sel.attempts) == ref
        nonzero_unions += any(v > 0.0 for v in union_values)
    assert nonzero_unions >= 3
    # near-identity channels at a high threshold: the union bound drops
    # below 1 and refuses a candidate drawn twice in one attempt
    union_refused = 0
    for trial in range(8):
        K = 50
        W = Channel(0.97 * np.eye(K)
                    + 0.03 * rng.dirichlet(np.full(K, 0.5), size=K))
        p = Distribution(rng.dirichlet(np.full(K, 50.0)))
        family = AdParams(int(rng.integers(1, 3)), 0.1, 0.8)
        params = SelectionParams(6.0, 1.25, 5.0, 1.5, family, 40.0)
        sel = select_codewords(W, p, params, seed=trial, max_retries=20)
        ref, refused = select_reference(W, p, params, trial, max_retries=20)
        assert (sel.codewords, *_screens(W, p, params, sel),
                sel.attempts) == ref
        union_refused += refused
    assert union_refused > 0


def test_selection_carries_the_id_error_bounds():
    # the miss average is read from select_codewords' own level sets; it
    # equals 1 - tail_pair(...).delta bit for bit, the clamp included
    # (the seven masses 1/7 of the identity channel sum past 1)
    rng = np.random.default_rng(8)
    cases = [(identity_channel(7), uniform(7), SelectionParams(
        2.0, 4.0, 2.0, 4.0, AdParams(7, 0.15, 0.99), 2.0))]
    for _ in range(10):
        K = int(rng.integers(4, 30))
        cases.append((random_channel(rng, K, int(rng.integers(4, 300)), 0.05),
                      Distribution(rng.dirichlet(np.full(K, 3.0))),
                      SelectionParams(2.0, 4.0, 2.0, 4.0, AdParams(
                          int(rng.integers(1, 4)), 0.1, 0.8), 2.0)))
    checked = 0
    for W, p, params in cases:
        try:
            sel = select_codewords(W, p, params, seed=0, max_retries=20)
        except identification.RetriesExhausted:
            continue
        checked += 1
        miss_avg = 1.0 - tail_pair(p, W, params.C).delta
        union_bound = (params.alpha_prime * params.beta_prime
                       * params.m_prime / params.C)
        assert sel.miss_bound == params.alpha * params.beta * miss_avg
        assert sel.lam_bound == params.family.kappa + union_bound
        assert id_error_bounds(params, p, W) == (sel.miss_bound, sel.lam_bound)
    assert checked >= 6
