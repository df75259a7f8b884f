"""Acceptance gate: twelve end-to-end checks with stated tolerances.

Each test prints one pass line; tolerances appear inline next to the
assertions they govern.
"""

import math

import numpy as np

from chanres import (
    SelectionParams,
    SetFamily,
    WiretapCode,
    assemble_id_code,
    brute_force_min,
    bsc,
    build_set_family,
    capacity,
    constant_channel,
    construct_until_bounds,
    dispersion_J,
    divergence_tail_check,
    eval_code,
    eval_id_code,
    eval_wiretap,
    id_error_bounds,
    identity_channel,
    mc_expectation,
    mutual_information,
    phi,
    phi_worst,
    product,
    product_dist,
    psi,
    psi_worst,
    sample_code,
    select_codewords,
    tail_pair,
    taylor_compare,
    uniform,
)
from chanres.identification import AdParams
from chanres.cli import main
from commands import argv_of, write_inputs
from corpus import random_channel, random_dist
from oracles import _compositions, binary_entropy


def test_criterion_01_capacity_oracle():
    # tolerance 1e-6 on the BSC closed form, exact equality on identity
    for w in (0.05, 0.1, 0.25):
        result = capacity(bsc(w))
        assert abs(result.value - (math.log(2.0) - binary_entropy(w))) <= 1e-6
    for K in (2, 3, 4):
        assert capacity(identity_channel(K)).value == math.log(K)
    print("criterion 1 (capacity oracle): PASS")


def test_criterion_02_expectation_bounds_simulation():
    # 2000 trials per configuration; sample mean within bound + 3 sigma
    p, W = uniform(2), bsc(0.1)
    for M in (4, 16):
        for C in (math.e, math.e ** 2):
            est_vd, est_eta, est_phi = mc_expectation(
                p, W, M, C, trials=2000, seed=1234, n=4)
            assert est_vd.mean <= est_vd.bound + 3.0 * est_vd.std_error
            kl_bound = min(est_eta.bound, est_phi.bound)
            assert est_eta.mean <= kl_bound + 3.0 * est_eta.std_error
    print("criterion 2 (expectation bound simulation): PASS")


def test_criterion_03_tail_pair_law():
    # delta_prime <= C with zero violations on 500 random triples
    gen = np.random.default_rng(52)
    for _ in range(500):
        k = int(gen.integers(2, 7))
        l = int(gen.integers(2, 7))
        W = random_channel(gen, k, l)
        p = random_dist(gen, k)
        C = float(gen.uniform(0.05, 20.0))
        tp = tail_pair(p, W, C)
        assert tp.delta_prime <= C
        assert 0.0 <= tp.delta <= 1.0
    print("criterion 3 (tail pair law): PASS")


def test_criterion_04_derivative_checks():
    # finite differences at h = 1e-5 within 1e-3 relative of +/- I
    h = 1e-5
    gen = np.random.default_rng(53)
    for _ in range(50):
        k = int(gen.integers(2, 5))
        l = int(gen.integers(2, 5))
        W = random_channel(gen, k, l)
        p = random_dist(gen, k)
        i_val = mutual_information(p, W)
        scale = max(i_val, 1e-6)
        slope_psi = psi(h, W, p) / h
        assert abs(slope_psi - i_val) <= 1e-3 * scale
        slope_phi = phi(-h, W, p) / (-h)
        assert abs(slope_phi - (-i_val)) <= 1e-3 * scale
    print("criterion 4 (derivative checks): PASS")


def test_criterion_05_single_letterization():
    # two-block grid maximum (step 0.02) vs twice the one-letter value,
    # tolerance 1e-3
    gen = np.random.default_rng(77)
    grid = _compositions(50, 4) / 50
    for _ in range(5):
        W = random_channel(gen, 2, 2)
        W2 = product(W, 2)
        for s in (0.3, 0.7):
            single, _ = psi_worst(s, W)
            inner = grid @ (W2.rows ** (1.0 + s))
            best = float(np.log(np.sum(inner ** (1.0 - s), axis=1)).max())
            assert abs(best - 2.0 * single) <= 1e-3
        t = -0.3
        single, _ = phi_worst(t, W)
        inner = grid @ (W2.rows ** (1.0 / (1.0 + t)))
        best = float(np.log(np.sum(inner ** (1.0 + t), axis=1)).max())
        assert abs(best - 2.0 * single) <= 1e-3
    print("criterion 5 (single letterization): PASS")


def test_criterion_06_nearly_disjoint_family():
    params = AdParams(M=100, tau=0.1, kappa=0.8)
    built = build_set_family(params, seed=5)
    assert built.complete
    assert built.family.size == 81
    assert all(len(s) == 10 for s in built.family.subsets)
    for i, a in enumerate(built.family.subsets):
        for b in built.family.subsets[i + 1:]:
            assert len(a & b) <= 7
    # a family whose pairwise intersection reaches the cap is refused
    try:
        SetFamily((frozenset(range(10)), frozenset(range(2, 12))), 8.0)
        refused = False
    except ValueError:
        refused = True
    assert refused
    print("criterion 6 (nearly disjoint family): PASS")


def test_criterion_07_identification_end_to_end():
    W = product(bsc(0.05), 3)
    p = product_dist(uniform(2), 3)
    params = SelectionParams(alpha=1.5, alpha_prime=4.0, beta=1.5,
                             beta_prime=4.0, family=AdParams(2, 0.1, 0.8),
                             C=2.0)
    sel = select_codewords(W, p, params, seed=1)
    # floor(tau*M) = 0 leaves no admissible subset size at M = 2, so
    # the family is the two singleton messages
    fam = SetFamily((frozenset({0}), frozenset({1})), 0.8)
    code = assemble_id_code(sel.codewords, fam, W, p, params.C)
    metrics = eval_id_code(code, W, p)
    mu_bound, lam_bound = id_error_bounds(params, p, W)
    miss_avg = 1.0 - tail_pair(p, W, params.C).delta
    assert math.isclose(mu_bound, params.alpha * params.beta * miss_avg,
                        rel_tol=1e-12)
    assert math.isclose(
        lam_bound,
        params.family.kappa + params.alpha_prime * params.beta_prime
        * params.m_prime / params.C, rel_tol=1e-12)
    assert metrics.mu <= mu_bound
    assert metrics.lam <= lam_bound
    print("criterion 7 (identification end to end): PASS")


def test_criterion_08_wiretap_end_to_end():
    # noiseless Bob, constant Eve: all three metrics exactly zero
    W_B = identity_channel(4)
    W_E = constant_channel([0.5, 0.5], 4)
    p4 = uniform(4)
    code = WiretapCode(np.array([[0, 1], [2, 3]]), np.array([0, 0, 1, 1]),
                       "maximum_likelihood")
    report = eval_wiretap(code, W_B, W_E, p4)
    assert report.eps_B == 0.0
    assert report.I_E == 0.0
    assert report.d_E == 0.0
    assert report.decomposition_residual <= 1e-9

    W_B = product(bsc(0.1), 4)
    W_E = product(bsc(0.3), 4)
    p = product_dist(uniform(2), 4)
    res = construct_until_bounds(p, W_B, W_E, 2, 4, math.e, math.e, seed=42)
    assert res.satisfied
    eps_target, leak_target, vd_target = res.targets
    assert res.report.eps_B <= eps_target
    assert res.report.I_E <= leak_target
    assert res.report.d_E <= vd_target
    assert res.report.decomposition_residual <= 1e-9
    print("criterion 8 (wiretap end to end): PASS")


def test_criterion_09_taylor_comparison():
    W, p = bsc(0.1), uniform(2)
    # 4-cell enumeration of half the information-density variance
    wp = p.probs @ W.rows
    i_val = mutual_information(p, W)
    var = 0.0
    for x in range(2):
        for y in range(2):
            dens = math.log(W.rows[x, y] / wp[y])
            var += p.probs[x] * W.rows[x, y] * (dens - i_val) ** 2
    j_hand = 0.5 * var
    assert math.isclose(j_hand, 0.2172508129462647, rel_tol=1e-12)
    assert math.isclose(dispersion_J(p, W), j_hand, rel_tol=1e-12)
    delta = 0.02
    cmp_ = taylor_compare(i_val + delta, W, p)
    approx_psi = delta * delta / (4.0 * j_hand)
    approx_phi_half = delta * delta / (8.0 * j_hand)
    # 10% relative agreement with the quadratic expansion
    assert abs(cmp_.exact_psi_bound - approx_psi) <= 0.1 * approx_psi
    assert abs(cmp_.exact_phi_half_bound - approx_phi_half) \
        <= 0.1 * approx_phi_half
    assert cmp_.exact_psi_bound > cmp_.exact_phi_half_bound
    print("criterion 9 (quadratic expansion): PASS")


def test_criterion_10_divergence_tail_inequality():
    # zero violations over 10^4 random (p, q, alpha) with shared support
    gen = np.random.default_rng(54)
    for _ in range(10_000):
        k = int(gen.integers(2, 6))
        p = random_dist(gen, k)
        q = random_dist(gen, k)
        alpha = float(gen.uniform(0.01, 10.0))
        lhs, rhs = divergence_tail_check(p, q, alpha)
        assert lhs >= rhs - 1e-12
    print("criterion 10 (divergence tail inequality): PASS")


def test_criterion_11_brute_force_consistency():
    W, p = identity_channel(2), uniform(2)
    assert brute_force_min(1, W, p).eps_min == 1.0
    assert brute_force_min(2, W, p).eps_min == 0.0
    gen = np.random.default_rng(55)
    for _ in range(10):
        k = int(gen.integers(2, 4))
        l = int(gen.integers(2, 4))
        W = random_channel(gen, k, l)
        p = random_dist(gen, k)
        M = int(gen.integers(2, 4))
        floor = brute_force_min(M, W, p).eps_min
        best = min(
            eval_code(sample_code(p, M, seed=s), W, p)[0]
            for s in range(200)
        )
        assert best >= floor - 1e-12
    print("criterion 11 (brute force consistency): PASS")


def test_criterion_12_worker_count_determinism(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_inputs()
    # BSC(0.1), and BSC(0.3) as the eavesdropper's channel
    for command, options in (
            ("simulate resolvability", dict(
                codebook_size=8, threshold=math.e, blocklength=3, trials=200,
                seed=77)),
            ("simulate wiretap", dict(
                channel_b="bsc01.json", channel_e="bsc03.json",
                threshold=math.e, decoder_threshold=math.e, blocklength=4,
                seed=42))):
        blobs = []
        for workers in (1, 4):
            assert main(argv_of(command, workers=workers, output="out.jsonl",
                                **options)) == 0
            blobs.append((tmp_path / "out.jsonl").read_bytes())
        assert blobs[0] == blobs[1]
    print("criterion 12 (worker count determinism): PASS")
