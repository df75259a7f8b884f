"""Wiretap code sampling, exact leakage evaluation, guarantee screening."""

import dataclasses
import math
import threading

import numpy as np
import pytest

from chanres import (
    WiretapCode,
    bsc,
    constant_channel,
    construct_until_bounds,
    eval_wiretap,
    identity_channel,
    point_mass,
    product,
    product_dist,
    sample_wiretap_code,
    uniform,
    wiretap_bounds,
)
from chanres import wiretap
from oracles import _construct_reference, pairwise_bound_oracle


def test_code_validation():
    code = WiretapCode(np.array([[0, 1], [2, 3]]), np.array([0, 0, 1, 1]))
    assert code.codewords.shape == (2, 2)
    with pytest.raises(ValueError,
                       match="^codewords must form an M x L index array$"):
        WiretapCode(np.array([0, 1]), np.array([0, 0]))
    with pytest.raises(ValueError):
        WiretapCode(np.array([[0], [1]]), np.array([0, 2]))
    with pytest.raises(ValueError,
                       match="^decoder must map outputs to messages$"):
        WiretapCode(np.array([[0], [1]]), np.array([[0, 1]]))


def test_sample_determinism_and_shape():
    p = uniform(4)
    W = identity_channel(4)
    a = sample_wiretap_code(p, 3, 2, W, seed=7)
    b = sample_wiretap_code(p, 3, 2, W, seed=7)
    assert np.array_equal(a.codewords, b.codewords)
    assert a.codewords.shape == (3, 2)
    c = sample_wiretap_code(p, 3, 2, W, seed=7, index=1)
    assert not np.array_equal(a.codewords, c.codewords)
    with pytest.raises(ValueError):
        sample_wiretap_code(p, 0, 2, W, seed=7)
    with pytest.raises(ValueError):
        sample_wiretap_code(p, 3, 2, W, seed=7, decoder_kind="threshold")


def test_ml_decoder_and_tie_order():
    W = bsc(0.1)
    code = sample_wiretap_code(uniform(2), 2, 1, W, seed=0)
    # overwrite codewords is impossible (frozen), build directly
    code = WiretapCode(np.array([[0], [1]]), code.decoder)
    built = WiretapCode(np.array([[0], [1]]), np.array([0, 1]))
    report = eval_wiretap(built, W, W, uniform(2))
    assert math.isclose(report.eps_B, 0.1, rel_tol=1e-13)
    # equal likelihoods: the first (l, m) pair in scan order wins
    flat = sample_wiretap_code(uniform(2), 2, 2,
                               constant_channel([0.5, 0.5], 2), seed=3)
    assert np.array_equal(flat.decoder, np.array([0, 0]))
    # a (l=0, m=1) claim precedes (l=1, m=0) in the flattened order
    W3 = identity_channel(3)
    tie = sample_wiretap_code(uniform(3), 2, 2, W3, seed=5)
    tie = WiretapCode(np.array([[2, 1], [1, 0]]), tie.decoder)
    from chanres.wiretap import _ml_decoder
    dec = _ml_decoder(tie.codewords, W3)
    assert dec[1] == 1
    assert dec[0] == 1 and dec[2] == 0


def test_threshold_decoder():
    W, p = identity_channel(4), uniform(4)
    code = sample_wiretap_code(p, 2, 1, W, seed=1, decoder_kind="threshold",
                               C_prime=2.0)
    from chanres.wiretap import _threshold_decoder
    assert np.array_equal(code.decoder, _threshold_decoder(
        code.codewords, W, p, 2.0))
    dec = _threshold_decoder(np.array([[0], [1]]), W, p, 2.0)
    assert dec.tolist() == [0, 1, -1, -1]
    # two claimants at one output erase it
    dec = _threshold_decoder(np.array([[0], [0]]), W, p, 2.0)
    assert dec.tolist() == [-1, -1, -1, -1]


def test_eval_oracle_by_hand():
    W_B, W_E, p = bsc(0.1), bsc(0.3), uniform(2)
    code = WiretapCode(np.array([[0, 1], [1, 1]]), np.array([0, 1]))
    report = eval_wiretap(code, W_B, W_E, p)
    # Bob: message 0 mixes both rows, message 1 sits on row 1
    assert math.isclose(report.eps_B, 0.3, rel_tol=1e-13)
    q0 = np.array([0.5, 0.5])
    q1 = np.array([0.3, 0.7])
    mix = np.array([0.4, 0.6])
    kl0 = float(np.sum(q0 * np.log(q0 / mix)))
    kl1 = float(np.sum(q1 * np.log(q1 / mix)))
    assert math.isclose(report.I_E, 0.5 * (kl0 + kl1), rel_tol=1e-12)
    assert math.isclose(report.d_E, 0.4, rel_tol=1e-13)
    assert report.decomposition_residual <= 1e-12
    assert report.d_E <= pairwise_bound_oracle(code, W_E, p) + 1e-12
    with pytest.raises(ValueError):
        eval_wiretap(code, W_B, identity_channel(3), p)
    bad = WiretapCode(np.array([[5, 1], [1, 1]]), np.array([0, 1]))
    with pytest.raises(ValueError):
        eval_wiretap(bad, W_B, W_E, p)


def test_decoder_of_another_output_size_is_refused():
    # a decoder entry per output of Bob's channel, checked before indexing
    code = WiretapCode(np.array([[0, 1], [1, 1]]), np.array([0, 1, -1]))
    with pytest.raises(ValueError,
                       match="^decoder has 3 entries, channel B has 2 outputs$"):
        eval_wiretap(code, bsc(0.1), bsc(0.3), uniform(2))


def test_eval_perfect_secrecy_zeroes():
    # noiseless Bob, constant Eve: zero error and exactly zero leakage
    W_B = identity_channel(4)
    W_E = constant_channel([0.5, 0.5], 4)
    p = uniform(4)
    code = WiretapCode(np.array([[0, 1], [2, 3]]), np.array([0, 0, 1, 1]))
    report = eval_wiretap(code, W_B, W_E, p)
    assert report.eps_B == 0.0
    assert report.I_E == 0.0
    assert report.d_E == 0.0


def test_eval_full_exposure():
    # Eve sees the message perfectly: both leakage measures peak
    W = identity_channel(2)
    code = WiretapCode(np.array([[0], [1]]), np.array([0, 1]))
    report = eval_wiretap(code, W, W, uniform(2))
    assert report.eps_B == 0.0
    assert math.isclose(report.I_E, math.log(2.0), rel_tol=1e-13)
    assert report.d_E == 2.0


def test_eval_disjoint_reference_support():
    # codeword mass outside p's support: the decomposition check is
    # skipped (nan) and the leakage numbers stay finite
    W = identity_channel(2)
    code = WiretapCode(np.array([[1], [0]]), np.array([1, 0]))
    report = eval_wiretap(code, W, W, point_mass(0, 2))
    assert math.isnan(report.decomposition_residual)
    assert math.isfinite(report.I_E)


def test_decomposition_residual_random():
    p = uniform(3)
    gen = np.random.default_rng(21)
    for _ in range(40):
        rows_b = gen.random((3, 3)) + 0.05
        rows_e = gen.random((3, 4)) + 0.05
        W_B = _normalize(rows_b)
        W_E = _normalize(rows_e)
        code = sample_wiretap_code(p, 3, 2, W_B, seed=int(gen.integers(10 ** 6)))
        report = eval_wiretap(code, W_B, W_E, p)
        assert report.decomposition_residual <= 1e-9
        assert report.d_E <= pairwise_bound_oracle(code, W_E, p) + 1e-12


def _normalize(rows):
    from chanres import Channel
    return Channel(rows / rows.sum(axis=1, keepdims=True))


def test_bounds_closed_forms():
    # noiseless Bob: the reliability exponent closes to 3 * M * L / K
    K = 16
    W_B = identity_channel(K)
    W_E = constant_channel([1.0], K)
    p = uniform(K)
    b = wiretap_bounds(W_B, W_E, p, 2, 1, math.e, None)
    assert math.isclose(b.error_gallager, 3.0 * 2.0 / K, rel_tol=1e-9)
    assert b.error_threshold == math.inf
    # constant Eve: delta = 0 and delta_prime = 1, so the corner bound
    # is 3/L and the distance bound is 6/sqrt(L)
    assert b.leak_kl_eta == 3.0
    assert math.isclose(b.leak_kl_phi, 6.0 * math.log(2.0), rel_tol=1e-12)
    assert b.secrecy_vd == 6.0
    b4 = wiretap_bounds(W_B, W_E, p, 2, 4, math.e, None)
    assert math.isclose(b4.leak_kl_eta, 3.0 / 4.0, rel_tol=1e-13)
    assert b4.secrecy_vd == 3.0
    with pytest.raises(ValueError):
        wiretap_bounds(W_B, W_E, p, 0, 1, math.e, None)
    with pytest.raises(ValueError):
        wiretap_bounds(W_B, W_E, p, 2, 1, 0.0, None)
    with pytest.raises(ValueError):
        wiretap_bounds(W_B, W_E, p, 2, 1, math.e, -1.0)


def test_threshold_error_bound_value():
    W, p = identity_channel(4), uniform(4)
    b = wiretap_bounds(W, constant_channel([1.0], 4), p, 2, 1, math.e, 2.0)
    # ratio 4 > 2 on the diagonal, so the miss mass is 0
    assert math.isclose(b.error_threshold, 3.0 * (0.0 + 2.0 / 2.0),
                        rel_tol=1e-13)


def test_mean_error_within_expectation_bound():
    # noiseless Bob with M*L = 2 of 16 symbols: a code errs only on a
    # codeword collision, and the sample mean must respect the
    # untripled expectation guarantee
    K = 16
    W_B = identity_channel(K)
    W_E = constant_channel([1.0], K)
    p = uniform(K)
    b = wiretap_bounds(W_B, W_E, p, 2, 1, math.e, None)
    samples = []
    for i in range(200):
        code = sample_wiretap_code(p, 2, 1, W_B, seed=900, index=i)
        samples.append(eval_wiretap(code, W_B, W_E, p).eps_B)
    mean = float(np.mean(samples))
    se = float(np.std(samples, ddof=1) / math.sqrt(len(samples)))
    assert mean <= b.error_gallager / 3.0 + 3.0 * se


def test_construct_fixture():
    W_B = product(bsc(0.1), 4)
    W_E = product(bsc(0.3), 4)
    p = product_dist(uniform(2), 4)
    res = construct_until_bounds(p, W_B, W_E, 2, 4, math.e, math.e, seed=42)
    assert res.satisfied and res.attempts == 1
    assert math.isclose(res.report.eps_B, 0.3056000000000001, rel_tol=1e-12)
    assert math.isclose(res.report.I_E, 0.03513050227474507, rel_tol=1e-12)
    assert math.isclose(res.report.d_E, 0.42400000000000004, rel_tol=1e-12)
    eps_target, leak_target, vd_target = res.targets
    assert eps_target == 3.0
    assert math.isclose(leak_target, 3.086993214793721, rel_tol=1e-12)
    assert math.isclose(vd_target, 5.708644216956366, rel_tol=1e-12)
    assert res.code.codewords.tolist() == [[13, 3, 13, 6], [5, 6, 3, 0]]
    assert res.report.decomposition_residual <= 1e-9


def test_construct_unsatisfied_collision():
    # noiseless Bob errs only when both codewords collide; this seed
    # collides on the first draw and the cap of one attempt forces an
    # honest unsatisfied result rather than an exception
    K = 16
    W_B = identity_channel(K)
    W_E = constant_channel([1.0], K)
    p = uniform(K)
    res = construct_until_bounds(p, W_B, W_E, 2, 1, math.e, None, seed=14,
                                 max_retries=1)
    assert not res.satisfied
    assert res.flags == (False, True, True)
    assert res.code.codewords.tolist() == [[12], [12]]
    assert res.report.eps_B == 0.5
    assert math.isclose(res.targets[0], 0.375, rel_tol=1e-12)
    assert res.attempts == 1
    # more retries recover: the second draw is collision free
    res = construct_until_bounds(p, W_B, W_E, 2, 1, math.e, None, seed=14,
                                 max_retries=10)
    assert res.satisfied and res.attempts == 2
    assert res.report.eps_B == 0.0


@pytest.mark.parametrize("max_retries", [0, -1])
def test_construct_needs_a_retry(max_retries):
    W = bsc(0.1)
    with pytest.raises(ValueError, match="max_retries"):
        construct_until_bounds(uniform(2), W, W, 2, 2, math.e, None, seed=0,
                               max_retries=max_retries)


def test_construct_attempt_callback():
    K = 16
    W_B = identity_channel(K)
    W_E = constant_channel([1.0], K)
    p = uniform(K)
    log = []
    construct_until_bounds(p, W_B, W_E, 2, 1, math.e, None, seed=14,
                           max_retries=10,
                           on_attempt=lambda k, r, ok: log.append((k, ok)))
    assert log[0] == (0, (False, True, True))
    assert log[1] == (1, (True, True, True))


@pytest.mark.parametrize("seed, satisfied, codewords", [
    # three colliding draws, all with the key (-2, 1/3): the first wins
    (1886, False, [[2], [2]]),
    (2954, False, None),
    # two colliding draws, then a collision-free one
    (222, True, None),
    (265, True, None),
])
def test_construct_exhaustion_matches_reference(seed, satisfied, codewords):
    K = 16
    args = (uniform(K), identity_channel(K), constant_channel([1.0], K),
            2, 1, math.e, None, seed, 3)
    got_log, want_log = [], []
    got = construct_until_bounds(
        *args, on_attempt=lambda k, r, ok: got_log.append((k, r, ok)))
    want = _construct_reference(
        *args, on_attempt=lambda k, r, ok: want_log.append((k, r, ok)))
    assert got.satisfied == satisfied
    assert got.attempts == want.attempts == 3
    if codewords is not None:
        assert got.code.codewords.tolist() == codewords
    assert np.array_equal(got.code.codewords, want.code.codewords)
    assert np.array_equal(got.code.decoder, want.code.decoder)
    assert got.report == want.report
    assert got.bounds == want.bounds
    assert dataclasses.astuple(got)[3:] == dataclasses.astuple(want)[3:]
    assert got_log == want_log
    assert all(type(flag) is bool for _, _, ok in got_log for flag in ok)


def test_construct_runs_without_threads(monkeypatch):
    W_B = product(bsc(0.1), 4)
    W_E = product(bsc(0.3), 4)
    p = product_dist(uniform(2), 4)
    base = construct_until_bounds(p, W_B, W_E, 2, 4, math.e, math.e, seed=42,
                                  max_retries=3)

    def refuse(self):
        raise AssertionError("construct_until_bounds started a thread")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    again = construct_until_bounds(p, W_B, W_E, 2, 4, math.e, math.e,
                                   seed=42, max_retries=3)
    assert np.array_equal(base.code.codewords, again.code.codewords)
    assert base.report == again.report
    assert base.attempts == again.attempts


@pytest.mark.parametrize("C", [math.nan, math.inf])
def test_non_finite_threshold_rejected(C):
    W, p = bsc(0.1), uniform(2)
    with pytest.raises(ValueError, match="finite"):
        wiretap_bounds(W, W, p, 2, 2, C, None)
    with pytest.raises(ValueError, match="finite"):
        wiretap_bounds(W, W, p, 2, 2, math.e, C)
    with pytest.raises(ValueError, match="finite"):
        sample_wiretap_code(p, 2, 2, W, seed=0, decoder_kind="threshold",
                            C_prime=C)


@pytest.mark.parametrize("call", [
    lambda: construct_until_bounds(uniform(2), bsc(0.1), bsc(0.3), 2, 2,
                                   math.e, 4.0, seed=0, decoder_kind="bogus"),
    lambda: sample_wiretap_code(uniform(2), 2, 2, bsc(0.1), 0,
                                decoder_kind="bogus"),
], ids=["construct_until_bounds", "sample_wiretap_code"])
def test_an_unknown_decoder_kind_is_refused_before_any_work(call,
                                                            monkeypatch):
    def work(*args, **kwargs):
        raise AssertionError("work before the decoder-kind check")

    for name in ("wiretap_bounds", "sample_wiretap_code", "stream"):
        monkeypatch.setattr(wiretap, name, work)
    with pytest.raises(ValueError, match="^unknown decoder kind 'bogus'$"):
        call()
