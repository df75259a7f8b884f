"""The Monte Carlo array paths against the loops they replace, bit for bit.

`rng.uniforms` draws what one `rng.stream` per index draws,
`channel._kl_rows` returns what `_kl` returns row by row, and
`eval_wiretap` adds its sums over messages and pairs as explicit loops
would.  Every comparison is exact (`np.array_equal` or `==`): the
printed outputs of `chanres simulate` depend on it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanres import Channel, Distribution, output_distribution
from chanres.channel import _kl, _kl_rows
from chanres.rng import stream, uniforms
from chanres.wiretap import WiretapCode, eval_wiretap

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

_SHAPES = st.one_of(st.just(()), st.tuples(st.integers(1, 16)),
                    st.tuples(st.integers(1, 16), st.integers(1, 5)))


@PROPERTY
@given(seed=st.integers(0, 2 ** 63),
       indices=st.lists(st.integers(0, 2 ** 63), min_size=1, max_size=8),
       shape=_SHAPES)
@example(seed=2 ** 63, indices=[0, 2 ** 63, 0], shape=())
def test_uniforms_equal_one_stream_per_index(seed, indices, shape):
    expected = np.stack([stream(seed, i).random(shape) for i in indices])
    got = uniforms(seed, indices, shape)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("seed, indices", [(-1, [0]), (0, [-1]),
                                           (3, [0, 1, -2])])
def test_uniforms_rejects_negative_keys(seed, indices):
    with pytest.raises(ValueError, match="nonnegative"):
        uniforms(seed, indices)
    with pytest.raises(ValueError, match="nonnegative"):
        stream(seed, min(indices))


# zero, or a weight bounded away from zero before normalization
_WEIGHT = st.one_of(st.just(0.0), st.floats(0.05, 1.0))


def _normalized(draw, size):
    w = draw(st.lists(_WEIGHT, min_size=size, max_size=size)
             .filter(lambda v: sum(v) > 0))
    return np.array(w) / sum(w)


@st.composite
def rows_and_law(draw):
    """(A, b): probability rows with zeros, and a law b with zeros, so
    rows with mass outside supp(b) occur."""
    Y = draw(st.integers(1, 40))
    R = draw(st.integers(1, 12))
    A = np.array([_normalized(draw, Y) for _ in range(R)])
    return A, _normalized(draw, Y)


@PROPERTY
@given(rows_and_law())
def test_kl_rows_equal_the_kl_loop(case):
    A, b = case
    expected = np.array([_kl(row, b) for row in A])
    assert np.array_equal(_kl_rows(A, b), expected)


def test_kl_rows_edge_cases():
    b = np.array([0.5, 0.0, 0.5])
    A = np.array([[0.5, 0.0, 0.5],      # equal to b: zero
                  [1.0, 0.0, 0.0],      # a point mass inside supp(b)
                  [0.2, 0.3, 0.5],      # mass outside supp(b): inf
                  [0.0, 1.0, 0.0]])     # all its mass outside: inf
    got = _kl_rows(A, b)
    assert np.array_equal(got, [_kl(row, b) for row in A])
    assert got[0] == 0.0 and got[1] == math.log(2.0)
    assert got[2] == got[3] == math.inf
    # a single row
    assert np.array_equal(_kl_rows(A[1:2], b), [math.log(2.0)])


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


def test_d_E_equals_double_loop_for_M_1_to_80():
    rnd = np.random.default_rng(7)
    rows = rnd.random((3, 96)) * (rnd.random((3, 96)) < 0.7)
    W_E = Channel(rows / rows.sum(axis=1, keepdims=True))
    W_B = Channel(np.full((3, 4), 0.25))
    p = Distribution(np.full(3, 1.0 / 3.0))
    for M in range(1, 81):
        cw = rnd.integers(0, 3, (M, 2))
        code = WiretapCode(cw, np.zeros(4, dtype=int), M, 2,
                           "maximum_likelihood")
        q_e = W_E.rows[cw].mean(axis=1)
        assert eval_wiretap(code, W_B, W_E, p).d_E == _pairwise_loop(q_e), M


@st.composite
def wiretap_case(draw):
    """A code with arbitrary codewords and decoder (inputs outside supp(p)
    included) on random channels; the eavesdropper's alphabet is wide
    enough that the pairwise distances split into several blocks."""
    K = draw(st.integers(1, 4))
    Y_B = draw(st.integers(1, 6))
    Y_E = draw(st.sampled_from([1, 2, 3, 8, 64, 300]))
    W_B = Channel(np.array([_normalized(draw, Y_B) for _ in range(K)]))
    W_E = Channel(np.array([_normalized(draw, Y_E) for _ in range(K)]))
    p = Distribution(_normalized(draw, K))
    M = draw(st.integers(1, 80))
    L = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2 ** 32))
    rnd = np.random.default_rng(seed)
    cw = rnd.integers(0, K, (M, L))
    dec = rnd.integers(-1, M, Y_B)
    return WiretapCode(cw, dec, M, L, "maximum_likelihood"), W_B, W_E, p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(wiretap_case())
def test_eval_wiretap_equals_explicit_loops(case):
    code, W_B, W_E, p = case
    M = code.M
    q_b = W_B.rows[code.codewords].mean(axis=1)
    q_e = W_E.rows[code.codewords].mean(axis=1)
    correct = 0.0
    for m in range(M):
        correct += float(q_b[m][code.decoder == m].sum())
    wp_e = output_distribution(W_E, p).probs
    bound = 2.0 * float(np.mean([np.abs(q_e[m] - wp_e).sum()
                                 for m in range(M)]))

    report = eval_wiretap(code, W_B, W_E, p)
    assert report.eps_B == 1.0 - correct / M
    assert report.d_E == _pairwise_loop(q_e)
    assert report.I_E == float(np.mean([_kl(q_e[m], q_e.mean(axis=0))
                                        for m in range(M)]))
    assert report.pairwise_bound == bound
