"""Array paths against the code they replace, bit for bit.

`rng.uniforms` draws what one `rng.stream` per index draws,
`channel._kl_rows` returns what the masked formula gives row by row,
`eval_wiretap` adds its sums over messages and pairs as explicit loops
would, `psi`, `phi` and the worst-case solve, which gather the powers
of each distinct entry through `Channel.levels`, return what powers of
the full matrix give, and
`eval_id_code`, `SetFamily` and `build_set_family`, which work on
blocks of messages or subsets, give what their per-message loops give.
Every comparison is exact (`np.array_equal`, `==`, or equal int64
views): the printed outputs of `chanres` depend on it.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chanres import (
    Channel,
    Distribution,
    bsc,
    identity_channel,
    phi,
    product,
    product_dist,
    uniform,
)
from chanres import ConvergenceError, channel, identification, psi
from chanres.channel import _kl, _kl_rows
from chanres.exponents import S_GRID, T_GRID, _worst_solve
from chanres.identification import (
    AdParams,
    IdCode,
    SetFamily,
    build_set_family,
    eval_id_code,
)
from chanres.rng import stream, uniforms
from chanres.wiretap import WiretapCode, eval_wiretap, sample_wiretap_code
from corpus import (PROPERTY, TINY_COLUMN as _TINY,
                    TINY_COLUMN_3X3 as _TINY_3X3, _normalized, _random_rows)
from oracles import (CrowdedStream, _first_pair_loop, _full_matrix_phi,
                     _full_matrix_psi, _full_matrix_worst, _masked_kl,
                     _pairwise_loop, build_reference, cap_attempts,
                     eval_reference)

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


@pytest.mark.parametrize("indices", [[], range(0)])
@pytest.mark.parametrize("shape", [(), (3,), (3, 2)])
def test_uniforms_of_no_indices_are_empty(indices, shape):
    assert uniforms(0, indices, shape).shape == (0,) + shape


@pytest.mark.parametrize("seed, indices", [(-1, [0]), (0, [-1]),
                                           (3, [0, 1, -2])])
def test_uniforms_rejects_negative_keys(seed, indices):
    with pytest.raises(ValueError, match="nonnegative"):
        uniforms(seed, indices)
    with pytest.raises(ValueError, match="nonnegative"):
        stream(seed, min(indices))


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
    expected = np.array([_masked_kl(row, b) for row in A])
    assert np.array_equal(_kl_rows(A, b), expected)
    assert _kl(A[0], b) == expected[0]


def test_kl_rows_edge_cases():
    b = np.array([0.5, 0.0, 0.5])
    A = np.array([[0.5, 0.0, 0.5],      # equal to b: zero
                  [1.0, 0.0, 0.0],      # a point mass inside supp(b)
                  [0.2, 0.3, 0.5],      # mass outside supp(b): inf
                  [0.0, 1.0, 0.0]])     # all its mass outside: inf
    got = _kl_rows(A, b)
    assert np.array_equal(got, [_masked_kl(row, b) for row in A])
    assert got[0] == 0.0 and got[1] == math.log(2.0)
    assert got[2] == got[3] == math.inf
    # a single row
    assert np.array_equal(_kl_rows(A[1:2], b), [math.log(2.0)])


def _sampled_codes():
    """Codes sampled on one Bob, each M against a new Eve of 16 outputs."""
    gen = np.random.default_rng(8)
    rows = np.eye(3) + 0.1
    W_B = Channel(rows / rows.sum(axis=1, keepdims=True))
    for M in (1, 2, 7, 40):
        rows = gen.random((3, 16)) + 0.01
        W_E = Channel(rows / rows.sum(axis=1, keepdims=True))
        yield sample_wiretap_code(uniform(3), M, 3, W_B, seed=M), W_B, W_E


def _index_codes():
    """Arbitrary codewords, M = 1 to 80, against one sparse Eve."""
    rnd = np.random.default_rng(7)
    rows = rnd.random((3, 96)) * (rnd.random((3, 96)) < 0.7)
    W_E = Channel(rows / rows.sum(axis=1, keepdims=True))
    W_B = Channel(np.full((3, 4), 0.25))
    for M in range(1, 81):
        cw = rnd.integers(0, 3, (M, 2))
        yield (WiretapCode(cw, np.zeros(4, dtype=int)),
               W_B, W_E)


@pytest.mark.parametrize("codes", [_sampled_codes, _index_codes],
                         ids=["sampled", "M-1-to-80"])
def test_d_E_equals_the_double_loop(codes):
    p = uniform(3)
    for code, W_B, W_E in codes():
        q_e = W_E.rows[code.codewords].mean(axis=1)
        M = len(code.codewords)
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
    return WiretapCode(cw, dec), W_B, W_E, p


@settings(max_examples=40, deadline=None, derandomize=True)
@given(wiretap_case())
def test_eval_wiretap_equals_explicit_loops(case):
    code, W_B, W_E, p = case
    M = code.codewords.shape[0]
    q_b = W_B.rows[code.codewords].mean(axis=1)
    q_e = W_E.rows[code.codewords].mean(axis=1)
    correct = 0.0
    for m in range(M):
        correct += float(q_b[m][code.decoder == m].sum())

    report = eval_wiretap(code, W_B, W_E, p)
    assert report.eps_B == 1.0 - correct / M
    assert report.d_E == _pairwise_loop(q_e)
    assert report.I_E == float(np.mean(
        [_masked_kl(q_e[m], q_e.mean(axis=0)) for m in range(M)]))


def _bits(x):
    return np.asarray(x, dtype=float).view(np.int64)


# the grids, and t = -0.5, 0, 1: the exponents 2, 1, 1/2 `_power`
# takes as square, copy and sqrt
_SPECIAL_T = np.array([-0.5, 0.0, 1.0])
_ALL_T = np.concatenate([S_GRID, T_GRID, _SPECIAL_T])


def _assert_phi_bits(W, p, scalars):
    values, index = W.levels
    assert np.array_equal(_bits(values[index]), _bits(W.rows))
    for ts in (S_GRID, T_GRID, _SPECIAL_T):
        assert np.array_equal(_bits(phi(ts, W, p)),
                              _bits(_full_matrix_phi(ts, W, p)))
    for t in scalars:
        assert _bits(phi(t, W, p)) == _bits(_full_matrix_phi(t, W, p))


def _assert_psi_bits(W, p, scalars):
    for ss in (S_GRID, T_GRID, _SPECIAL_T):
        assert np.array_equal(_bits(psi(ss, W, p)),
                              _bits(_full_matrix_psi(ss, W, p)))
    for s in scalars:
        assert _bits(psi(s, W, p)) == _bits(_full_matrix_psi(s, W, p))


def _assert_worst_bits(W, x, is_t):
    """The values and laws of one stack, or the same ConvergenceError."""
    try:
        expected = _full_matrix_worst(x, W, is_t)
    except ConvergenceError as exc:
        with pytest.raises(ConvergenceError) as info:
            _worst_solve(x, W, is_t)
        assert str(info.value) == str(exc)
        return
    for got, want in zip(_worst_solve(x, W, is_t), expected, strict=True):
        assert np.array_equal(_bits(got), _bits(want))


# a stack of both families: every 100th s and every 50th t of the grids,
# with the ends, 0 and s = 1, which skip the Newton stack
_WORST_X = np.concatenate([S_GRID[::100], T_GRID[::50]])
_WORST_T = np.repeat([False, True], [S_GRID[::100].size, T_GRID[::50].size])


@st.composite
def channel_with_negative_zero(draw):
    """(W, p): rows with zero entries, one of them -0.0, which
    `Channel` keeps."""
    X = draw(st.integers(1, 4))
    Y = draw(st.integers(2, 4))
    rows = np.array([_normalized(draw, Y) for _ in range(X)])
    zeros = np.argwhere(rows == 0)
    if zeros.size:
        x, y = zeros[draw(st.integers(0, len(zeros) - 1))]
        rows[x, y] = -0.0
    return Channel(rows), Distribution(_normalized(draw, X))


@PROPERTY
@given(channel_with_negative_zero(), st.integers(1, 3),
       st.lists(st.sampled_from(_ALL_T.tolist()), min_size=1, max_size=6))
def test_phi_gather_equals_full_matrix_powers(case, n, scalars):
    W, p = case
    Wn, pn = product(W, n), product_dist(p, n)
    # the products keep a -0.0 entry (-0.0 times a positive entry)
    assert np.signbit(Wn.rows).any() == np.signbit(W.rows).any()
    _assert_phi_bits(Wn, pn, scalars)


@PROPERTY
@given(channel_with_negative_zero(), st.integers(1, 3),
       st.lists(st.sampled_from(_ALL_T.tolist()), min_size=1, max_size=6))
def test_psi_gather_equals_full_matrix_powers(case, n, scalars):
    W, p = case
    _assert_psi_bits(product(W, n), product_dist(p, n), scalars)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(channel_with_negative_zero(), st.integers(1, 2))
def test_worst_gather_equals_full_matrix_powers(case, n):
    _assert_worst_bits(product(case[0], n), _WORST_X, _WORST_T)


@pytest.mark.parametrize("W", [_TINY, _TINY_3X3, product(_TINY, 2)])
def test_tiny_column_gathers_equal_full_matrix_powers(W):
    p = Distribution(_random_rows(np.random.default_rng(2), 1,
                                  W.input_size)[0])
    _assert_psi_bits(W, p, [0.95, 1.0, -0.5])
    _assert_phi_bits(W, p, [-0.3, 1.0])
    for grid, is_t in ((S_GRID, False), (T_GRID, True)):
        _assert_worst_bits(W, grid, is_t)
    _assert_worst_bits(W, _WORST_X, _WORST_T)


# phi's gather gives the bits of full-matrix powers on channels whose
# entries repeat and on channels whose entries are all or mostly
# distinct (comments: distinct entries of all entries)
@pytest.mark.parametrize("rows", [
    _random_rows(np.random.default_rng(0), 6, 6),     # 36 of 36
    np.array([[0.5, 0.25, 0.25], [0.25, 0.5, 0.25]]),  # 2 of 6
    np.array([[0.5, 0.3, 0.2], [0.2, 0.5, 0.3]]),      # 3 of 6
    np.array([[0.5, 0.3, 0.2], [0.1, 0.5, 0.4]]),      # 5 of 6
    np.array([[0.6, 0.4]]),                            # 2 of 2
    bsc(0.1).rows,
    identity_channel(5).rows,
    product(bsc(0.2), 3).rows,
])
def test_phi_gather_on_repeated_and_distinct_entries(rows):
    W = Channel(rows)
    assert isinstance(W.levels, tuple)
    p = Distribution(_random_rows(np.random.default_rng(1), 1, W.input_size)[0])
    _assert_phi_bits(W, p, _SPECIAL_T.tolist() + [0.3, -0.2])


def test_levels_computed_once_per_channel(monkeypatch):
    W, p = product(bsc(0.1), 4), product_dist(Distribution([0.3, 0.7]), 4)
    sorts = []
    sort = np.sort

    def counted(*args, **kwargs):
        sorts.append(1)
        return sort(*args, **kwargs)

    monkeypatch.setattr(np, "sort", counted)
    phi(0.5, W, p)
    levels = W.levels
    for t in (-0.25, 1.0):
        phi(t, W, p)
    phi(T_GRID, W, p)
    assert W.levels is levels
    assert len(sorts) == 1
    phi(0.5, product(bsc(0.1), 4), p)
    assert len(sorts) == 2


def _assert_eval_equals_loop(code, W, p):
    expected = eval_reference(code, W, p)[:2]
    # one region or one message per block, then the default blocks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(channel, "_BLOCK_FLOATS", 1)
        got = eval_id_code(code, W, p)
    assert (got.mu, got.lam) == expected
    got = eval_id_code(code, W, p)
    assert (got.mu, got.lam) == expected
    return got


@st.composite
def id_code_case(draw):
    """A random channel and code: unequal subset sizes up to 16 words."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    X = draw(st.integers(1, 20))
    Y = draw(st.integers(1, 40))
    spread = draw(st.sampled_from([0.05, 0.5, 3.0]))
    W = Channel(rng.dirichlet(np.full(Y, spread), size=X))
    p = Distribution(rng.dirichlet(np.ones(X)))
    m = draw(st.integers(1, X))
    codewords = rng.permutation(X)[:m].tolist()
    subsets = [rng.choice(m, size=int(rng.integers(1, min(m, 16) + 1)),
                          replace=False).tolist()
               for _ in range(draw(st.integers(1, 30)))]
    C = draw(st.sampled_from([0.3, 1.0, 1.5, 4.0]))
    return IdCode(tuple(codewords), tuple(subsets), C), W, p


@PROPERTY
@given(id_code_case())
def test_eval_id_code_equals_the_message_loop(case):
    code, W, p = case
    got = _assert_eval_equals_loop(code, W, p)
    if code.messages == 1:
        assert got.lam == 0.0


def _windows(m, k, step=1):
    return tuple(tuple((s + d) % m for d in range(k))
                 for s in range(0, m, step))


@pytest.mark.parametrize("k", [1, 2, 3, 9, 12])
def test_eval_id_code_ties_on_identity_channels(k):
    # on the identity channel every mass is a count over k: many pairs
    # tie at the largest, and the screen must keep every tied region
    W, p = identity_channel(16), Distribution(np.full(16, 1 / 16))
    code = IdCode(tuple(range(16)), _windows(16, k), 2.0)
    got = _assert_eval_equals_loop(code, W, p)
    assert math.isclose(got.lam, (k - 1) / k)
    single = IdCode(tuple(range(16)), _windows(16, k)[:1], 2.0)
    assert _assert_eval_equals_loop(single, W, p).lam == 0.0


@pytest.mark.parametrize("k, step", [(3, 1), (9, 1), (10, 3)])
def test_eval_id_code_near_ties_on_circulant_channels(k, step):
    # rows are cyclic shifts of one law and the subsets cyclic windows:
    # a shift maps each pair of messages to another with the same real
    # mass, summed in another order, so the masses differ in last bits
    rng = np.random.default_rng(k)
    Y = 40
    law = rng.dirichlet(np.ones(Y))
    W = Channel(np.array([np.roll(law, x) for x in range(Y)]))
    p = Distribution(np.full(Y, 1 / Y))
    for C in (0.5, 1.0, 1.3):
        code = IdCode(tuple(range(Y)), _windows(Y, k, step), C)
        _assert_eval_equals_loop(code, W, p)


# 9 elements and caps from 0.5 at the default block size, and 14
# elements in blocks of 1, 40 and 2^14 floats
@pytest.mark.parametrize("seed, draws, elements, sizes, caps, block_floats", [
    (11, 200, 9, (2, 9), [0.5, 1.0, 1.5, 2.0, 3.0], None),
    *[(b, 150, 14, (1, 30), [1.0, 1.5, 2.0, 3.0], b)
      for b in (1, 40, 2 ** 14)],
], ids=["9-elements", "1", "40", "16384"])
def test_set_family_error_names_the_loops_first_pair(
        monkeypatch, seed, draws, elements, sizes, caps, block_floats):
    if block_floats is not None:
        monkeypatch.setattr(channel, "_BLOCK_FLOATS", block_floats)
    rng = np.random.default_rng(seed)
    raised = 0
    for _ in range(draws):
        size = int(rng.integers(1, 5))
        subsets = tuple(frozenset(rng.choice(elements, size=size,
                                             replace=False).tolist())
                        for _ in range(int(rng.integers(*sizes))))
        cap = float(rng.choice(caps))
        expected = _first_pair_loop(subsets, cap)
        if expected is None:
            assert SetFamily(subsets, cap).subsets == subsets
            continue
        raised += 1
        with pytest.raises(ValueError) as info:
            SetFamily(subsets, cap)
        assert str(info.value) == expected
    assert raised > 50


@pytest.mark.parametrize("crowded", [False, True])
def test_build_set_family_equals_the_subset_loop(monkeypatch, crowded):
    # with SetFamily's overlap check in its default blocks and in blocks of a
    # few subsets; real parameters almost never reject a candidate,
    # crowded draws make the overlap test refuse most of them
    if crowded:
        monkeypatch.setattr(identification, "stream", CrowdedStream)
    params = AdParams(M=100, tau=0.1, kappa=0.8)
    for block_floats in (channel._BLOCK_FLOATS, 64):
        monkeypatch.setattr(channel, "_BLOCK_FLOATS", block_floats)
        for seed, max_attempts in ((0, 300), (1, 300), (1, 1000), (2, 40)):
            cap_attempts(monkeypatch, max_attempts)
            built = build_set_family(params, seed)
            ref = build_reference(params, seed)
            assert (built.family.subsets, built.attempts,
                    built.complete) == ref
            assert built.family.size > 1
            if crowded:
                assert built.attempts > built.family.size
