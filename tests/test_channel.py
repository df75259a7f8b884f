"""Probability primitives: validation, products, divergences, dispersion."""

import json
import math
import re

import numpy as np
import pytest

from chanres import (
    BudgetError,
    Channel,
    Distribution,
    EnumerationBudget,
    IdCode,
    ResolvabilityCode,
    SetFamily,
    WiretapCode,
    bsc,
    capacity,
    constant_channel,
    dispersion_J,
    divergence_tail_check,
    identity_channel,
    kl_divergence,
    load_channel,
    load_distribution,
    load_id_code,
    mutual_information,
    output_distribution,
    point_mass,
    product,
    product_dist,
    save_channel,
    save_distribution,
    sample_wiretap_code,
    save_id_code,
    tail_pair,
    uniform,
    variational_distance,
)
from chanres.channel import _BLOCK_FLOATS, _laws, _prefix_table, _word_rows
from corpus import dirichlet_law
from oracles import binary_entropy


def test_distribution_validation():
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, -0.1, 0.6]))
    with pytest.raises(ValueError):
        Distribution(np.array([0.5, 0.5 + 2e-10]))
    with pytest.raises(ValueError):
        Distribution(np.array([]))
    # a 1e-13 mass defect is accepted and renormalized away
    p = Distribution(np.array([0.5, 0.5 + 5e-13]))
    assert math.isclose(float(p.probs.sum()), 1.0, abs_tol=1e-15)
    assert not p.probs.flags.writeable


def test_channel_validation():
    with pytest.raises(ValueError):
        Channel(np.array([[0.5, 0.4], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Channel(np.array([[1.2, -0.2], [0.5, 0.5]]))
    with pytest.raises(ValueError):
        Channel(np.zeros((0, 2)))
    W = bsc(0.1)
    assert W.input_size == 2 and W.output_size == 2
    assert not W.rows.flags.writeable
    with pytest.raises(ValueError):
        bsc(1.5)


def test_helpers():
    assert np.array_equal(uniform(4).probs, np.full(4, 0.25))
    assert np.array_equal(point_mass(1, 3).probs, [0.0, 1.0, 0.0])
    assert np.array_equal(identity_channel(3).rows, np.eye(3))
    const = constant_channel([0.3, 0.7], 4)
    assert const.input_size == 4
    assert np.array_equal(const.rows, np.tile([0.3, 0.7], (4, 1)))


def test_output_distribution():
    wp = output_distribution(bsc(0.1), Distribution(np.array([0.8, 0.2])))
    assert math.isclose(wp.probs[0], 0.8 * 0.9 + 0.2 * 0.1, rel_tol=1e-15)
    assert math.isclose(wp.probs[1], 0.8 * 0.1 + 0.2 * 0.9, rel_tol=1e-15)
    with pytest.raises(ValueError):
        output_distribution(bsc(0.1), uniform(3))


def test_product_is_little_endian():
    # first coordinate = least significant digit of the product index
    W = Channel(np.array([[0.9, 0.1], [0.2, 0.8]]))
    W2 = product(W, 2)
    for x0 in range(2):
        for x1 in range(2):
            for y0 in range(2):
                for y1 in range(2):
                    assert math.isclose(
                        W2.rows[x0 + 2 * x1, y0 + 2 * y1],
                        W.rows[x0, y0] * W.rows[x1, y1], rel_tol=1e-15)
    p = Distribution(np.array([0.7, 0.3]))
    p3 = product_dist(p, 3)
    for x0 in range(2):
        for x1 in range(2):
            for x2 in range(2):
                assert math.isclose(
                    p3.probs[x0 + 2 * x1 + 4 * x2],
                    p.probs[x0] * p.probs[x1] * p.probs[x2], rel_tol=1e-15)


def test_product_budget():
    with pytest.raises(BudgetError) as err:
        product(bsc(0.1), 40)
    assert "max_joint_states" in str(err.value)
    with pytest.raises(BudgetError):
        product_dist(uniform(2), 3, EnumerationBudget(7))
    assert product_dist(uniform(2), 3, EnumerationBudget(8)).size == 8
    with pytest.raises(ValueError):
        EnumerationBudget(0)
    with pytest.raises(ValueError):
        product(bsc(0.1), 0)


def test_variational_distance():
    p = Distribution(np.array([0.9, 0.1]))
    q = uniform(2)
    assert math.isclose(variational_distance(p, q), 0.8, rel_tol=1e-15)
    assert variational_distance(p, p) == 0.0
    assert math.isclose(
        variational_distance(point_mass(0, 2), point_mass(1, 2)), 2.0)
    with pytest.raises(ValueError):
        variational_distance(p, uniform(3))


def test_kl_divergence():
    p = Distribution(np.array([0.9, 0.1]))
    q = uniform(2)
    # direct two-term evaluation
    oracle = 0.9 * math.log(0.9 / 0.5) + 0.1 * math.log(0.1 / 0.5)
    val = kl_divergence(p, q)
    assert math.isclose(val, oracle, rel_tol=1e-14)
    assert math.isclose(val, 0.36806420716849714, rel_tol=1e-15)
    assert kl_divergence(p, p) == 0.0
    assert kl_divergence(q, point_mass(0, 2)) == math.inf
    # mass escaping the support only matters on p's support
    assert kl_divergence(point_mass(0, 2), q) == math.log(2.0)
    with pytest.raises(ValueError, match="^dimension mismatch$"):
        kl_divergence(p, uniform(3))


def test_mutual_information_closed_forms():
    for w in (0.05, 0.1, 0.25):
        val = mutual_information(uniform(2), bsc(w))
        assert math.isclose(val, math.log(2.0) - binary_entropy(w),
                            rel_tol=1e-13)
    assert mutual_information(uniform(3), identity_channel(3)) == pytest.approx(
        math.log(3.0), rel=1e-15)
    assert mutual_information(uniform(4), constant_channel([0.2, 0.8], 4)) == 0.0


def test_mutual_information_additive_over_products():
    rng = np.random.default_rng(7)
    for _ in range(10):
        W, p = dirichlet_law(rng, (2, 4))
        base = mutual_information(p, W)
        for n in (2, 3):
            val = mutual_information(product_dist(p, n), product(W, n))
            assert math.isclose(val, n * base, rel_tol=1e-9, abs_tol=1e-9)


def test_dispersion_oracle():
    # four-cell enumeration of the information-density variance
    W = bsc(0.1)
    p = uniform(2)
    wp = [0.5, 0.5]
    mean = 0.0
    second = 0.0
    for x in range(2):
        for y in range(2):
            dens = math.log(W.rows[x, y]) - math.log(wp[y])
            mass = p.probs[x] * W.rows[x, y]
            mean += mass * dens
            second += mass * dens * dens
    oracle = 0.5 * (second - mean * mean)
    val = dispersion_J(p, W)
    assert math.isclose(val, oracle, rel_tol=1e-13)
    assert math.isclose(val, 0.2172508129462647, rel_tol=1e-15)
    # noiseless and constant channels carry no density spread; rounding
    # can leave cancellation dust when alphabet masses are inexact
    assert dispersion_J(uniform(2), identity_channel(2)) == 0.0
    assert dispersion_J(uniform(3), identity_channel(3)) <= 1e-14
    assert dispersion_J(uniform(2), constant_channel([0.4, 0.6], 2)) == 0.0


def test_pinsker_inequality_holds():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        p = Distribution(rng.dirichlet(np.ones(k)))
        q = Distribution(rng.dirichlet(np.ones(k)))
        d = variational_distance(p, q)
        assert kl_divergence(p, q) >= d * d / 2.0 - 1e-12


def test_variational_triangle_inequality():
    rng = np.random.default_rng(43)
    for _ in range(500):
        k = int(rng.integers(2, 7))
        p = Distribution(rng.dirichlet(np.ones(k)))
        q = Distribution(rng.dirichlet(np.ones(k)))
        r = Distribution(rng.dirichlet(np.ones(k)))
        assert variational_distance(p, q) <= (
            variational_distance(p, r) + variational_distance(r, q) + 1e-12)


def test_divergence_tail_check():
    lhs, rhs = divergence_tail_check(point_mass(0, 2), uniform(2), 0.5)
    assert math.isclose(lhs, math.log(2.0) + 1.0 / math.e, rel_tol=1e-14)
    assert math.isclose(rhs, 0.5, rel_tol=1e-15)
    # atoms where q vanishes land in the tail event and lhs is infinite
    lhs, rhs = divergence_tail_check(uniform(2), point_mass(0, 2), 2.0)
    assert lhs == math.inf
    assert math.isclose(rhs, 1.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        divergence_tail_check(uniform(2), uniform(2), 0.0)
    with pytest.raises(ValueError, match="alpha must be positive and finite"):
        divergence_tail_check(uniform(2), uniform(2), math.nan)


def test_divergence_tail_check_never_violated():
    rng = np.random.default_rng(44)
    for _ in range(2000):
        k = int(rng.integers(2, 6))
        p = Distribution(rng.dirichlet(np.ones(k)))
        q = Distribution(rng.dirichlet(np.ones(k)))
        alpha = float(rng.uniform(0.01, 5.0))
        lhs, rhs = divergence_tail_check(p, q, alpha)
        assert lhs >= rhs - 1e-12


def test_channel_json_round_trip(tmp_path):
    W = Channel(np.array([[0.9, 0.1], [0.25, 0.75]]))
    path = tmp_path / "w.json"
    save_channel(W, path)
    back = load_channel(path)
    assert np.array_equal(back.rows, W.rows)

    p = Distribution(np.array([0.6, 0.4]))
    dpath = tmp_path / "p.json"
    save_distribution(p, dpath)
    assert np.array_equal(load_distribution(dpath).probs, p.probs)


def test_channel_json_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"input_size": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}')
    with pytest.raises(ValueError) as err:
        load_channel(bad)
    assert "output_size" in str(err.value)

    shape = tmp_path / "shape.json"
    shape.write_text(
        '{"input_size": 3, "output_size": 2, "rows": [[1.0, 0.0], [0.0, 1.0]]}')
    with pytest.raises(ValueError) as err:
        load_channel(shape)
    assert "shape" in str(err.value)

    nodist = tmp_path / "nodist.json"
    nodist.write_text('{"values": [0.5, 0.5]}')
    with pytest.raises(ValueError) as err:
        load_distribution(nodist)
    assert "probs" in str(err.value)

    for text, field in (('{"input_size": 2.5, "output_size": 2, '
                         '"rows": [[1, 0], [0, 1]]}', "input_size"),
                        ('{"input_size": 2, "output_size": NaN, '
                         '"rows": [[1, 0], [0, 1]]}', "output_size"),
                        ('{"input_size": 2, "output_size": 2, '
                         '"rows": [[true, false], [false, true]]}', "rows")):
        bad.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{bad}: field '{field}'")):
            load_channel(bad)
    bad.write_text('{"input_size": 2.0, "output_size": 2, '
                   '"rows": [[1, 0], [0, 1]]}')
    assert load_channel(bad).input_size == 2
    nodist.write_text('{"probs": ["0.5", "0.5"]}')
    with pytest.raises(ValueError, match=re.escape(f"{nodist}: field 'probs'")):
        load_distribution(nodist)


def test_non_finite_entries_rejected():
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="non-finite"):
            Distribution(np.array([bad, 1.0]))
        with pytest.raises(ValueError, match="non-finite"):
            Channel(np.array([[bad, 1.0], [0.5, 0.5]]))


def test_laws_divide_as_distribution_and_channel_did():
    # bit for bit v / float(v.sum()) and R / R.sum(axis=1)[:, None], the
    # divisions of Distribution and Channel; totals a few 1e-13 off one
    # make every division count
    gen = np.random.default_rng(23)
    for n in (1, 2, 3, 2 ** 16, *gen.integers(1, 2 ** 16, 24)):
        v = gen.random(n) * (gen.random(n) < 0.8)
        v[0] += 1.0
        v = v / v.sum() * (1.0 + gen.uniform(-5e-13, 5e-13))
        old = v / float(v.sum())
        assert np.array_equal(_laws(v, 1).view(np.int64), old.view(np.int64))
    for shape in ((1, 1), (256, 256), *gen.integers(1, 257, (24, 2))):
        R = gen.random(shape) * (gen.random(shape) < 0.8)
        R[:, 0] += 1.0
        R = R / R.sum(axis=1)[:, None] * (
            1.0 + gen.uniform(-5e-13, 5e-13, (shape[0], 1)))
        old = R / R.sum(axis=1)[:, None]
        assert np.array_equal(_laws(R, 2).view(np.int64), old.view(np.int64))


@pytest.mark.parametrize("build, values, text", [
    (Distribution, [], "distribution must be a non-empty vector"),
    (Distribution, [[0.5, 0.5]], "distribution must be a non-empty vector"),
    (Distribution, [math.nan, 1.0], "non-finite probability entry"),
    (Distribution, [-0.5, 1.5], "negative probability entry"),
    (Distribution, [0.5, 0.6], "probabilities sum to 1.1, not 1"),
    (Channel, [[]], "channel must be a non-empty matrix"),
    (Channel, [0.5, 0.5], "channel must be a non-empty matrix"),
    (Channel, [[1.0, 0.0], [math.inf, 1.0]], "non-finite channel entry"),
    (Channel, [[1.0, 0.0], [-0.5, 1.5]], "negative channel entry"),
    (Channel, [[1.0, 0.0], [0.5, 0.6]], "channel row 1 sums to 1.1, not 1"),
])
def test_law_errors_keep_their_texts(build, values, text):
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        build(np.array(values))


@pytest.mark.parametrize("rows", [
    [[0.9, 0.1], [0.1, 0.9]],
    [[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]],
    [[1.0, 0.0], [0.3, 0.7]],
], ids=["bsc", "asym3", "z"])
def test_word_rows_equal_materialized_product(rows):
    W = Channel(np.array(rows))
    K = W.input_size
    gen = np.random.default_rng(3)
    for n in range(1, 5):
        dense = product(W, n).rows
        index = np.arange(K ** n)
        # digit k of the index is letter k, the first least significant
        words = index[:, None] // K ** np.arange(n) % K
        picked = gen.integers(K ** n, size=(3, 5))
        batch = picked[..., None] // K ** np.arange(n) % K
        # each word started from the table row of its first k letters,
        # or gathered by its first letter alone at k = 1
        for k in range(1, n + 1):
            prefix = _prefix_table(W, k)
            assert prefix[0] == k
            assert np.all(_word_rows(W, words, prefix) == dense)
            assert np.all(_word_rows(W, batch, prefix) == dense[picked])


@pytest.mark.parametrize("W, n, k", [
    (bsc(0.1), 4, 4),
    (bsc(0.1), 8, 7),
    (Channel(np.full((16, 16), 1 / 16)), 4, 1),
    (constant_channel([1.0], 1), 10 ** 4, 10 ** 4),
], ids=["2x2-n4", "2x2-n8", "16x16", "1x1"])
def test_prefix_table_fits_one_block(W, n, k):
    got, table = _prefix_table(W, n)
    assert got == k
    assert table.shape == (W.input_size ** k, W.output_size ** k)
    assert table.size <= _BLOCK_FLOATS


@pytest.mark.parametrize("save, load, value, doc", [
    (save_channel, load_channel, Channel(np.array([[0.75, 0.25], [0.5, 0.5]])),
     {"input_size": 2, "output_size": 2, "rows": [[0.75, 0.25], [0.5, 0.5]]}),
    (save_distribution, load_distribution,
     Distribution(np.array([0.25, 0.75])), {"probs": [0.25, 0.75]}),
    (save_id_code, load_id_code, IdCode((2, 0, 1), ((0, 1), (2,)), 1.5),
     {"codewords": [2, 0, 1], "subsets": [[0, 1], [2]], "C": 1.5}),
], ids=["channel", "distribution", "id_code"])
def test_writers_share_one_layout(tmp_path, save, load, value, doc):
    path, back = tmp_path / "out.json", tmp_path / "back.json"
    save(value, path)
    text = path.read_text(encoding="utf-8")
    assert text == json.dumps(doc, indent=2) + "\n"
    save(load(path), back)
    assert back.read_text(encoding="utf-8") == text


# one index rule for the four code types: each builder takes three
# entries and returns what the code stores of them
_CODE_TYPES = {
    "resolvability": lambda e: ResolvabilityCode(tuple(e)).codewords,
    "wiretap_codewords": lambda e: WiretapCode(
        [[v] for v in e], [0, 1, -1]).codewords.ravel().tolist(),
    "wiretap_decoder": lambda e: WiretapCode(
        [[0], [1], [2]], list(e)).decoder.tolist(),
    "id_code": lambda e: IdCode(tuple(e), ((0,), (1, 2)), 2.0).codewords,
    "set_family": lambda e: sorted(
        SetFamily((frozenset(e),), 1.5).subsets[0]),
}


@pytest.mark.parametrize("build", _CODE_TYPES.values(), ids=_CODE_TYPES)
@pytest.mark.parametrize("entries", [(0, 1.5, 2), (0, 1, math.nan),
                                     (0, "1", 2), (0, None, 2)])
def test_code_types_refuse_fractional_indices(build, entries):
    bad = next(v for v in entries if not isinstance(v, int))
    with pytest.raises(ValueError,
                       match=re.escape(f"{bad!r} is not an integer")):
        build(entries)


@pytest.mark.parametrize("build", _CODE_TYPES.values(), ids=_CODE_TYPES)
@pytest.mark.parametrize("entries", [(0.0, 1.0, 2.0),
                                     (np.int64(0), np.uint8(1), 2),
                                     (False, True, 2)])
def test_code_types_take_integral_entries_as_ints(build, entries):
    got = build(entries)
    assert list(got) == [0, 1, 2]
    assert all(type(v) is int for v in got)


def test_positive_checks_name_the_value():
    W, p = bsc(0.1), uniform(2)
    with pytest.raises(ValueError,
                       match="^C must be positive and finite, got -1.0$"):
        tail_pair(p, W, -1.0)
    with pytest.raises(ValueError,
                       match="^tol must be positive and finite, got nan$"):
        capacity(W, tol=math.nan)
    with pytest.raises(ValueError, match="^C_prime must be positive and "
                                         "finite, got None$"):
        sample_wiretap_code(p, 2, 2, W, seed=0, decoder_kind="threshold")
