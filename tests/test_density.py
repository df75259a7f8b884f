"""The one information-density rule: every threshold test reads
log(W_x(y)/W_p(y)) from `channel._density`, and a pair is over C when
that density exceeds log(C)."""

import math

import numpy as np
import pytest

from chanres import (
    Channel,
    Distribution,
    IdCode,
    bsc,
    dispersion_J,
    eval_id_code,
    identity_channel,
    mutual_information,
    output_distribution,
    product_tail_pair,
    tail_pair,
    uniform,
)
from chanres.channel import _density
from chanres.wiretap import _threshold_decoder
from corpus import dirichlet_law


def _symmetric(k, diagonal):
    off = (1.0 - diagonal) / (k - 1)
    return Channel(np.where(np.eye(k) > 0, diagonal, off))


def _tie_cases():
    """(p, W, C): random channels at every letter ratio and at a random
    C, BSC(0.1) at its flip ratio 0.2, and the 5-ary symmetric channel
    with 0.6 on the diagonal at its diagonal ratio 3."""
    cases = [(uniform(2), bsc(0.1), 0.2), (uniform(5), _symmetric(5, 0.6), 3.0)]
    rng = np.random.default_rng(20)
    for _ in range(40):
        W, p = dirichlet_law(rng, (2, 5))
        ratios = _density(W, p)[0]
        cases += [(p, W, float(C)) for C in np.unique(ratios[ratios > 0])]
        cases.append((p, W, float(rng.uniform(0.05, 4.0))))
    return cases


def test_known_ties_are_not_over():
    # BSC(0.1), uniform input: the flip pairs sit at ratio 0.1/0.5 == 0.2
    assert tail_pair(uniform(2), bsc(0.1), 0.2).delta == 0.9
    assert product_tail_pair(uniform(2), bsc(0.1), 0.2, 1).delta == 0.9
    # the diagonal ratios 0.6/0.2 of the 5-ary channel round to 3 or just
    # above it; their densities all round to log(3), so none is over
    p, W = uniform(5), _symmetric(5, 0.6)
    assert not (_density(W, p)[1] > math.log(3.0)).any()
    assert tail_pair(p, W, 3.0).delta == 0.0


def test_density_edge_pairs():
    # W_p(y) = 0 < W_x(y) is over every threshold; W_x(y) = 0 is never over
    W = Channel(np.array([[0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    ratio, dens, joint = _density(W, Distribution(np.array([1.0, 0.0])))
    assert ratio.tolist() == [[1.0, 1.0, 0.0], [0.0, 0.0, math.inf]]
    assert joint.tolist() == [[0.5, 0.5, 0.0], [0.0, 0.0, 0.0]]
    assert (dens > math.log(1e300)).tolist() == [[False] * 3, [False, False, True]]


def test_tail_pair_splits_pairs_as_type_classes():
    for p, W, C in _tie_cases():
        a = tail_pair(p, W, C)
        b = product_tail_pair(p, W, C, 1)
        assert math.isclose(a.delta, b.delta, rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(a.delta_prime, b.delta_prime,
                            rel_tol=1e-12, abs_tol=1e-15)


def test_level_set_mass_is_delta():
    # the level sets {y : over} that identification decodes on carry the
    # tail mass delta of the same threshold
    for p, W, C in _tie_cases():
        level = _density(W, p)[1] > math.log(C)
        mass = float(p.probs @ np.sum(W.rows * level, axis=1))
        assert math.isclose(mass, tail_pair(p, W, C).delta,
                            rel_tol=1e-12, abs_tol=1e-15)


def test_id_code_decodes_on_the_level_sets():
    # one message per input letter: message x's miss is its mass off its
    # own level set
    for p, W, C in _tie_cases():
        code = IdCode(tuple(range(W.input_size)),
                      tuple((x,) for x in range(W.input_size)), C)
        level = _density(W, p)[1] > math.log(C)
        misses = [1.0 - W.rows[x][level[x]].sum() for x in range(W.input_size)]
        assert math.isclose(eval_id_code(code, W, p).mu, max(misses),
                            rel_tol=1e-12, abs_tol=1e-15)


def test_threshold_decoder_decodes_only_over_threshold_outputs():
    rng = np.random.default_rng(21)
    for p, W, C in _tie_cases():
        codewords = rng.integers(0, W.input_size, size=(2, 2))
        over = (_density(W, p)[1] > math.log(C))[codewords]
        claims = over.sum(axis=(0, 1))
        expect = np.where(claims == 1, np.argmax(over.any(axis=1), axis=0), -1)
        assert _threshold_decoder(codewords, W, p, C).tolist() == expect.tolist()


def _moments_by_letter(p, W):
    """(I, J) by one loop over the input letters."""
    wp = output_distribution(W, p).probs
    first = second = 0.0
    for x in p.support():
        row = W.rows[x]
        mask = row > 0
        dens = np.log(row[mask]) - np.log(wp[mask])
        first += p.probs[x] * float(np.sum(row[mask] * dens))
        second += p.probs[x] * float(np.sum(row[mask] * dens ** 2))
    return first, 0.5 * (second - first * first)


def test_moments_equal_the_letter_loop():
    # the loop subtracts logs of size about 1, so it carries absolute
    # rounding near 1e-16 even where I or J itself is tiny
    rng = np.random.default_rng(22)
    for _ in range(1000):
        W, p = dirichlet_law(rng, (2, 7))
        i_val, j_val = _moments_by_letter(p, W)
        assert math.isclose(mutual_information(p, W), i_val,
                            rel_tol=1e-12, abs_tol=1e-15)
        assert math.isclose(dispersion_J(p, W), j_val,
                            rel_tol=1e-12, abs_tol=1e-15)


@pytest.mark.parametrize("b", [2, 3, 4, 5, 7])
def test_lattice_delta_prime_accepted_up_to_1e300(b):
    # every pair of uniform input on identity_channel(b)^n has ratio b^n,
    # so at C = b^n all mass is at the tie and delta_prime is C up to
    # rounding relative to C
    p, W = uniform(b), identity_channel(b)
    n = 1
    while float(b) ** n <= 1e300:
        C = float(b ** n)
        tp = product_tail_pair(p, W, C, n)
        assert tp.delta in (0.0, 1.0)
        if tp.delta == 0.0:
            assert math.isclose(tp.delta_prime, C, rel_tol=1e-12)
        n += 1
