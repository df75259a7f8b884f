"""The count rule: every codebook size, blocklength, trial, retry or
iteration count, budget cap, seed and stream index passes
`channel._integer`; the index rule `channel._indices`, which checks every
code entry in the count rule's words; and the one text of the law-size
rule."""

import math

import numpy as np
import pytest

from chanres import (
    EnumerationBudget,
    bsc,
    constant_channel,
    identity_channel,
    phi,
    point_mass,
    psi,
    product,
    product_dist,
    spectrum_cdf,
    uniform,
)
from chanres.identification import (
    AdParams,
    IdCode,
    SelectionParams,
    SetFamily,
    assemble_id_code,
    build_set_family,
    eval_id_code,
    select_codewords,
    size_ceiling_check,
)
from chanres.resolvability import (
    McEstimate,
    ResolvabilityCode,
    brute_force_min,
    eval_code,
    expectation_bounds,
    mc_expectation,
    sample_code,
)
from chanres.rng import stream, uniforms
from chanres.spectrum import product_tail_pair
from chanres.wiretap import (
    WiretapCode,
    construct_until_bounds,
    eval_wiretap,
    sample_wiretap_code,
    wiretap_bounds,
)

W, P = bsc(0.1), uniform(2)
W_E = bsc(0.3)
_SELECT = dict(alpha=1.5, alpha_prime=4.0, beta=1.5, beta_prime=4.0, C=2.0)


def _construct(**kw):
    args = dict(M=2, L=2, seed=0, max_retries=2)
    args.update(kw)
    r = construct_until_bounds(P, W, W_E, args["M"], args["L"], math.e, 4.0,
                               args["seed"], max_retries=args["max_retries"])
    return r.attempts, r.code.codewords.tolist(), r.report.eps_B


def _wiretap_code(M, L):
    code = sample_wiretap_code(P, M, L, W, seed=0)
    return code.codewords.tolist(), code.decoder.tolist()


# entry point -> (parameter name, call with the count, a valid count)
ENTRY_POINTS = {
    "uniform": ("size", lambda v: uniform(v).probs.tolist(), 2),
    "point_mass-index": ("index", lambda v: point_mass(v, 2).probs.tolist(),
                         1),
    "point_mass-size": ("size", lambda v: point_mass(0, v).probs.tolist(), 2),
    "identity_channel": ("size", lambda v: identity_channel(v).rows.tolist(),
                         2),
    "constant_channel": ("input_size", lambda v: constant_channel(
        [0.3, 0.7], v).rows.tolist(), 2),
    "EnumerationBudget": ("max_joint_states",
                          lambda v: EnumerationBudget(v), 2),
    "product": ("n", lambda v: product(W, v).rows.tolist(), 2),
    "product_dist": ("n", lambda v: product_dist(P, v).probs.tolist(), 2),
    "spectrum_cdf": ("n", lambda v: spectrum_cdf(P, W, 0.1, n=v), 2),
    "product_tail_pair": ("n", lambda v: product_tail_pair(P, W, 2.0, v), 2),
    "stream-seed": ("seed", lambda v: stream(v, 0).random(3).tolist(), 2),
    "stream-index": ("stream index",
                     lambda v: stream(0, v).random(3).tolist(), 2),
    "uniforms-seed": ("seed", lambda v: uniforms(v, [0, 1]).tolist(), 2),
    "uniforms-index": ("stream index",
                       lambda v: uniforms(0, [0, v]).tolist(), 2),
    "sample_code-M": ("M", lambda v: sample_code(P, v, 0), 2),
    "sample_code-seed": ("seed", lambda v: sample_code(P, 4, v), 7),
    "McEstimate": ("trials", lambda v: McEstimate(0.1, 0.0, v, 0.2), 2),
    "expectation_bounds": ("M", lambda v: expectation_bounds(P, W, v, 2.0),
                           2),
    "mc_expectation-trials": ("trials", lambda v: mc_expectation(
        P, W, 4, 2.0, trials=v, seed=0), 100),
    "mc_expectation-seed": ("seed", lambda v: mc_expectation(
        P, W, 4, 2.0, trials=100, seed=v), 2),
    "brute_force_min": ("M", lambda v: brute_force_min(v, W, P), 2),
    "AdParams": ("M", lambda v: AdParams(v, 0.1, 0.8), 20),
    "SelectionParams": ("M", lambda v: SelectionParams(
        family=AdParams(v, 0.1, 0.8), **_SELECT), 2),
    "build_set_family": ("seed", lambda v: build_set_family(
        AdParams(20, 0.1, 0.8), v), 2),
    "select_codewords": ("max_retries", lambda v: select_codewords(
        product(bsc(0.05), 3), product_dist(P, 3),
        SelectionParams(family=AdParams(2, 0.1, 0.8), **_SELECT), 1,
        max_retries=v), 100),
    "size_ceiling_check-M": ("M", lambda v: size_ceiling_check(
        0.1, 0.1, 0.1, 2, v), 2),
    "size_ceiling_check-input_size": ("input_size", lambda v: (
        size_ceiling_check(0.1, 0.1, 0.1, v, 2)), 2),
    "sample_wiretap_code-M": ("M", lambda v: _wiretap_code(v, 2), 2),
    "sample_wiretap_code-L": ("L", lambda v: _wiretap_code(2, v), 2),
    "sample_wiretap_code-seed": ("seed", lambda v: sample_wiretap_code(
        P, 2, 2, W, seed=v).codewords.tolist(), 2),
    "wiretap_bounds-M": ("M", lambda v: wiretap_bounds(
        W, W_E, P, v, 2, math.e, 4.0), 2),
    "wiretap_bounds-L": ("L", lambda v: wiretap_bounds(
        W, W_E, P, 2, v, math.e, 4.0), 2),
    "construct_until_bounds-M": ("M", lambda v: _construct(M=v), 2),
    "construct_until_bounds-max_retries": (
        "max_retries", lambda v: _construct(max_retries=v), 2),
    "construct_until_bounds-seed": ("seed", lambda v: _construct(seed=v), 2),
}


@pytest.mark.parametrize("key, bad", [
    (key, bad) for key in ENTRY_POINTS
    for bad in (2.5, math.nan, math.inf, "2", None)])
def test_non_integral_counts_raise_naming_the_parameter(key, bad):
    name, call, _ = ENTRY_POINTS[key]
    with pytest.raises(ValueError) as exc:
        call(bad)
    assert str(exc.value).startswith(f"{name} must be ")
    assert str(exc.value).endswith(f", got {bad!r}")


@pytest.mark.parametrize("entry", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_integral_counts_give_the_int_results(entry):
    _, call, good = entry
    want = call(good)
    assert call(float(good)) == want
    assert call(np.int64(good)) == want


# the least count each entry point takes; 1 where not named here
FLOORS = {"point_mass-index": 0, "stream-seed": 0, "stream-index": 0, "uniforms-seed": 0,
          "uniforms-index": 0, "sample_code-seed": 0, "mc_expectation-seed": 0,
          "build_set_family": 0, "sample_wiretap_code-seed": 0,
          "construct_until_bounds-seed": 0, "McEstimate": 2,
          "mc_expectation-trials": 100}


@pytest.mark.parametrize("key", ENTRY_POINTS)
def test_counts_below_the_floor_raise(key):
    name, call, good = ENTRY_POINTS[key]
    floor = FLOORS.get(key, 1)
    assert good >= floor
    # a numpy count is printed as the Python number it holds
    for below in (floor - 1, np.int64(floor - 1)):
        with pytest.raises(ValueError,
                           match=f"^{name} must be .*, got {floor - 1}$"):
            call(below)


@pytest.mark.parametrize("index", [2, 5])
def test_point_mass_index_stays_below_the_size(index):
    with pytest.raises(ValueError,
                       match="^index must be a nonnegative integer below 2, "
                             f"got {index}$"):
        point_mass(index, 2)


_ID3, _U3 = identity_channel(3), uniform(3)

# each upper bound on an index: the call with the entry v, the bound and
# the entry's name
_INDEX_BOUNDS = {
    "eval_code": (lambda v: eval_code(
        ResolvabilityCode((0, v)), _ID3, _U3), 3, "codeword"),
    "eval_wiretap": (lambda v: eval_wiretap(WiretapCode(
        [[0], [v]], [0, 1, -1], "maximum_likelihood"), _ID3, _ID3, _U3),
        3, "codeword"),
    "assemble_id_code": (lambda v: assemble_id_code(
        (0, v), SetFamily((frozenset({0}),), 0.5), _ID3, _U3, 2.0),
        3, "codeword"),
    "eval_id_code": (lambda v: eval_id_code(
        IdCode((0, v), ((0,), (1,)), 2.0), _ID3, _U3), 3, "codeword"),
    "decoder": (lambda v: WiretapCode(
        [[0], [1]], [0, v], "maximum_likelihood"), 2, "decoder entry"),
    "subset_position": (lambda v: IdCode(
        (0, 1, 2, 3), ((0,), (v,)), 2.0), 4, "subset position"),
    "point_mass": (lambda v: point_mass(v, 5), 5, "index"),
}


@pytest.mark.parametrize("key", _INDEX_BOUNDS)
def test_every_index_bound_is_the_one_rule(key):
    call, bound, name = _INDEX_BOUNDS[key]
    call(bound - 1)
    for entry in (bound, bound + 3):
        with pytest.raises(ValueError, match=f"^{name} must be .* below "
                                             f"{bound}, got {entry}$"):
            call(entry)


@pytest.mark.parametrize("call", [
    lambda: stream(2 ** 64, 0), lambda: stream(0, 2 ** 64),
    lambda: uniforms(2 ** 64, [0]), lambda: uniforms(0, [0, 2 ** 64]),
])
def test_seeds_and_stream_indices_stay_below_2_to_the_64(call):
    with pytest.raises(ValueError, match=r"nonnegative integer below 2\^64"):
        call()


def test_largest_seed_and_index_are_accepted():
    top = 2 ** 64 - 1
    assert np.array_equal(uniforms(top, [top, 0], (2,)),
                          [stream(top, top).random(2),
                           stream(top, 0).random(2)])


def test_count_rule_has_no_int64_cap():
    # M past int64 still reaches the bounds, which need only a float M
    tp, vd, eta_b, phi_b = expectation_bounds(P, W, 10 ** 200, 2.0)
    assert math.isfinite(vd) and math.isfinite(eta_b)
    assert EnumerationBudget(10 ** 30).max_joint_states == 10 ** 30


def test_counts_are_stored_as_ints():
    assert type(EnumerationBudget(2.0).max_joint_states) is int
    assert type(AdParams(np.int64(20), 0.1, 0.8).M) is int
    params = SelectionParams(family=AdParams(2.0, 0.1, 0.8), **_SELECT)
    assert type(params.family.M) is int
    assert type(params.m_prime) is int


# a code type takes no size: M, L and the subset size are read from the
# arrays, which keep them; each case reads back the sizes it was built with
@pytest.mark.parametrize("read, sizes", [
    (lambda: len(ResolvabilityCode((0, 1, 1)).codewords), 3),
    (lambda: WiretapCode(np.zeros((2, 3), dtype=int), [0, 1],
                         "maximum_likelihood").codewords.shape, (2, 3)),
    (lambda: [len(s) for s in SetFamily(
        (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})),
        1.5).subsets], [2, 2, 2]),
], ids=["ResolvabilityCode", "WiretapCode", "SetFamily"])
def test_every_code_type_reports_the_sizes_of_its_arrays(read, sizes):
    assert read() == sizes


# an empty array fails the count rule in the words of the size it sets
@pytest.mark.parametrize("build, name", [
    (lambda: ResolvabilityCode(()), "M"),
    (lambda: WiretapCode(np.zeros((0, 2), dtype=int), [],
                         "maximum_likelihood"), "M"),
    (lambda: WiretapCode([[], []], [0], "maximum_likelihood"), "L"),
    (lambda: SetFamily((frozenset(),), 1.5), "subset_size"),
], ids=["ResolvabilityCode", "WiretapCode-M", "WiretapCode-L", "SetFamily"])
def test_an_empty_code_array_fails_the_count_rule(build, name):
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer >= 1, got 0$"):
        build()


@pytest.mark.parametrize("build, text", [
    (lambda: ResolvabilityCode((-1, 0)),
     "codeword must be a nonnegative integer, got -1"),
    (lambda: WiretapCode([[-1], [0]], [0, 1], "maximum_likelihood"),
     "codeword must be a nonnegative integer, got -1"),
    (lambda: WiretapCode([[0], [1]], [0, -2], "maximum_likelihood"),
     "decoder entry must be an integer >= -1 below 2, got -2"),
    (lambda: SetFamily((frozenset({-1, 0}),), 1.5),
     "subset element must be a nonnegative integer, got -1"),
])
def test_negative_indices_are_refused_in_the_count_rule_words(build, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        build()


@pytest.mark.parametrize("call", [
    lambda: psi(0.5, W, uniform(3)), lambda: phi(-0.2, W, uniform(3)),
    lambda: assemble_id_code((0, 1), SetFamily((frozenset({0}),), 0.5),
                             W, uniform(3), 2.0),
], ids=["psi", "phi", "assemble_id_code"])
def test_law_of_the_wrong_size_has_one_text(call):
    with pytest.raises(ValueError, match="^distribution size 3 does not "
                                         "match input size 2$"):
        call()
