"""The count rule: every codebook size, blocklength, trial, retry or
iteration count, budget cap, seed and stream index passes
`channel._integer`; the index rule `channel._indices`, which checks every
code entry in the count rule's words; and the one text of the law-size
rule."""

import inspect
import math

import numpy as np
import pytest

import chanres
from chanres import (
    EnumerationBudget,
    bsc,
    constant_channel,
    dispersion_J,
    exponent_sweep,
    exponents,
    identity_channel,
    mutual_information,
    output_distribution,
    phi,
    point_mass,
    psi,
    product,
    product_dist,
    secrecy_capacity_lb,
    secrecy_rate,
    spectrum_cdf,
    tail_pair,
    taylor_compare,
    uniform,
    wiretap,
    wiretap_exponents,
)
from chanres.identification import (
    AdParams,
    IdCode,
    SelectionParams,
    SetFamily,
    assemble_id_code,
    build_set_family,
    eval_id_code,
    id_error_bounds,
    select_codewords,
    size_ceiling_check,
)
from chanres.resolvability import (
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
          "construct_until_bounds-seed": 0, "mc_expectation-trials": 100}


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
        [[0], [v]], [0, 1, -1]), _ID3, _ID3, _U3), 3, "codeword"),
    "assemble_id_code": (lambda v: assemble_id_code(
        (0, v), SetFamily((frozenset({0}),), 0.5), _ID3, _U3, 2.0),
        3, "codeword"),
    "eval_id_code": (lambda v: eval_id_code(
        IdCode((0, v), ((0,), (1,)), 2.0), _ID3, _U3), 3, "codeword"),
    "decoder": (lambda v: WiretapCode([[0], [1]], [0, v]), 2,
                "decoder entry"),
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
    (lambda: WiretapCode(np.zeros((2, 3), dtype=int),
                         [0, 1]).codewords.shape, (2, 3)),
    (lambda: [len(s) for s in SetFamily(
        (frozenset({0, 1}), frozenset({2, 3}), frozenset({4, 5})),
        1.5).subsets], [2, 2, 2]),
], ids=["ResolvabilityCode", "WiretapCode", "SetFamily"])
def test_every_code_type_reports_the_sizes_of_its_arrays(read, sizes):
    assert read() == sizes


# an empty array fails the count rule in the words of the size it sets
@pytest.mark.parametrize("build, name", [
    (lambda: ResolvabilityCode(()), "M"),
    (lambda: WiretapCode(np.zeros((0, 2), dtype=int), []), "M"),
    (lambda: WiretapCode([[], []], [0]), "L"),
    (lambda: SetFamily((frozenset(),), 1.5), "subset_size"),
], ids=["ResolvabilityCode", "WiretapCode-M", "WiretapCode-L", "SetFamily"])
def test_an_empty_code_array_fails_the_count_rule(build, name):
    with pytest.raises(ValueError,
                       match=f"^{name} must be an integer >= 1, got 0$"):
        build()


@pytest.mark.parametrize("build, text", [
    (lambda: ResolvabilityCode((-1, 0)),
     "codeword must be a nonnegative integer, got -1"),
    (lambda: WiretapCode([[-1], [0]], [0, 1]),
     "codeword must be a nonnegative integer, got -1"),
    (lambda: WiretapCode([[0], [1]], [0, -2]),
     "decoder entry must be an integer >= -1 below 2, got -2"),
    (lambda: SetFamily((frozenset({-1, 0}),), 1.5),
     "subset element must be a nonnegative integer, got -1"),
])
def test_negative_indices_are_refused_in_the_count_rule_words(build, text):
    with pytest.raises(ValueError, match=f"^{text}$"):
        build()


_WIRETAP_CODE = WiretapCode([[0, 1], [1, 0]], [0, 1])
_IN3 = constant_channel([0.5, 0.5], 3)     # a 3-input channel
# every public function of a channel and a law (one row per decoder for
# `sample_wiretap_code`), called with the law q on the 2-input W and W_E
_LAW_CALLS = {
    "output_distribution": lambda q: output_distribution(W, q),
    "mutual_information": lambda q: mutual_information(q, W),
    "dispersion_J": lambda q: dispersion_J(q, W),
    "tail_pair": lambda q: tail_pair(q, W, 2.0),
    "product_tail_pair": lambda q: product_tail_pair(q, W, 2.0, 2),
    "spectrum_cdf": lambda q: spectrum_cdf(q, W, 0.1, n=2),
    "psi": lambda q: psi(0.5, W, q),
    "phi": lambda q: phi(-0.2, W, q),
    "exponent_sweep": lambda q: exponent_sweep(W, [0.1], q),
    "taylor_compare": lambda q: taylor_compare(0.1, W, q),
    "expectation_bounds": lambda q: expectation_bounds(q, W, 4, 2.0),
    "mc_expectation": lambda q: mc_expectation(q, W, 4, 2.0, trials=100,
                                               seed=0),
    "eval_code": lambda q: eval_code(ResolvabilityCode((0, 1)), W, q),
    "brute_force_min": lambda q: brute_force_min(2, W, q),
    "select_codewords": lambda q: select_codewords(
        W, q, SelectionParams(family=AdParams(2, 0.1, 0.8), **_SELECT), 0),
    "id_error_bounds": lambda q: id_error_bounds(
        SelectionParams(family=AdParams(2, 0.1, 0.8), **_SELECT), q, W),
    "assemble_id_code": lambda q: assemble_id_code(
        (0, 1), SetFamily((frozenset({0}),), 0.5), W, q, 2.0),
    "eval_id_code": lambda q: eval_id_code(IdCode((0, 1), ((0,), (1,)), 2.0),
                                           W, q),
    "sample_wiretap_code": lambda q: sample_wiretap_code(q, 4, 4, W, 0),
    "sample_wiretap_code-threshold": lambda q: sample_wiretap_code(
        q, 4, 4, W, 0, decoder_kind="threshold", C_prime=2.0),
    "eval_wiretap": lambda q: eval_wiretap(_WIRETAP_CODE, W, W_E, q),
    "wiretap_bounds": lambda q: wiretap_bounds(W, W_E, q, 2, 2, math.e, 4.0),
    "construct_until_bounds": lambda q: construct_until_bounds(
        q, W, W_E, 2, 2, math.e, 4.0, seed=0),
    "wiretap_exponents": lambda q: wiretap_exponents(0.1, 0.1, W, W_E, q),
    "secrecy_rate": lambda q: secrecy_rate(W, W_E, q),
}


def _law_rows():
    """(call, law size, input size) rows: each call of _LAW_CALLS with a
    3-letter and a 1-letter law, and each function of Bob's and Eve's
    channels with one of them 3-input."""
    for k, tag in ((3, ""), (1, "-short_law")):
        for name, call in _LAW_CALLS.items():
            yield pytest.param(lambda c=call, k=k: c(uniform(k)), k, 2,
                               id=name + tag)
    for side, B, E in (("eve", W, _IN3), ("bob", _IN3, W_E)):
        for name, call in (
                ("eval_wiretap", lambda B, E: eval_wiretap(
                    _WIRETAP_CODE, B, E, P)),
                ("wiretap_bounds", lambda B, E: wiretap_bounds(
                    B, E, P, 2, 2, math.e, 4.0)),
                ("construct_until_bounds", lambda B, E: (
                    construct_until_bounds(P, B, E, 2, 2, math.e, 4.0,
                                           seed=0))),
                ("wiretap_exponents", lambda B, E: wiretap_exponents(
                    0.1, 0.1, B, E, P)),
                ("secrecy_rate", lambda B, E: secrecy_rate(B, E, P))):
            yield pytest.param(lambda c=call, B=B, E=E: c(B, E), 2, 3,
                               id=f"{name}-{side}")
    # the law is sized by Bob's channel and meets Eve's
    yield pytest.param(lambda: secrecy_capacity_lb(W, _IN3), 2, 3,
                       id="secrecy_capacity_lb-eve")
    yield pytest.param(lambda: secrecy_capacity_lb(_IN3, W_E), 3, 2,
                       id="secrecy_capacity_lb-bob")


@pytest.mark.parametrize("call, law_size, input_size", _law_rows())
def test_law_of_the_wrong_size_has_one_text(call, law_size, input_size,
                                            monkeypatch):
    # the size check runs before any work: p(x) W_x(y) is not formed, so
    # no broadcast error or silent broadcast of a 1-letter law reaches the
    # caller, and no Gallager search runs
    def search(*args):
        raise AssertionError("Gallager search before the law-size check")

    monkeypatch.setattr(exponents, "_gallager_max", search)
    monkeypatch.setattr(wiretap, "_gallager_max", search)
    with pytest.raises(ValueError, match=(
            f"^distribution size {law_size} does not match "
            f"input size {input_size}$")):
        call()


def test_the_law_size_table_names_every_function_of_a_channel_and_a_law():
    def takes(f, kind):
        return any(kind in str(prm.annotation)
                   for prm in inspect.signature(f).parameters.values())

    public = {name for name in chanres.__all__
              if inspect.isfunction(f := getattr(chanres, name))
              and takes(f, "Channel") and takes(f, "Distribution")}
    assert public == {name.split("-")[0] for name in _LAW_CALLS}
