"""End-to-end command-line runs: outputs, exit codes, determinism.

Each test runs in its own directory, which holds the input files of
`commands.INPUTS`, and builds its command line with `commands.argv_of`,
naming only the options it varies.
"""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from chanres import (
    Channel,
    bsc,
    constant_channel,
    exponent_sweep,
    identity_channel,
    phi,
    save_channel,
    save_distribution,
    taylor_compare,
    uniform,
)
from chanres import channel, cli, exponents, resolvability, wiretap
from chanres.cli import _fmt, main
from chanres.resolvability import PHI_T_GRID
from commands import INPUTS, argv_of, write_inputs
from corpus import (ASYM, ASYM_P, STALL_4X4_ROWS, TINY_COLUMN_3X3, Z_ROWS,
                    z_channel)


@pytest.fixture(scope="session")
def written_inputs(tmp_path_factory):
    path = tmp_path_factory.mktemp("inputs")
    write_inputs(path)
    return path


@pytest.fixture(autouse=True)
def inputs(tmp_path, monkeypatch, written_inputs):
    # hard links to the one copy of the session, so a test must not
    # write to these names
    for name in INPUTS:
        os.link(written_inputs / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)


def _config(entries, name="cfg.json"):
    """The flags that read `entries` from the --config file `name`."""
    Path(name).write_text(json.dumps(entries))
    return ["--config", name]


def _load(name):
    return json.loads(Path(name).read_text())


def _csv(name):
    with open(name) as fh:
        return list(csv.DictReader(fh))


def test_bounds_json(capsys):
    argv = argv_of("bounds", codebook_size=1, threshold=1.64)
    assert main(argv + ["--output", "bounds.json"]) == 0
    doc = _load("bounds.json")
    assert math.isclose(doc["delta"], 0.9, rel_tol=1e-14)
    assert math.isclose(doc["delta_prime"], 0.02, rel_tol=1e-12)
    assert math.isclose(doc["bound_vd"], 1.9414213562373095, rel_tol=1e-13)
    assert math.isclose(doc["bound_kl_eta"], 0.7386569265959945, rel_tol=1e-13)
    assert math.isclose(doc["bound_kl_phi"], 1.648898922670098, rel_tol=1e-13)
    assert doc["blocklength"] == 1 and doc["codebook_size"] == 1
    # stdout default when --output is omitted
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_bounds_blocklength():
    assert main(argv_of("bounds", codebook_size=16, threshold=math.e,
                        blocklength=4, output="bounds.json")) == 0
    doc = _load("bounds.json")
    assert math.isclose(doc["delta"], 0.9 ** 4, rel_tol=1e-13)
    assert math.isclose(doc["delta_prime"], 0.34647280000000047,
                        rel_tol=1e-12)
    assert doc["blocklength"] == 4


def test_missing_option_exits_2(capsys):
    assert main(argv_of("bounds", dist=None, threshold=1.5)) == 2
    assert "--dist" in capsys.readouterr().err
    # exponents takes --dist or --worst, and needs one of them
    assert main(argv_of("exponents", dist=None, rate_start=0.1, rate_end=0.2,
                        rate_steps=2)) == 2
    assert capsys.readouterr().err == ("error: missing required option(s): "
                                       "--dist\n")


def test_missing_file_exits_2():
    assert main(argv_of("capacity", channel="nope.json")) == 2
    Path("bad.json").write_text("{not json")
    assert main(argv_of("capacity", channel="bad.json")) == 2


@pytest.mark.parametrize("kind, text, message", [
    ("channel", "5", "must hold a JSON object"),
    ("channel", '{"input_size": "2", "output_size": 2, "rows": [[1, 0], [0, 1]]}',
     "field 'input_size': '2' is not a number"),
    ("channel", '{"input_size": 2, "output_size": 2, "rows": [[1, 0], [0, "x"]]}',
     "field 'rows': 'x' is not a number"),
    ("channel", '{"input_size": 2, "output_size": 2, "rows": [[1, 0], [0]]}',
     "field 'rows': must hold numbers, in lists of equal length"),
    ("dist", '{"probs": {"a": 1}}', "field 'probs': {'a': 1} is not a list"),
    # booleans and nulls among the numbers, and a size the count rule refuses
    ("channel", '{"input_size": 2, "output_size": 2, '
                '"rows": [[0.9, 0.1], [false, true]]}',
     "field 'rows': False is not a number"),
    ("dist", '{"probs": [true, 0.0]}', "field 'probs': True is not a number"),
    ("dist", '{"probs": [null, 1.0]}', "field 'probs': None is not a number"),
    ("channel", '{"input_size": true, "output_size": 2, "rows": [[1, 0], [0, 1]]}',
     "field 'input_size': True is not a number"),
    ("channel", '{"input_size": 0, "output_size": 2, "rows": [[1, 0], [0, 1]]}',
     "field 'input_size': input_size must be an integer >= 1, got 0"),
    ("dist", "[0.5, 0.5]", "must hold a JSON object"),
    ("code", '{"codewords": [0, 1], "subsets": [[0], [1]], "C": [2]}',
     "field 'C': [2] is not a number"),
    ("code", '{"codewords": 5, "subsets": [[0], [1]], "C": 2}',
     "field 'codewords': 5 is not a list"),
    ("code", '{"codewords": [0, 1], "subsets": [0, 1], "C": 2}',
     "field 'subsets': 0 is not a list"),
    ("code", '{"codewords": [0, 1], "subsets": 5, "C": 2}',
     "field 'subsets': 5 is not a list"),
    ("dist", '{"probs": [NaN, 1.0]}', "field 'probs': non-finite probability entry"),
    # a code file that holds no valid code, or booleans or lists where
    # its numbers belong
    ("code", '{"codewords": [0, 0], "subsets": [[0]], "C": 2}',
     ": codewords must be distinct"),
    ("code", '{"codewords": [0, 1.5], "subsets": [[0]], "C": 2}',
     ": codeword 1.5 is not an integer"),
    ("code", '{"codewords": [0, 1], "subsets": [[0], [2]], "C": 2}',
     ": subset position must be a nonnegative integer below 2, got 2"),
    # a codeword past the channel's input alphabet
    ("code", '{"codewords": [0, 5], "subsets": [[0], [1]], "C": 2}',
     ": codeword must be a nonnegative integer below 2, got 5"),
    ("code", '{"codewords": [0, 1], "subsets": [[0]], "C": -2}',
     ": C must be positive and finite, got -2.0"),
    ("code", '{"codewords": [true, false], "subsets": [[1]], "C": 2}',
     "field 'codewords': True is not a number"),
    ("code", '{"codewords": [0, 1], "subsets": [[true]], "C": 2}',
     "field 'subsets': True is not a number"),
    ("code", '{"codewords": [[0], [1]], "subsets": [[0]], "C": 2}',
     "field 'codewords': [0] is not a number"),
    ("code", '{"codewords": [0, 1], "subsets": [[[0]]], "C": 2}',
     "field 'subsets': [0] is not a number"),
])
def test_malformed_json_exits_2(capsys, kind, text, message):
    Path("code.json").write_text(
        '{"codewords": [0, 1], "subsets": [[0], [1]], "C": 1.5}')
    Path("bad.json").write_text(text)
    files = {"channel": "id2.json", "dist": "u2.json", kind: "bad.json"}
    assert main(argv_of("idcode eval", **files)) == 2
    err = capsys.readouterr().err
    what = {"channel": "channel", "dist": "distribution", "code": "id code"}
    assert err.startswith(f"error: {what[kind]} file bad.json")
    assert message in err


@pytest.mark.parametrize("kind, text, message", [
    ("channel", '{"input_size": 2, "output_size": 2, '
                '"rows": [[0.9, 0.1], [false, true]]}',
     "field 'rows': False is not a number"),
    ("distribution", '{"probs": [true, 0.0]}',
     "field 'probs': True is not a number"),
])
def test_bounds_refuses_booleans_among_the_numbers(capsys, kind, text,
                                                   message):
    Path("bad.json").write_text(text)
    option = {"channel": "channel", "distribution": "dist"}[kind]
    assert main(argv_of("bounds", **{option: "bad.json"})) == 2
    assert capsys.readouterr().err == (
        f"error: {kind} file bad.json: {message}\n")


def test_a_boolean_outside_the_numbers_is_read_as_before(capsys):
    # `true` or `false` in an ignored key or a string value sends each field
    # through the entry-by-entry check, which finds nothing to refuse
    extra = '"note": "true or false", "flag": true, '
    chan = '"input_size": 2, "output_size": 2, "rows": [[0.9, 0.1], [0.2, 0.8]]'
    dist = '"probs": [0.4, 0.6]'
    code = '"codewords": [0, 1], "subsets": [[0], [1]], "C": 1.5'
    outputs = []
    for prefix in ("", extra):
        for name, body in (("chan", chan), ("dist", dist), ("code", code)):
            Path(f"{name}{len(prefix)}.json").write_text(
                "{" + prefix + body + "}")
        files = dict(channel=f"chan{len(prefix)}.json",
                     dist=f"dist{len(prefix)}.json")
        for argv in (argv_of("bounds", **files),
                     argv_of("idcode eval", code=f"code{len(prefix)}.json",
                             **files)):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


def test_bounds_at_a_threshold_above_1e7(capsys):
    # delta_prime is C = 2^25 up to rounding relative to C
    assert main(argv_of("bounds", channel="id2.json", codebook_size=2,
                        threshold=33554432, blocklength=25)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == 0.0 and doc["delta_prime"] == 33554432.0


def test_budget_exits_3(capsys):
    # BSC with uniform input at n = 2: 3 type classes
    assert main(argv_of("bounds", threshold=1.5, blocklength=2,
                        max_joint_states=2)) == 3
    assert "max_joint_states" in capsys.readouterr().err


def test_codebook_too_large_to_draw_exits_3(capsys, monkeypatch):
    # one trial would draw 2^40 words of 2 letters, 16 TiB of uniforms;
    # the budget refuses them before the first draw
    def drawn(*args, **kwargs):
        raise AssertionError("a codeword was drawn")

    monkeypatch.setattr(resolvability, "uniforms", drawn)
    tracemalloc.start()
    try:
        rc = main(argv_of("simulate resolvability", codebook_size=2 ** 40,
                          threshold=1.5, blocklength=2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 2 ** 24
    err = capsys.readouterr().err
    assert f"{2 ** 40} words of 2 letters needs {2 ** 41} joint states" in err


def test_budget_error_prints_a_readable_count(capsys):
    # the 2000-fold product channel needs 4^2000 states, a 1,205-digit count
    assert main(argv_of("wiretap-bounds", threshold=math.e,
                        blocklength=2000)) == 3
    err = capsys.readouterr().err
    assert len(err) < 300
    assert "needs about 10^1204.1 joint states" in err


def test_bounds_n30_counts_classes_not_atoms(capsys):
    # 31 type classes fit the default budget; the 4^30 atoms would not
    assert main(argv_of("bounds", threshold=1.5, blocklength=30)) == 0
    assert json.loads(capsys.readouterr().out)["blocklength"] == 30


def test_bounds_phi_at_large_n(capsys):
    # at n = 3000 the exponent x = t*log M + n*phi(t) passes 709 on part
    # of the t grid, where e^x overflows; log(1 + e^x) is x there
    assert main(argv_of("bounds", codebook_size=16, threshold=math.e,
                        blocklength=3000)) == 0
    got = json.loads(capsys.readouterr().out)["bound_kl_phi"]
    x = [t * math.log(16) + 3000 * phi(t, bsc(0.1), uniform(2))
         for t in PHI_T_GRID.tolist()]
    assert max(x) > 710
    assert math.isfinite(got)
    assert got == min(v / (-t) for v, t in zip(x, PHI_T_GRID.tolist()))


def test_capacity_command():
    assert main(argv_of("capacity", channel="id3.json",
                        output="cap.json")) == 0
    doc = _load("cap.json")
    assert doc["capacity_nats"] == math.log(3.0)
    assert doc["iterations"] == 1
    assert math.isclose(sum(doc["argmax"]), 1.0, rel_tol=1e-12)
    assert main(argv_of("capacity", output="cap.json")) == 0
    doc = _load("cap.json")
    h = -0.1 * math.log(0.1) - 0.9 * math.log(0.9)
    assert math.isclose(doc["capacity_nats"], math.log(2.0) - h,
                        rel_tol=1e-8)
    assert doc["residual"] <= 1e-8


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_capacity_invalid_tol_exits_2(capsys, tol):
    assert main(argv_of("capacity", tol=tol)) == 2
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_capacity_iteration_cap_exits_4(capsys, monkeypatch):
    # the Z channel reaches tol 1e-15 in 5 iterations; cap it at 3
    monkeypatch.setattr(exponents, "_CAPACITY_ITER", 3)
    save_channel(Channel(np.array(Z_ROWS)), "z.json")
    assert main(argv_of("capacity", channel="z.json", tol="1e-15")) == 4
    assert "capacity not certified after 3 iterations" in capsys.readouterr().err


def test_capacity_stall_exits_4_within_the_cap(capsys):
    # the Newton ascent stalls at residual 5.78e-4 with letter 2's mass
    # near 4e-18 (Blahut-Arimoto certifies 0.71227545 in 42 steps); it
    # used to spin for minutes before it gave up, then ran to the 1,000
    # step cap, and now stops once its best value stops rising; its CPU
    # time is bounded, as wall time also counts the other processes of a
    # shared machine
    save_channel(Channel(np.array(STALL_4X4_ROWS)), "stall.json")
    start = time.process_time()
    rc = main(argv_of("capacity", channel="stall.json"))
    assert time.process_time() - start < 2.0
    assert rc == 4
    err = capsys.readouterr().err
    # the best value stops rising near step 154, 20 steps before the stop
    assert "not certified after 174 iterations" in err
    assert "residual 0.000578" in err


def test_exponents_csv():
    assert main(argv_of("exponents", output="exp.csv")) == 0
    rows = _csv("exp.csv")
    assert len(rows) == 18
    families = [r["family"] for r in rows[:6]]
    assert families == ["vd_psi", "kl_phi", "vd_phi_half", "vd_psi_worst",
                        "kl_phi_worst", "vd_phi_half_worst"]
    rates = [0.8 + 0.4 * i / 2 for i in range(3)]
    reports = exponent_sweep(bsc(0.1), rates, uniform(2))
    # 12 significant digits survive the text round trip
    for row, rep in zip(rows, reports):
        assert row["family"] == rep.family
        assert math.isclose(float(row["R"]), rep.rate_R, rel_tol=5e-12)
        assert math.isclose(float(row["bound_nats"]), rep.bound_value,
                            rel_tol=5e-12, abs_tol=5e-12)
        if rep.family.endswith("_worst"):
            assert row["taylor_approx"] == ""
        else:
            assert float(row["taylor_approx"]) > 0.0


def test_exponents_worst_mode(capsys):
    one_rate = dict(worst=True, rate_start=1.0, rate_end=1.0, rate_steps=1)
    assert main(argv_of("exponents", dist=None, output="exp.csv",
                        **one_rate)) == 0
    with open("exp.csv") as fh:
        header = fh.readline().strip()
        rows = list(csv.DictReader(fh, fieldnames=header.split(",")))
    assert header == "R,family,bound_nats,optimizer"
    assert [r["family"] for r in rows] == [
        "vd_psi_worst", "kl_phi_worst", "vd_phi_half_worst"]
    assert main(argv_of("exponents", **one_rate)) == 2
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("start, end", [("nan", "0.5"), ("0.1", "inf"),
                                        ("-inf", "0.5"), ("0.1", "nan")])
def test_exponents_non_finite_rates_exit_2(capsys, start, end):
    # --rate-start=-inf: argparse reads a lone -inf as a flag
    assert main(argv_of("exponents", dist=None, worst=True, rate_start=None,
                        rate_end=None)
                + [f"--rate-start={start}", f"--rate-end={end}"]) == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_exponents_uncertified_exits_4_naming_parameter(capsys, monkeypatch):
    # one Newton step is too few for this channel near s = 0 and t = 0
    monkeypatch.setattr(exponents, "_NEWTON_ITER", 1)
    save_channel(Channel(np.array(
        [[0.42190983, 0.57809017], [0.75488368, 0.24511632],
         [0.38190314, 0.61809686], [0.79701893, 0.20298107]])), "hard.json")
    assert main(argv_of("exponents", channel="hard.json", dist=None,
                        worst=True, rate_start=0.01, rate_end=0.4)) == 4
    assert "failed to certify at s = " in capsys.readouterr().err


def test_exponents_overflowing_newton_matrix_exits_4(capsys):
    # g^(c-2) overflows at the tiny column; the solve is uncertified
    save_channel(TINY_COLUMN_3X3, "tiny.json")
    assert main(argv_of("exponents", channel="tiny.json", dist=None,
                        worst=True, rate_start=0.1, rate_end=0.5)) == 4
    assert "failed to certify at " in capsys.readouterr().err


def test_exponents_noiseless_channel_drops_taylor():
    assert main(argv_of("exponents", channel="id2.json", rate_start=0.8,
                        rate_end=0.8, rate_steps=1, output="exp.csv")) == 0
    assert Path("exp.csv").read_text().splitlines()[0] == (
        "R,family,bound_nats,optimizer")


def test_exponents_taylor_cells_and_no_negative_zero():
    W, p = ASYM, ASYM_P
    save_channel(W, "asym.json")
    save_distribution(p, "p3.json")
    lo, hi, steps = 0.05, 0.45, 5
    assert main(argv_of("exponents", channel="asym.json", dist="p3.json",
                        rate_start=lo, rate_end=hi, rate_steps=steps,
                        output="exp.csv")) == 0
    rows = _csv("exp.csv")
    # rates below I(p;W) give zero exponents, which once printed as -0
    assert "0" in [row["bound_nats"] for row in rows]
    assert all("-0" not in row.values() for row in rows)
    rates = [lo + (hi - lo) * i / (steps - 1) for i in range(steps)]
    for i, R in enumerate(rates):
        cmp_ = taylor_compare(R, W, p)
        cells = {row["family"]: row["taylor_approx"]
                 for row in rows[6 * i:6 * i + 6]}
        assert cells == {
            "vd_psi": _fmt(cmp_.approx_psi),
            "kl_phi": _fmt(cmp_.approx_psi),
            "vd_phi_half": _fmt(cmp_.approx_phi_half),
            "vd_psi_worst": "", "kl_phi_worst": "", "vd_phi_half_worst": "",
        }


def test_exponents_taylor_past_the_float_range_prints_empty_cells():
    # (R - I)^2 overflows at R = 1e200, which once printed inf in all
    # three given-p cells; the finite cells of R = 0.5 keep their bytes
    assert main(argv_of("exponents", rate_start=0.5, rate_end=1e200,
                        rate_steps=2, output="exp.csv")) == 0
    rows = _csv("exp.csv")
    assert [row["taylor_approx"] for row in rows[6:]] == [""] * 6
    cmp_ = taylor_compare(0.5, bsc(0.1), uniform(2))
    assert [row["taylor_approx"] for row in rows[:3]] == [
        _fmt(cmp_.approx_psi), _fmt(cmp_.approx_psi),
        _fmt(cmp_.approx_phi_half)]


@pytest.mark.parametrize("W, p, noisy", [
    (identity_channel(2), uniform(2), False),
    (identity_channel(3), uniform(3), False),
    (identity_channel(6), uniform(6), False),
    (identity_channel(11), uniform(11), False),
    (constant_channel([0.3, 0.7], 2), uniform(2), False),
    (bsc(0.1), uniform(2), True),
    (ASYM, ASYM_P, True),
], ids=["id2", "id3", "id6", "id11", "constant", "bsc", "asym3"])
def test_taylor_compare_refuses_where_the_cli_drops_the_column(W, p, noisy):
    # identity channels leave a J of rounding dust (2.2e-16 at k = 3),
    # from which taylor_compare once returned approx_psi of about 1e13
    save_channel(W, "w.json")
    save_distribution(p, "p.json")
    assert main(argv_of("exponents", channel="w.json", dist="p.json",
                        rate_start=0.3, rate_end=0.3, rate_steps=1,
                        output="exp.csv")) == 0
    header = Path("exp.csv").read_text().splitlines()[0].split(",")
    assert ("taylor_approx" in header) == noisy
    if noisy:
        cmp_ = taylor_compare(0.3, W, p)
        assert math.isfinite(cmp_.approx_psi)
    else:
        with pytest.raises(ValueError, match="variance"):
            taylor_compare(0.3, W, p)


def test_simulate_resolvability():
    assert main(argv_of("simulate resolvability", codebook_size=16,
                        threshold=math.e, blocklength=4, trials=150, seed=3,
                        output="sim.jsonl")) == 0
    lines = Path("sim.jsonl").read_text().splitlines()
    assert len(lines) == 3
    docs = [json.loads(line) for line in lines]
    assert [d["config"]["estimator"] for d in docs] == ["vd", "kl_eta",
                                                        "kl_phi"]
    for d in docs:
        assert d["config"]["trials"] == 150
        assert d["mean"] >= 0.0 and d["std_error"] >= 0.0
        assert isinstance(d["satisfied"], bool)
        assert d["satisfied"] == (d["mean"] <= d["bound"]
                                  + 3.0 * d["std_error"])
    # the divergence samples feed both divergence estimators
    assert docs[1]["mean"] == docs[2]["mean"]


def test_simulate_resolvability_worker_invariance():
    outs = []
    for name, workers in (("a.jsonl", "1"), ("b.jsonl", "4")):
        assert main(argv_of("simulate resolvability", codebook_size=8,
                            threshold=2.0, blocklength=2, trials=120, seed=9,
                            workers=workers, output=name)) == 0
        outs.append(Path(name).read_bytes())
    assert outs[0] == outs[1]


# Bob's BSC(0.1) and Eve's BSC(0.3)
_BSC_PAIR = dict(channel_b="bsc01.json", channel_e="bsc03.json",
                 threshold=math.e, decoder_threshold=math.e, seed=42)


def test_simulate_wiretap_success():
    assert main(argv_of("simulate wiretap", **_BSC_PAIR, blocklength=4,
                        output="wt.jsonl")) == 0
    lines = Path("wt.jsonl").read_text().splitlines()
    assert len(lines) == 2
    first = json.loads(lines[0])
    assert first["attempt"] == 0
    assert first["ok_eps"] and first["ok_leak"] and first["ok_vd"]
    manifest = json.loads(lines[1])["manifest"]
    assert manifest["satisfied"] and manifest["attempts"] == 1
    assert manifest["codewords"] == [[13, 3, 13, 6], [5, 6, 3, 0]]
    assert math.isclose(manifest["metrics"]["eps_B"], 0.3056000000000001,
                        rel_tol=1e-12)
    assert manifest["targets"]["eps_B"] == 3.0
    assert manifest["parameters"]["decoder"] == "maximum_likelihood"


def test_simulate_wiretap_decomposition_residual_exits_4(capsys, monkeypatch):
    # D(Phi || W_p) off by 1e-6 breaks the identity that eval_wiretap checks
    kl = wiretap._kl
    monkeypatch.setattr(wiretap, "_kl", lambda a, b: kl(a, b) + 1e-6)
    assert main(argv_of("simulate wiretap", **_BSC_PAIR)) == 4
    assert "error: divergence decomposition residual" in capsys.readouterr().err


# a noiseless 16-letter Bob and an Eve who learns nothing
_NOISELESS_PAIR = dict(channel_b="id16.json", channel_e="const16.json",
                       dist="u16.json", randomization=1, threshold=math.e,
                       decoder_threshold=4.0)


def test_simulate_wiretap_unsatisfied_exits_0():
    assert main(argv_of("simulate wiretap", **_NOISELESS_PAIR, seed=14,
                        max_retries=1, output="wt.jsonl")) == 0
    manifest = json.loads(Path("wt.jsonl").read_text().splitlines()[-1])[
        "manifest"]
    assert not manifest["satisfied"]
    assert not manifest["satisfied_eps"]
    assert manifest["satisfied_leak"] and manifest["satisfied_vd"]
    assert manifest["attempts"] == 1
    assert manifest["codewords"] == [[12], [12]]
    assert manifest["metrics"]["eps_B"] == 0.5


def test_simulate_wiretap_worker_invariance():
    outs = []
    for name, workers in (("a.jsonl", "1"), ("b.jsonl", "3")):
        assert main(argv_of("simulate wiretap", **_BSC_PAIR, blocklength=4,
                            workers=workers, output=name)) == 0
        outs.append(Path(name).read_bytes())
    assert outs[0] == outs[1]


def test_wiretap_bounds_command():
    assert main(argv_of("wiretap-bounds", **_NOISELESS_PAIR,
                        output="wb.json")) == 0
    doc = _load("wb.json")
    assert math.isclose(doc["error_gallager"], 0.375, rel_tol=1e-9)
    assert math.isclose(doc["error_threshold"], 1.5, rel_tol=1e-13)
    assert doc["leak_kl_eta"] == 3.0
    assert doc["secrecy_vd"] == 6.0
    assert 0.0 <= doc["gallager_s"] <= 1.0
    assert -0.5 <= doc["phi_t"] <= -0.05


def test_wiretap_bounds_n8_gallager_search_is_bisected(monkeypatch):
    # the benchmark's n = 8 job: a scan of S_GRID on the 256 x 256 product
    # took 1,001 phi evaluations, the bisection and golden section fewer
    # than 100
    sizes = []
    real_phi = exponents.phi

    def counted(t, W, p):
        sizes.append(np.size(t))
        return real_phi(t, W, p)

    monkeypatch.setattr(exponents, "phi", counted)
    assert main(argv_of("wiretap-bounds", threshold=math.e, blocklength=8,
                        output="wb.json")) == 0
    assert sum(sizes) <= 100
    assert exponents.S_GRID.size not in sizes


_BEYOND_FLOATS = str(10 ** 400)
# Bob and Eve both BSC(0.1)
_SAME_BSC = dict(channel_b="bsc01.json", channel_e="bsc01.json")


@pytest.mark.parametrize("argv, name", [
    (argv_of("bounds", codebook_size=_BEYOND_FLOATS), "M"),
    (argv_of("simulate resolvability", codebook_size=_BEYOND_FLOATS), "M"),
    (argv_of("wiretap-bounds", **_SAME_BSC, messages=10 ** 200,
             randomization=10 ** 200), "M*L"),
    (argv_of("simulate wiretap", **_SAME_BSC, messages=_BEYOND_FLOATS),
     "M*L"),
], ids=["bounds", "simulate-resolvability", "wiretap-bounds",
        "simulate-wiretap"])
def test_code_size_past_the_float_range_exits_2(capsys, argv, name):
    assert main(argv) == 2
    assert f"error: {name} must be at most 1.8e+308" in capsys.readouterr().err


def test_a_code_too_large_to_allocate_exits_3(capsys, monkeypatch):
    # 10^6 x 10^6 uniforms would take 7.28 TiB; the draw is patched to
    # raise as numpy does, so nothing is allocated
    class Draw:
        def random(self, shape):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                              f"shape {shape} and data type float64")

    monkeypatch.setattr(wiretap, "stream", lambda seed, index: Draw())
    assert main(argv_of("simulate wiretap", messages=1000000,
                        randomization=1000000, threshold=math.e,
                        decoder_threshold=math.e)) == 3
    assert capsys.readouterr() == ("", "error: Unable to allocate 7.28 TiB "
                                   "for an array with shape (1000000, "
                                   "1000000) and data type float64\n")


@pytest.mark.parametrize("argv, name", [
    (argv_of("wiretap-bounds", decoder_threshold="1e-320"), "M*L/C_prime"),
    # M*L/C_prime = 1.6e308 fits a float; three times it does not
    (argv_of("wiretap-bounds", decoder_threshold="5e-308"), "M*L/C_prime"),
    (argv_of("simulate wiretap", decoder_threshold="1e-320"), "M*L/C_prime"),
    (argv_of("idcode build", threshold="1e-320"), "alpha'*beta'*m'/C"),
], ids=["wiretap-bounds", "wiretap-bounds-tripled", "simulate-wiretap",
        "idcode-build"])
def test_a_guarantee_past_the_float_range_exits_2(capsys, argv, name):
    # these once exited 0 and printed "Infinity", which is not JSON
    assert main(argv + ["--output", "out.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and "must be at most 1.8e+308" in captured.err
    assert not Path("out.json").exists()
    # an existing, read-only --output file is left as it was
    kept = Path("kept.json")
    kept.write_text("kept\n")
    kept.chmod(0o444)
    assert main(argv + ["--output", "kept.json"]) == 2
    assert kept.read_text() == "kept\n"


@pytest.mark.parametrize("flag, rows, message", [
    ("--channel-e", [[0.5, 0.6], [0.2, 0.8]], "channel row 0 sums to 1.1, not 1"),
    ("--channel-b", [[math.nan, 1.0], [0.1, 0.9]], "non-finite channel entry"),
], ids=["row-total", "non-finite"])
def test_a_law_error_names_its_file_and_field(capsys, flag, rows, message):
    Path("bad.json").write_text(json.dumps(
        {"input_size": 2, "output_size": 2, "rows": rows}))
    assert main(argv_of("wiretap-bounds",
                        **{flag[2:].replace("-", "_"): "bad.json"})) == 2
    assert capsys.readouterr().err == (
        f"error: channel file bad.json: field 'rows': {message}\n")


def test_json_output_refuses_nan_and_infinity():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._dump({"x": value})


def test_the_output_file_is_opened_at_the_first_write():
    out = Path("out.json")
    out.write_text("kept\n")
    with pytest.raises(ValueError, match="refused"):
        with cli._open_out(str(out)):
            raise ValueError("refused")
    assert out.read_text() == "kept\n"
    with cli._open_out(str(out)) as write:
        write("a\n")
        write("b\n")
    assert out.read_text() == "a\nb\n"


def test_an_output_that_cannot_be_opened_is_left_alone(tmp_path, capsys):
    # the error is the open's own, and nothing at the path is removed
    assert main(argv_of("bounds", threshold=1.5, output=tmp_path)) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert tmp_path.is_dir() and (tmp_path / "u2.json").exists()


def test_idcode_build_and_eval(capsys):
    assert main(argv_of("idcode build", output="code.json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"] and doc["family_complete"]
    assert doc["mu"] == 0.0 and doc["lam"] == 0.0
    assert doc["messages"] == 1
    assert doc["codewords"] == [3, 2, 6, 5, 1, 0, 4]
    assert doc["selection_attempts"] == 1
    assert not doc["feasible"]
    assert doc["code_file"] == "code.json"

    assert main(argv_of("idcode eval", output="eval.json")) == 0
    assert _load("eval.json") == {"mu": 0.0, "lam": 0.0, "messages": 1}


def test_idcode_build_top_seed_wraps_the_family_seed(capsys):
    # the default family seed is --seed + 1 taken modulo 2^64, so the
    # largest seed builds the family of --family-seed 0
    argv = argv_of("idcode build", seed=2 ** 64 - 1, output="code.json")
    runs = []
    for extra in ([], ["--family-seed", "0"]):
        assert main(argv + extra) == 0
        runs.append((capsys.readouterr(), Path("code.json").read_text()))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0].out)["satisfied"]


def test_idcode_build_forms_the_density_twice(capsys, monkeypatch):
    # once to select the codewords, once to evaluate the code
    formed, form = [], channel._density

    def density(W, p):
        formed.append(W.input_size)
        return form(W, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("chanres.") and hasattr(module, "_density"):
            monkeypatch.setattr(module, "_density", density)
    assert main(argv_of("idcode build")) == 0
    assert json.loads(capsys.readouterr().out)["satisfied"]
    assert formed == [7, 7]


@pytest.mark.parametrize("codewords, subsets", [
    ([-1, 0], [[0], [1]]),
    ([0, 1, 2], [[0, 0, 1], [2]]),
    ([0.9, 1.5, 2], [[0.2], [1.7, 2]]),
])
def test_idcode_eval_malformed_code_exits_2(capsys, codewords, subsets):
    Path("code.json").write_text(json.dumps(
        {"codewords": codewords, "subsets": subsets, "C": 2.0}))
    assert main(argv_of("idcode eval", channel="id3.json",
                        dist="u3.json")) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--alpha", "--alpha-prime", "--beta",
                                  "--beta-prime"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_idcode_build_non_finite_screen_parameter_exits_2(capsys, flag, value):
    name = flag[2:].replace("-", "_")
    assert main(argv_of("idcode build", **{name: value})) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{name} must exceed 1 and be finite" in captured.err


# one invalid parameter per case, with the text it prints;
# the family's parameters are checked first, so with two invalid ones
# the family's error wins
@pytest.mark.parametrize("flag, value, text", [
    ("--alpha", "1", "alpha must exceed 1 and be finite"),
    ("--alpha-prime", "1.5", "need 1/alpha + 1/alpha_prime < 1"),
    ("--beta-prime", "1.5", "need 1 - 1/beta - 1/beta_prime > 0"),
    ("--tau", "0.4", "tau must lie in (0, 1/3)"),
    ("--tau", "0.01",
     "floor(tau*M) at M=7, tau=0.01 must be an integer >= 1, got 0"),
    ("--kappa", "1", "kappa must lie in (0, 1)"),
    ("--kappa", "0.5",
     "need kappa * log(1/tau - 1) > log(2) + 1 for the family count"),
    ("--codewords", "0", "M must be an integer >= 1, got 0"),
    # more distinct codewords than the 7 words the law reaches: refused
    # before any draw, where every retry used to run and exit 0
    ("--codewords", "100000", "M = 100000 distinct codewords, but p gives "
     "positive mass to 7 input words: screening cannot succeed"),
    ("--threshold", "0", "C must be positive and finite, got 0.0"),
    ("--seed", "-1", "seed must be a nonnegative integer below 2^64, got -1"),
    ("--family-seed", "-1",
     "seed must be a nonnegative integer below 2^64, got -1"),
])
def test_idcode_build_invalid_parameter_exits_2(capsys, flag, value, text):
    assert main(argv_of("idcode build",
                        **{flag[2:].replace("-", "_"): value})) == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")


def test_idcode_build_family_budget_exits_3(capsys):
    # the family is one subset of the 7 codeword positions: 7 entries
    assert main(argv_of("idcode build", max_joint_states=6)) == 3
    assert "max_joint_states >= 7" in capsys.readouterr().err


def test_idcode_build_retries_exhausted_exits_0(capsys):
    save_channel(z_channel(), "z.json")
    assert main(argv_of("idcode build", channel="z.json", dist="u2.json",
                        alpha=1.2, alpha_prime=8, beta=1.2, beta_prime=8,
                        tau=0.1, kappa=0.8, codewords=2, threshold=1.2,
                        seed=0, max_retries=3)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"] is False
    assert doc["attempts"] == 3
    assert "codewords" in doc["reason"]


# bounds with --dist, --codebook-size and --threshold left to a --config
_BOUNDS_CHANNEL = argv_of("bounds", dist=None, codebook_size=None,
                          threshold=None)


def test_config_file_merge():
    # the explicit flag wins over the config value
    assert main(_BOUNDS_CHANNEL + _config(
        {"dist": "u2.json", "codebook-size": 4, "threshold": 1.64})
        + ["--codebook-size", "16", "--output", "bounds.json"]) == 0
    doc = _load("bounds.json")
    assert doc["codebook_size"] == 16
    assert math.isclose(doc["threshold"], 1.64, rel_tol=1e-14)


def test_flag_before_config_beats_the_file():
    _config({"dist": "u2.json", "codebook-size": 4, "threshold": 1.64})
    _config({"codebook-size": 8, "threshold": 2.5}, "later.json")
    # --codebook abbreviates --codebook-size; of two files, the later
    # one's entries win
    assert main(["bounds", "--codebook", "16", "--channel", "bsc01.json",
                 "--config", "cfg.json", "--config", "later.json",
                 "--output", "bounds.json"]) == 0
    doc = _load("bounds.json")
    assert doc["codebook_size"] == 16 and doc["threshold"] == 2.5


def test_config_values_do_not_outlive_their_run(capsys):
    # one parser serves every run of a process; a --config file's
    # entries must not become the next run's values
    assert cli.build_parser() is cli.build_parser()
    argv = _BOUNDS_CHANNEL
    assert main(argv + _config({"dist": "u2.json", "codebook-size": 4,
                                "threshold": 1.64, "blocklength": 3})) == 0
    assert json.loads(capsys.readouterr().out)["blocklength"] == 3
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: missing required option(s): "
                                       "--dist, --codebook-size, --threshold\n")
    args = cli.parse_args(argv + ["--dist", "d.json", "--codebook-size", "4",
                                  "--threshold", "2"])
    assert args.config is None and args.blocklength == 1


def test_config_holding_a_list_exits_2(capsys):
    assert main(_BOUNDS_CHANNEL + _config([1, 2])) == 2
    err = capsys.readouterr().err
    assert "config file cfg.json must hold a JSON object" in err


# a 3-letter law on a binary-input channel
@pytest.mark.parametrize("command", [
    argv_of("bounds", dist="u3.json"),
    argv_of("simulate resolvability", dist="u3.json"),
    argv_of("exponents", dist="u3.json"),
    argv_of("idcode build", channel="bsc01.json", dist="u3.json"),
    argv_of("wiretap-bounds", dist="u3.json"),
    argv_of("simulate wiretap", dist="u3.json"),
], ids=["bounds", "simulate-resolvability", "exponents", "idcode-build",
        "wiretap-bounds", "simulate-wiretap"])
def test_every_law_size_error_has_one_text(capsys, command):
    assert main(command) == 2
    assert capsys.readouterr().err == (
        "error: distribution size 3 does not match input size 2\n")


@pytest.mark.parametrize("codewords", ["[0, 1]", "[0, 5]"])
def test_idcode_eval_reports_a_law_of_the_wrong_size_as_the_law(capsys,
                                                               codewords):
    # the law is checked against the channel before the code file is
    Path("code.json").write_text(
        f'{{"codewords": {codewords}, "subsets": [[0], [1]], "C": 2}}')
    assert main(argv_of("idcode eval", channel="bsc01.json",
                        dist="u3.json")) == 2
    assert capsys.readouterr().err == (
        "error: distribution size 3 does not match input size 2\n")


# a 3-input Eve for the binary law and Bob
@pytest.mark.parametrize("command", [
    argv_of("wiretap-bounds", channel_e="const3.json"),
    argv_of("simulate wiretap", channel_e="const3.json"),
])
def test_eve_of_another_input_size_exits_2(capsys, command):
    assert main(command) == 2
    assert capsys.readouterr().err == (
        "error: distribution size 2 does not match input size 3\n")


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
def test_seed_outside_64_bits_exits_2(capsys, seed):
    # 2^64 used to reach numpy as an OverflowError, exit 4
    assert main(argv_of("simulate resolvability", seed=seed)) == 2
    assert (f"seed must be a nonnegative integer below 2^64, got {seed}"
            in capsys.readouterr().err)


def test_rerun_byte_identical():
    blobs = []
    for name in ("x.jsonl", "y.jsonl"):
        assert main(argv_of("simulate resolvability", threshold=1.5, seed=21,
                            output=name)) == 0
        blobs.append(Path(name).read_bytes())
    assert blobs[0] == blobs[1]


def test_non_finite_inputs_exit_2(capsys):
    Path("nan.json").write_text('{"probs": [NaN, 1.0]}')
    assert main(argv_of("bounds", dist="nan.json", threshold=1.64)) == 2
    assert "non-finite" in capsys.readouterr().err
    assert main(argv_of("bounds", threshold="inf")) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("entry, rc", [
    ({"trials": 150.7}, 2),
    ({"max_joint_states": math.inf}, 2),
    ({"trials": 150}, 0),
], ids=["fractional-int", "infinite-int", "int"])
def test_config_values_take_option_types(capsys, entry, rc):
    argv = argv_of("simulate resolvability", threshold=1.5, trials=None,
                   seed=3)
    assert main(argv + _config(dict({"trials": 120}, **entry))) == rc
    out = capsys.readouterr().out
    if rc == 0:
        # the config value and the same value on the command line agree
        assert main(argv + ["--trials", str(entry["trials"])]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("key", ["frobnicate", "run", "parser", "command",
                                 "help", "config"])
def test_config_rejects_keys_that_are_not_options(capsys, key):
    assert main(argv_of("bounds") + _config({key: 1})) == 2
    assert capsys.readouterr().err == (
        f"error: config file cfg.json: unknown option {key!r}\n")


def _subcommands(parser, path=()):
    """(argv prefix, parser) of every subcommand."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sp in action.choices.items():
                yield from _subcommands(sp, path + (name,))
            return
    yield path, parser


def _options(parser):
    """dest -> declared default of every option the command takes but
    --config."""
    return parser.get_default("options")


def _sample(dest):
    """A value other than the default: (flag argv, config entry)."""
    flag = "--" + dest.replace("_", "-")
    spec = cli._OPTIONS[flag[2:]]
    if spec.get("action") == "store_true":
        return [flag], True
    if "choices" in spec:
        return [flag, spec["choices"][-1]], spec["choices"][-1]
    if spec.get("type") is float:
        return [flag, "0.25"], 0.25
    if "type" not in spec:
        return [flag, "in.json"], "in.json"
    return [flag, "3"], 3


SUBCOMMANDS = dict(_subcommands(cli.build_parser()))
# (argv prefix, dest) of every option of every subcommand
COMMAND_OPTIONS = [(path, dest) for path, sp in SUBCOMMANDS.items()
                   for dest in _options(sp)]


def _case_id(value):
    return " ".join(value) if isinstance(value, tuple) else value


@pytest.mark.parametrize("path, dest", COMMAND_OPTIONS, ids=_case_id)
def test_config_entry_equals_flag(path, dest):
    options = _options(SUBCOMMANDS[path])
    # every other required option as a flag
    argv = list(path)
    for other, default in options.items():
        if other != dest and default is cli._UNSET:
            argv += _sample(other)[0]
    flag, entry = _sample(dest)
    by_flag = vars(cli.parse_args(argv + flag))
    by_config = vars(cli.parse_args(argv + _config({flag[0][2:]: entry})))
    assert by_flag.pop("config") is None
    assert by_config.pop("config") == ["cfg.json"]
    assert by_config == by_flag
    assert by_flag[dest] != options[dest]


def test_config_switch_prints_what_the_flag_prints(capsys):
    argv = argv_of("exponents", dist=None)
    assert main(argv + ["--worst"]) == 0
    by_flag = capsys.readouterr().out
    assert main(argv + _config({"worst": True})) == 0
    assert capsys.readouterr().out == by_flag


@pytest.mark.parametrize("command", ["exponents", "capacity"])
@pytest.mark.parametrize("option", ["blocklength", "max-joint-states"])
def test_block_options_only_on_commands_that_build_products(capsys, command,
                                                            option):
    argv = {"exponents": argv_of("exponents", dist=None, worst=True),
            "capacity": argv_of("capacity")}[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--" + option, "1"])
    assert exc.value.code == 2
    assert main(argv + _config({option: 1})) == 2
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("argv, entry", [
    (argv_of("exponents", channel="c.json", dist=None), {"worst": "yes"}),
    (argv_of("simulate wiretap", channel_b="c.json", channel_e="c.json",
             dist="d.json", randomization=2, decoder_threshold=2),
     {"decoder": "nearest"}),
], ids=["switch", "choice"])
def test_config_entries_checked_as_flags_are(capsys, argv, entry):
    assert main(argv + _config(entry)) == 2
    assert f"option {next(iter(entry))!r}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"output": None}, {"output": True}, {"output": False},
    {"output": {"path": "o.json"}}, {"trials": None}, {"dist": ["u.json"]},
], ids=["null", "true", "false", "object", "null-int", "list"])
def test_config_entry_of_a_valued_option_is_a_string_or_a_number(
        tmp_path, capsys, entry):
    # {"output": null} used to write the result to a file named "None"
    argv = argv_of("simulate resolvability", **dict.fromkeys(entry))
    argv += _config(entry)
    files = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    assert "must be a string or a number" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == files


def test_main_lets_a_key_error_propagate(monkeypatch):
    # no input path raises KeyError, so one is a bug, not invalid input
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "capacity", broken)
    with pytest.raises(KeyError, match="bug"):
        main(argv_of("capacity"))


def _required_argv(path):
    """The subcommand's argv, each required option with a sample value."""
    argv = list(path)
    for dest, default in _options(SUBCOMMANDS[path]).items():
        if default is cli._UNSET:
            argv += _sample(dest)[0]
    return argv


# every (command, option) whose value must be a positive integer
@pytest.mark.parametrize("path, dest", [
    (path, dest) for path, dest in COMMAND_OPTIONS
    if cli._OPTIONS[dest.replace("_", "-")].get("type") is cli._positive_int
], ids=_case_id)
@pytest.mark.parametrize("n", ["0", "-1", "-5"])
def test_positive_int_options_below_one_exit_2(capsys, path, dest, n):
    argv, flag = _required_argv(path), "--" + dest.replace("_", "-")
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, n])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        f" error: argument {flag}: must be at least 1, got {n}\n")
    assert main(argv + _config({dest: int(n)})) == 2
    assert capsys.readouterr().err == (f"error: config file cfg.json: option "
                                       f"{dest!r}: must be at least 1, got {n}\n")


def test_simulate_does_not_import_numpy_ma(tmp_path):
    # numpy.ma loads lazily (np.unique is one trigger) and adds about
    # 1.6 MB to the peak RSS of a simulate run
    script = f"""
import sys
from chanres.cli import main
assert main({argv_of("simulate resolvability", codebook_size=16, blocklength=4,
                     trials=200, output="res.jsonl")!r}) == 0
assert main({argv_of("simulate wiretap", channel_b="bsc01.json",
                     channel_e="bsc01.json", messages=40, decoder_threshold=2,
                     blocklength=4, max_retries=2, output="wt.jsonl")!r}) == 0
print(sorted(m for m in sys.modules if m == "numpy.ma"
             or m.startswith("numpy.ma.")))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
