"""End-to-end command-line runs: outputs, exit codes, determinism."""

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

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
from corpus import (ASYM, ASYM_P, STALL_4X4_ROWS, TINY_COLUMN_3X3, Z_ROWS,
                    z_channel)


def write_bsc(tmp_path, w=0.1, name="chan.json"):
    path = tmp_path / name
    save_channel(bsc(w), path)
    return str(path)


def write_uniform(tmp_path, k=2, name="dist.json"):
    path = tmp_path / name
    save_distribution(uniform(k), path)
    return str(path)


def write_channel(tmp_path, W, name):
    path = tmp_path / name
    save_channel(W, path)
    return str(path)


def test_bounds_json(tmp_path, capsys):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--channel", chan, "--dist", dist,
               "--codebook-size", "1", "--threshold", "1.64",
               "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert math.isclose(doc["delta"], 0.9, rel_tol=1e-14)
    assert math.isclose(doc["delta_prime"], 0.02, rel_tol=1e-12)
    assert math.isclose(doc["bound_vd"], 1.9414213562373095, rel_tol=1e-13)
    assert math.isclose(doc["bound_kl_eta"], 0.7386569265959945, rel_tol=1e-13)
    assert math.isclose(doc["bound_kl_phi"], 1.648898922670098, rel_tol=1e-13)
    assert doc["blocklength"] == 1 and doc["codebook_size"] == 1
    # stdout default when --output is omitted
    rc = main(["bounds", "--channel", chan, "--dist", dist,
               "--codebook-size", "1", "--threshold", "1.64"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out) == doc


def test_bounds_blocklength(tmp_path):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    out = tmp_path / "bounds.json"
    rc = main(["bounds", "--channel", chan, "--dist", dist,
               "--codebook-size", "16", "--threshold", str(math.e),
               "--blocklength", "4", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert math.isclose(doc["delta"], 0.9 ** 4, rel_tol=1e-13)
    assert math.isclose(doc["delta_prime"], 0.34647280000000047,
                        rel_tol=1e-12)
    assert doc["blocklength"] == 4


def test_missing_option_exits_2(tmp_path, capsys):
    chan = write_bsc(tmp_path)
    rc = main(["bounds", "--channel", chan, "--codebook-size", "4",
               "--threshold", "1.5"])
    assert rc == 2
    assert "--dist" in capsys.readouterr().err
    # exponents takes --dist or --worst, and needs one of them
    assert main(["exponents", "--channel", chan, "--rate-start", "0.1",
                 "--rate-end", "0.2", "--rate-steps", "2"]) == 2
    assert capsys.readouterr().err == ("error: missing required option(s): "
                                       "--dist\n")


def test_missing_file_exits_2(tmp_path, capsys):
    rc = main(["capacity", "--channel", str(tmp_path / "nope.json")])
    assert rc == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["capacity", "--channel", str(bad)])
    assert rc == 2


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
def test_malformed_json_exits_2(tmp_path, capsys, kind, text, message):
    files = {"channel": write_channel(tmp_path, identity_channel(2), "id2.json"),
             "dist": write_uniform(tmp_path),
             "code": str(tmp_path / "code.json")}
    (tmp_path / "code.json").write_text(
        '{"codewords": [0, 1], "subsets": [[0], [1]], "C": 1.5}')
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files[kind] = str(bad)
    rc = main(["idcode", "eval", "--channel", files["channel"],
               "--dist", files["dist"], "--code", files["code"]])
    assert rc == 2
    err = capsys.readouterr().err
    what = {"channel": "channel", "dist": "distribution", "code": "id code"}
    assert err.startswith(f"error: {what[kind]} file {bad}") and message in err


@pytest.mark.parametrize("kind, text, message", [
    ("channel", '{"input_size": 2, "output_size": 2, '
                '"rows": [[0.9, 0.1], [false, true]]}',
     "field 'rows': False is not a number"),
    ("distribution", '{"probs": [true, 0.0]}',
     "field 'probs': True is not a number"),
])
def test_bounds_refuses_booleans_among_the_numbers(tmp_path, capsys, kind,
                                                   text, message):
    files = {"channel": write_bsc(tmp_path), "distribution": write_uniform(tmp_path)}
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    files[kind] = str(bad)
    rc = main(["bounds", "--channel", files["channel"], "--dist",
               files["distribution"], "--codebook-size", "4", "--threshold", "2"])
    assert rc == 2
    assert capsys.readouterr().err == f"error: {kind} file {bad}: {message}\n"


def test_a_boolean_outside_the_numbers_is_read_as_before(tmp_path, capsys):
    # `true` or `false` in an ignored key or a string value sends each field
    # through the entry-by-entry check, which finds nothing to refuse
    extra = '"note": "true or false", "flag": true, '
    chan = '"input_size": 2, "output_size": 2, "rows": [[0.9, 0.1], [0.2, 0.8]]'
    dist = '"probs": [0.4, 0.6]'
    code = '"codewords": [0, 1], "subsets": [[0], [1]], "C": 1.5'
    outputs = []
    for prefix in ("", extra):
        files = []
        for name, body in (("chan", chan), ("dist", dist), ("code", code)):
            files.append(tmp_path / f"{name}{len(prefix)}.json")
            files[-1].write_text("{" + prefix + body + "}")
        for argv in (["bounds", "--codebook-size", "4", "--threshold", "2"],
                     ["idcode", "eval", "--code", str(files[2])]):
            rc = main(argv + ["--channel", str(files[0]), "--dist", str(files[1])])
            assert rc == 0
            outputs.append(capsys.readouterr().out)
    assert outputs[:2] == outputs[2:]


def test_bounds_at_a_threshold_above_1e7(tmp_path, capsys):
    # delta_prime is C = 2^25 up to rounding relative to C
    chan = write_channel(tmp_path, identity_channel(2), "id2.json")
    rc = main(["bounds", "--channel", chan, "--dist", write_uniform(tmp_path),
               "--codebook-size", "2", "--threshold", "33554432",
               "--blocklength", "25"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["delta"] == 0.0 and doc["delta_prime"] == 33554432.0


def test_budget_exits_3(tmp_path, capsys):
    # BSC with uniform input at n = 2: 3 type classes
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    rc = main(["bounds", "--channel", chan, "--dist", dist,
               "--codebook-size", "4", "--threshold", "1.5",
               "--blocklength", "2", "--max-joint-states", "2"])
    assert rc == 3
    assert "max_joint_states" in capsys.readouterr().err


def test_codebook_too_large_to_draw_exits_3(tmp_path, capsys, monkeypatch):
    # one trial would draw 2^40 words of 2 letters, 16 TiB of uniforms;
    # the budget refuses them before the first draw
    def drawn(*args, **kwargs):
        raise AssertionError("a codeword was drawn")

    monkeypatch.setattr(resolvability, "uniforms", drawn)
    tracemalloc.start()
    try:
        rc = main(["simulate", "resolvability",
                   "--channel", write_bsc(tmp_path),
                   "--dist", write_uniform(tmp_path), "--codebook-size",
                   str(2 ** 40), "--threshold", "1.5", "--blocklength", "2",
                   "--trials", "100", "--seed", "0"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert peak < 2 ** 24
    err = capsys.readouterr().err
    assert f"{2 ** 40} words of 2 letters needs {2 ** 41} joint states" in err


def test_budget_error_prints_a_readable_count(tmp_path, capsys):
    # the 2000-fold product channel needs 4^2000 states, a 1,205-digit count
    bob = write_bsc(tmp_path, 0.05, "b.json")
    eve = write_bsc(tmp_path, 0.2, "e.json")
    rc = main(["wiretap-bounds", "--channel-b", bob, "--channel-e", eve,
               "--dist", write_uniform(tmp_path), "--messages", "2",
               "--randomization", "4", "--threshold", repr(math.e),
               "--decoder-threshold", "4", "--blocklength", "2000"])
    assert rc == 3
    err = capsys.readouterr().err
    assert len(err) < 300
    assert "needs about 10^1204.1 joint states" in err


def test_bounds_n30_counts_classes_not_atoms(tmp_path, capsys):
    # 31 type classes fit the default budget; the 4^30 atoms would not
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    rc = main(["bounds", "--channel", chan, "--dist", dist,
               "--codebook-size", "4", "--threshold", "1.5",
               "--blocklength", "30"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["blocklength"] == 30


def test_bounds_phi_at_large_n(tmp_path, capsys):
    # at n = 3000 the exponent x = t*log M + n*phi(t) passes 709 on part
    # of the t grid, where e^x overflows; log(1 + e^x) is x there
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    rc = main(["bounds", "--channel", chan, "--dist", dist,
               "--codebook-size", "16", "--threshold", repr(math.e),
               "--blocklength", "3000"])
    assert rc == 0
    got = json.loads(capsys.readouterr().out)["bound_kl_phi"]
    x = [t * math.log(16) + 3000 * phi(t, bsc(0.1), uniform(2))
         for t in PHI_T_GRID.tolist()]
    assert max(x) > 710
    assert math.isfinite(got)
    assert got == min(v / (-t) for v, t in zip(x, PHI_T_GRID.tolist()))


def test_capacity_command(tmp_path):
    chan = write_channel(tmp_path, identity_channel(3), "id3.json")
    out = tmp_path / "cap.json"
    rc = main(["capacity", "--channel", chan, "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["capacity_nats"] == math.log(3.0)
    assert doc["iterations"] == 1
    assert math.isclose(sum(doc["argmax"]), 1.0, rel_tol=1e-12)
    chan = write_bsc(tmp_path, 0.1)
    rc = main(["capacity", "--channel", chan, "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    h = -0.1 * math.log(0.1) - 0.9 * math.log(0.9)
    assert math.isclose(doc["capacity_nats"], math.log(2.0) - h,
                        rel_tol=1e-8)
    assert doc["residual"] <= 1e-8


@pytest.mark.parametrize("tol", ["-1", "nan", "0", "inf"])
def test_capacity_invalid_tol_exits_2(tmp_path, capsys, tol):
    chan = write_bsc(tmp_path)
    rc = main(["capacity", "--channel", chan, "--tol", tol])
    assert rc == 2
    assert "tol must be positive and finite" in capsys.readouterr().err


def test_capacity_iteration_cap_exits_4(tmp_path, capsys, monkeypatch):
    # the Z channel reaches tol 1e-15 in 5 iterations; cap it at 3
    monkeypatch.setattr(exponents, "_CAPACITY_ITER", 3)
    W = Channel(np.array(Z_ROWS))
    chan = write_channel(tmp_path, W, "z.json")
    rc = main(["capacity", "--channel", chan, "--tol", "1e-15"])
    assert rc == 4
    assert "capacity not certified after 3 iterations" in capsys.readouterr().err


def test_capacity_stall_exits_4_within_the_cap(tmp_path, capsys):
    # the Newton ascent stalls at residual 5.78e-4 with letter 2's mass
    # near 4e-18 (Blahut-Arimoto certifies 0.71227545 in 42 steps); it
    # used to spin for minutes before it gave up, then ran to the 1,000
    # step cap, and now stops once its best value stops rising; its CPU
    # time is bounded, as wall time also counts the other processes of a
    # shared machine
    W = Channel(np.array(STALL_4X4_ROWS))
    chan = write_channel(tmp_path, W, "stall.json")
    start = time.process_time()
    rc = main(["capacity", "--channel", chan])
    assert time.process_time() - start < 2.0
    assert rc == 4
    err = capsys.readouterr().err
    # the best value stops rising near step 154, 20 steps before the stop
    assert "not certified after 174 iterations" in err
    assert "residual 0.000578" in err


def test_exponents_csv(tmp_path):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    out = tmp_path / "exp.csv"
    rc = main(["exponents", "--channel", chan, "--dist", dist,
               "--rate-start", "0.8", "--rate-end", "1.2",
               "--rate-steps", "3", "--output", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
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


def test_exponents_worst_mode(tmp_path, capsys):
    chan = write_bsc(tmp_path)
    out = tmp_path / "exp.csv"
    rc = main(["exponents", "--channel", chan, "--worst",
               "--rate-start", "1.0", "--rate-end", "1.0",
               "--rate-steps", "1", "--output", str(out)])
    assert rc == 0
    with open(out) as fh:
        header = fh.readline().strip()
        rows = list(csv.DictReader(fh, fieldnames=header.split(",")))
    assert header == "R,family,bound_nats,optimizer"
    assert [r["family"] for r in rows] == [
        "vd_psi_worst", "kl_phi_worst", "vd_phi_half_worst"]
    dist = write_uniform(tmp_path)
    rc = main(["exponents", "--channel", chan, "--dist", dist, "--worst",
               "--rate-start", "1.0", "--rate-end", "1.0",
               "--rate-steps", "1"])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


@pytest.mark.parametrize("start, end", [("nan", "0.5"), ("0.1", "inf"),
                                        ("-inf", "0.5"), ("0.1", "nan")])
def test_exponents_non_finite_rates_exit_2(tmp_path, capsys, start, end):
    chan = write_bsc(tmp_path)
    rc = main(["exponents", "--channel", chan, "--worst",
               f"--rate-start={start}", f"--rate-end={end}",
               "--rate-steps", "3"])
    assert rc == 2
    captured = capsys.readouterr()
    assert "finite" in captured.err
    assert captured.out == ""


def test_exponents_uncertified_exits_4_naming_parameter(tmp_path, capsys,
                                                        monkeypatch):
    # one Newton step is too few for this channel near s = 0 and t = 0
    monkeypatch.setattr(exponents, "_NEWTON_ITER", 1)
    W = Channel(np.array([[0.42190983, 0.57809017], [0.75488368, 0.24511632],
                          [0.38190314, 0.61809686], [0.79701893, 0.20298107]]))
    chan = write_channel(tmp_path, W, "hard.json")
    rc = main(["exponents", "--channel", chan, "--worst", "--rate-start",
               "0.01", "--rate-end", "0.4", "--rate-steps", "3"])
    assert rc == 4
    assert "failed to certify at s = " in capsys.readouterr().err


def test_exponents_overflowing_newton_matrix_exits_4(tmp_path, capsys):
    # g^(c-2) overflows at the tiny column; the solve is uncertified
    chan = write_channel(tmp_path, TINY_COLUMN_3X3, "tiny.json")
    rc = main(["exponents", "--channel", chan, "--worst", "--rate-start",
               "0.1", "--rate-end", "0.5", "--rate-steps", "3"])
    assert rc == 4
    assert "failed to certify at " in capsys.readouterr().err


def test_exponents_noiseless_channel_drops_taylor(tmp_path):
    chan = write_channel(tmp_path, identity_channel(2), "id2.json")
    dist = write_uniform(tmp_path)
    out = tmp_path / "exp.csv"
    rc = main(["exponents", "--channel", chan, "--dist", dist,
               "--rate-start", "0.8", "--rate-end", "0.8",
               "--rate-steps", "1", "--output", str(out)])
    assert rc == 0
    assert out.read_text().splitlines()[0] == "R,family,bound_nats,optimizer"


def test_exponents_taylor_cells_and_no_negative_zero(tmp_path):
    W, p = ASYM, ASYM_P
    chan = write_channel(tmp_path, W, "asym.json")
    dist = tmp_path / "p3.json"
    save_distribution(p, dist)
    out = tmp_path / "exp.csv"
    lo, hi, steps = 0.05, 0.45, 5
    rc = main(["exponents", "--channel", chan, "--dist", str(dist),
               "--rate-start", str(lo), "--rate-end", str(hi),
               "--rate-steps", str(steps), "--output", str(out)])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
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


def test_exponents_taylor_past_the_float_range_prints_empty_cells(tmp_path):
    # (R - I)^2 overflows at R = 1e200, which once printed inf in all
    # three given-p cells; the finite cells of R = 0.5 keep their bytes
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    out = tmp_path / "exp.csv"
    assert main(["exponents", "--channel", chan, "--dist", dist,
                 "--rate-start", "0.5", "--rate-end", "1e200",
                 "--rate-steps", "2", "--output", str(out)]) == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
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
def test_taylor_compare_refuses_where_the_cli_drops_the_column(tmp_path, W, p,
                                                              noisy):
    # identity channels leave a J of rounding dust (2.2e-16 at k = 3),
    # from which taylor_compare once returned approx_psi of about 1e13
    chan = write_channel(tmp_path, W, "w.json")
    dist = tmp_path / "p.json"
    save_distribution(p, dist)
    out = tmp_path / "exp.csv"
    assert main(["exponents", "--channel", chan, "--dist", str(dist),
                 "--rate-start", "0.3", "--rate-end", "0.3",
                 "--rate-steps", "1", "--output", str(out)]) == 0
    header = out.read_text().splitlines()[0].split(",")
    assert ("taylor_approx" in header) == noisy
    if noisy:
        cmp_ = taylor_compare(0.3, W, p)
        assert math.isfinite(cmp_.approx_psi)
    else:
        with pytest.raises(ValueError, match="variance"):
            taylor_compare(0.3, W, p)


def test_simulate_resolvability(tmp_path):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    out = tmp_path / "sim.jsonl"
    argv = ["simulate", "resolvability", "--channel", chan, "--dist", dist,
            "--codebook-size", "16", "--threshold", str(math.e),
            "--blocklength", "4", "--trials", "150", "--seed", "3",
            "--output", str(out)]
    rc = main(argv)
    assert rc == 0
    lines = out.read_text().splitlines()
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


def test_simulate_resolvability_worker_invariance(tmp_path):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    outs = []
    for name, workers in (("a.jsonl", "1"), ("b.jsonl", "4")):
        out = tmp_path / name
        rc = main(["simulate", "resolvability", "--channel", chan,
                   "--dist", dist, "--codebook-size", "8",
                   "--threshold", "2.0", "--blocklength", "2",
                   "--trials", "120", "--seed", "9",
                   "--workers", workers, "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_simulate_wiretap_success(tmp_path):
    chan_b = write_bsc(tmp_path, 0.1, "b.json")
    chan_e = write_bsc(tmp_path, 0.3, "e.json")
    dist = write_uniform(tmp_path)
    out = tmp_path / "wt.jsonl"
    rc = main(["simulate", "wiretap", "--channel-b", chan_b,
               "--channel-e", chan_e, "--dist", dist,
               "--messages", "2", "--randomization", "4",
               "--threshold", str(math.e),
               "--decoder-threshold", str(math.e),
               "--blocklength", "4", "--seed", "42",
               "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
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


def test_simulate_wiretap_decomposition_residual_exits_4(tmp_path, capsys,
                                                        monkeypatch):
    # D(Phi || W_p) off by 1e-6 breaks the identity that eval_wiretap checks
    kl = wiretap._kl
    monkeypatch.setattr(wiretap, "_kl", lambda a, b: kl(a, b) + 1e-6)
    rc = main(["simulate", "wiretap",
               "--channel-b", write_bsc(tmp_path, 0.1, "b.json"),
               "--channel-e", write_bsc(tmp_path, 0.3, "e.json"),
               "--dist", write_uniform(tmp_path), "--messages", "2",
               "--randomization", "4", "--threshold", str(math.e),
               "--decoder-threshold", str(math.e), "--seed", "42"])
    assert rc == 4
    assert "error: divergence decomposition residual" in capsys.readouterr().err


def test_simulate_wiretap_unsatisfied_exits_0(tmp_path):
    chan_b = write_channel(tmp_path, identity_channel(16), "b.json")
    chan_e = write_channel(tmp_path, constant_channel([1.0], 16), "e.json")
    dist = write_uniform(tmp_path, 16)
    out = tmp_path / "wt.jsonl"
    rc = main(["simulate", "wiretap", "--channel-b", chan_b,
               "--channel-e", chan_e, "--dist", dist,
               "--messages", "2", "--randomization", "1",
               "--threshold", str(math.e), "--decoder-threshold", "4.0",
               "--seed", "14", "--max-retries", "1",
               "--output", str(out)])
    assert rc == 0
    manifest = json.loads(out.read_text().splitlines()[-1])["manifest"]
    assert not manifest["satisfied"]
    assert not manifest["satisfied_eps"]
    assert manifest["satisfied_leak"] and manifest["satisfied_vd"]
    assert manifest["attempts"] == 1
    assert manifest["codewords"] == [[12], [12]]
    assert manifest["metrics"]["eps_B"] == 0.5


def test_simulate_wiretap_worker_invariance(tmp_path):
    chan_b = write_bsc(tmp_path, 0.1, "b.json")
    chan_e = write_bsc(tmp_path, 0.3, "e.json")
    dist = write_uniform(tmp_path)
    outs = []
    for name, workers in (("a.jsonl", "1"), ("b.jsonl", "3")):
        out = tmp_path / name
        rc = main(["simulate", "wiretap", "--channel-b", chan_b,
                   "--channel-e", chan_e, "--dist", dist,
                   "--messages", "2", "--randomization", "4",
                   "--threshold", str(math.e),
                   "--decoder-threshold", str(math.e),
                   "--blocklength", "4", "--seed", "42",
                   "--workers", workers, "--output", str(out)])
        assert rc == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_wiretap_bounds_command(tmp_path):
    chan_b = write_channel(tmp_path, identity_channel(16), "b.json")
    chan_e = write_channel(tmp_path, constant_channel([1.0], 16), "e.json")
    dist = write_uniform(tmp_path, 16)
    out = tmp_path / "wb.json"
    rc = main(["wiretap-bounds", "--channel-b", chan_b, "--channel-e",
               chan_e, "--dist", dist, "--messages", "2",
               "--randomization", "1", "--threshold", str(math.e),
               "--decoder-threshold", "4.0", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert math.isclose(doc["error_gallager"], 0.375, rel_tol=1e-9)
    assert math.isclose(doc["error_threshold"], 1.5, rel_tol=1e-13)
    assert doc["leak_kl_eta"] == 3.0
    assert doc["secrecy_vd"] == 6.0
    assert 0.0 <= doc["gallager_s"] <= 1.0
    assert -0.5 <= doc["phi_t"] <= -0.05


def test_wiretap_bounds_n8_gallager_search_is_bisected(tmp_path, monkeypatch):
    # the benchmark's n = 8 job: a scan of S_GRID on the 256 x 256 product
    # took 1,001 phi evaluations, the bisection and golden section fewer
    # than 100
    sizes = []
    real_phi = exponents.phi

    def counted(t, W, p):
        sizes.append(np.size(t))
        return real_phi(t, W, p)

    monkeypatch.setattr(exponents, "phi", counted)
    rc = main(["wiretap-bounds",
               "--channel-b", write_bsc(tmp_path, 0.05, "bob.json"),
               "--channel-e", write_bsc(tmp_path, 0.2, "eve.json"),
               "--dist", write_uniform(tmp_path), "--messages", "2",
               "--randomization", "4", "--threshold", str(math.e),
               "--decoder-threshold", "4", "--blocklength", "8",
               "--output", str(tmp_path / "wb.json")])
    assert rc == 0
    assert sum(sizes) <= 100
    assert exponents.S_GRID.size not in sizes


_BEYOND_FLOATS = str(10 ** 400)


@pytest.mark.parametrize("argv, name", [
    (["bounds", "--channel", "bsc.json", "--dist", "u2.json",
      "--codebook-size", _BEYOND_FLOATS, "--threshold", "2"], "M"),
    (["simulate", "resolvability", "--channel", "bsc.json", "--dist", "u2.json",
      "--codebook-size", _BEYOND_FLOATS, "--threshold", "2", "--trials", "100",
      "--seed", "0"], "M"),
    (["wiretap-bounds", "--channel-b", "bsc.json", "--channel-e", "bsc.json",
      "--dist", "u2.json", "--messages", str(10 ** 200),
      "--randomization", str(10 ** 200), "--threshold", "2",
      "--decoder-threshold", "4"], "M*L"),
    (["simulate", "wiretap", "--channel-b", "bsc.json", "--channel-e",
      "bsc.json", "--dist", "u2.json", "--messages", _BEYOND_FLOATS,
      "--randomization", "4", "--threshold", "2", "--decoder-threshold", "4",
      "--seed", "0"], "M*L"),
], ids=["bounds", "simulate-resolvability", "wiretap-bounds",
        "simulate-wiretap"])
def test_code_size_past_the_float_range_exits_2(tmp_path, capsys, monkeypatch,
                                                argv, name):
    write_bsc(tmp_path, name="bsc.json")
    write_uniform(tmp_path, name="u2.json")
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    assert f"error: {name} must be at most 1.8e+308" in capsys.readouterr().err


def test_a_code_too_large_to_allocate_exits_3(tmp_path, capsys, monkeypatch):
    # 10^6 x 10^6 uniforms would take 7.28 TiB; the draw is patched to
    # raise as numpy does, so nothing is allocated
    class Draw:
        def random(self, shape):
            raise MemoryError("Unable to allocate 7.28 TiB for an array with "
                              f"shape {shape} and data type float64")

    monkeypatch.setattr(wiretap, "stream", lambda seed, index: Draw())
    write_bsc(tmp_path, 0.05, "bob.json")
    write_bsc(tmp_path, 0.2, "eve.json")
    write_uniform(tmp_path, name="u2.json")
    monkeypatch.chdir(tmp_path)
    rc = main(["simulate", "wiretap", "--channel-b", "bob.json",
               "--channel-e", "eve.json", "--dist", "u2.json",
               "--messages", "1000000", "--randomization", "1000000",
               "--threshold", str(math.e), "--decoder-threshold", str(math.e),
               "--seed", "0"])
    assert rc == 3
    assert capsys.readouterr() == ("", "error: Unable to allocate 7.28 TiB "
                                   "for an array with shape (1000000, "
                                   "1000000) and data type float64\n")


_WIRETAP_ARGV = ["--channel-b", "bob.json", "--channel-e", "eve.json",
                 "--dist", "u2.json", "--messages", "2",
                 "--randomization", "4", "--threshold", "2"]


@pytest.mark.parametrize("argv, name", [
    (["wiretap-bounds", *_WIRETAP_ARGV, "--decoder-threshold", "1e-320"],
     "M*L/C_prime"),
    # M*L/C_prime = 1.6e308 fits a float; three times it does not
    (["wiretap-bounds", *_WIRETAP_ARGV, "--decoder-threshold", "5e-308"],
     "M*L/C_prime"),
    (["simulate", "wiretap", *_WIRETAP_ARGV, "--decoder-threshold", "1e-320",
      "--seed", "0"], "M*L/C_prime"),
    (["idcode", "build", "--channel", "id7.json", "--dist", "u7.json",
      "--alpha", "2", "--alpha-prime", "4", "--beta", "2", "--beta-prime", "4",
      "--tau", "0.15", "--kappa", "0.99", "--codewords", "7",
      "--threshold", "1e-320", "--seed", "2"], "alpha'*beta'*m'/C"),
], ids=["wiretap-bounds", "wiretap-bounds-tripled", "simulate-wiretap",
        "idcode-build"])
def test_a_guarantee_past_the_float_range_exits_2(tmp_path, capsys,
                                                  monkeypatch, argv, name):
    # these once exited 0 and printed "Infinity", which is not JSON
    write_bsc(tmp_path, 0.05, "bob.json")
    write_bsc(tmp_path, 0.2, "eve.json")
    write_uniform(tmp_path, name="u2.json")
    write_channel(tmp_path, identity_channel(7), "id7.json")
    write_uniform(tmp_path, 7, "u7.json")
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--output", "out.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert name in captured.err and "must be at most 1.8e+308" in captured.err
    assert not (tmp_path / "out.json").exists()
    # an existing, read-only --output file is left as it was
    kept = tmp_path / "kept.json"
    kept.write_text("kept\n")
    kept.chmod(0o444)
    assert main(argv + ["--output", "kept.json"]) == 2
    assert kept.read_text() == "kept\n"


@pytest.mark.parametrize("flag, rows, message", [
    ("--channel-e", [[0.5, 0.6], [0.2, 0.8]], "channel row 0 sums to 1.1, not 1"),
    ("--channel-b", [[math.nan, 1.0], [0.1, 0.9]], "non-finite channel entry"),
], ids=["row-total", "non-finite"])
def test_a_law_error_names_its_file_and_field(tmp_path, capsys, monkeypatch,
                                              flag, rows, message):
    write_bsc(tmp_path, 0.05, "bob.json")
    write_bsc(tmp_path, 0.2, "eve.json")
    write_uniform(tmp_path, name="u2.json")
    (tmp_path / "bad.json").write_text(json.dumps(
        {"input_size": 2, "output_size": 2, "rows": rows}))
    monkeypatch.chdir(tmp_path)
    argv = ["wiretap-bounds", *_WIRETAP_ARGV, "--decoder-threshold", "4"]
    argv[argv.index(flag) + 1] = "bad.json"
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: channel file bad.json: field 'rows': {message}\n")


def test_json_output_refuses_nan_and_infinity():
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._dump({"x": value})


def test_the_output_file_is_opened_at_the_first_write(tmp_path):
    out = tmp_path / "out.json"
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
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    assert main(["bounds", "--channel", chan, "--dist", dist,
                 "--codebook-size", "4", "--threshold", "1.5",
                 "--output", str(tmp_path)]) == 2
    assert "Is a directory" in capsys.readouterr().err
    assert tmp_path.is_dir() and (tmp_path / "dist.json").exists()


def test_idcode_build_and_eval(tmp_path, capsys):
    chan = write_channel(tmp_path, identity_channel(7), "id7.json")
    dist = write_uniform(tmp_path, 7)
    code_file = tmp_path / "code.json"
    rc = main(["idcode", "build", "--channel", chan, "--dist", dist,
               "--alpha", "2", "--alpha-prime", "4", "--beta", "2",
               "--beta-prime", "4", "--tau", "0.15", "--kappa", "0.99",
               "--codewords", "7", "--threshold", "2.0", "--seed", "2",
               "--output", str(code_file)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"] and doc["family_complete"]
    assert doc["mu"] == 0.0 and doc["lam"] == 0.0
    assert doc["messages"] == 1
    assert doc["codewords"] == [3, 2, 6, 5, 1, 0, 4]
    assert doc["selection_attempts"] == 1
    assert not doc["feasible"]
    assert doc["code_file"] == str(code_file)

    out = tmp_path / "eval.json"
    rc = main(["idcode", "eval", "--channel", chan, "--dist", dist,
               "--code", str(code_file), "--output", str(out)])
    assert rc == 0
    ev = json.loads(out.read_text())
    assert ev == {"mu": 0.0, "lam": 0.0, "messages": 1}


def test_idcode_build_top_seed_wraps_the_family_seed(tmp_path, capsys,
                                                     monkeypatch):
    # the default family seed is --seed + 1 taken modulo 2^64, so the
    # largest seed builds the family of --family-seed 0
    write_channel(tmp_path, identity_channel(7), "id7.json")
    write_uniform(tmp_path, 7, "u7.json")
    monkeypatch.chdir(tmp_path)
    argv = ["idcode", "build", "--channel", "id7.json", "--dist", "u7.json",
            "--alpha", "2", "--alpha-prime", "4", "--beta", "2",
            "--beta-prime", "4", "--tau", "0.15", "--kappa", "0.99",
            "--codewords", "7", "--threshold", "2", "--seed", str(2 ** 64 - 1),
            "--output", "code.json"]
    runs = []
    for extra in ([], ["--family-seed", "0"]):
        assert main(argv + extra) == 0
        runs.append((capsys.readouterr(), (tmp_path / "code.json").read_text()))
    assert runs[0] == runs[1]
    assert json.loads(runs[0][0].out)["satisfied"]


def test_idcode_build_forms_the_density_twice(tmp_path, capsys, monkeypatch):
    # once to select the codewords, once to evaluate the code
    formed, form = [], channel._density

    def density(W, p):
        formed.append(W.input_size)
        return form(W, p)

    for name, module in list(sys.modules.items()):
        if name.startswith("chanres.") and hasattr(module, "_density"):
            monkeypatch.setattr(module, "_density", density)
    chan = write_channel(tmp_path, identity_channel(7), "id7.json")
    rc = main(["idcode", "build", "--channel", chan,
               "--dist", write_uniform(tmp_path, 7), "--alpha", "2",
               "--alpha-prime", "4", "--beta", "2", "--beta-prime", "4",
               "--tau", "0.15", "--kappa", "0.99", "--codewords", "7",
               "--threshold", "2.0", "--seed", "2"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["satisfied"]
    assert formed == [7, 7]


@pytest.mark.parametrize("codewords, subsets", [
    ([-1, 0], [[0], [1]]),
    ([0, 1, 2], [[0, 0, 1], [2]]),
    ([0.9, 1.5, 2], [[0.2], [1.7, 2]]),
])
def test_idcode_eval_malformed_code_exits_2(tmp_path, capsys,
                                            codewords, subsets):
    chan = write_channel(tmp_path, identity_channel(3), "id3.json")
    dist = write_uniform(tmp_path, 3)
    code_file = tmp_path / "code.json"
    code_file.write_text(json.dumps(
        {"codewords": codewords, "subsets": subsets, "C": 2.0}))
    rc = main(["idcode", "eval", "--channel", chan, "--dist", dist,
               "--code", str(code_file)])
    assert rc == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag", ["--alpha", "--alpha-prime", "--beta",
                                  "--beta-prime"])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_idcode_build_non_finite_screen_parameter_exits_2(tmp_path, capsys,
                                                          flag, value):
    chan = write_channel(tmp_path, identity_channel(7), "id7.json")
    dist = write_uniform(tmp_path, 7)
    params = {"--alpha": "2", "--alpha-prime": "4", "--beta": "2",
              "--beta-prime": "4", flag: value}
    rc = main(["idcode", "build", "--channel", chan, "--dist", dist,
               *(x for kv in params.items() for x in kv),
               "--tau", "0.15", "--kappa", "0.99", "--codewords", "7",
               "--threshold", "2.0", "--seed", "2"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    name = flag[2:].replace("-", "_")
    assert f"{name} must exceed 1 and be finite" in captured.err


_IDCODE_BUILD = {"--alpha": "2", "--alpha-prime": "4", "--beta": "2",
                 "--beta-prime": "4", "--tau": "0.15", "--kappa": "0.99",
                 "--codewords": "7", "--threshold": "2", "--seed": "2"}


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
def test_idcode_build_invalid_parameter_exits_2(tmp_path, capsys, monkeypatch,
                                                flag, value, text):
    write_channel(tmp_path, identity_channel(7), "id7.json")
    write_uniform(tmp_path, 7, "u7.json")
    monkeypatch.chdir(tmp_path)
    params = {**_IDCODE_BUILD, flag: value}
    rc = main(["idcode", "build", "--channel", "id7.json", "--dist", "u7.json",
               *(x for kv in params.items() for x in kv)])
    assert rc == 2
    assert capsys.readouterr() == ("", f"error: {text}\n")


def test_idcode_build_family_budget_exits_3(tmp_path, capsys):
    # the family is one subset of the 7 codeword positions: 7 entries
    chan = write_channel(tmp_path, identity_channel(7), "id7.json")
    dist = write_uniform(tmp_path, 7)
    rc = main(["idcode", "build", "--channel", chan, "--dist", dist,
               "--alpha", "2", "--alpha-prime", "4", "--beta", "2",
               "--beta-prime", "4", "--tau", "0.15", "--kappa", "0.99",
               "--codewords", "7", "--threshold", "2.0", "--seed", "2",
               "--max-joint-states", "6"])
    assert rc == 3
    assert "max_joint_states >= 7" in capsys.readouterr().err


def test_idcode_build_retries_exhausted_exits_0(tmp_path, capsys):
    chan = write_channel(tmp_path, z_channel(), "z.json")
    dist = write_uniform(tmp_path)
    rc = main(["idcode", "build", "--channel", chan, "--dist", dist,
               "--alpha", "1.2", "--alpha-prime", "8", "--beta", "1.2",
               "--beta-prime", "8", "--tau", "0.1", "--kappa", "0.8",
               "--codewords", "2", "--threshold", "1.2", "--seed", "0",
               "--max-retries", "3"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["satisfied"] is False
    assert doc["attempts"] == 3
    assert "codewords" in doc["reason"]


def test_config_file_merge(tmp_path):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dist": dist, "codebook-size": 4, "threshold": 1.64,
    }))
    out = tmp_path / "bounds.json"
    # the explicit flag wins over the config value
    rc = main(["bounds", "--channel", chan, "--config", str(cfg),
               "--codebook-size", "16", "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["codebook_size"] == 16
    assert math.isclose(doc["threshold"], 1.64, rel_tol=1e-14)


def test_flag_before_config_beats_the_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dist": write_uniform(tmp_path), "codebook-size": 4,
        "threshold": 1.64,
    }))
    later = tmp_path / "later.json"
    later.write_text(json.dumps({"codebook-size": 8, "threshold": 2.5}))
    out = tmp_path / "bounds.json"
    # --codebook abbreviates --codebook-size; of two files, the later
    # one's entries win
    rc = main(["bounds", "--codebook", "16", "--channel", write_bsc(tmp_path),
               "--config", str(cfg), "--config", str(later),
               "--output", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["codebook_size"] == 16 and doc["threshold"] == 2.5


def test_config_values_do_not_outlive_their_run(tmp_path, capsys):
    # one parser serves every run of a process; a --config file's
    # entries must not become the next run's values
    assert cli.build_parser() is cli.build_parser()
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "dist": write_uniform(tmp_path), "codebook-size": 4,
        "threshold": 1.64, "blocklength": 3,
    }))
    argv = ["bounds", "--channel", write_bsc(tmp_path)]
    assert main(argv + ["--config", str(cfg)]) == 0
    assert json.loads(capsys.readouterr().out)["blocklength"] == 3
    assert main(argv) == 2
    assert capsys.readouterr().err == ("error: missing required option(s): "
                                       "--dist, --codebook-size, --threshold\n")
    args = cli.parse_args(argv + ["--dist", "d.json", "--codebook-size", "4",
                                  "--threshold", "2"])
    assert args.config is None and args.blocklength == 1


def test_config_holding_a_list_exits_2(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    rc = main(["bounds", "--channel", write_bsc(tmp_path),
               "--config", str(cfg)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"config file {cfg} must hold a JSON object" in err


@pytest.mark.parametrize("command", [
    ["bounds", "--codebook-size", "4", "--threshold", "2"],
    ["simulate", "resolvability", "--codebook-size", "4", "--threshold", "2",
     "--trials", "100", "--seed", "0"],
])
def test_law_of_the_wrong_size_exits_2(tmp_path, capsys, command):
    rc = main(command + ["--channel", write_bsc(tmp_path),
                         "--dist", write_uniform(tmp_path, 3)])
    assert rc == 2
    assert ("distribution size 3 does not match input size 2"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", [
    ["exponents", "--rate-start", "0.1", "--rate-end", "0.2",
     "--rate-steps", "2"],
    ["idcode", "build", "--alpha", "2", "--alpha-prime", "4", "--beta", "2",
     "--beta-prime", "4", "--tau", "0.1", "--kappa", "0.8",
     "--codewords", "4", "--threshold", "2", "--seed", "0"],
], ids=["exponents", "idcode-build"])
def test_every_law_size_error_has_one_text(tmp_path, capsys, command):
    rc = main(command + ["--channel", write_bsc(tmp_path),
                         "--dist", write_uniform(tmp_path, 3)])
    assert rc == 2
    assert ("distribution size 3 does not match input size 2"
            in capsys.readouterr().err)


@pytest.mark.parametrize("codewords", ["[0, 1]", "[0, 5]"])
def test_idcode_eval_reports_a_law_of_the_wrong_size_as_the_law(
        tmp_path, capsys, codewords):
    # the law is checked against the channel before the code file is
    code = tmp_path / "code.json"
    code.write_text(f'{{"codewords": {codewords}, "subsets": [[0], [1]], '
                    '"C": 2}')
    rc = main(["idcode", "eval", "--channel", write_bsc(tmp_path),
               "--dist", write_uniform(tmp_path, 3), "--code", str(code)])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: distribution size 3 does not match input size 2\n")


@pytest.mark.parametrize("command", [["wiretap-bounds"],
                                     ["simulate", "wiretap", "--seed", "0"]])
def test_wiretap_law_size_error_has_the_same_text(tmp_path, capsys, command):
    chan = write_bsc(tmp_path)
    rc = main(command + ["--channel-b", chan, "--channel-e", chan,
                         "--dist", write_uniform(tmp_path, 3),
                         "--messages", "2", "--randomization", "2",
                         "--threshold", "2", "--decoder-threshold", "2"])
    assert rc == 2
    assert ("distribution size 3 does not match input size 2"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", [["wiretap-bounds"],
                                     ["simulate", "wiretap", "--seed", "0"]])
def test_eve_of_another_input_size_exits_2(tmp_path, capsys, command):
    eve = write_channel(tmp_path, constant_channel([0.5, 0.5], 3), "eve.json")
    rc = main(command + ["--channel-b", write_bsc(tmp_path),
                         "--channel-e", eve, "--dist", write_uniform(tmp_path),
                         "--messages", "2", "--randomization", "2",
                         "--threshold", "2", "--decoder-threshold", "2"])
    assert rc == 2
    assert ("distribution size 2 does not match input size 3"
            in capsys.readouterr().err)


@pytest.mark.parametrize("seed", [str(2 ** 64), "-1"])
def test_seed_outside_64_bits_exits_2(tmp_path, capsys, seed):
    # 2^64 used to reach numpy as an OverflowError, exit 4
    rc = main(["simulate", "resolvability", "--channel", write_bsc(tmp_path),
               "--dist", write_uniform(tmp_path), "--codebook-size", "4",
               "--threshold", "2", "--trials", "100", "--seed", seed])
    assert rc == 2
    assert (f"seed must be a nonnegative integer below 2^64, got {seed}"
            in capsys.readouterr().err)


def test_config_unknown_key_exits_2(tmp_path, capsys):
    chan = write_bsc(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"frobnicate": 1}))
    rc = main(["bounds", "--channel", chan, "--config", str(cfg)])
    assert rc == 2
    assert "unknown option" in capsys.readouterr().err


def test_rerun_byte_identical(tmp_path):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    blobs = []
    for name in ("x.jsonl", "y.jsonl"):
        out = tmp_path / name
        rc = main(["simulate", "resolvability", "--channel", chan,
                   "--dist", dist, "--codebook-size", "4",
                   "--threshold", "1.5", "--trials", "100",
                   "--seed", "21", "--output", str(out)])
        assert rc == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]


def test_non_finite_inputs_exit_2(tmp_path, capsys):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    nan_dist = tmp_path / "nan.json"
    nan_dist.write_text('{"probs": [NaN, 1.0]}')
    base = ["bounds", "--channel", chan, "--codebook-size", "4"]
    assert main(base + ["--dist", str(nan_dist), "--threshold", "1.64"]) == 2
    assert "non-finite" in capsys.readouterr().err
    assert main(base + ["--dist", dist, "--threshold", "inf"]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("entry, rc", [
    ({"trials": 150.7}, 2),
    ({"max_joint_states": math.inf}, 2),
    ({"trials": 150}, 0),
], ids=["fractional-int", "infinite-int", "int"])
def test_config_values_take_option_types(tmp_path, capsys, entry, rc):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict({"trials": 120}, **entry)))
    argv = ["simulate", "resolvability", "--channel", chan, "--dist", dist,
            "--codebook-size", "4", "--threshold", "1.5", "--seed", "3"]
    assert main(argv + ["--config", str(cfg)]) == rc
    out = capsys.readouterr().out
    if rc == 0:
        # the config value and the same value on the command line agree
        assert main(argv + ["--trials", str(entry["trials"])]) == 0
        assert capsys.readouterr().out == out


@pytest.mark.parametrize("key", ["run", "parser", "command", "help",
                                 "config"])
def test_config_rejects_keys_that_are_not_options(tmp_path, capsys, key):
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1}))
    rc = main(["bounds", "--channel", chan, "--dist", dist,
               "--codebook-size", "4", "--threshold", "2", "--config", str(cfg)])
    assert rc == 2
    assert "unknown option" in capsys.readouterr().err


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


@pytest.mark.parametrize("path, dest", [
    (path, dest) for path, sp in SUBCOMMANDS.items() for dest in _options(sp)
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else x)
def test_config_entry_equals_flag(tmp_path, path, dest):
    options = _options(SUBCOMMANDS[path])
    # every other required option as a flag
    argv = list(path)
    for other, default in options.items():
        if other != dest and default is cli._UNSET:
            argv += _sample(other)[0]
    flag, entry = _sample(dest)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[0][2:]: entry}))
    by_flag = vars(cli.parse_args(argv + flag))
    by_config = vars(cli.parse_args(argv + ["--config", str(cfg)]))
    assert by_flag.pop("config") is None
    assert by_config.pop("config") == [str(cfg)]
    assert by_config == by_flag
    assert by_flag[dest] != options[dest]


def test_config_switch_prints_what_the_flag_prints(tmp_path, capsys):
    chan = write_bsc(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"worst": True}))
    argv = ["exponents", "--channel", chan, "--rate-start", "0.8",
            "--rate-end", "1.2", "--rate-steps", "3"]
    assert main(argv + ["--worst"]) == 0
    by_flag = capsys.readouterr().out
    assert main(argv + ["--config", str(cfg)]) == 0
    assert capsys.readouterr().out == by_flag


@pytest.mark.parametrize("command", ["exponents", "capacity"])
@pytest.mark.parametrize("option", ["blocklength", "max-joint-states"])
def test_block_options_only_on_commands_that_build_products(
        tmp_path, capsys, command, option):
    chan = write_bsc(tmp_path)
    argv = [command, "--channel", chan]
    if command == "exponents":
        argv += ["--worst", "--rate-start", "0.8", "--rate-end", "1.2",
                 "--rate-steps", "3"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--" + option, "1"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({option: 1}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "unknown option" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["resolvability", "--channel", "c.json",
                                      "--codebook-size", "4",
                                      "--trials", "100"],
                                     ["wiretap", "--channel-b", "c.json",
                                      "--channel-e", "c.json",
                                      "--messages", "2",
                                      "--randomization", "2",
                                      "--decoder-threshold", "2"]])
def test_workers_must_be_positive(tmp_path, capsys, command):
    argv = ["simulate"] + command + ["--dist", "d.json", "--threshold", "2",
                                     "--seed", "0"]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--workers", "0"])
    assert exc.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"workers": 0}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("argv, entry", [
    (["exponents", "--channel", "c.json", "--rate-start", "0.8",
      "--rate-end", "1.2", "--rate-steps", "3"], {"worst": "yes"}),
    (["simulate", "wiretap", "--channel-b", "c.json", "--channel-e", "c.json",
      "--dist", "d.json", "--messages", "2", "--randomization", "2",
      "--threshold", "2", "--decoder-threshold", "2", "--seed", "0"],
     {"decoder": "nearest"}),
], ids=["switch", "choice"])
def test_config_entries_checked_as_flags_are(tmp_path, capsys, argv, entry):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert f"option {next(iter(entry))!r}" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [
    {"output": None}, {"output": True}, {"output": False},
    {"output": {"path": "o.json"}}, {"trials": None}, {"dist": ["u.json"]},
], ids=["null", "true", "false", "object", "null-int", "list"])
def test_config_entry_of_a_valued_option_is_a_string_or_a_number(
        tmp_path, capsys, monkeypatch, entry):
    # {"output": null} used to write the result to a file named "None"
    monkeypatch.chdir(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(entry))
    flags = {"channel": write_bsc(tmp_path), "dist": write_uniform(tmp_path),
             "codebook-size": "4", "threshold": "2", "trials": "100",
             "seed": "0"}
    argv = ["simulate", "resolvability", "--config", str(cfg)]
    for option, value in flags.items():
        if option not in entry:
            argv += ["--" + option, value]
    files = sorted(os.listdir(tmp_path))
    assert main(argv) == 2
    assert "must be a string or a number" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == files


def test_main_lets_a_key_error_propagate(tmp_path, monkeypatch):
    # no input path raises KeyError, so one is a bug, not invalid input
    def broken(*args, **kwargs):
        raise KeyError("bug")

    monkeypatch.setattr(cli, "capacity", broken)
    with pytest.raises(KeyError, match="bug"):
        main(["capacity", "--channel", write_bsc(tmp_path)])


def _required_argv(path):
    """The subcommand's argv, each required option with a sample value."""
    argv = list(path)
    for dest, default in _options(SUBCOMMANDS[path]).items():
        if default is cli._UNSET:
            argv += _sample(dest)[0]
    return argv


@pytest.mark.parametrize("path", [
    ("bounds",), ("simulate", "resolvability"), ("simulate", "wiretap"),
    ("idcode", "build"), ("idcode", "eval"), ("wiretap-bounds",),
], ids=" ".join)
@pytest.mark.parametrize("n", ["0", "-5"])
def test_blocklength_below_one_exits_2(tmp_path, capsys, path, n):
    argv = _required_argv(path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--blocklength", n])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"blocklength": int(n)}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("path", [("simulate", "wiretap"), ("idcode", "build")],
                         ids=" ".join)
@pytest.mark.parametrize("n", ["0", "-1"])
def test_max_retries_below_one_exits_2(tmp_path, capsys, path, n):
    argv = _required_argv(path)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--max-retries", n])
    assert exc.value.code == 2
    assert "must be at least 1" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_retries": int(n)}))
    assert main(argv + ["--config", str(cfg)]) == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_simulate_does_not_import_numpy_ma(tmp_path):
    # numpy.ma loads lazily (np.unique is one trigger) and adds about
    # 1.6 MB to the peak RSS of a simulate run
    chan = write_bsc(tmp_path)
    dist = write_uniform(tmp_path)
    script = f"""
import sys
from chanres.cli import main
assert main(["simulate", "resolvability", "--channel", {chan!r},
             "--dist", {dist!r}, "--codebook-size", "16", "--threshold", "2",
             "--blocklength", "4", "--trials", "200", "--seed", "0",
             "--output", "res.jsonl"]) == 0
assert main(["simulate", "wiretap", "--channel-b", {chan!r},
             "--channel-e", {chan!r}, "--dist", {dist!r}, "--messages", "40",
             "--randomization", "4", "--threshold", "2",
             "--decoder-threshold", "2", "--blocklength", "4", "--seed", "0",
             "--max-retries", "2", "--output", "wt.jsonl"]) == 0
print(sorted(m for m in sys.modules if m == "numpy.ma"
             or m.startswith("numpy.ma.")))
"""
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
