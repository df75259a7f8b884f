"""End-to-end command-line runs: outputs, exit codes, determinism."""

import argparse
import csv
import functools
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from chanres import (
    Channel,
    Distribution,
    bsc,
    constant_channel,
    exponent_sweep,
    identity_channel,
    phi,
    product,
    product_dist,
    save_channel,
    save_distribution,
    taylor_compare,
    uniform,
)
from chanres import cli, exponents
from chanres.cli import _fmt, main
from chanres.resolvability import PHI_T_GRID


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
     "field 'input_size': '2' is not an integer"),
    ("channel", '{"input_size": 2, "output_size": 2, "rows": [[1, 0], [0, "x"]]}',
     "field 'rows': must hold numbers"),
    ("channel", '{"input_size": 2, "output_size": 2, "rows": [[1, 0], [0]]}',
     "field 'rows': must hold numbers, in lists of equal length"),
    ("dist", '{"probs": {"a": 1}}', "field 'probs': must hold numbers"),
    ("dist", "[0.5, 0.5]", "must hold a JSON object"),
    ("code", '{"codewords": [0, 1], "subsets": [[0], [1]], "C": [2]}',
     "field 'C': [2] is not a number"),
    ("code", '{"codewords": 5, "subsets": [[0], [1]], "C": 2}',
     "field 'codewords': 5 is not a list"),
    ("code", '{"codewords": [0, 1], "subsets": [0, 1], "C": 2}',
     "field 'subsets': 0 is not a list"),
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
    assert str(bad) in err and message in err


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
    monkeypatch.setattr(cli, "capacity",
                        functools.partial(cli.capacity, max_iter=3))
    W = Channel(np.array([[1.0, 0.0], [0.3, 0.7]]))
    chan = write_channel(tmp_path, W, "z.json")
    rc = main(["capacity", "--channel", chan, "--tol", "1e-15"])
    assert rc == 4
    assert "iteration cap 3" in capsys.readouterr().err


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
    W = Channel(np.array([[0.7, 0.3, 1e-170], [0.2, 0.8, 1e-170],
                          [0.5, 0.5, 1e-170]]))
    chan = write_channel(tmp_path, W, "tiny.json")
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
    W = Channel(np.array([[0.7, 0.2, 0.1], [0.1, 0.7, 0.2], [0.2, 0.1, 0.7]]))
    p = Distribution(np.array([0.5, 0.3, 0.2]))
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
    W = Channel(np.array([[1.0, 0.0], [0.5, 0.5]]))
    chan = write_channel(tmp_path, W, "z.json")
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


@pytest.mark.parametrize("key", ["run", "parser", "command", "help"])
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
    """dest -> action of every option but --help and --config."""
    return {a.dest: a for a in parser._actions
            if a.option_strings and a.dest not in ("help", "config")}


def _sample(action):
    """A value other than the default: (flag argv, config entry)."""
    flag = action.option_strings[0]
    if action.nargs == 0:
        return [flag], True
    if action.choices:
        return [flag, action.choices[-1]], action.choices[-1]
    if action.type is float:
        return [flag, "0.25"], 0.25
    if action.type is None:
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
    for other, action in options.items():
        if other != dest and action.default is cli._REQUIRED:
            argv += _sample(action)[0]
    flag, entry = _sample(options[dest])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({flag[0][2:]: entry}))
    by_flag = vars(cli.parse_args(argv + flag))
    by_config = vars(cli.parse_args(argv + ["--config", str(cfg)]))
    assert by_flag.pop("config") is None
    assert by_config.pop("config") == str(cfg)
    assert by_config == by_flag
    assert by_flag[dest] != SUBCOMMANDS[path].get_default(dest)


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


def _required_argv(path):
    """The subcommand's argv, each required option with a sample value."""
    argv = list(path)
    for action in _options(SUBCOMMANDS[path]).values():
        if action.default is cli._REQUIRED:
            argv += _sample(action)[0]
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
