"""Byte-for-byte stdout of every `chanres` command.

`tests/data/golden_simulate.txt` (the two `simulate` commands) and
`tests/data/golden_commands.txt` (the others) hold, for each run below,
a `$ chanres ...` line followed by the run's stdout, and by the file a
run writes with --output, after a `--- <file>` line.
`tests/data/golden_help.txt` holds the `--help` text of `chanres` and of
every command and command group, at 80 columns.  Any change to a
sampled code, a Monte Carlo mean, a bound, an exponent or a leakage
figure, down to the last printed digit, fails this test.  Re-record
only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --record

The benchmark also relies on names: every function that
`perfbench/spans.py` traces (`TRACED`) must exist in its module.
"""

import ast
import importlib
import json
import math
import os
import sys

import pytest

from chanres.cli import main
from corpus import ASYM_ROWS, Z_ROWS

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_simulate.txt")
GOLDEN_COMMANDS = os.path.join(DATA, "golden_commands.txt")
GOLDEN_HELP = os.path.join(DATA, "golden_help.txt")

E = repr(math.e)


def _channel(rows):
    return {"input_size": len(rows), "output_size": len(rows[0]),
            "rows": rows}


INPUTS = {
    "bsc01.json": _channel([[0.9, 0.1], [0.1, 0.9]]),
    "z.json": _channel(Z_ROWS),
    "bob.json": _channel([[0.95, 0.05], [0.05, 0.95]]),
    "eve.json": _channel([[0.8, 0.2], [0.2, 0.8]]),
    "asym3.json": _channel(ASYM_ROWS),
    "sym4.json": _channel([[0.95 if x == y else 0.05 / 3 for y in range(4)]
                           for x in range(4)]),
    "u2.json": {"probs": [0.5, 0.5]},
    "p3.json": {"probs": [0.5, 0.3, 0.2]},
    "u4.json": {"probs": [0.25] * 4},
}


def _resolvability(channel, n, seed, *extra):
    return ["simulate", "resolvability", "--channel", channel,
            "--dist", "u2.json", "--codebook-size", "16", "--threshold", E,
            "--blocklength", str(n), "--trials", "200",
            "--seed", str(seed), *extra]


def _wiretap(messages, seed, *extra):
    return ["simulate", "wiretap", "--channel-b", "bob.json",
            "--channel-e", "eve.json", "--dist", "u2.json",
            "--messages", str(messages), "--randomization", "4",
            "--threshold", E, "--decoder-threshold", E,
            "--blocklength", "4", "--seed", str(seed), *extra]


RUNS = [argv for seed in (0, 5) for argv in (
    _resolvability("bsc01.json", 4, seed),
    _resolvability("z.json", 8, seed, "--max-joint-states", "10000"),
    _wiretap(200, seed, "--max-retries", "3"),
    _wiretap(2, seed),
    _wiretap(2, seed, "--decoder", "threshold"),
)]


def _bounds(channel, dist, n):
    return ["bounds", "--channel", channel, "--dist", dist,
            "--codebook-size", "16", "--threshold", E, "--blocklength", str(n)]


def _exponents(channel, law, lo, hi):
    return ["exponents", "--channel", channel, *law, "--rate-start", lo,
            "--rate-end", hi, "--rate-steps", "9"]


def _wiretap_bounds(messages, randomization, n):
    return ["wiretap-bounds", "--channel-b", "bob.json", "--channel-e",
            "eve.json", "--dist", "u2.json", "--messages", messages,
            "--randomization", randomization, "--threshold", E,
            "--decoder-threshold", "4", "--blocklength", str(n)]


_IDCODE = ["--channel", "sym4.json", "--dist", "u4.json", "--blocklength", "4"]

COMMAND_RUNS = [
    _bounds("bsc01.json", "u2.json", 4),
    _bounds("bsc01.json", "u2.json", 12),
    _bounds("asym3.json", "p3.json", 5),
    _exponents("bsc01.json", ["--dist", "u2.json"], "0.8", "1.2"),
    _exponents("bsc01.json", ["--worst"], "0.8", "1.2"),
    _exponents("asym3.json", ["--dist", "p3.json"], "0.05", "0.45"),
    _exponents("asym3.json", ["--worst"], "0.05", "0.45"),
    _wiretap_bounds("2", "4", 4),
    _wiretap_bounds("1", "2", 4),
    ["idcode", "build", *_IDCODE, "--alpha", "2", "--alpha-prime", "4",
     "--beta", "2", "--beta-prime", "4", "--tau", "0.1", "--kappa", "0.8",
     "--codewords", "100", "--threshold", "2", "--seed", "0",
     "--output", "code.json"],
    ["idcode", "eval", *_IDCODE, "--code", "code.json"],
    ["capacity", "--channel", "z.json"],
    ["capacity", "--channel", "asym3.json"],
    # the benchmark's wiretap-bounds job: phi on 256x256 products
    _wiretap_bounds("2", "4", 8),
]


HELP_RUNS = [[], ["bounds"], ["exponents"], ["simulate"],
             ["simulate", "resolvability"], ["simulate", "wiretap"],
             ["idcode"], ["idcode", "build"], ["idcode", "eval"],
             ["capacity"], ["wiretap-bounds"]]


def help_transcript(capture) -> str:
    """The `--help` text of each of HELP_RUNS, after its command line."""
    parts = []
    for argv in HELP_RUNS:
        argv = argv + ["--help"]
        try:
            main(argv)
        except SystemExit as exc:
            assert exc.code == 0, argv
        else:
            raise AssertionError(f"{argv} did not exit")
        parts.append("$ chanres " + " ".join(argv) + "\n" + capture())
    return "".join(parts)


def transcript(runs, capture) -> str:
    """Every run's command line and stdout, then the file it wrote with
    --output; `capture()` returns the stdout written since its last
    call.  Runs in the current directory."""
    for name, doc in INPUTS.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    parts = []
    for argv in runs:
        assert main(argv) == 0, argv
        parts.append("$ chanres " + " ".join(argv) + "\n" + capture())
        if "--output" in argv:
            out = argv[argv.index("--output") + 1]
            with open(out, "r", encoding="utf-8") as fh:
                parts.append(f"--- {out}\n" + fh.read())
    return "".join(parts)


def _check(path, runs, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open(path, "rb") as fh:
        golden = fh.read()
    got = transcript(runs, lambda: capsys.readouterr().out).encode("utf-8")
    assert got == golden


def test_simulate_stdout_matches_golden(tmp_path, monkeypatch, capsys):
    _check(GOLDEN, RUNS, tmp_path, monkeypatch, capsys)


def test_command_stdout_matches_golden(tmp_path, monkeypatch, capsys):
    _check(GOLDEN_COMMANDS, COMMAND_RUNS, tmp_path, monkeypatch, capsys)


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="argparse titles the options section "
                           "'optional arguments' before Python 3.11")
def test_help_matches_golden(monkeypatch, capsys):
    # argparse wraps help text at $COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    with open(GOLDEN_HELP, "rb") as fh:
        golden = fh.read()
    got = help_transcript(lambda: capsys.readouterr().out).encode("utf-8")
    assert got == golden


def test_every_traced_name_exists():
    # a traced benchmark run fails on a missing name; the table is read
    # from the source, so perfbench need not be importable here
    path = os.path.join(os.path.dirname(DATA), os.pardir, "perfbench",
                        "spans.py")
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    traced = next(ast.literal_eval(node.value) for node in tree.body
                  if isinstance(node, ast.Assign)
                  and ast.unparse(node.targets[0]) == "TRACED")
    assert "exponents" in traced
    for layer, names in traced.items():
        module = importlib.import_module(f"chanres.{layer}")
        missing = [name for name in names
                   if not callable(getattr(module, name, None))]
        assert not missing, f"chanres.{layer} lacks {missing}"


if __name__ == "__main__" and sys.argv[1:] == ["--record"]:
    import contextlib
    import io
    import tempfile

    buf = io.StringIO()

    def capture():
        text = buf.getvalue()
        buf.seek(0)
        buf.truncate()
        return text

    # os.chdir, not contextlib.chdir, which needs Python 3.11
    home = os.getcwd()
    for path, runs in ((GOLDEN, RUNS), (GOLDEN_COMMANDS, COMMAND_RUNS)):
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(buf):
            os.chdir(tmp)
            try:
                text = transcript(runs, capture)
            finally:
                os.chdir(home)
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    os.environ["COLUMNS"] = "80"
    with contextlib.redirect_stdout(buf):
        text = help_transcript(capture)
    with open(GOLDEN_HELP, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
