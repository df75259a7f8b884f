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
`perfbench/spans.py` traces (`TRACED`) must exist in its module, and
every field its `HOOKS` read must exist on what the function returns.
"""

import ast
import importlib
import inspect
import math
import os
import sys

import numpy as np
import pytest

from chanres import (
    AdParams,
    IdCode,
    SelectionParams,
    build_set_family,
    bsc,
    construct_until_bounds,
    eval_id_code,
    identity_channel,
    mc_expectation,
    product,
    product_dist,
    product_tail_pair,
    select_codewords,
    uniform,
)
from chanres.cli import main
from commands import INPUTS, argv_of, channel_file, write_inputs
from corpus import ASYM_ROWS, Z_ROWS

DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = os.path.join(DATA, "golden_simulate.txt")
GOLDEN_COMMANDS = os.path.join(DATA, "golden_commands.txt")
GOLDEN_HELP = os.path.join(DATA, "golden_help.txt")

E = repr(math.e)

GOLDEN_INPUTS = {
    **INPUTS,
    "z.json": channel_file(Z_ROWS),
    "asym3.json": channel_file(ASYM_ROWS),
    "sym4.json": channel_file([[0.95 if x == y else 0.05 / 3
                                for y in range(4)] for x in range(4)]),
    "p3.json": {"probs": [0.5, 0.3, 0.2]},
    "u4.json": {"probs": [0.25] * 4},
}


def _resolvability(channel, n, seed, **extra):
    return argv_of("simulate resolvability", channel=channel, codebook_size=16,
                   threshold=E, blocklength=n, trials=200, seed=seed, **extra)


def _wiretap(messages, seed, **extra):
    return argv_of("simulate wiretap", messages=messages, threshold=E,
                   decoder_threshold=E, blocklength=4, seed=seed, **extra)


RUNS = [argv for seed in (0, 5) for argv in (
    _resolvability("bsc01.json", 4, seed),
    _resolvability("z.json", 8, seed, max_joint_states=10000),
    _wiretap(200, seed, max_retries=3),
    _wiretap(2, seed),
    _wiretap(2, seed, decoder="threshold"),
)]


def _bounds(channel, dist, n):
    return argv_of("bounds", channel=channel, dist=dist, codebook_size=16,
                   threshold=E, blocklength=n)


def _exponents(channel, lo, hi, **law):
    return argv_of("exponents", channel=channel, rate_start=lo, rate_end=hi,
                   rate_steps=9, **law)


def _wiretap_bounds(messages, randomization, n):
    return argv_of("wiretap-bounds", messages=messages,
                   randomization=randomization, threshold=E, blocklength=n)


_IDCODE = dict(channel="sym4.json", dist="u4.json", blocklength=4)

COMMAND_RUNS = [
    _bounds("bsc01.json", "u2.json", 4),
    _bounds("bsc01.json", "u2.json", 12),
    _bounds("asym3.json", "p3.json", 5),
    _exponents("bsc01.json", "0.8", "1.2"),
    _exponents("bsc01.json", "0.8", "1.2", dist=None, worst=True),
    _exponents("asym3.json", "0.05", "0.45", dist="p3.json"),
    _exponents("asym3.json", "0.05", "0.45", dist=None, worst=True),
    _wiretap_bounds(2, 4, 4),
    _wiretap_bounds(1, 2, 4),
    argv_of("idcode build", **_IDCODE, tau=0.1, kappa=0.8, codewords=100,
            seed=0, output="code.json"),
    argv_of("idcode eval", **_IDCODE),
    argv_of("capacity", channel="z.json"),
    argv_of("capacity", channel="asym3.json"),
    # the benchmark's wiretap-bounds job: phi on 256x256 products
    _wiretap_bounds(2, 4, 8),
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
    write_inputs(files=GOLDEN_INPUTS)
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


# the benchmark's tables are read from its source, so perfbench need not
# be importable here
SPANS = os.path.join(os.path.dirname(DATA), os.pardir, "perfbench", "spans.py")


def _spans_nodes(*names):
    """The top-level assignments and functions of SPANS named `names`."""
    with open(SPANS, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return [node for node in tree.body
            if isinstance(node, ast.Assign)
            and ast.unparse(node.targets[0]) in names
            or isinstance(node, ast.FunctionDef) and node.name in names]


def test_every_traced_name_exists():
    # a traced benchmark run fails on a missing name
    traced = ast.literal_eval(_spans_nodes("TRACED")[0].value)
    assert "exponents" in traced
    for layer, names in traced.items():
        module = importlib.import_module(f"chanres.{layer}")
        missing = [name for name in names
                   if not callable(getattr(module, name, None))]
        assert not missing, f"chanres.{layer} lacks {missing}"


def test_every_hook_reads_what_the_traced_call_gives():
    # a traced benchmark run fails when a result lacks a field that a
    # hook counts from: each hook runs on a real call of its function
    space = {"np": np}
    exec(compile(ast.Module(_spans_nodes("_joint_pairs", "HOOKS"), []),
                 SPANS, "exec"), space)
    hooks = space["HOOKS"]
    W3, p3 = product(bsc(0.05), 3), product_dist(uniform(2), 3)
    family = AdParams(M=2, tau=0.1, kappa=0.8)
    calls = [
        ("channel.product", product, (bsc(0.1), 2)),
        ("channel.product", product_dist, (uniform(2), 2)),
        ("spectrum.product_tail_pair", product_tail_pair,
         (uniform(2), bsc(0.1), 1.5, 2)),
        ("resolvability.mc_expectation", mc_expectation,
         (uniform(2), bsc(0.1), 4, 1.5, 100, 0)),
        ("wiretap.construct_until_bounds", construct_until_bounds,
         (uniform(2), bsc(0.05), bsc(0.3), 2, 2, math.e, 4.0, 0, 2)),
        ("identification.select_codewords", select_codewords,
         (W3, p3, SelectionParams(1.5, 4.0, 1.5, 4.0, family, 2.0), 1)),
        ("identification.build_set_family", build_set_family,
         (AdParams(M=7, tau=0.15, kappa=0.99), 3)),
        ("identification.eval_id_code", eval_id_code,
         (IdCode((2, 0, 1), ((0, 1), (2,)), 1.5), identity_channel(3),
          uniform(3))),
    ]
    assert {name for name, _, _ in calls} == set(hooks)
    for name, fn, args in calls:
        bound = inspect.signature(fn).bind(*args).arguments
        counts = hooks[name](bound, fn(*args))
        assert all(type(v) is int for v in counts.values()), (name, counts)


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
