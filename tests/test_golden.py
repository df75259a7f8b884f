"""Byte-for-byte stdout of the two `simulate` commands.

`tests/data/golden_simulate.txt` holds, for each run below, a `$ chanres
...` line followed by the run's stdout.  Any change to a sampled code,
a Monte Carlo mean or a leakage figure, down to the last printed digit,
fails this test.  Re-record only when an output change is intended:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import json
import math
import os
import sys

from chanres.cli import main

GOLDEN = os.path.join(os.path.dirname(__file__), "data", "golden_simulate.txt")

E = repr(math.e)

INPUTS = {
    "bsc01.json": {"input_size": 2, "output_size": 2,
                   "rows": [[0.9, 0.1], [0.1, 0.9]]},
    "z.json": {"input_size": 2, "output_size": 2,
               "rows": [[1.0, 0.0], [0.3, 0.7]]},
    "bob.json": {"input_size": 2, "output_size": 2,
                 "rows": [[0.95, 0.05], [0.05, 0.95]]},
    "eve.json": {"input_size": 2, "output_size": 2,
                 "rows": [[0.8, 0.2], [0.2, 0.8]]},
    "u2.json": {"probs": [0.5, 0.5]},
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
)]


def transcript(capture) -> str:
    """Every run's command line and stdout; `capture()` returns the
    stdout written since its last call.  Runs in the current directory."""
    for name, doc in INPUTS.items():
        with open(name, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    parts = []
    for argv in RUNS:
        assert main(argv) == 0, argv
        parts.append("$ chanres " + " ".join(argv) + "\n" + capture())
    return "".join(parts)


def test_simulate_stdout_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN, "rb") as fh:
        golden = fh.read()
    got = transcript(lambda: capsys.readouterr().out).encode("utf-8")
    assert got == golden


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

    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), \
            contextlib.redirect_stdout(buf):
        text = transcript(capture)
    with open(GOLDEN, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
