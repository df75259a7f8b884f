"""The four benchmark workloads: their input files and their CLI jobs.

Each workload is a fixed list of `chanres` command lines.  The workload
seed sets every `--seed` and `--family-seed` a job passes, and the
entries of the 3-ary asymmetric channel (its support and alphabet sizes
stay fixed).  Jobs whose inputs are invalid on purpose, such as
`capacity --tol -1`, are left out: their exit codes are due to change,
and that must not read as a regression.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

DEFAULT_SEED = 0

E = repr(math.e)

# 3-ary asymmetric channel and its input law; on the default seed the
# channel is exactly these rows, on any other seed each entry of the
# first row is scaled by a seeded factor in [0.9, 1.1], and the row is
# renormalized and shifted cyclically to give the other two
ASYM_ROWS = ((0.7, 0.2, 0.1), (0.1, 0.7, 0.2), (0.2, 0.1, 0.7))
ASYM_P = (0.5, 0.3, 0.2)

# weight of the array loop in the speed probe (speed.py): `blocklength`
# spends most of its time on arrays of up to 16.8M atoms, which the
# machine's slow spells slow less than interpreted code; probed with
# the interpreted loop alone, its scaled times spread twice as far
ARRAY_SHARE = {"blocklength": 0.5}


@dataclass(frozen=True)
class Job:
    """One `chanres` invocation and what its output must satisfy.

    `kind` is "csv" or "jsonl".  `same_output_as` names an earlier job of
    the same pass whose stdout must be byte-identical; `same_errors_as`
    names an `idcode build` job whose mu and lam an `idcode eval` job
    must reproduce.
    """

    name: str
    argv: tuple[str, ...]
    kind: str = "jsonl"
    same_output_as: str | None = None
    same_errors_as: str | None = None


def bsc_rows(w):
    return [[1.0 - w, w], [w, 1.0 - w]]


def symmetric_rows(k, eps):
    return [[1.0 - eps if x == y else eps / (k - 1) for y in range(k)]
            for x in range(k)]


def asym_rows(seed):
    if seed == DEFAULT_SEED:
        return [list(r) for r in ASYM_ROWS]
    # the seeded rows stay cyclic shifts of one row, as the default rows
    # are: a generic perturbation slows the worst-case input solve from
    # 0.3 s to 10-85 s per job, past what one run can afford
    rnd = random.Random(seed)
    first = [v * rnd.uniform(0.9, 1.1) for v in ASYM_ROWS[0]]
    first = [v / sum(first) for v in first]
    return [first[-x:] + first[:-x] for x in range(3)]


def _channel_doc(rows):
    return {"input_size": len(rows), "output_size": len(rows[0]),
            "rows": rows}


def _uniform(k):
    return {"probs": [1.0 / k] * k}


def input_files(workload: str, seed: int) -> dict:
    """File name -> JSON document, for every input the workload reads."""
    docs = {
        "bsc01.json": _channel_doc(bsc_rows(0.1)),
        "u2.json": _uniform(2),
    }
    if workload in ("sweep", "blocklength"):
        docs["asym3.json"] = _channel_doc(asym_rows(seed))
        docs["p3.json"] = {"probs": list(ASYM_P)}
    if workload in ("blocklength", "montecarlo"):
        docs["bob.json"] = _channel_doc(bsc_rows(0.05))
        docs["eve.json"] = _channel_doc(bsc_rows(0.2))
    if workload == "blocklength":
        docs["sym4.json"] = _channel_doc(symmetric_rows(4, 0.05))
        docs["u4.json"] = _uniform(4)
    if workload == "montecarlo":
        docs["z.json"] = _channel_doc([[1.0, 0.0], [0.3, 0.7]])
    if workload == "idcode":
        docs["id256.json"] = _channel_doc(
            [[1.0 if x == y else 0.0 for y in range(256)] for x in range(256)])
        docs["u256.json"] = _uniform(256)
    return docs


def write_inputs(workload: str, seed: int, directory: str) -> None:
    for name, doc in input_files(workload, seed).items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def _exponents(channel, dist, lo, hi):
    rates = ("--rate-start", lo, "--rate-end", hi, "--rate-steps", "9")
    given = ("exponents", "--channel", channel, "--dist", dist) + rates
    worst = ("exponents", "--channel", channel, "--worst") + rates
    return given, worst


def _bounds(channel, dist, n):
    return ("bounds", "--channel", channel, "--dist", dist,
            "--codebook-size", "16", "--threshold", E, "--blocklength", str(n))


def _idcode(channel, dist, codewords, seed, code, n=None):
    block = () if n is None else ("--blocklength", str(n))
    build = ("idcode", "build", "--channel", channel, "--dist", dist,
             "--alpha", "2", "--alpha-prime", "4", "--beta", "2",
             "--beta-prime", "4", "--tau", "0.1", "--kappa", "0.8",
             "--codewords", str(codewords), "--threshold", "2",
             "--seed", str(seed), "--family-seed", str(seed + 1),
             "--output", code) + block
    ev = ("idcode", "eval", "--channel", channel, "--dist", dist,
          "--code", code) + block
    return build, ev


def _resolvability(channel, n, trials, seed, *extra):
    return ("simulate", "resolvability", "--channel", channel,
            "--dist", "u2.json", "--codebook-size", "16", "--threshold", E,
            "--blocklength", str(n), "--trials", str(trials),
            "--seed", str(seed)) + extra


def _wiretap(messages, seed, *extra):
    return ("simulate", "wiretap", "--channel-b", "bob.json",
            "--channel-e", "eve.json", "--dist", "u2.json",
            "--messages", str(messages), "--randomization", "4",
            "--threshold", E, "--decoder-threshold", E,
            "--blocklength", "4", "--seed", str(seed)) + extra


def jobs(workload: str, seed: int) -> list[Job]:
    if workload == "sweep":
        bsc_given, bsc_worst = _exponents("bsc01.json", "u2.json", "0.8", "1.2")
        asym_given, asym_worst = _exponents("asym3.json", "p3.json",
                                            "0.05", "0.45")
        return [
            Job("exponents-bsc-dist", bsc_given, "csv"),
            Job("exponents-bsc-worst", bsc_worst, "csv"),
            Job("exponents-asym-dist", asym_given, "csv"),
            Job("exponents-asym-worst", asym_worst, "csv"),
        ]
    if workload == "blocklength":
        build, ev = _idcode("sym4.json", "u4.json", 100, seed, "id4.json", n=4)
        return (
            [Job(f"bounds-bsc-n{n}", _bounds("bsc01.json", "u2.json", n))
             for n in (4, 8, 10, 12)]
            + [Job(f"bounds-asym-n{n}", _bounds("asym3.json", "p3.json", n))
               for n in (4, 5, 6)]
            + [Job("wiretap-bounds-n8", (
                "wiretap-bounds", "--channel-b", "bob.json",
                "--channel-e", "eve.json", "--dist", "u2.json",
                "--messages", "2", "--randomization", "4",
                "--threshold", E, "--decoder-threshold", "4",
                "--blocklength", "8")),
               Job("idcode-build-sym4-n4", build),
               Job("idcode-eval-sym4-n4", ev,
                   same_errors_as="idcode-build-sym4-n4")]
        )
    if workload == "montecarlo":
        return [
            Job("resolvability-bsc-w1",
                _resolvability("bsc01.json", 4, 2000, seed, "--workers", "1")),
            Job("resolvability-bsc-w2",
                _resolvability("bsc01.json", 4, 2000, seed, "--workers", "2"),
                same_output_as="resolvability-bsc-w1"),
            Job("resolvability-z-stream",
                _resolvability("z.json", 8, 300, seed,
                               "--max-joint-states", "10000")),
            Job("wiretap-m200", _wiretap(200, seed, "--max-retries", "3")),
            Job("wiretap-readme", _wiretap(2, seed, "--workers", "2")),
        ]
    if workload == "idcode":
        build, ev = _idcode("id256.json", "u256.json", 120, seed, "id256code.json")
        return [Job("idcode-build-id256", build),
                Job("idcode-eval-id256", ev, same_errors_as="idcode-build-id256")]
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("sweep", "blocklength", "montecarlo", "idcode")
