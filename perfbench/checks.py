"""Output checks that decide whether a job failed.

A job fails when it raises, exits non-zero, or its output breaks a
check.  Every seed checks invariants: all printed numbers are finite,
exponents are >= 0, mu and lam lie in [0, 1], `idcode eval` reproduces
the mu and lam its `idcode build` printed, and `--workers 1` and
`--workers 2` runs print byte-identical output.  On the default seed
every parsed number is also compared with the reference recorded from
the seed commit, numerically (so -0 equals 0) within REL_TOL; strings,
ints and bools must match exactly.
"""

from __future__ import annotations

import json
import math

REL_TOL = 1e-9
ABS_TOL = 1e-12


def parse(kind: str, text: str):
    if kind == "csv":
        return [[_cell(c) for c in line.split(",")]
                for line in text.splitlines()]
    return [json.loads(line) for line in text.splitlines()]


def _cell(text: str):
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _numbers(doc):
    if isinstance(doc, bool):
        return
    if isinstance(doc, (int, float)):
        yield doc
    elif isinstance(doc, dict):
        for v in doc.values():
            yield from _numbers(v)
    elif isinstance(doc, list):
        for v in doc:
            yield from _numbers(v)


def differences(ref, got, path="$") -> list[str]:
    """Where `got` departs from `ref`; empty when they agree."""
    if isinstance(ref, bool) or isinstance(got, bool):
        same = type(ref) is type(got) and ref == got
    elif isinstance(ref, (int, float)) and isinstance(got, (int, float)):
        if isinstance(ref, int) and isinstance(got, int):
            same = ref == got
        else:
            same = math.isclose(ref, got, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    elif isinstance(ref, dict) and isinstance(got, dict):
        if ref.keys() != got.keys():
            return [f"{path}: keys {sorted(ref)} != {sorted(got)}"]
        return [d for k in ref for d in differences(ref[k], got[k], f"{path}.{k}")]
    elif isinstance(ref, list) and isinstance(got, list):
        if len(ref) != len(got):
            return [f"{path}: length {len(ref)} != {len(got)}"]
        return [d for i, (a, b) in enumerate(zip(ref, got))
                for d in differences(a, b, f"{path}[{i}]")]
    else:
        same = ref == got
    return [] if same else [f"{path}: {got!r} != reference {ref!r}"]


def _errors(doc) -> tuple:
    return doc[0]["mu"], doc[0]["lam"]


def check_job(job, rc, text: str, docs: dict, texts: dict,
              reference: dict | None) -> list[str]:
    """Problems with one job's run; `docs`/`texts` hold earlier jobs of the pass."""
    if rc != 0:
        return [f"exit code {rc!r}"]
    try:
        doc = parse(job.kind, text)
    except ValueError as exc:
        return [f"unparsable output: {exc}"]
    docs[job.name] = doc
    texts[job.name] = text
    problems = [f"non-finite number {v!r}" for v in _numbers(doc)
                if not math.isfinite(v)]
    if job.kind == "csv" and doc:
        col = doc[0].index("bound_nats")
        problems += [f"negative exponent {row[col]!r}" for row in doc[1:]
                     if isinstance(row[col], float) and row[col] < 0]
    if doc and isinstance(doc[0], dict) and "mu" in doc[0]:
        problems += [f"error {v!r} outside [0, 1]" for v in _errors(doc)
                     if not 0.0 <= v <= 1.0]
    if job.same_errors_as is not None:
        built = docs.get(job.same_errors_as)
        if built is None or _errors(built) != _errors(doc):
            problems.append(f"mu, lam differ from {job.same_errors_as}")
    if job.same_output_as is not None and texts.get(job.same_output_as) != text:
        problems.append(f"output differs from {job.same_output_as}")
    if reference is not None:
        if job.name not in reference:
            problems.append("no reference output")
        else:
            problems += differences(parse(job.kind, reference[job.name]), doc)
    return problems
