"""Spans around calls into the chanres modules, and the per-layer metrics.

The package itself is not instrumented.  `Tracer.install` replaces each
traced public function, in its defining module and in every chanres
module that bound it by name, with a wrapper that records a span:
(id, parent id, name, start ns, end ns, job id).  Spans are kept in
memory and written out when the run ends.  A span's self time is its
duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import csv
import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

# defining module -> traced public functions; the layers are the modules
TRACED = {
    "cli": ("main",),
    "channel": ("load_channel", "load_distribution", "product",
                "product_dist", "output_distribution"),
    "spectrum": ("tail_pair", "product_tail_pair"),
    "exponents": ("psi", "phi", "exponent_sweep", "taylor_compare"),
    "resolvability": ("expectation_bounds", "mc_expectation"),
    "rng": ("stream", "sample_indices"),
    "wiretap": ("wiretap_bounds", "sample_wiretap_code", "eval_wiretap",
                "construct_until_bounds"),
    "identification": ("select_codewords", "build_set_family",
                       "assemble_id_code", "eval_id_code", "id_error_bounds",
                       "load_id_code", "save_id_code"),
}

# functions that share one span name
SPAN_NAMES = {
    "channel.load_channel": "channel.load",
    "channel.load_distribution": "channel.load",
    "channel.product_dist": "channel.product",
}


def _joint_pairs(p, W) -> int:
    return int(np.count_nonzero(p.probs[:, None] * W.rows > 0))


# counts computed from a traced call's arguments and return value
HOOKS = {
    "channel.product": lambda a, r: {"channel.product.states": (
        a["W"].input_size ** a["n"] * a["W"].output_size ** a["n"]
        if "W" in a else a["p"].size ** a["n"])},
    "spectrum.product_tail_pair": lambda a, r: {
        "spectrum.atoms": _joint_pairs(a["p"], a["W"]) ** a["n"]},
    "resolvability.mc_expectation": lambda a, r: {
        "resolvability.trials": r[0].trials},
    "wiretap.construct_until_bounds": lambda a, r: {
        "wiretap.attempts": r.attempts, "wiretap.satisfied": int(r.satisfied)},
    "identification.select_codewords": lambda a, r: {
        "identification.selections": 1,
        "identification.select_attempts": r.attempts},
    "identification.build_set_family": lambda a, r: {
        "identification.family_subsets": r.family.size,
        "identification.family_attempts": r.attempts},
    "identification.eval_id_code": lambda a, r: {
        "identification.messages": a["code"].messages},
}

# (name, unit, better): every metric a traced run reports, per pass
PER_LAYER = (
    ("cli.main.calls", "count", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("channel.load.s", "s", "lower"),
    ("channel.product.calls", "count", "lower"),
    ("channel.product.s", "s", "lower"),
    ("channel.product.states", "count", "lower"),
    ("channel.output_distribution.calls", "count", "lower"),
    ("channel.output_distribution.s", "s", "lower"),
    ("spectrum.product_tail_pair.calls", "count", "lower"),
    ("spectrum.product_tail_pair.s", "s", "lower"),
    ("spectrum.atoms", "count", "lower"),
    ("spectrum.tail_pair.calls", "count", "lower"),
    ("spectrum.tail_pair.s", "s", "lower"),
    ("exponents.psi.calls", "count", "lower"),
    ("exponents.psi.s", "s", "lower"),
    ("exponents.phi.calls", "count", "lower"),
    ("exponents.phi.s", "s", "lower"),
    ("exponents.exponent_sweep.calls", "count", "lower"),
    ("exponents.exponent_sweep.self_s", "s", "lower"),
    ("exponents.taylor_compare.calls", "count", "lower"),
    ("exponents.taylor_compare.s", "s", "lower"),
    ("resolvability.mc_expectation.self_s", "s", "lower"),
    ("resolvability.expectation_bounds.s", "s", "lower"),
    ("resolvability.trials", "count", "higher"),
    ("resolvability.trial_us", "us", "lower"),
    ("rng.stream.calls", "count", "lower"),
    ("rng.stream.s", "s", "lower"),
    ("rng.sample_indices.calls", "count", "lower"),
    ("rng.sample_indices.s", "s", "lower"),
    ("wiretap.eval_wiretap.calls", "count", "lower"),
    ("wiretap.eval_wiretap.s", "s", "lower"),
    ("wiretap.sample_wiretap_code.s", "s", "lower"),
    ("wiretap.wiretap_bounds.s", "s", "lower"),
    ("wiretap.attempts", "count", "lower"),
    ("wiretap.accept_ratio", "1", "higher"),
    ("identification.select_codewords.s", "s", "lower"),
    ("identification.select_accept_ratio", "1", "higher"),
    ("identification.build_set_family.s", "s", "lower"),
    ("identification.family_accept_ratio", "1", "higher"),
    ("identification.eval_id_code.s", "s", "lower"),
    ("identification.messages", "count", "higher"),
) + tuple((f"{layer}.self_share", "1", "lower") for layer in TRACED) + (
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS = {name: unit for name, unit, _ in PER_LAYER}

# spans inside mc_expectation that are not part of its trial loop
_NOT_TRIALS = ("resolvability.expectation_bounds", "channel.product")


class Tracer:
    """Records spans and counts while installed; `job` tags what follows."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[tuple[str, str], int] = defaultdict(int)
        self.job = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()
        self._patches: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn):
        hook = HOOKS.get(name)
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # a pool thread: its caller is the main thread's open span
                main = self._main_stack
                parent = main[-1] if main else 0
            sid = next(self._ids)
            job = self.job
            stack.append(sid)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                self.spans.append((sid, parent, name, start, end, job))
            if hook is not None:
                bound = sig.bind(*args, **kwargs).arguments
                for key, value in hook(bound, result).items():
                    self.counts[job, key] += value
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if key == "chanres" or key.startswith("chanres.")]
        for layer, names in TRACED.items():
            home = importlib.import_module("chanres." + layer)
            for fname in names:
                original = getattr(home, fname)
                span = f"{layer}.{fname}"
                wrapper = self._wrap(SPAN_NAMES.get(span, span), original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._patches.append((module, fname, original))
                        setattr(module, fname, wrapper)

    def uninstall(self) -> None:
        for module, fname, original in reversed(self._patches):
            setattr(module, fname, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(("id", "parent", "name", "start_ns", "end_ns", "job"))
            out.writerows(self.spans)


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the union of its children's intervals (ns)."""
    children = defaultdict(list)
    for sid, parent, _, start, end, _ in spans:
        children[parent].append((start, end))
    out = {}
    for sid, _, _, start, end, _ in spans:
        covered = 0
        reach = start
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[sid] = end - start - covered
    return out


def by_name(spans) -> dict[str, list]:
    """Span name -> [calls, total s, self s]."""
    selfs = self_times(spans)
    out = defaultdict(lambda: [0, 0.0, 0.0])
    for sid, _, name, start, end, _ in spans:
        row = out[name]
        row[0] += 1
        row[1] += (end - start) * 1e-9
        row[2] += selfs[sid] * 1e-9
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def pass_metrics(spans, counts: dict[str, int], wall_s: float) -> dict:
    """Every per-layer metric of one traced pass, except trace.overhead_s."""
    names = by_name(spans)
    values = {}
    for metric, _, _ in PER_LAYER:
        base, _, field = metric.rpartition(".")
        if field in ("calls", "s", "self_s") and base in names:
            values[metric] = names[base][("calls", "s", "self_s").index(field)]
        else:
            values[metric] = counts.get(metric, 0)
    for layer in TRACED:
        own = sum(row[2] for name, row in names.items()
                  if name.startswith(layer + "."))
        values[f"{layer}.self_share"] = own / wall_s
    trial_ns = 0
    mc_ids = {s[0] for s in spans if s[2] == "resolvability.mc_expectation"}
    for sid, parent, name, start, end, _ in spans:
        if sid in mc_ids:
            trial_ns += end - start
        elif parent in mc_ids and name in _NOT_TRIALS:
            trial_ns -= end - start
    values["resolvability.trial_us"] = _ratio(
        trial_ns * 1e-3, counts.get("resolvability.trials", 0))
    values["wiretap.accept_ratio"] = _ratio(
        counts.get("wiretap.satisfied", 0), counts.get("wiretap.attempts", 0))
    values["identification.select_accept_ratio"] = _ratio(
        counts.get("identification.selections", 0),
        counts.get("identification.select_attempts", 0))
    values["identification.family_accept_ratio"] = _ratio(
        counts.get("identification.family_subsets", 0),
        counts.get("identification.family_attempts", 0))
    values["trace.spans"] = len(spans)
    return values
