"""Benchmark of the chanres command line; see README.md in this directory.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 20 --trace 0

runs one workload in a fresh interpreter (worker.py) and prints a table
of every metric, by name with its unit and sample count, followed by one
JSON line: {"correct", "attempted", "failed", "metrics"}.  `--trace 0`
reports the end-to-end metrics, `--trace 1` the per-layer ones from a
traced run.  `--report` makes both runs and prints every metric at once;
`--record-reference` rewrites the default-seed reference outputs.
Run it from the root of a checkout that holds `src/chanres`.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import spans
import speed
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")

# set-up is timed this many times before the measured run and as many
# after it, so that the median launch is taken from two moments apart,
# plus once for the measured run itself
SETUP_PROBES = 5
# the whole command, set-up probes included, ends within this many seconds
DEADLINE_S = 170


def _launch(args, *extra):
    """Start worker.py; returns (process, seconds until it printed "ready",
    the machine's slowness probed just before the launch)."""
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    # numpy's BLAS pool would add threads beside the CLI's --workers 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--workdir", os.path.join(WORK, args.workload), *extra]
    before = speed.probe()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if ready.strip() != "ready":
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"worker failed during set-up: {ready!r}")
    return proc, setup, before


def _finish(proc, deadline) -> str:
    try:
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"run went past {DEADLINE_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return out


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def run_once(args, deadline) -> tuple[dict, dict, list]:
    """One measured run: (worker result, metrics, table rows).

    A row is (name, value, unit, sample count, samples or None); the
    table prints the median and quartiles of the samples beside the value.
    """
    setups, ref_setups = [], []

    def probe_setup():
        if not args.trace:
            for _ in range(SETUP_PROBES):
                proc, setup, before = _launch(args, "--setup-only")
                _finish(proc, deadline)
                setups.append(setup)
                ref_setups.append(setup * speed.scale(before, speed.probe()))

    probe_setup()
    # the measured run keeps working after set-up; no probe after it
    proc, setup, before = _launch(args)
    setups.append(setup)
    ref_setups.append(setup * speed.scale(before, before))
    raw = json.loads(_finish(proc, deadline).splitlines()[-1])
    probe_setup()

    rows = []
    if args.trace:
        for name, unit, _ in spans.PER_LAYER:
            rows.append((name, raw["layers"][name], unit,
                         len(raw["traced_pass_s"]), None))
    else:
        # timings at the reference speed of speed.py; the table shows the
        # wall-clock samples beside them
        passes = len(raw["pass_s"])
        rows = [
            ("setup_s", statistics.median(ref_setups), "s", len(setups),
             setups),
            ("pass_s", statistics.median(raw["ref_pass_s"]), "s", passes,
             raw["pass_s"]),
            ("cpu_s", statistics.median(raw["ref_cpu_s"]), "s", passes,
             raw["cpu_s"]),
            ("peak_rss_mb", raw["peak_rss_mb"], "MB", 1, None),
        ]
    metrics = {name: {"value": value, "unit": unit}
               for name, value, unit, _, _ in rows}
    return raw, metrics, rows


def _print_table(args, raw, rows) -> None:
    failed = len(raw["problems"])
    print(f"# workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    for name, value, unit, n, samples in rows:
        extra = ""
        if samples is not None:
            q1, q3 = _quartiles(samples)
            extra = (f"  wall samples: median={statistics.median(samples):.6g} "
                     f"q1={q1:.6g} q3={q3:.6g}")
        print(f"{name:40s} {value:>14.6g} {unit:6s} n={n}{extra}")
    print(f"{'fail_ratio':40s} {failed / raw['attempted']:>14.6g} {'1':6s} "
          f"n={raw['attempted']}")
    if "slowness" in raw:
        slowness = statistics.median(raw["slowness"])
        print(f"# speed probe: median slowness {slowness:.6g} per pass "
              f"(1 = reference speed)")
    for problem in raw["problems"][:20]:
        print(f"# FAILED {problem}")
    for job, secs in raw["job_s"].items():
        print(f"# job {job:32s} fastest {min(secs):8.4f} s  "
              f"median {statistics.median(secs):8.4f} s  n={len(secs)}")
    for job, by_name in raw.get("job_spans", {}).items():
        top = sorted(by_name.items(), key=lambda kv: -kv[1][1])[:4]
        print(f"# spans {job}: " + ", ".join(
            f"{name} {row[1]:.4f} s/{row[0]} calls" for name, row in top))


def _machine() -> str:
    versions = " ".join(f"{pkg}={importlib.metadata.version(pkg)}"
                        for pkg in ("numpy", "scipy"))
    return (f"# machine: nproc={os.cpu_count()} "
            f"python={platform.python_version()} {versions}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true",
                    help="make an untraced and a traced run; print every metric")
    ap.add_argument("--record-reference", action="store_true",
                    help="rewrite reference/<workload>.json (default seed only)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not os.path.isfile(os.path.join(ROOT, "src", "chanres", "cli.py")):
        print(f"error: no chanres package under {ROOT}/src", file=sys.stderr)
        return 2
    shutil.rmtree(os.path.join(WORK, args.workload), ignore_errors=True)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.record_reference:
            if args.seed != workloads.DEFAULT_SEED:
                ap.error("references are recorded on the default seed only")
            _finish(_launch(args, "--record-reference")[0], deadline)
            return 0
        traces = (0, 1) if args.report else (args.trace,)
        metrics, attempted, failed = {}, 0, 0
        print(_machine())
        for trace in traces:
            args.trace = trace
            raw, found, rows = run_once(args, deadline)
            _print_table(args, raw, rows)
            metrics.update(found)
            attempted += raw["attempted"]
            failed += len(raw["problems"])
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
