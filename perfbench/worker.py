"""One workload run in a fresh interpreter, started by run.py.

Imports `chanres.cli`, writes the workload's input files into the work
directory and prints "ready"; the parent times set-up up to that line.
It then runs the job list in-process as a closed loop (one client, each
job starting when the previous one ends): one untimed warm-up pass, then
timed passes until the next pass would end past `--seconds`, at least
MIN_PASSES of them.  A speed probe (speed.py) runs before every job and
after the last, and each pass is also reported scaled to the reference
speed.  With `--trace 1` untraced and traced passes alternate, so the
tracing overhead is measured within the run.  The last line of stdout
is one JSON object with the raw measurements.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import checks
import spans
import speed
import workloads

MIN_PASSES = 3
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _run_job(cli, job):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(job.argv))
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a raising job is a failed job; the run goes on
            rc = traceback.format_exc(limit=-1).strip()
    return rc, out.getvalue()


class Passes:
    """Runs passes over the job list and keeps what they measured."""

    def __init__(self, cli, workload, job_list, reference):
        self.cli = cli
        self.workload = workload
        self.jobs = job_list
        self.reference = reference
        self.attempted = 0
        self.problems: list[str] = []
        self.outputs: dict[str, str] = {}

    def run(self, label, tracer=None):
        """One pass: wall and cpu s, the same scaled by speed.scale, and
        job name -> (wall s, cpu s)."""
        results = []
        share = workloads.ARRAY_SHARE.get(self.workload, 0.0)
        probes = [speed.probe(share)]
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{label}/{job.name}"
            t0, c0 = time.perf_counter(), time.process_time()
            rc, text = _run_job(self.cli, job)
            secs = (time.perf_counter() - t0, time.process_time() - c0)
            probes.append(speed.probe(share))
            results.append((job, rc, text, secs))
        scales = [speed.scale(a, b) for a, b in zip(probes, probes[1:])]
        walls = [secs[0] for _, _, _, secs in results]
        cpus = [secs[1] for _, _, _, secs in results]
        measured = {
            "wall": sum(walls),
            "cpu": sum(cpus),
            "ref_wall": sum(t * k for t, k in zip(walls, scales)),
            "ref_cpu": sum(t * k for t, k in zip(cpus, scales)),
            "slowness": statistics.median(probes),
        }
        docs, texts = {}, {}
        for job, rc, text, _ in results:
            self.attempted += 1
            self.outputs[job.name] = text
            found = checks.check_job(job, rc, text, docs, texts, self.reference)
            if found:
                self.problems.append(f"pass {label} {job.name}: {found[0]}")
        return measured, {job.name: secs for job, _, _, secs in results}


def _load_reference(workload, seed):
    if seed != workloads.DEFAULT_SEED:
        return None
    with open(os.path.join(REFERENCE_DIR, workload + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    from chanres import cli

    os.makedirs(args.workdir, exist_ok=True)
    os.chdir(args.workdir)
    workloads.write_inputs(args.workload, args.seed, ".")
    print("ready", flush=True)
    if args.setup_only:
        return 0

    job_list = workloads.jobs(args.workload, args.seed)
    record = args.record_reference
    passes = Passes(cli, args.workload, job_list,
                    None if record else _load_reference(args.workload, args.seed))
    passes.run("warmup")
    if record:
        if passes.problems:
            print("\n".join(passes.problems), file=sys.stderr)
            return 1
        path = os.path.join(REFERENCE_DIR, args.workload + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(passes.outputs, fh, indent=1, sort_keys=True)
            fh.write("\n")
        return 0

    tracer = spans.Tracer() if args.trace else None
    measured = {key: [] for key in ("wall", "cpu", "ref_wall", "ref_cpu",
                                    "slowness")}
    traced_walls = []
    job_s = {job.name: [] for job in job_list}
    job_cpu_s = {job.name: [] for job in job_list}
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        found, secs = passes.run(str(len(measured["wall"])))
        for key, value in found.items():
            measured[key].append(value)
        for name, (job_wall, job_cpu) in secs.items():
            job_s[name].append(job_wall)
            job_cpu_s[name].append(job_cpu)
        if tracer is not None:
            tracer.install()
            try:
                found = passes.run(f"t{len(traced_walls)}", tracer)[0]
                traced_walls.append(found["wall"])
            finally:
                tracer.uninstall()
        elapsed = time.perf_counter() - start
        enough = tracer is not None or len(measured["wall"]) >= MIN_PASSES
        if enough and elapsed + (time.perf_counter() - t0) > args.seconds:
            break

    result = {
        "pass_s": measured["wall"],
        "cpu_s": measured["cpu"],
        "ref_pass_s": measured["ref_wall"],
        "ref_cpu_s": measured["ref_cpu"],
        "slowness": measured["slowness"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": passes.attempted,
        "problems": passes.problems,
        "job_s": job_s,
        "job_cpu_s": job_cpu_s,
    }
    if tracer is not None:
        tracer.write("spans.csv")
        result["layers"] = _layer_metrics(tracer, traced_walls,
                                          measured["wall"])
        result["traced_pass_s"] = traced_walls
        result["job_spans"] = _job_spans(tracer, "t0")
    print(json.dumps(result))
    return 0


def _layer_metrics(tracer, traced_walls, walls) -> dict:
    """Median over traced passes of every per-layer metric."""
    per_pass = []
    for i, wall in enumerate(traced_walls):
        label = f"t{i}/"
        own = [s for s in tracer.spans if s[5].startswith(label)]
        counts = {}
        for (job, key), value in tracer.counts.items():
            if job.startswith(label):
                counts[key] = counts.get(key, 0) + value
        per_pass.append(spans.pass_metrics(own, counts, wall))
    out = {}
    for name, value in per_pass[0].items():
        if spans.UNITS[name] == "count":
            out[name] = value
            if any(p[name] != value for p in per_pass):
                raise RuntimeError(f"count {name} differs between passes")
        else:
            out[name] = statistics.median(p[name] for p in per_pass)
    out["trace.overhead_s"] = (statistics.median(traced_walls)
                               - statistics.median(walls))
    return out


def _job_spans(tracer, label) -> dict:
    """Job -> span name -> [calls, s, self s], for one traced pass."""
    by_job: dict[str, list] = {}
    for s in tracer.spans:
        pass_label, _, job = s[5].partition("/")
        if pass_label == label:
            by_job.setdefault(job, []).append(s)
    return {job: dict(spans.by_name(rows)) for job, rows in by_job.items()}


if __name__ == "__main__":
    sys.exit(main())
