"""Check that every benchmark job prints the bytes it printed at BASE.

    python tests/same_output.py BASE

BASE is any git revision, such as a parent commit.  The script exports
BASE's committed files (`git archive`) to a temporary directory, which
it removes afterwards, and runs every job of the four perfbench
workloads at seeds 0, 5 and 7 twice: as `chanres` from BASE's `src` and
from the working tree's.  Each workload and seed runs in a fresh
directory holding its input files, one process per job and the jobs in
list order, so an `idcode eval` job reads the code its `idcode build`
job wrote.  The job lists and input files are those of the working
tree's perfbench/workloads.py, used for both sides.

A job differs when its exit code, the sha256 of its stdout, or the
sha256 of any file in its directory after it ran differs between the
two sides.  The script prints each job that differs and exits 1 if any
does, 0 otherwise.  (pytest collects only test_*.py, so it never runs
this file.)
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402

SEEDS = (0, 5, 7)

_MAIN = "import sys; from chanres.cli import main; sys.exit(main(sys.argv[1:]))"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _outcomes(src: str, workload: str, seed: int, directory: str) -> list:
    """(exit code, stdout sha256, {file: sha256}) of each job, in order."""
    os.makedirs(directory)
    workloads.write_inputs(workload, seed, directory)
    env = dict(os.environ, PYTHONPATH=src)
    results = []
    for job in workloads.jobs(workload, seed):
        run = subprocess.run([sys.executable, "-c", _MAIN, *job.argv],
                             cwd=directory, env=env, capture_output=True)
        files = {}
        for name in sorted(os.listdir(directory)):
            with open(os.path.join(directory, name), "rb") as fh:
                files[name] = _sha(fh.read())
        results.append((job.name, run.returncode, _sha(run.stdout), files))
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python tests/same_output.py BASE", file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        base = os.path.join(tmp, "base")
        os.makedirs(base)
        archive = os.path.join(tmp, "base.tar")
        subprocess.run(["git", "-C", ROOT, "archive", "--format=tar",
                        "-o", archive, argv[0]], check=True)
        subprocess.run(["tar", "-xf", archive, "-C", base], check=True)
        jobs = differ = 0
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                runs = [_outcomes(os.path.join(tree, "src"), workload, seed,
                                  os.path.join(tmp, f"{side}-{workload}-{seed}"))
                        for side, tree in (("base", base), ("work", ROOT))]
                for was, now in zip(*runs):
                    jobs += 1
                    if was != now:
                        differ += 1
                        print(f"differs: {workload} seed {seed} {now[0]}")
    print(f"{jobs} jobs, {differ} differ from {argv[0]}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
