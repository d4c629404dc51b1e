"""Write a benchmark snapshot: BENCH_<n>.json at the repository root.

    python3 tools/bench_snapshot.py

n is one more than the highest n of a BENCH_<n>.json already there (1 if
there is none), so each snapshot adds a point to the trajectory.  It runs
the unedited ``bench/run.py`` on every workload that ``BENCHMARK.json``
lists, alternating between the workloads, once per seed of ``SEEDS`` with
``--seconds SECONDS``.  The file holds the git revision, the Python version,
the number of usable CPUs, the seeds and the seconds, and per workload
whether every run was correct and the median and quartiles of each
end-to-end metric over the runs.

A snapshot is a point on a trajectory, not a gate: the host's speed drifts
by tens of percent, and a claim of a gain rests on alternating runs of the
two commits it compares.
"""

from __future__ import annotations

import json
import os
import platform
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (36001, 36002, 36003, 36004, 36005)
SECONDS = 10


def git_revision() -> str:
    return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                          cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()


def next_snapshot() -> Path:
    """BENCH_<n>.json for n one more than the highest taken."""
    taken = [int(m[1]) for path in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", path.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def bench_run(workload: str, seed: int) -> dict | None:
    """The JSON object ``bench/run.py`` ends its stdout with, or None if it
    exits with an error."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(SECONDS)],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode:
        print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    runs: dict[str, list] = {w: [] for w in workloads}
    for seed in SEEDS:
        for workload in workloads:
            result = bench_run(workload, seed)
            runs[workload].append(result)
            state = "no result" if result is None else "correct" if result["correct"] else "WRONG"
            print(f"{workload} seed {seed}: {state}", file=sys.stderr)
    report = {}
    for workload, results in runs.items():
        done = [r for r in results if r is not None]
        report[workload] = {
            "correct": len(done) == len(results) and all(r["correct"] for r in done),
            "metrics": {name: dict(summary([r["metrics"][name]["value"] for r in done]),
                                   unit=unit)
                        for name, unit in metrics if done},
        }
    snapshot = {"git": git_revision(), "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0)), "seeds": list(SEEDS),
                "seconds": SECONDS, "workloads": report}
    path = next_snapshot()
    path.write_text(json.dumps(snapshot, indent=1, sort_keys=True) + "\n")
    print(f"wrote {path.name}", file=sys.stderr)
    return 0 if all(w["correct"] for w in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
