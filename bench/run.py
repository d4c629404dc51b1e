"""lgmirror benchmark: three closed-loop, single-client workloads.

    python3 bench/run.py --workload paper-cli --seed 1 --seconds 25 --trace 0

Workloads (one client; at most one child process runs at a time):

* ``paper-cli``   the paper's three models as cold CLI commands, each in a
                  fresh interpreter: mirror-check on the quartic K3, the good
                  and the bad quintic, and bstate on the bad quintic.
* ``model-sweep`` full_comparison over a seeded family of Fermat models, in
                  one process, so the library's caches warm up.
* ``dual-sweep``  dual-group, nonabelian-dual and pc-check through cli.main
                  on a seeded stream of distinct invertible polynomials.

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it runs a fixed number of the same operations twice, untraced
and traced, and reports per-layer metrics from spans taken around lgmirror's
public functions.  Each metric is printed as a line

    metric <name> <value> <unit> n=<samples>

and the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Times are reference seconds:
scaled by a reference loop timed alongside, so that the host's drifting
speed cancels (see REF_S).  Per-operation output digests and the full
result go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
WORKER = BENCH / "worker.py"

sys.path.insert(0, str(BENCH))
import gen  # noqa: E402
from checks import check_paper  # noqa: E402
from tracer import EXACT_COUNTS, LAYER_METRICS, combine, layer_metrics  # noqa: E402

WORKLOADS = ("paper-cli", "model-sweep", "dual-sweep")
END_TO_END = (("setup_s", "s"), ("op_s.p50", "s"), ("op_s.p90", "s"),
              ("ops_per_s", "1/s"), ("peak_rss_mb", "MB"))

# One paper-cli round.  The short quartic is repeated, spread between the
# long commands, so that its median samples the whole round; with 17 of 20
# commands it is the median, and p90 falls on the good quintic.
_QUARTIC = ("mirror-check", "quartic_k3")
PAPER_ROUND = ((_QUARTIC,) * 6 + (("mirror-check", "good_quintic"),) +
               (_QUARTIC,) * 6 + (("mirror-check", "bad_quintic"),) +
               (_QUARTIC,) * 5 + (("bstate", "bad_quintic"),))
EXPECTED = {("mirror-check", "quartic_k3"): "quartic_k3_mirror_check.json",
            ("mirror-check", "good_quintic"): "good_quintic_mirror_check.json",
            ("mirror-check", "bad_quintic"): "bad_quintic_mirror_check.json",
            ("bstate", "bad_quintic"): "bad_quintic_bstate.json.gz"}
SETUP_PROBES = 11         # extra fresh interpreters that only import lgmirror
# The sweeps run a fixed number of operations, so that two commits measure
# the same work with equally warm caches: about this many per second of
# --seconds, which at this commit takes about --seconds, rounded to whole
# blocks of the generator so that every slot runs equally often.
SWEEP_OPS_PER_S = {"model-sweep": 3, "dual-sweep": 12}
SWEEP_BLOCK = {"model-sweep": len(gen.MODEL_SLOTS), "dual-sweep": len(gen.DUAL_SLOTS)}
TRACE_OPS = {"model-sweep": 25, "dual-sweep": 150}
BUDGET_S = 170            # the whole run, children included
# The host's speed drifts by tens of percent within seconds and minutes.
# Every child times a fixed reference loop (worker.reference_s) while it
# runs, and each time it reports is scaled by REF_S over the reference
# timing near it: times read as on a host where the loop takes REF_S.  A
# slower program moves them; a slower host does not.
REF_S = 0.002


class Run:
    """Results of one benchmark invocation, gathered from its children."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.setups: list[float] = []
        self.refs: list[float] = []
        self.rss_kb = 0
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.ok = 0
        self.failed = 0
        self.cap_ignored = 0
        self.problems: list[str] = []
        self.extra: dict[str, list[float]] = {}

    def spawn(self, *args: str) -> dict:
        """Run one worker to completion and return its JSON result.  Its
        set-up time is scaled by the median of all its reference timings."""
        start = time.monotonic()
        timeout = max(1.0, self.deadline - start)
        env = dict(os.environ, PYTHONHASHSEED="0")
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              env=env, capture_output=True, timeout=timeout)
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} exited {proc.returncode}: "
                               f"{proc.stderr.decode()[-2000:]}")
        result = json.loads(proc.stdout.decode().strip().splitlines()[-1])
        scale = REF_S / statistics.median(result["refs"])
        self.setups.append((result["ready"] - start) * scale)
        self.refs.extend(result["refs"])
        self.rss_kb = max(self.rss_kb, result["rss_kb"])
        return result

    def record(self, op_s: float, scale: float, problems: list[str],
               cap_ignored=False) -> None:
        self.latencies.append(op_s * scale)
        self.raw_latencies.append(op_s)
        self.problems.extend(problems)
        if problems or cap_ignored:
            self.failed += 1
        else:
            self.ok += 1
        self.cap_ignored += bool(cap_ignored)

    @property
    def attempted(self) -> int:
        return self.ok + self.failed


def p90(values) -> float:
    """90th percentile, interpolated between the two nearest samples."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


# --- workloads -----------------------------------------------------------------

def paper_round(run: Run, trace: bool, raws: list) -> float:
    """One round of cold paper commands; returns the summed op time."""
    total = 0.0
    for command, model in PAPER_ROUND:
        out = OUT / f"paper-{model}-{command}.json"
        args = ["paper", command, f"bench/specs/{model}.lg", str(out)]
        result = run.spawn(*args, *(["--trace"] if trace else []))
        data = out.read_bytes()
        expected = (BENCH / "expected" / EXPECTED[command, model]).read_bytes()
        if EXPECTED[command, model].endswith(".gz"):
            expected = gzip.decompress(expected)
        problems = check_paper(model, command, data, expected)
        if result["exit"] != 0:
            problems.append(f"{command} {model} exited {result['exit']}")
        scale = REF_S / result["ref_s"]
        run.record(result["op_s"], scale, problems)
        key = ("verdict_s." if command == "mirror-check" else "bstate_s.") + model
        run.extra.setdefault(key, []).append(result["op_s"] * scale)
        total += result["op_s"]
        if trace:
            raws.append(result["raw"])
    return total


def paper_cli(run: Run, seconds: float) -> None:
    begin = time.monotonic()
    while True:
        start = time.monotonic()
        paper_round(run, False, [])
        last = time.monotonic() - start
        if time.monotonic() - begin + last > seconds:
            break


def sweep(run: Run, workload: str, seed: int, count: int, trace: bool):
    outdir = OUT / f"{workload}-seed{seed}{'-trace' if trace else ''}"
    result = run.spawn("sweep", workload, str(seed), str(outdir), str(count),
                       *(["--trace"] if trace else []))
    for op in result["ops"]:
        problems = [f"op {op['i']} ({op['kind']}): {p}" for p in op["problems"]]
        run.record(op["op_s"], REF_S / op["ref_s"], problems, op["cap_ignored"])
    return result


def setup_probes(run: Run) -> None:
    for _ in range(SETUP_PROBES):
        run.spawn("probe")


# --- reporting -------------------------------------------------------------------

def metric_line(name: str, value, unit: str, n: int, **more) -> str:
    tail = "".join(f" {k}={v}" for k, v in more.items())
    return f"metric {name} {value!r} {unit} n={n}{tail}"


def parse_metric_line(line: str) -> dict:
    """Inverse of metric_line: {'name', 'value', 'unit', 'n', ...}."""
    tag, name, value, unit, *pairs = line.split()
    if tag != "metric":
        raise ValueError(f"not a metric line: {line!r}")
    out = {"name": name, "value": float(value), "unit": unit}
    for pair in pairs:
        key, _, val = pair.partition("=")
        out[key] = int(val) if val.lstrip("-").isdigit() else val
    return out


def end_to_end(run: Run) -> dict:
    lat = run.latencies
    return {
        "setup_s": (statistics.median(run.setups), len(run.setups)),
        "op_s.p50": (statistics.median(lat), len(lat)),
        "op_s.p90": (p90(lat), len(lat)),
        "ops_per_s": (run.ok / sum(lat), len(lat)),
        "peak_rss_mb": (run.rss_kb / 1024, 1),
    }


def library_fingerprint() -> str:
    """sha256 over the library's source files: traced counts are compared
    only between runs of the same code."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "lgmirror").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def save(name: str, payload: dict) -> None:
    (OUT / name).write_text(json.dumps(payload, indent=1, sort_keys=True))


def timed(workload: str, seed: int, seconds: float, run: Run):
    run.spawn("probe")                      # compiles bytecode; not counted
    run.setups.clear()
    outcomes = {}
    if workload == "paper-cli":
        paper_cli(run, seconds)
    else:
        setup_probes(run)
        block = SWEEP_BLOCK[workload]
        count = block * max(1, round(seconds * SWEEP_OPS_PER_S[workload] / block))
        outcomes = sweep(run, workload, seed, count, False)["outcomes"]
    values = end_to_end(run)
    lines = [metric_line(name, values[name][0], unit, values[name][1])
             for name, unit in END_TO_END]
    for name, samples in sorted(run.extra.items()):
        lines.append(metric_line(name, statistics.median(samples), "s",
                                 len(samples)))
    lines.append(metric_line("host.ref_s", statistics.median(run.refs), "s",
                             len(run.refs)))
    lines.append(metric_line("fail_ratio", run.failed / run.attempted, "ratio",
                             run.attempted, failed=run.failed,
                             cap_ignored=run.cap_ignored))
    if outcomes:
        lines.append("outcomes " + " ".join(f"{k}={v}" for k, v in
                                            sorted(outcomes.items())))
    metrics = {name: {"value": values[name][0], "unit": unit}
               for name, unit in END_TO_END}
    return lines, metrics, True


def traced(workload: str, seed: int, run: Run):
    compose = run.spawn("compose")["compose_ns"]
    if workload == "paper-cli":
        plain = paper_round(run, False, [])
        raws: list = []
        with_spans = paper_round(run, True, raws)
    else:
        count = TRACE_OPS[workload]
        plain = sum(op["op_s"] for op in sweep(run, workload, seed, count, False)["ops"])
        result = sweep(run, workload, seed, count, True)
        with_spans = sum(op["op_s"] for op in result["ops"])
        raws = [result["raw"]]
    raw = combine(raws)
    values = layer_metrics(raw, compose, with_spans - plain)
    units = dict(LAYER_METRICS)
    lines = [metric_line(name, values[name], units[name], run.attempted // 2)
             for name, _ in LAYER_METRICS]
    lines += [f"missing {name}" for name in raw["missing"]]
    ok = raw["self_within_total"]
    if not ok:
        lines.append("check failed: per-layer self times exceed an operation's total")
    counts = {name: values[name] for name in EXACT_COUNTS}
    source = library_fingerprint()
    previous = OUT / f"trace-{workload}-seed{seed}.json"
    if previous.exists():
        before = json.loads(previous.read_text())
        if before["source"] == source:
            same = before["counts"] == counts
            lines.append("determinism: counts " + (
                "repeat exactly" if same else
                f"DIFFER from the previous traced run ({previous.name})"))
            ok &= same
    save(previous.name, {"source": source, "counts": counts, "metrics": values,
                         "raw": raw})
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in LAYER_METRICS}
    return lines, metrics, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lgmirror" / "__init__.py").is_file():
        print(f"no lgmirror source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    run = Run(time.monotonic() + BUDGET_S)
    try:
        if args.trace:
            lines, metrics, ok = traced(args.workload, args.seed, run)
        else:
            lines, metrics, ok = timed(args.workload, args.seed, args.seconds, run)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(f"workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds:g} trace {args.trace}")
    for line in lines:
        print(line)
    for problem in run.problems[:20]:
        print(f"problem {problem}")
    correct = ok and not run.problems
    result = {"correct": correct, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    save(f"{args.workload}-seed{args.seed}-trace{args.trace}.json",
         dict(result, lines=lines, problems=run.problems,
              latencies=run.latencies, raw_latencies=run.raw_latencies,
              setups=run.setups))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
