"""One benchmark process.  It imports lgmirror from the checkout's ``src/``
and runs operations on it, as a user of the public API would:

    worker.py probe                               import, then exit
    worker.py paper COMMAND SPEC OUT [--trace]    one cold CLI command
    worker.py sweep WORKLOAD SEED OUTDIR COUNT [--trace]
    worker.py compose                             time MonomialSymmetry.__mul__

It prints one JSON object on stdout.  ``ready`` is the CLOCK_MONOTONIC
reading when ``import lgmirror`` finished, so the parent can measure set-up
time from before it started the process.

The host's speed drifts, so the worker also times a fixed reference loop:
after the import, every SAMPLE_EVERY_S seconds while the operations run
(from a timer signal, in untraced runs) and at the end.  ``refs`` lists
those timings; each operation's ``ref_s`` is their median near it.  Its
``op_s`` leaves out the time spent in the samples.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import lgmirror  # noqa: E402
import lgmirror.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

import checks  # noqa: E402
import gen  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = lgmirror.cli


REF_SAMPLES = 5            # reference timings after the import and at the end
SAMPLE_EVERY_S = 0.1       # reference timings while the operations run
NEAR_S = 0.5               # an operation's host speed: samples this close


def reference_s() -> float:
    """Time one pass of a fixed pure-Python loop of tuple hashing and dict
    updates, the kind of work lgmirror's group code does."""
    start = time.perf_counter()
    counts = {}
    for i in range(6000):
        key = (i % 97, i % 89, i * 7 % 101)
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class HostSampler:
    """Reference timings with their perf_counter times: on request, and
    every SAMPLE_EVERY_S seconds from SIGALRM between start() and stop().
    ``clock`` is perf_counter minus the time spent in timed samples."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.paused = 0.0
        self.busy = False

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), reference_s()))

    def _on_alarm(self, signum, frame) -> None:
        if self.busy:
            return
        self.busy = True
        start = time.perf_counter()
        self.sample()
        self.paused += time.perf_counter() - start
        self.busy = False

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def near(self, span) -> float:
        """Median reference timing within NEAR_S of the perf_counter
        interval ``span``, or of the whole process if fewer than
        REF_SAMPLES fall there."""
        t0, t1 = span
        near = [r for t, r in self.samples if t0 - NEAR_S <= t <= t1 + NEAR_S]
        if len(near) < REF_SAMPLES:
            near = [r for _, r in self.samples]
        return statistics.median(near)


SAMPLER = HostSampler()


def _rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _call_cli(argv) -> tuple[int, bytes]:
    """Run one CLI command in process; returns (exit code, stdout bytes)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue().encode()


def _error(exc: BaseException) -> str:
    return "".join(traceback.format_exception_only(type(exc), exc)).strip()


def run_paper(command, spec, out, tracer) -> dict:
    root = tracer.begin(0) if tracer else None
    span_start = time.perf_counter()
    start = SAMPLER.clock()
    try:
        code, data = _call_cli([command, spec, "--json"])
    except Exception as exc:  # a raise is a failed operation, reported as such
        code, data = -1, _error(exc).encode()
    elapsed = SAMPLER.clock() - start
    if tracer:
        tracer.end(root)
        tracer.counts["cli.output_bytes"] += len(data)
    Path(out).write_bytes(data)
    return {"op_s": elapsed, "span": (span_start, time.perf_counter()),
            "exit": code}


def _model_op(case):
    fields = dict(line.split(" = ", 1) for line in case.spec.splitlines())
    start = SAMPLER.clock()
    poly = lgmirror.parse_polynomial(fields["W"])
    group = lgmirror.closure([lgmirror.parse_generator(text, poly)
                              for text in fields["G"].split(";")])
    report = lgmirror.full_comparison(poly, group)
    elapsed = SAMPLER.clock() - start
    problems = checks.check_model(case, report)
    digest_text = checks.model_digest_text(report).encode()
    return elapsed, problems, False, digest_text, report.verdict.value


def _dual_op(case, spec_path, tracer):
    spec_path.write_text(case.spec)
    start = SAMPLER.clock()
    code, data = _call_cli([case.kind, str(spec_path), "--json"])
    elapsed = SAMPLER.clock() - start
    if tracer:
        tracer.counts["cli.output_bytes"] += len(data)
    problems, cap_ignored = checks.check_dual(case, code, data.decode())
    return elapsed, problems, cap_ignored, data + b"exit %d" % code, case.kind


def run_sweep(workload, seed, outdir, count, tracer) -> dict:
    outdir.mkdir(parents=True, exist_ok=True)
    if workload == "model-sweep":
        stream = gen.model_stream(seed)
    else:
        stream = gen.dual_stream(seed)
    spec_path = outdir / "request.lg"
    ops = []
    outcomes = Counter()
    digests = []
    for case in itertools.islice(stream, count):
        root = tracer.begin(case.index) if tracer else None
        span_start = time.perf_counter()
        start = SAMPLER.clock()
        try:
            if workload == "model-sweep":
                elapsed, problems, cap_ignored, digest, outcome = _model_op(case)
            else:
                elapsed, problems, cap_ignored, digest, outcome = \
                    _dual_op(case, spec_path, tracer)
        except Exception as exc:  # any raise is a failed operation
            elapsed = SAMPLER.clock() - start
            problems, cap_ignored = [_error(exc)], False
            digest, outcome = _error(exc).encode(), "raised"
        if tracer:
            tracer.end(root)
        outcomes[outcome] += 1
        sha = hashlib.sha256(digest).hexdigest()
        digests.append(f"{case.index}\t{case.kind}\t{sha}\n")
        ops.append({"i": case.index, "kind": case.kind, "op_s": elapsed,
                    "span": (span_start, time.perf_counter()),
                    "problems": problems, "cap_ignored": cap_ignored,
                    "spec": case.spec if problems or cap_ignored else None})
    (outdir / "digests.tsv").write_text("".join(digests))
    return {"ops": ops, "outcomes": dict(outcomes)}


def compose_ns(pairs=4000, repeats=5) -> float:
    """ns per composition on a fixed sample of pairs from the bad quintic's
    G* = Hᵀ·K: Hᵀ = {k/5 : Σk ≡ 0 mod 5}, K the Klein four-group on x1..x4.
    Elements are built through the public generator grammar."""
    poly = lgmirror.parse_polynomial("x1^5 + x2^5 + x3^5 + x4^5 + x5^5")
    klein = ["", "*(1 2)(3 4)", "*(1 3)(2 4)", "*(1 4)(2 3)"]
    rng = random.Random(0)
    elements = []
    for _ in range(500):
        k = [rng.randrange(5) for _ in range(4)]
        k.append(-sum(k) % 5)
        text = "diag(" + ", ".join(f"{x}/5" for x in k) + ")" + rng.choice(klein)
        elements.append(lgmirror.parse_generator(text, poly))
    sample = [(rng.choice(elements), rng.choice(elements)) for _ in range(pairs)]
    times = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for a, b in sample:
            a * b
        times.append((time.perf_counter_ns() - start) / pairs)
    return statistics.median(times)


def main(argv) -> int:
    src = (ROOT / "src").resolve()
    if src not in Path(lgmirror.__file__).resolve().parents:
        print(f"lgmirror imported from {lgmirror.__file__}, not {src}",
              file=sys.stderr)
        return 2
    mode, *args = argv
    trace = "--trace" in args
    args = [a for a in args if a != "--trace"]
    tracer = Tracer() if trace else None
    result = {"ready": READY}
    for _ in range(REF_SAMPLES):
        SAMPLER.sample()
    if tracer:
        tracer.install()
    elif mode in ("paper", "sweep"):
        SAMPLER.start()
    if mode == "paper":
        result.update(run_paper(*args, tracer))
    elif mode == "sweep":
        workload, seed, outdir, count = args
        result.update(run_sweep(workload, int(seed), Path(outdir), int(count),
                                tracer))
    elif mode == "compose":
        result["compose_ns"] = compose_ns()
    elif mode != "probe":
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    SAMPLER.stop()
    if tracer:
        tracer.uninstall()
        result["raw"] = tracer.raw()
    for _ in range(REF_SAMPLES):
        SAMPLER.sample()
    for op in [result, *result.get("ops", ())]:
        if "span" in op:
            op["ref_s"] = SAMPLER.near(op.pop("span"))
    result["refs"] = [r for _, r in SAMPLER.samples]
    result["rss_kb"] = _rss_kb()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
