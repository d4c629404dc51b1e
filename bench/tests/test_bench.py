"""Tests of the benchmark itself: generators, output checks, metric lines,
trace determinism and the refusal to run without the library source.

    python3 -m pytest bench/tests -q
"""

import itertools
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import checks
import gen
from run import metric_line, parse_metric_line
from tracer import EXACT_COUNTS, LAYER_METRICS, combine, layer_metrics

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


def _take(stream, n):
    return [(c.kind, c.spec, c.det, c.h_order, c.k_order, c.pc_holds, c.cap)
            for c in itertools.islice(stream, n)]


@pytest.mark.parametrize("make", [gen.model_stream, gen.dual_stream])
def test_generators_repeat_per_seed(make):
    assert _take(make(3), 40) == _take(make(3), 40)
    assert _take(make(3), 40) != _take(make(4), 40)


def test_generators_never_import_lgmirror():
    code = ("import itertools, sys; sys.path.insert(0, 'bench'); import gen; "
            "list(itertools.islice(gen.model_stream(1), 30)); "
            "list(itertools.islice(gen.dual_stream(1), 30)); "
            "print('lgmirror' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


def test_generated_orders_follow_the_duality_identities():
    for case in itertools.islice(gen.dual_stream(5), 60):
        assert case.det % case.h_order == 0
        assert case.star_order == case.det // case.h_order * case.k_order
        if case.cap is not None:
            assert case.g_order <= case.cap < case.star_order
        low, high = case.extra["band"]
        by_det = case.kind == "dual-group" or case.cap is not None
        assert low <= (case.det if by_det else case.g_order) <= high
    block = list(itertools.islice(gen.dual_stream(5), len(gen.DUAL_SLOTS)))
    assert sorted((c.kind, c.cap is not None, c.extra["band"]) for c in block) == \
        sorted((kind, capped, band) for kind, _, capped, band in gen.DUAL_SLOTS)
    slots = {(c.k_type, c.h_order) for c in itertools.islice(gen.model_stream(5),
                                                             len(gen.MODEL_SLOTS))}
    assert slots == {(k, h) for _, k, h in gen.MODEL_SLOTS}


def test_exact_linear_algebra():
    rows = gen.exponent_matrix([gen.Atom(gen.LOOP, (2, 3, 4)), gen.Atom(gen.FERMAT, (5,))])
    assert gen.determinant(rows) == (2 * 3 * 4 + 1) * 5
    n_mod, cols = gen.diagonal_columns(rows)
    assert n_mod == 125
    assert len(gen.span(cols, n_mod)) == n_mod


def test_parity_condition_expectations():
    v4 = [gen.from_cycles([(0, 1), (2, 3)], 5), gen.from_cycles([(0, 2), (1, 3)], 5)]
    assert not gen.parity_holds(gen.perm_closure(v4, 5), 5)
    c3 = [gen.from_cycles([(0, 1, 2)], 5)]
    assert gen.parity_holds(gen.perm_closure(c3, 5), 5)


def test_det_phase_from_json():
    assert checks.det_phase({"perm": "()", "phases": ["1/5"] * 5}) == 0
    assert checks.det_phase({"perm": "(1 2)", "phases": ["0"] * 3}) == gen.Fraction(1, 2)
    assert checks.det_phase({"perm": "(1 2)(3 4)", "phases": ["1/4", "3/4", "0", "0"]}) == 0


def _capped_case():
    return next(c for c in gen.dual_stream(2) if c.cap is not None)


def test_cap_request_outcomes():
    case = _capped_case()
    refused = json.dumps({"error": {"type": "CapExceeded", "message": "x"}})
    assert checks.check_dual(case, 1, refused) == ([], False)
    other = json.dumps({"error": {"type": "ParseError", "message": "x"}})
    assert checks.check_dual(case, 1, other)[0]
    done = json.dumps({"group": {"order": case.g_order},
                       "nonabelian_dual": {"order": case.star_order,
                                           "generators": []}})
    assert checks.check_dual(case, 0, done) == ([], True)
    wrong = json.dumps({"group": {"order": case.g_order},
                        "nonabelian_dual": {"order": case.star_order + 1,
                                            "generators": []}})
    problems, _ = checks.check_dual(replace(case, cap=None), 0, wrong)
    assert problems


def _worker(*args):
    out = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args],
                         cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,count", [("model-sweep", 6), ("dual-sweep", 30)])
def test_small_seed_passes_every_check(workload, count, tmp_path):
    result = _worker("sweep", workload, "11", str(tmp_path), str(count))
    assert len(result["ops"]) == count
    assert [op["problems"] for op in result["ops"]] == [[]] * count
    capped = [c.cap is not None for c in itertools.islice(gen.dual_stream(11), count)]
    ignored = [op["cap_ignored"] for op in result["ops"]]
    assert ignored == (capped if workload == "dual-sweep" else [False] * count)
    assert len((tmp_path / "digests.tsv").read_text().splitlines()) == count


def test_traced_counts_repeat_exactly(tmp_path):
    runs = [_worker("sweep", "dual-sweep", "3", str(tmp_path / str(k)), "15",
                    "--trace") for k in range(2)]
    values = [layer_metrics(combine([r["raw"]]), 1.0, 0.0) for r in runs]
    assert all(r["raw"]["self_within_total"] for r in runs)
    assert {n: values[0][n] for n in EXACT_COUNTS} == \
        {n: values[1][n] for n in EXACT_COUNTS}
    assert values[0]["duality.dual_group.accept_ratio"] > 0
    assert set(values[0]) == {name for name, _ in LAYER_METRICS}
    assert not runs[0]["raw"]["missing"]


def test_metric_lines_round_trip():
    line = metric_line("op_s.p50", 0.123456789, "s", 42)
    assert line == "metric op_s.p50 0.123456789 s n=42"
    assert parse_metric_line(line) == {"name": "op_s.p50", "value": 0.123456789,
                                       "unit": "s", "n": 42}
    extra = parse_metric_line(metric_line("fail_ratio", 0.2, "ratio", 10, failed=2))
    assert extra["failed"] == 2 and extra["value"] == 0.2
    with pytest.raises(ValueError):
        parse_metric_line("workload paper-cli seed 1 seconds 25 trace 0")


def test_quartic_expected_file_is_the_golden_file():
    golden = ROOT / "tests" / "golden" / "quartic_mirror_check.json"
    expected = BENCH / "expected" / "quartic_k3_mirror_check.json"
    assert expected.read_bytes() == golden.read_bytes()


def test_benchmark_json_names_every_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == {"paper-cli", "model-sweep",
                                                      "dual-sweep"}
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in LAYER_METRICS]
    from run import END_TO_END
    assert [m["name"] for m in spec["end_to_end"]] == [n for n, _ in END_TO_END]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", "dual-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert "{" not in out.stdout
