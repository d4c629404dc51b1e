import argparse
import contextlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import time
import types
from fractions import Fraction
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from lgmirror import cli, duality, mirror, state_space, symmetry
from oracles import frac_cycles, label_from_terms

SRC = Path(__file__).resolve().parent.parent / "src"

QUARTIC_SPEC = """\
# K3 quartic with a three-cycle
W = x1^4 + x2^4 + x3^4 + x4^4
G = j; (1 2 3)
"""

GOOD_SPEC = """\
W = x1^5 + x2^5 + x3^5 + x4^5 + x5^5
G = j; (1 2)(3 4)
"""

BAD_SPEC = """\
W = x1^5 + x2^5 + x3^5 + x4^5 + x5^5
G = j; (1 2)(3 4); (1 3)(2 4)
"""

CHAIN_SPEC = """\
W = x1^3*x2 + x2^2*x3 + x3^2
G = j
"""


@pytest.fixture
def quartic_file(tmp_path):
    path = tmp_path / "quartic.lg"
    path.write_text(QUARTIC_SPEC)
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def test_weights_text(capsys, tmp_path):
    path = tmp_path / "chain.lg"
    path.write_text(CHAIN_SPEC)
    code, out = run(capsys, "weights", str(path))
    assert code == 0
    assert out.splitlines()[0] == "1/4 1/4 1/2"
    assert "boundary" in out


def test_weights_loop(capsys, tmp_path):
    path = tmp_path / "loop.lg"
    path.write_text("W = x1^2*x2 + x2^2*x3 + x3^2*x1\n")
    code, out = run(capsys, "weights", str(path))
    assert code == 0
    assert out.strip() == "1/3 1/3 1/3"


def test_atoms_and_dual_poly(capsys, tmp_path):
    path = tmp_path / "chain.lg"
    path.write_text(CHAIN_SPEC)
    code, out = run(capsys, "atoms", str(path))
    assert code == 0
    assert "chain: x1 -> x2 -> x3 (a=3,2,2)" in out
    code, out = run(capsys, "dual-poly", str(path))
    assert code == 0
    assert "x1^3 + x1*x2^2 + x2*x3^2" in out
    assert "1/3 1/3 1/3" in out


def test_group_command(capsys, quartic_file):
    code, out = run(capsys, "group", quartic_file)
    assert code == 0
    assert "order 12" in out


def test_dual_group_requires_diagonal(capsys, quartic_file):
    code, out = run(capsys, "dual-group", quartic_file)
    assert code == 1
    assert "NotDiagonal" in out


def test_dual_group_of_grading(capsys, tmp_path):
    path = tmp_path / "jw.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4 + x4^4\nG = j\n")
    code, out = run(capsys, "dual-group", str(path), "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["dual_group"]["order"] == 64


def test_nonabelian_dual_command(capsys, quartic_file):
    code, out = run(capsys, "nonabelian-dual", quartic_file)
    assert code == 0
    assert "order 192" in out
    assert "non-abelian" in out


def test_pc_check(capsys, tmp_path):
    path = tmp_path / "bad.lg"
    path.write_text(BAD_SPEC)
    code, out = run(capsys, "pc-check", str(path))
    assert code == 0  # a failing parity condition is a successful diagnosis
    assert "parity condition fails" in out
    assert "order 4" in out


def test_astate_reproduces_quartic_table(capsys, quartic_file):
    code, out = run(capsys, "astate", quartic_file)
    assert code == 0
    lines = out.splitlines()
    rows = [ln for ln in lines if ln.startswith("(")]
    assert len(rows) == 24
    assert "total dimension: 24" in lines
    assert "dim(1, 1) = 20" in lines
    assert any("[x1*x2*x3*x4, (0, 0, 0, 0)]" in ln and ln.startswith("(1, 1)")
               for ln in rows)
    assert any("[1, (1/4, 1/4, 1/4, 1/4)]" in ln and ln.startswith("(0, 0)")
               for ln in rows)
    assert "census: untwisted broad 9, twisted broad 6, narrow diagonal 3, " \
           "narrow nondiagonal 6" in lines


def test_bstate_builds_dual_model(capsys, quartic_file):
    code, out = run(capsys, "bstate", quartic_file)
    assert code == 0
    assert "total dimension: 24" in out
    assert "census: untwisted broad 3, twisted broad 6, narrow diagonal 9, " \
           "narrow nondiagonal 6" in out


def test_hodge(capsys, quartic_file):
    code, out = run(capsys, "hodge", quartic_file)
    assert code == 0
    assert out.splitlines()[:3] == ["  1", "1 20 1", "  1"]


def test_hodge_fractional_gradings_render_as_table(capsys, tmp_path):
    # the full diagonal group produces fractional bidegrees; the diamond
    # falls back to a sparse table
    path = tmp_path / "alldiag.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4 + x4^4\n"
                    "G = diag(1/4, 0, 0, 0); diag(0, 1/4, 0, 0); "
                    "diag(0, 0, 1/4, 0); diag(0, 0, 0, 1/4)\n")
    code, out = run(capsys, "hodge", str(path))
    assert code == 0
    assert "(1/4, 1/4)" in out


def test_mirror_check_json_pairings_are_flat(capsys, quartic_file):
    code, out = run(capsys, "mirror-check", quartic_file, "--json")
    assert code == 0
    pairings = json.loads(out)["mirror"]["pairings"]
    assert isinstance(pairings, list) and len(pairings) == 12
    directions = {p["direction"] for p in pairings}
    assert directions == {"untwisted-to-narrow", "narrow-to-untwisted"}


def _oracle_record(v, poly) -> dict:
    """v's basis record, its label from the oracle and its terms from ``v.terms``."""
    return {"bidegree": [str(x) for x in v.bidegree], "label": label_from_terms(v, poly),
            "terms": [{"phase": str(phase), "exponents": list(exps),
                       "element": {"perm": g.cycle_string(),
                                   "phases": [str(Fraction(x, g.mod)) for x in g.nums]}}
                      for phase, exps, g in v.terms]}


@pytest.mark.parametrize("model, group", [("quartic", "j; (1 2 3)"),
                                          ("good", "j; (1 2)(3 4)"),
                                          ("bad", "j; (1 2)(3 4); (1 3)(2 4)")],
                         ids=["quartic", "good quintic", "bad quintic"])
def test_json_labels_match_the_oracle(model, group, request, capsys, tmp_path):
    # the paper models' pairings and basis records are the bytes json.dumps
    # writes for dicts made from the oracle's labels
    report = request.getfixturevalue(f"{model}_report")
    path = tmp_path / "spec.lg"
    path.write_text(f"W = {report.poly}\nG = {group}\n")
    for command, space in (("astate", report.a_space), ("bstate", report.b_space)):
        code, out = run(capsys, command, str(path), "--json")
        document = json.loads(out)
        document["space"]["basis"] = [_oracle_record(v, space.poly) for v in space.basis]
        assert code == 0 and out == json.dumps(document, indent=2) + "\n"
    code, out = run(capsys, "mirror-check", str(path), "--json")
    document, a, b = json.loads(out), report.a_space.poly, report.b_space.poly
    document["mirror"]["pairings"] = [
        {"direction": direction, "a": label_from_terms(va, a), "b": label_from_terms(vb, b),
         "bidegree": [str(x) for x in va.bidegree]}
        for direction, pairs in (("untwisted-to-narrow", report.restricted.a0_to_narrow),
                                 ("narrow-to-untwisted", report.restricted.narrow_to_b0))
        for va, vb in pairs]
    assert code == 0 and out == json.dumps(document, indent=2) + "\n"


def test_mirror_check_quartic(capsys, quartic_file):
    code, out = run(capsys, "mirror-check", quartic_file)
    assert code == 0
    assert "verdict: BigradedIsomorphic" in out
    assert "A total 24, B total 24" in out
    assert "parity condition: holds" in out


def test_mirror_check_bad_is_exit_zero(capsys, tmp_path):
    path = tmp_path / "bad.lg"
    path.write_text(BAD_SPEC)
    code, out = run(capsys, "mirror-check", str(path))
    assert code == 0  # diagnosis, not an error
    assert "verdict: DimensionsMatchBigradingFails" in out
    assert "mismatch at (1, 1): A 7 vs B 1" in out
    assert "mismatch at (1, 2): A 35 vs B 41" in out


# (user generators, G*'s generators) of each bench spec
SPEC_GENERATORS = {"quartic_k3": (2, 4), "good_quintic": (2, 5), "bad_quintic": (3, 6)}


@pytest.mark.parametrize("name", sorted(SPEC_GENERATORS))
def test_each_generator_is_checked_once_per_command(capsys, monkeypatch, name):
    # a command checks each user generator against W once, where the spec
    # is read, and each generator of G* against Wᵀ once where the B side is
    # built: the H·K split, the A side and G* find W kept on the group.  G*
    # reads Hᵀ's lattice, so nonabelian-dual builds G, H, K and G*, no Hᵀ.
    # full_comparison, called directly as the model sweep does, checks G once
    path = str(Path(__file__).resolve().parent.parent / "bench" / "specs" / f"{name}.lg")
    spec = cli.read_problem(path)
    user = [g for _, g in spec.generators]
    star = duality.nonabelian_dual(symmetry.closure(user), spec.poly)
    assert (len(user), len(star.generators)) == SPEC_GENERATORS[name]
    checked, built = [], []
    check, init = symmetry.is_symmetry, symmetry.SymmetryGroup.__init__

    def checking(g, w):
        checked.append((g, w))
        return check(g, w)

    def building(self, *args):
        built.append(args)
        init(self, *args)
    monkeypatch.setattr(symmetry, "is_symmetry", checking)
    monkeypatch.setattr(state_space, "is_symmetry", checking)
    monkeypatch.setattr(symmetry.SymmetryGroup, "__init__", building)
    on_w = [(g, spec.poly) for g in user]
    on_dual = [(g, spec.poly.transpose()) for g in star.generators]
    for command, expected in [("mirror-check", on_w + on_dual), ("bstate", on_w + on_dual),
                              ("nonabelian-dual", on_w), ("pc-check", on_w),
                              ("astate", on_w), ("hodge", on_w), ("group", on_w)]:
        checked.clear()
        built.clear()
        assert run(capsys, command, path)[0] == 0
        assert checked == expected, command
        if command == "nonabelian-dual":
            assert len(built) == 4
    group = symmetry.closure(user)
    checked.clear()
    report = mirror.full_comparison(spec.poly, group)
    assert checked == [(g, spec.poly) for g in group.generators] + on_dual
    assert report.dual_group == star


def test_output_is_deterministic(capsys, quartic_file):
    _, first = run(capsys, "mirror-check", quartic_file, "--json")
    _, second = run(capsys, "mirror-check", quartic_file, "--json")
    assert first == second
    _, third = run(capsys, "astate", quartic_file)
    _, fourth = run(capsys, "astate", quartic_file)
    assert third == fourth


def test_json_round_trip(capsys, quartic_file, quartic, quartic_group):
    import lgmirror as lg

    code, out = run(capsys, "astate", quartic_file, "--json")
    assert code == 0
    doc = json.loads(out)
    space = lg.a_state_space(quartic, quartic_group)
    from fractions import Fraction
    dims = {(Fraction(b["bidegree"][0]), Fraction(b["bidegree"][1])): b["dim"]
            for b in doc["space"]["dims"]}
    assert dims == space.dims
    assert doc["space"]["total_dim"] == space.total_dim
    got_terms = {
        frozenset((t["phase"], tuple(t["exponents"]),
                   t["element"]["perm"], tuple(t["element"]["phases"]))
                  for t in b["terms"])
        for b in doc["space"]["basis"]}
    want_terms = {
        frozenset((str(ph), e, g.cycle_string(), tuple(str(p) for p in g.phases))
                  for ph, e, g in v.terms)
        for v in space.basis}
    assert got_terms == want_terms


def test_json_and_text_agree(capsys, quartic_file):
    code, text_out = run(capsys, "astate", quartic_file)
    code2, json_out = run(capsys, "astate", quartic_file, "--json")
    assert code == code2 == 0
    doc = json.loads(json_out)
    for entry in doc["space"]["dims"]:
        p, q = entry["bidegree"]
        assert f"dim({p}, {q}) = {entry['dim']}" in text_out
    assert f"total dimension: {doc['space']['total_dim']}" in text_out


def test_cap_exceeded(capsys, quartic_file):
    code, out = run(capsys, "group", quartic_file, "--cap", "5")
    assert code == 1
    assert "CapExceeded" in out


@pytest.mark.parametrize("command", ["nonabelian-dual", "bstate", "mirror-check"])
@pytest.mark.parametrize("where", ["file", "flag"])
def test_cap_binds_the_dual_group(capsys, tmp_path, command, where):
    # |G| = 12 fits under the cap, |G*| = 192 does not
    path = tmp_path / "quartic.lg"
    path.write_text(QUARTIC_SPEC + ("cap = 100\n" if where == "file" else ""))
    flags = ["--cap", "100"] if where == "flag" else []
    code, out = run(capsys, command, str(path), "--json", *flags)
    assert code == 1
    assert json.loads(out)["error"]["type"] == "CapExceeded"
    code, out = run(capsys, command, str(path), "--cap", "192")
    assert code == 0


FERMAT_30 = "W = " + " + ".join(f"x{i}^30" for i in range(1, 7)) + "\nG = j\n"


def _address_space_limit():
    # a run that lists the terms fails here instead of filling the memory
    resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_state_space_is_counted_before_it_is_listed(tmp_path, as_json):
    # the untwisted sector of Fermat-30 holds about 2·10^7 invariant
    # monomials; --cap bounds the groups, and the terms are counted first
    path = tmp_path / "fermat30.lg"
    path.write_text(FERMAT_30)
    argv = [sys.executable, "-m", "lgmirror.cli", "astate", str(path), "--cap", "100"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(argv + (["--json"] if as_json else []), capture_output=True,
                          text=True, env=env, timeout=20, preexec_fn=_address_space_limit)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stderr == ""
    message = "state space exceeds 1000000 terms"
    if as_json:
        assert json.loads(proc.stdout) == {"error": {"type": "CapExceeded", "message": message}}
    else:
        assert proc.stdout == f"error: CapExceeded: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_no_half_sector_is_listed_past_the_term_count(tmp_path, as_json):
    # ten Fermat-30 variables: each half of the untwisted sector holds
    # 29^5 ≈ 2·10^7 exponent tuples, and the count per sum comes first
    path = tmp_path / "fermat30.lg"
    path.write_text("W = " + " + ".join(f"x{i}^30" for i in range(1, 11)) + "\nG = j\n")
    argv = [sys.executable, "-m", "lgmirror.cli", "astate", str(path), "--cap", "100"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    start = time.perf_counter()
    proc = subprocess.run(argv + (["--json"] if as_json else []), capture_output=True,
                          text=True, env=env, timeout=20, preexec_fn=_address_space_limit)
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stderr == ""
    message = "state space exceeds 1000000 terms"
    if as_json:
        assert json.loads(proc.stdout) == {"error": {"type": "CapExceeded", "message": message}}
    else:
        assert proc.stdout == f"error: CapExceeded: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_pc_check_is_bounded(capsys, tmp_path, as_json):
    # K = C3^6 (729 elements, odd) holds at once; K = A7 (2,520 elements)
    # is refused before its 2,520 × 2,520 table is built
    flags = ["--json"] if as_json else []
    cubes = " + ".join(f"x{i}^3" for i in range(1, 19))
    cycles = "; ".join(f"({i} {i + 1} {i + 2})" for i in range(1, 19, 3))
    path = tmp_path / "c3.lg"
    path.write_text(f"W = {cubes}\nG = {cycles}\n")
    code, out = run(capsys, "pc-check", str(path), *flags)
    assert code == 0
    if as_json:
        assert json.loads(out)["pc"] == {"holds": True, "witness": None}
    else:
        assert out == "parity condition holds\n"
    path = tmp_path / "a7.lg"
    path.write_text("W = " + " + ".join(f"x{i}^3" for i in range(1, 8)) +
                    "\nG = (1 2 3); (3 4 5 6 7)\n")
    code, out = run(capsys, "pc-check", str(path), *flags)
    assert code == 1
    message = "subgroup walk of order 2520 exceeds 1000000 table entries"
    if as_json:
        assert json.loads(out) == {"error": {"type": "CapExceeded", "message": message}}
    else:
        assert out == f"error: CapExceeded: {message}\n"


def test_cap_fails_fast_on_a_large_dual(capsys, tmp_path):
    # |G| = 6 but |G*| = 6^7/6 = 46,656: refused from the order alone
    path = tmp_path / "sextic.lg"
    path.write_text("W = " + " + ".join(f"x{i}^6" for i in range(1, 8)) + "\nG = j\n")
    code, out = run(capsys, "nonabelian-dual", str(path), "--cap", "100")
    assert code == 1
    assert out == "error: CapExceeded: group exceeds cap of 100 elements\n"


@pytest.mark.parametrize("command", ["dual-group", "nonabelian-dual", "mirror-check"])
def test_cap_binds_the_diagonal_dual_group(capsys, tmp_path, command):
    # |G| = 30 fits under the cap, |Hᵀ| = |G*| = 30^3/30 = 900 does not
    path = tmp_path / "fermat30.lg"
    path.write_text("W = x1^30 + x2^30 + x3^30\nG = j\ncap = 100\n")
    code, out = run(capsys, command, str(path))
    assert code == 1
    assert out == "error: CapExceeded: group exceeds cap of 100 elements\n"
    code, out = run(capsys, command, str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "CapExceeded", "message": "group exceeds cap of 100 elements"}
    if command == "dual-group":
        code, out = run(capsys, command, str(path), "--cap", "900")
        assert code == 0
        assert out.splitlines()[0] == "order 900" and len(out.splitlines()) == 901


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_cap_below_one_is_rejected(capsys, tmp_path, quartic_file, cap):
    code, out = run(capsys, "group", quartic_file, "--cap", cap)
    assert code == 1
    assert out.startswith("error: ParseError: ") and "at least 1" in out
    path = tmp_path / "capped.lg"
    path.write_text(QUARTIC_SPEC + f"cap = {cap}\n")
    code, out = run(capsys, "group", str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ParseError", "message": f"line 4: cap must be at least 1, got {cap}"}


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_error_bytes_escape_non_ascii(capsys, tmp_path, as_json):
    # G* = ⟨diag(0, 0, 0, 1/4), …⟩ is not in SL; JSON writes the error on
    # one line as json.dumps does, with ≠ escaped like every document
    path = tmp_path / "det.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4 + x4^4\nG = diag(1/4, 3/4, 0, 0)\n")
    code, out = run(capsys, "bstate", str(path), *(["--json"] if as_json else []))
    assert code == 1
    if as_json:
        assert out == ('{"error": {"type": "NotAdmissibleB", "message": '
                       '"(0, 0, 0, 1/4) has determinant e(1/4) \\u2260 1"}}\n')
    else:
        assert out == "error: NotAdmissibleB: (0, 0, 0, 1/4) has determinant e(1/4) ≠ 1\n"


def test_not_fermat_error(capsys, tmp_path):
    path = tmp_path / "chain.lg"
    path.write_text(CHAIN_SPEC)
    code, out = run(capsys, "astate", str(path))
    assert code == 1
    assert "NotFermat" in out


def test_odd_permutation_error(capsys, tmp_path):
    path = tmp_path / "odd.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4 + x4^4\nG = j; (1 2)\n")
    code, out = run(capsys, "mirror-check", str(path))
    assert code == 1
    assert "OddPermutation" in out


def test_parse_error_in_spec(capsys, tmp_path):
    path = tmp_path / "broken.lg"
    path.write_text("W = x1^4 + zebra\n")
    code, out = run(capsys, "weights", str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParseError"


def test_generator_must_be_a_symmetry(capsys, tmp_path):
    path = tmp_path / "notsym.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4 + x4^4\nG = diag(1/3, 0, 0, 0)\n")
    code, out = run(capsys, "group", str(path))
    assert code == 1
    assert "not a symmetry" in out
    code, out = run(capsys, "group", str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "NotASymmetry"


@pytest.mark.parametrize("field, line", [
    ("W", "W = x1^4 + x2^4 + x3^4 + x4^4"),
    ("G", "G = j"),
    ("cap", "cap = 50"),
])
def test_field_given_twice_is_rejected(capsys, tmp_path, field, line):
    path = tmp_path / "twice.lg"
    path.write_text(QUARTIC_SPEC + "cap = 100\n" + line + "\n")
    first = {"W": 2, "G": 3, "cap": 4}[field]
    code, out = run(capsys, "astate", str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"] == {
        "type": "ParseError",
        "message": f"line 5: {field} already given on line {first}"}
    # main returns the error instead of raising it: no traceback
    code, out = run(capsys, "astate", str(path))
    assert code == 1
    assert out == f"error: ParseError: line 5: {field} already given on line {first}\n"


@pytest.mark.parametrize("kind", ["missing", "directory", "not utf-8", "bom, not utf-8"])
def test_unreadable_spec_file_is_an_io_error(capsys, tmp_path, kind):
    path = tmp_path / "spec.lg"
    if kind == "directory":
        path.mkdir()
    elif kind.endswith("not utf-8"):
        bom = b"\xef\xbb\xbf" if kind.startswith("bom") else b""
        path.write_bytes(bom + b"W = x1^4 + x2^4\n# \xff\n")
    code, out = run(capsys, "group", str(path), "--json")
    assert code == 1
    error = json.loads(out)["error"]
    assert error["type"] == "IO" and error["message"]
    code, out = run(capsys, "group", str(path))
    assert code == 1
    assert out == f"error: IO: {error['message']}\n"
    if kind == "missing":
        assert out.startswith("error: IO: [Errno 2] ")


@pytest.mark.parametrize("index", [30_000_000, 10 ** 12])
def test_huge_variable_index_is_a_parse_error(capsys, tmp_path, index):
    path = tmp_path / "huge.lg"
    path.write_text(f"W = x{index}\nG = j\n")
    code, out = run(capsys, "weights", str(path), "--json")
    assert code == 1
    assert json.loads(out)["error"]["type"] == "ParseError"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("spec,line,offset", [
    ("W = x{big}\nG = j\n", 1, 0),
    ("W = x1^{big}\nG = j\n", 1, 3),
    ("W = x1^4 + x2^4\nG = (1 {big})\n", 2, 3),
], ids=["variable", "exponent", "cycle"])
def test_overlong_integer_is_a_parse_error(capsys, tmp_path, spec, line, offset, as_json):
    # past Python's 4,300-digit limit on converting a string to an int
    path = tmp_path / "long.lg"
    path.write_text(spec.format(big="9" * 5000))
    code, out = run(capsys, "group", str(path), *(["--json"] if as_json else []))
    assert code == 1
    message = f"line {line}: integer of 5000 digits is too long (at byte {offset})"
    if as_json:
        assert json.loads(out) == {"error": {"type": "ParseError", "message": message}}
    else:
        assert out == f"error: ParseError: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("entry", ["1e-30000000", "1E5", "2.5e-1"])
def test_exponent_notation_is_a_parse_error(capsys, tmp_path, entry, as_json):
    # Fraction would compute 10^30000000 first, for about 40 s
    path = tmp_path / "exponent.lg"
    path.write_text(f"W = x1^4 + x2^4 + x3^4 + x4^4\nG = diag({entry}, 0, 0, 0)\n")
    start = time.perf_counter()
    code, out = run(capsys, "group", str(path), *(["--json"] if as_json else []))
    assert time.perf_counter() - start < 1
    assert code == 1
    message = (f"line 2: bad rational in 'diag({entry}, 0, 0, 0)': exponent notation"
               " (at byte 5)")
    if as_json:
        assert json.loads(out) == {"error": {"type": "ParseError", "message": message}}
    else:
        assert out == f"error: ParseError: {message}\n"


def test_integers_fractions_and_decimals_parse(capsys, tmp_path):
    path = tmp_path / "rationals.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4 + x4^4\nG = diag(0.5, -1/4, 3, 0)\n")
    code, out = run(capsys, "group", str(path))
    assert code == 0
    assert out.splitlines()[0] == "order 4"
    assert "class of (1/2, 3/4, 0, 0): size 1" in out


# --- the spec grammar ------------------------------------------------------
#
# Lines outside the ASCII grammar, with the error each gives on every
# supported Python.  Python's own number rules differ by version: Fraction
# reads '1_0' from 3.11 on and '1 / 2' from 3.12 on, and int and Fraction
# read Arabic-Indic digits everywhere.

_W4 = "W = x1^4 + x2^4 + x3^4 + x4^4"
_RATIONAL_TEXT = "not an integer, p/q or decimal (at byte 5)"
GRAMMAR_REJECTED = [
    pytest.param(f"{_W4}\nG = diag(1_0/40, 0, 0, 0)\n",
                 f"line 2: bad rational in 'diag(1_0/40, 0, 0, 0)': {_RATIONAL_TEXT}",
                 id="underscore"),
    pytest.param(f"{_W4}\nG = diag(1 / 2, 1/2, 0, 0)\n",
                 f"line 2: bad rational in 'diag(1 / 2, 1/2, 0, 0)': {_RATIONAL_TEXT}",
                 id="spaced-slash"),
    pytest.param(f"{_W4}\nG = diag(\u0661/\u0662, 1/2, 0, 0)\n",
                 f"line 2: bad rational in 'diag(\u0661/\u0662, 1/2, 0, 0)': {_RATIONAL_TEXT}",
                 id="arabic-indic-diag"),
    pytest.param(f"{_W4}\nG = diag(one, 0, 0, 0)\n",
                 f"line 2: bad rational in 'diag(one, 0, 0, 0)': {_RATIONAL_TEXT}", id="word"),
    pytest.param(f"{_W4}\nG = diag(1/0, 0, 0, 0)\n",
                 "line 2: bad rational in 'diag(1/0, 0, 0, 0)': zero denominator (at byte 5)",
                 id="zero-denominator"),
    pytest.param(f"{_W4}\nG = diag(.{'5' * 5000}, 0, 0, 0)\n",
                 "line 2: integer of 5000 digits is too long (at byte 5)", id="long-decimal"),
    pytest.param("W = x\u0661^4 + x2^4 + x3^4 + x4^4\nG = j\n",
                 "line 1: unexpected character 'x' (at byte 0)", id="arabic-indic-variable"),
    pytest.param(f"{_W4}\nG = (\u0661 2)\n",
                 "line 2: bad cycle syntax in '(\u0661 2)' (at byte 0)", id="arabic-indic-cycle"),
    pytest.param(f"{_W4}\nG = j\ncap = 1_000\n", "line 3: cap must be an integer",
                 id="underscore-cap"),
    pytest.param(f"{_W4}\nG = j\ncap = \u0661\u0660\n", "line 3: cap must be an integer",
                 id="arabic-indic-cap"),
]

# entries in the grammar, beside the p/q each equals, and the order of
# the group diag(entry, 0, 0, 0) generates on the quartic
GRAMMAR_ACCEPTED = [("0.5", "1/2", 2), ("-1/4", "3/4", 4), ("+1/2", "1/2", 2),
                    (".5", "1/2", 2), ("5.", "0", 1), ("3", "0", 1)]


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("spec,message", GRAMMAR_REJECTED)
def test_spec_outside_the_grammar_is_a_parse_error(capsys, tmp_path, spec, message,
                                                   as_json):
    path = tmp_path / "spec.lg"
    path.write_text(spec, encoding="utf-8")
    code, out = run(capsys, "group", str(path), *(["--json"] if as_json else []))
    assert code == 1
    if as_json:
        assert json.loads(out) == {"error": {"type": "ParseError", "message": message}}
    else:
        assert out == f"error: ParseError: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("entry,value,order", GRAMMAR_ACCEPTED)
def test_rationals_in_the_grammar_give_the_same_group(capsys, tmp_path, entry, value,
                                                      order, as_json):
    flags = ["--json"] if as_json else []
    outputs = []
    for text in (entry, value):
        path = tmp_path / "spec.lg"
        path.write_text(f"{_W4}\nG = diag({text}, 0, 0, 0)\n")
        code, out = run(capsys, "group", str(path), *flags)
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert (json.loads(outputs[0])["group"]["order"] if as_json else
            outputs[0].splitlines()[0]) == (order if as_json else f"order {order}")


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["weights", "atoms", "dual-poly"])
@pytest.mark.parametrize("line,message", [
    ("G = garbage(", "line 1: bad cycle syntax in 'garbage(' (at byte 0)"),
    ("G = ", "line 1: G lists no generators"),
    ("G = ;  ;", "line 1: G lists no generators"),
], ids=["garbage", "empty", "only-separators"])
def test_malformed_group_line_fails_every_command(capsys, tmp_path, command, line,
                                                  message, as_json):
    # commands that never build the group still read G, which may come before W
    path = tmp_path / "spec.lg"
    path.write_text(f"{line}\n{_W4}\n")
    code, out = run(capsys, command, str(path), *(["--json"] if as_json else []))
    assert code == 1
    if as_json:
        assert json.loads(out) == {"error": {"type": "ParseError", "message": message}}
    else:
        assert out == f"error: ParseError: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("spec,kind,message", [
    (f"# the quartic\n\nW = x1^4 + x2^4 +* x3^4\nG = j\n", "ParseError",
     "line 3: expected var (at byte 13)"),
    ("W = x1^2*x1 + x2^2\nG = j\n", "DuplicateVariable",
     "line 1: variable x1 repeated in one monomial (at byte 5)"),
    (f"{_W4}\nG = diag(1/2, 0, 0, 0)*(1 2) (3 3)\n", "ParseError",
     "line 2: repeated index in cycle (3 3) (at byte 25)"),
    (f"{_W4}\nG = j;  diag(0, 1/0, 0, 0)\n", "ParseError",
     "line 2: bad rational in 'diag(0, 1/0, 0, 0)': zero denominator (at byte 11)"),
    (f"G = (1 2); diag(0, 0, 0, 0) * (1 2) x\n{_W4}\n", "ParseError",
     "line 1: bad cycle syntax in '(1 2) x' (at byte 31)"),
], ids=["w-grammar", "w-repeated-variable", "g-cycle", "g-diag-entry", "g-after-star"])
def test_w_and_g_errors_name_their_line(capsys, tmp_path, spec, kind, message, as_json):
    # offsets count from the start of the line's value, after 'W =' or 'G ='
    path = tmp_path / "spec.lg"
    path.write_text(spec)
    code, out = run(capsys, "group", str(path), *(["--json"] if as_json else []))
    assert code == 1
    if as_json:
        assert json.loads(out) == {"error": {"type": kind, "message": message}}
    else:
        assert out == f"error: {kind}: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("spec,kind,message", [
    ("W = x1^4 + x2^4 + x3\nG = j\n", "WeightOutOfRange",
     "line 1: weight q_3 = 1 outside (0, 1/2]; polynomial is degenerate"),
    ("# a two-variable W\nW = x1^4 + x2^4 + x1*x2\n", "NotSquare",
     "line 2: 3 monomials but 2 variables; invertible polynomials need equal counts"),
    ("W = x1^2*x2^2 + x2^3\n", "NotInvertible",
     "line 1: monomial (2, 2) is not of atomic shape"),
    ("G = j\nW = x1^2*x2^4 + x1*x2^2\n", "SingularMatrix", "line 2: matrix is singular"),
], ids=["weight", "not-square", "not-invertible", "singular"])
def test_w_line_errors_name_their_line(capsys, tmp_path, spec, kind, message, as_json):
    # a W that parses but is no invertible polynomial keeps its error code
    path = tmp_path / "spec.lg"
    path.write_text(spec)
    code, out = run(capsys, "weights", str(path), *(["--json"] if as_json else []))
    assert code == 1
    if as_json:
        assert json.loads(out) == {"error": {"type": kind, "message": message}}
    else:
        assert out == f"error: {kind}: {message}\n"


@pytest.mark.parametrize("as_json", [False, True], ids=["text", "json"])
def test_a_generator_that_is_no_symmetry_names_its_line(capsys, tmp_path, as_json):
    path = tmp_path / "spec.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4\n\nG = j; (1 2 3); diag(1/3, 0, 0)\n")
    flags = ["--json"] if as_json else []
    message = "line 3: generator 'diag(1/3, 0, 0)' is not a symmetry of x1^4 + x2^4 + x3^4"
    for command in ("group", "pc-check", "mirror-check"):
        code, out = run(capsys, command, str(path), *flags)
        assert code == 1
        if as_json:
            assert json.loads(out) == {"error": {"type": "NotASymmetry", "message": message}}
        else:
            assert out == f"error: NotASymmetry: {message}\n"
    for command in ("weights", "atoms", "dual-poly"):  # they never build G
        assert run(capsys, command, str(path), *flags)[0] == 0


def test_missing_group_line(capsys, tmp_path):
    path = tmp_path / "nogroup.lg"
    path.write_text("W = x1^4 + x2^4 + x3^4 + x4^4\n")
    code, out = run(capsys, "astate", str(path))
    assert code == 1
    assert "ParseError" in out


# --- fuzzed spec files -----------------------------------------------------

_POLYNOMIALS = ["x1^3*x2 + x2^2*x3 + x3^2", "x1^2*x2 + x2^2*x3 + x3^2*x1",
                "x1^6 + x2^3*x1"]


def _junk(rng, alphabet: str) -> str:
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(16)))


def _polynomial(rng) -> tuple[str, list[int]]:
    """Mostly a valid polynomial in two to four variables, else noise; with
    the denominators its diagonal symmetries use per variable."""
    if rng.random() < 0.7:
        ds = [rng.randint(2, 6) for _ in range(rng.randint(2, 4))]
        return " + ".join(f"x{i}^{d}" for i, d in enumerate(ds, 1)), ds
    if rng.random() < 0.6:
        poly = rng.choice(_POLYNOMIALS)
        return poly, [rng.randint(1, 6)] * (poly.count("+") + 1)
    if rng.random() < 0.5:
        return _junk(rng, "x1234^*+ (y"), [3, 3, 3]
    return " + ".join(f"x{rng.randint(1, 4)}^{rng.randint(0, 6)}" +
                      rng.choice(["", f"*x{rng.randint(1, 4)}"])
                      for _ in range(rng.randint(1, 4))), [2, 2]


def _generator(rng, ds: list[int]) -> str:
    """Mostly a well-formed generator, often a symmetry, else noise."""
    if rng.random() < 0.05:
        return _junk(rng, "j()diag12/,*")
    n = len(ds)
    width = n if rng.random() < 0.95 else n + rng.choice([-1, 1])
    phases = ", ".join(f"{rng.randrange(d)}/{d}" if rng.random() < 0.97 else
                       rng.choice(["-1/4", "1/0", "a", "", "1/7"])
                       for d in (ds + ds)[:width])
    top = n if rng.random() < 0.95 else n + 1
    points = rng.sample(range(1, top + 1), rng.randint(1, top))
    cut = rng.randint(1, len(points))
    cycles = "".join("(" + " ".join(map(str, part)) + ")"
                     for part in (points[:cut], points[cut:]) if part)
    return rng.choice(["j", "j", f"diag({phases})", cycles,
                       f"diag({phases})*{cycles}"])


def _spec_text(rng) -> str:
    """W, G and cap lines, mostly well formed, sometimes missing, repeated,
    out of order or broken."""
    poly, ds = _polynomial(rng)
    gens = [_generator(rng, ds) for _ in range(rng.randint(1, 3))]
    cap = rng.randint(1, 100) if rng.random() < 0.95 else rng.randint(-1, 0)
    lines = [f"W = {poly}", "G = " + "; ".join(gens), f"cap = {cap}"]
    lines = [line for line in lines if rng.random() < 0.95]
    if rng.random() < 0.1:
        lines.append(rng.choice(["# comment", "", "cap = many", "H = j", "W x1^2",
                                 f"W = {poly}"]))
    rng.shuffle(lines)
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32), command=st.sampled_from(list(cli.COMMANDS)),
       as_json=st.booleans(), cap=st.integers(1, 100))
def test_fuzzed_spec_files_exit_cleanly(tmp_path_factory, seed, command,
                                        as_json, cap):
    text = _spec_text(random.Random(seed))
    path = tmp_path_factory.mktemp("fuzz") / "spec.lg"
    path.write_text(text)
    # a small cap, from the file or the flag, keeps every example short
    has_cap = "\ncap" in "\n" + text
    argv = [command, str(path)] + ([] if has_cap else ["--cap", str(cap)]) + \
        (["--json"] if as_json else [])
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.main(argv)
    assert code in (0, 1)
    if as_json:
        json.loads(out.getvalue())


# --- the JSON writer and the argument parser ---------------------------------

_RECORDS = {}  # a record's text -> its dict form, built here without the writer


def _called(value):
    """``value`` with every callable, at any depth, replaced by its result,
    and every record written as text by its dict form."""
    if type(value) is cli._Text:
        return _RECORDS[value]
    if callable(value):
        return _called(value())
    if isinstance(value, dict):
        return {key: _called(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_called(item) for item in value]
    return value


_awkward_text = st.text(st.sampled_from('a"\\/\n\t\x00\x1f\x7fé€\u2028😀'), max_size=8)


def _element_dict(perm, nums, mod: int) -> dict:
    return {"perm": "".join("(" + " ".join(str(i + 1) for i in c) + ")"
                            for c in frac_cycles(perm) if len(c) > 1) or "()",
            "phases": [str(Fraction(x, mod)) for x in nums]}


@st.composite
def _vectors(draw, n: int, mod: int):
    """A basis vector as the renderers read it: 1–3 nodes on one or two
    forms of the same permutation, some of whose cycles are fixed, with
    exponents on the fixed cycles (none for a narrow form) and phases over
    lcm(2, mod), so that runs of one form repeat."""
    perm = tuple(draw(st.permutations(range(n))))
    forms = []
    for _ in range(draw(st.integers(1, 2))):
        nums = [draw(st.integers(0, mod - 1)) for _ in range(n)]
        for cycle in frac_cycles(perm):  # a cycle whose phases sum to 0 is fixed
            if draw(st.booleans()):
                nums[cycle[-1]] = (nums[cycle[-1]] - sum(nums[i] for i in cycle)) % mod
        forms.append((perm, tuple(nums)))
    nodes = []
    for _ in range(draw(st.integers(1, 3))):
        form = draw(st.sampled_from(forms))
        dim = len(symmetry.form_cycles(*form, mod))
        exps = tuple(draw(st.lists(st.integers(0, 10 ** 6), min_size=dim, max_size=dim)))
        nodes.append((form, exps, draw(st.integers(0, lcm(2, mod) - 1))))
    bidegree = tuple(Fraction(draw(st.integers(-99, 99)), draw(st.integers(1, 99))) for _ in "pq")
    return types.SimpleNamespace(group=types.SimpleNamespace(modulus=mod), nodes=tuple(nodes),
                                 bidegree=bidegree)


@st.composite
def _records(draw):
    """An element, class, pairing or basis-vector record, as ``cli`` writes
    it, for random integer forms on 1–7 variables over a modulus up to 10⁶;
    a vector's exponents may be empty, as a narrow sector's are, and its
    variable names need escapes.  A basis is one render of 1–3 vectors."""
    n = draw(st.integers(1, 7))
    perm = tuple(draw(st.permutations(range(n))))
    mod = draw(st.integers(1, 10 ** 6))
    nums = tuple(draw(st.lists(st.integers(0, mod - 1), min_size=n, max_size=n)))
    element = _element_dict(perm, nums, mod)
    kind = draw(st.sampled_from(["element", "class", "pairing", "basis"]))
    if kind == "element":
        text = cli._element_json(perm, nums, mod)
        _RECORDS[text] = element
        return text
    if kind in ("pairing", "basis"):
        spaces = [types.SimpleNamespace(
            poly=types.SimpleNamespace(var_names=draw(st.lists(_awkward_text, min_size=n,
                                                               max_size=n))),
            group=types.SimpleNamespace(modulus=mod)) for _ in "ab"]
        vectors = draw(st.lists(_vectors(n, mod), min_size=1, max_size=3 if kind == "basis" else 2))
        poly = spaces[0].poly
        if kind == "pairing":
            direction = draw(st.sampled_from(["untwisted-to-narrow", "narrow-to-untwisted"]) |
                             _awkward_text)
            va, vb = vectors * (3 - len(vectors))
            (text,) = cli._pairing_json(direction, [(va, vb)], *spaces)
            _RECORDS[text] = {
                "direction": direction, "a": state_space.vector_label(va, poly),
                "b": state_space.vector_label(vb, spaces[1].poly),
                "bidegree": [str(x) for x in va.bidegree]}
            return text
        spaces[0].basis, spaces[0].total_dim = vectors, 0
        spaces[0].sorted_dims, spaces[0].census = list, dict
        texts = cli._space_json(spaces[0])["basis"]
        for text, v in zip(texts, vectors):
            _RECORDS[text] = {
                "bidegree": [str(x) for x in v.bidegree],
                "label": state_space.vector_label(v, poly),
                "terms": [{"phase": str(Fraction(p, lcm(2, mod))), "exponents": list(exps),
                           "element": _element_dict(*form, mod)} for form, exps, p in v.nodes]}
        return texts
    size = draw(st.integers(1, 10 ** 6))
    group = types.SimpleNamespace(order=size, modulus=mod, class_size=lambda cosets: size,
                                  class_transversals=[[((perm, nums), None)]])
    (text,) = cli._group_json(group)["classes"]()
    _RECORDS[text] = {"size": size, "representative": element}
    return text


_json_values = st.recursive(
    st.none() | st.booleans() | st.text(max_size=8) | _awkward_text |
    st.integers(-2 ** 70, 2 ** 70) | st.sampled_from([2 ** 64, 2 ** 64 + 1, -2 ** 64]) |
    _records(),
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner) |
                   st.dictionaries(st.text(max_size=4) | _awkward_text, inner, max_size=4) |
                   inner.map(lambda value: lambda: value)),
    max_leaves=40)


@settings(max_examples=400, deadline=None)
@given(_json_values)
def test_json_writer_matches_json_dumps(value):
    chunks = []
    cli._json_chunks(value, chunks)
    assert "".join(chunks) == json.dumps(_called(value), indent=2)


@pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, {1}, {1: 2}, [b"x"], lambda: object()])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        cli._json_chunks(value, [])


def test_one_argument_parser_per_process(capsys, quartic_file, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    code, out = run(capsys, "group", quartic_file, "--cap", "5", "--json")
    assert code == 1 and json.loads(out)["error"]["type"] == "CapExceeded"
    # the default cap is back when the flag is left out
    code, out = run(capsys, "group", quartic_file, "--json")
    assert code == 0 and json.loads(out)["group"]["order"] == 12
    code, out = run(capsys, "group", quartic_file, "--cap", "12")
    assert code == 0 and out.startswith("order 12\n")
    assert len(built) <= 1


# --- argv: argparse's surface, and the plain shape read without it -----------

_CHOICES = ", ".join(repr(name) for name in cli.COMMANDS)
USAGE_ERRORS = [
    (["nonsense", "spec"], f"argument command: invalid choice: 'nonsense' (choose from {_CHOICES})"),
    (["group"], "the following arguments are required: specfile"),
    (["group", "spec", "--cap", "x"], "argument --cap: invalid int value: 'x'"),
    (["group", "spec", "--cap", "9" * 5000], f"argument --cap: invalid int value: '{'9' * 5000}'"),
]


def _exit(argv):
    """(exit code, stdout, stderr) of a ``main`` that exits."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
    return exc.value.code, out.getvalue(), err.getvalue()


def test_help_is_argparse_help(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit(["--help"])
    assert code == 0 and err == "" and out.startswith("usage: lgmirror")
    assert all(name in out for name in cli.COMMANDS)


@pytest.mark.parametrize("argv,error", USAGE_ERRORS,
                         ids=["bad-command", "no-specfile", "word-cap", "long-cap"])
def test_usage_errors_are_argparse_errors(monkeypatch, argv, error):
    monkeypatch.setenv("COLUMNS", "80")
    code, out, err = _exit(argv)
    assert code == 2 and out == ""
    assert err.startswith("usage: lgmirror") and err.endswith(f"\nlgmirror: error: {error}\n")


def test_argv_defaults_to_sys_argv(capsys, quartic_file, monkeypatch):
    monkeypatch.setattr("sys.argv", ["lgmirror", "group", quartic_file, "--cap", "12"])
    assert cli.main() == 0
    assert capsys.readouterr().out.startswith("order 12\n")


_ARGV_TOKENS = [*cli.COMMANDS, "spec.lg", "--json", "--cap", "5", "007", "+5", "-3",
                "٥", "9" * 5000, "--cap=5", "--js", "--", "-h", ""]


def _outcome(argv, parse):
    """('run', command, specfile, json, cap) as ``parse`` reads ``argv``, or
    ('exit', code, stdout, stderr) when it exits."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        try:
            return ("run",) + parse(argv, out)
        except SystemExit as exc:
            return "exit", exc.code, out.getvalue(), err.getvalue()


def _argparse_reads(argv, out):
    args = cli._parser().parse_args(argv)
    return args.command, args.specfile, args.json, args.cap


def _main_reads(argv, out):
    """What ``main`` hands on: the specfile and cap to read_problem, the
    command it runs and whether it writes JSON to ``out``."""
    seen = []

    def read(path, cap=None):
        seen.append((path, cap))
        return types.SimpleNamespace(poly="W")

    def recorder(name):
        def command(spec):
            seen.append(name)
            return {}, []
        return command
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "read_problem", read)
        for name in cli.COMMANDS:
            mp.setitem(cli.COMMANDS, name, recorder(name))
        assert cli.main(argv) == 0
    (path, cap), name = seen
    return name, path, out.getvalue().startswith("{"), cap


@settings(max_examples=300, deadline=None)
@given(st.lists(st.sampled_from(_ARGV_TOKENS), max_size=6))
def test_main_reads_argv_as_argparse_does(argv):
    # raising anything but SystemExit fails the test
    assert _outcome(argv, _main_reads) == _outcome(argv, _argparse_reads)
