"""Output checks that hold for every seed.

Each check returns a list of problems; an empty list means the output is
accepted.  Expected numbers come from the generators (gen.Case) or from the
paper, never from lgmirror itself.
"""

from __future__ import annotations

import json
from fractions import Fraction

BIGRADED = "BigradedIsomorphic"
BIGRADING_FAILS = "DimensionsMatchBigradingFails"

# The paper's three models: verdict, total dimension on each side, and for
# the bad quintic the bidegrees where the A- and B-model dimensions differ.
PAPER = {
    "quartic_k3": {"verdict": BIGRADED, "total": 24, "mismatches": []},
    "good_quintic": {"verdict": BIGRADED, "total": 128, "mismatches": []},
    "bad_quintic": {"verdict": BIGRADING_FAILS, "total": 88, "mismatches": [
        {"bidegree": ["1", "1"], "a": 7, "b": 1},
        {"bidegree": ["1", "2"], "a": 35, "b": 41},
        {"bidegree": ["2", "1"], "a": 35, "b": 41},
        {"bidegree": ["2", "2"], "a": 7, "b": 1},
    ]},
}
BAD_QUINTIC_STAR_ORDER = 2500


def check_paper(model: str, command: str, data: bytes, expected: bytes) -> list[str]:
    """Bytes must equal the recorded file; the numbers must be the paper's."""
    problems = []
    if data != expected:
        problems.append(f"{command} {model}: bytes differ from the expected file")
    try:
        doc = json.loads(data)
    except ValueError:
        return problems + [f"{command} {model}: output is not JSON"]
    want = PAPER[model]
    if command == "mirror-check":
        got = doc.get("mirror", {})
        if got.get("verdict") != want["verdict"]:
            problems.append(f"{model}: verdict {got.get('verdict')}")
        if (got.get("total_dim_a"), got.get("total_dim_b")) != (want["total"],) * 2:
            problems.append(f"{model}: totals {got.get('total_dim_a')}/"
                            f"{got.get('total_dim_b')}")
        if got.get("mismatches") != want["mismatches"]:
            problems.append(f"{model}: mismatch list differs from the paper's")
    else:
        if doc.get("space", {}).get("total_dim") != want["total"]:
            problems.append(f"{model}: B-model dimension "
                            f"{doc.get('space', {}).get('total_dim')}")
        if doc.get("group", {}).get("order") != BAD_QUINTIC_STAR_ORDER:
            problems.append(f"{model}: |G*| = {doc.get('group', {}).get('order')}")
    return problems


def check_model(case, report) -> list[str]:
    """A Fermat model: orders as generated, and PC (or trivial K) forces the
    bigraded isomorphism.  full_comparison raising is checked by the caller."""
    problems = []
    if report.group.order != case.g_order:
        problems.append(f"|G| = {report.group.order}, expected {case.g_order}")
    if report.dual_group.order != case.star_order:
        problems.append(f"|G*| = {report.dual_group.order}, "
                        f"expected {case.star_order}")
    if report.pc_holds != case.pc_holds:
        problems.append(f"parity condition {report.pc_holds}, "
                        f"expected {case.pc_holds}")
    if (case.k_order == 1 or case.pc_holds) and \
            report.verdict.value != BIGRADED:
        problems.append(f"verdict {report.verdict.value} although "
                        "K is trivial or the parity condition holds")
    return problems


def model_digest_text(report) -> str:
    """Canonical text of a model's result, for byte comparison across commits."""
    dims = [report.a_space.sorted_dims(), report.b_space.sorted_dims()]
    return json.dumps({
        "verdict": report.verdict.value,
        "pc": report.pc_holds,
        "dims": [[[str(p), str(q), d] for (p, q), d in side] for side in dims],
        "pairs": [len(report.restricted.a0_to_narrow),
                  len(report.restricted.narrow_to_b0)],
    }, sort_keys=True)


def _perm_parity(cycle_string: str) -> int:
    """0 for even, 1 for odd, from a cycle string such as '(1 2)(3 4)'."""
    if cycle_string == "()":
        return 0
    cycles = cycle_string.strip("()").split(")(")
    return sum(len(c.split()) - 1 for c in cycles) % 2


def det_phase(element: dict) -> Fraction:
    """t with det(g) = e(t), from an element's JSON form."""
    total = sum((Fraction(p) for p in element["phases"]), Fraction(0))
    return (total + Fraction(_perm_parity(element["perm"]), 2)) % 1


def _in_dual(phases, rows, h_gens, n_mod) -> bool:
    """g·A_W·hᵀ ∈ ℤ for every generator h of H (given as integers mod N);
    by bilinearity that covers all of H."""
    if any((p * n_mod).denominator != 1 for p in phases):
        return False
    g = [int(p * n_mod) for p in phases]
    n = len(rows)
    row_sums = [sum(g[i] * rows[i][j] for i in range(n)) for j in range(n)]
    return all(sum(r * hj for r, hj in zip(row_sums, h)) % (n_mod * n_mod) == 0
               for h in h_gens)


def check_dual(case, exit_code: int, text: str) -> tuple[list[str], bool]:
    """Problems with one dual-sweep reply, and whether a capped request ran
    past its cap (a failure whose output is still checked)."""
    try:
        doc = json.loads(text)
    except ValueError:
        return [f"exit {exit_code}, output is not JSON"], False
    if case.expects_cap_error and exit_code == 1:
        err = doc.get("error", {}).get("type")
        return ([] if err == "CapExceeded" else [f"error {err}, expected CapExceeded"]), False
    if exit_code != 0:
        return [f"exit {exit_code}: {doc.get('error')}"], False
    problems = []
    if doc["group"]["order"] != case.g_order:
        problems.append(f"|G| = {doc['group']['order']}, expected {case.g_order}")
    if case.kind == "dual-group":
        dual = doc["dual_group"]
        if dual["order"] * case.h_order != case.det:
            problems.append(f"|H|·|Hᵀ| = {case.h_order}·{dual['order']} "
                            f"≠ |det A_W| = {case.det}")
        rows, h_gens = case.extra["rows"], case.extra["h_gens"]
        for element in dual["elements"]:
            phases = [Fraction(p) for p in element["phases"]]
            if not _in_dual(phases, rows, h_gens, case.det):
                problems.append(f"{element['phases']} is not in Hᵀ")
                break
    elif case.kind == "nonabelian-dual":
        star = doc["nonabelian_dual"]
        if star["order"] != case.star_order:
            problems.append(f"|G*| = {star['order']} ≠ |Hᵀ|·|K| = {case.star_order}")
        if case.j_in_h and any(det_phase(g) != 0 for g in star["generators"]):
            problems.append("j ∈ H but a generator of G* is not in SL")
    elif case.kind == "pc-check":
        if doc["pc"]["holds"] != case.pc_holds:
            problems.append(f"parity condition {doc['pc']['holds']}, "
                            f"expected {case.pc_holds}")
    return problems, case.expects_cap_error
