"""Command line front-end with bit-stable text and JSON output.

Problem files are line oriented::

    W = x1^4 + x2^4 + x3^4 + x4^4
    G = j; (1 2 3)

with optional ``cap = N`` (N ≥ 1, bounding G and G*) and ``#`` comments.
Generators follow the generator grammar ('j', 'diag(1/2, 1/4, 1/4, 0)',
'(1 2)(3 4)', or a 'diag(…)*(cycles)' product) and are combined by group
closure.

Rationals serialize as "p/q" strings; every list is emitted in canonical
order, so identical input yields identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import duality, mirror, polynomial, state_space, symmetry
from .errors import InputFileError, LGError, NotASymmetryError, ParseError

COMMANDS = ("weights", "atoms", "dual-poly", "group", "dual-group",
            "nonabelian-dual", "pc-check", "astate", "bstate", "hodge",
            "mirror-check")


class ProblemSpec:
    def __init__(self, poly, generator_texts, cap):
        self.poly = poly
        self.generator_texts = generator_texts
        self.cap = cap

    def generators(self):
        if not self.generator_texts:
            raise ParseError("problem file defines no group line 'G = …'")
        gens = []
        for text in self.generator_texts:
            g = symmetry.parse_generator(text, self.poly)
            if not symmetry.is_symmetry(g, self.poly):
                raise NotASymmetryError(
                    f"generator {text!r} is not a symmetry of {self.poly}")
            gens.append(g)
        return gens

    def group(self) -> symmetry.SymmetryGroup:
        return symmetry.closure(self.generators(), cap=self.cap)


def read_problem(path: str, cap: int | None = None) -> ProblemSpec:
    if cap is not None and cap < 1:
        raise ParseError(f"cap must be at least 1, got {cap}")
    poly = None
    gens: list[str] = []
    file_cap = 10 ** 6
    seen: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFileError(str(exc)) from None
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected 'name = value'")
        name, value = (part.strip() for part in line.split("=", 1))
        if name in seen:
            raise ParseError(f"line {lineno}: {name} already given on line {seen[name]}")
        seen[name] = lineno
        if name == "W":
            poly = polynomial.parse_polynomial(value)
        elif name == "G":
            gens = [chunk.strip() for chunk in value.split(";") if chunk.strip()]
        elif name == "cap":
            try:
                file_cap = int(value)
            except ValueError:
                raise ParseError(f"line {lineno}: cap must be an integer") from None
            if file_cap < 1:
                raise ParseError(f"line {lineno}: cap must be at least 1, got {file_cap}")
        else:
            raise ParseError(f"line {lineno}: unknown field {name!r}")
    if poly is None:
        raise ParseError("problem file defines no polynomial line 'W = …'")
    return ProblemSpec(poly, gens, cap if cap is not None else file_cap)


# --- serialization helpers ---------------------------------------------------

def _bidegree(bd) -> list[str]:
    return [str(bd[0]), str(bd[1])]


def _element_json(g: symmetry.MonomialSymmetry) -> dict:
    return {"perm": g.cycle_string(), "phases": [str(p) for p in g.phases]}


def _group_json(group: symmetry.SymmetryGroup) -> dict:
    classes = [{"size": len(cls), "representative": _element_json(cls[0])}
               for cls in group.conjugacy_classes()]
    return {"order": group.order, "classes": classes}


def _space_json(space: state_space.GradedSpace) -> dict:
    basis = []
    for v in space.basis:
        basis.append({
            "bidegree": _bidegree(v.bidegree),
            "label": state_space.vector_label(v, space.poly),
            "terms": [{"phase": str(ph), "exponents": list(exps),
                       "element": _element_json(g)}
                      for ph, exps, g in v.terms],
        })
    return {
        "total_dim": space.total_dim,
        "dims": [{"bidegree": _bidegree(bd), "dim": d}
                 for bd, d in space.sorted_dims()],
        "basis": basis,
        "census": space.census(),
    }


def _space_text(space: state_space.GradedSpace, out) -> None:
    for v in space.basis:
        out.append(f"({v.bidegree[0]}, {v.bidegree[1]})  "
                   f"{state_space.vector_label(v, space.poly)}")
    out.append(f"total dimension: {space.total_dim}")
    for bd, d in space.sorted_dims():
        out.append(f"dim({bd[0]}, {bd[1]}) = {d}")
    census = space.census()
    twisted = sum(census["twisted_broad"].values())
    out.append(f"census: untwisted broad {census['untwisted_broad']}, "
               f"twisted broad {twisted}, "
               f"narrow diagonal {census['narrow_diagonal']}, "
               f"narrow nondiagonal {census['narrow_nondiagonal']}")


def _pairing_json(direction, pairs, a_space, b_space):
    return [{"direction": direction,
             "a": state_space.vector_label(va, a_space.poly),
             "b": state_space.vector_label(vb, b_space.poly),
             "bidegree": _bidegree(va.bidegree)}
            for va, vb in pairs]


# --- commands ----------------------------------------------------------------

def _run_command(command: str, spec: ProblemSpec, as_json: bool) -> str:
    poly = spec.poly
    doc: dict = {"command": command, "polynomial": str(poly)}
    text: list[str] = []

    if command == "weights":
        doc["weights"] = [str(q) for q in poly.weights]
        doc["boundary_weight"] = poly.has_boundary_weight
        text.append(" ".join(str(q) for q in poly.weights))
        if poly.has_boundary_weight:
            text.append("note: a weight equals 1/2 (boundary of the admissible range)")

    elif command == "atoms":
        blocks = []
        for block in poly.atoms():
            names = [poly.var_names[i] for i in block.variables]
            blocks.append({"kind": block.kind, "variables": names,
                           "exponents": list(block.exponents)})
            exps = ",".join(str(a) for a in block.exponents)
            text.append(f"{block.kind}: {' -> '.join(names)} (a={exps})")
        doc["atoms"] = blocks

    elif command == "dual-poly":
        dual = poly.transpose()
        doc["dual"] = str(dual)
        doc["dual_weights"] = [str(q) for q in dual.weights]
        text.append(str(dual))
        text.append("weights: " + " ".join(str(q) for q in dual.weights))

    elif command == "group":
        group = spec.group()
        doc["group"] = _group_json(group)
        text.append(f"order {group.order}")
        for cls in group.conjugacy_classes():
            text.append(f"class of {cls[0].label()}: size {len(cls)}")

    elif command == "dual-group":
        group = spec.group()
        dual = duality.dual_group(group, poly)
        doc["group"] = _group_json(group)
        doc["dual_group"] = {"order": dual.order,
                             "elements": [_element_json(g) for g in dual]}
        text.append(f"order {dual.order}")
        for g in dual:
            text.append(g.label())

    elif command == "nonabelian-dual":
        group = spec.group()
        star = duality.nonabelian_dual(group, poly, spec.cap)
        doc["group"] = _group_json(group)
        doc["nonabelian_dual"] = {
            "order": star.order,
            "generators": [_element_json(g) for g in star.generators],
            "abelian": star.is_abelian,
        }
        text.append(f"order {star.order}")
        text.append("abelian" if star.is_abelian else "non-abelian")
        for g in star.generators:
            text.append(f"generator {g.label()}")

    elif command == "pc-check":
        group = spec.group()
        parts = duality.decompose_hk(group, poly)
        holds, witness = duality.parity_condition(parts.k, poly.n_vars)
        doc["group"] = _group_json(group)
        doc["pc"] = {"holds": holds,
                     "witness": None if witness is None else
                     [_element_json(g) for g in witness]}
        text.append("parity condition holds" if holds else
                    "parity condition fails")
        if witness is not None:
            text.append("witness subgroup of order "
                        f"{witness.order}: " +
                        ", ".join(g.cycle_string() for g in witness))

    elif command in ("astate", "bstate"):
        group = spec.group()
        if command == "astate":
            space = state_space.a_state_space(poly, group)
        else:
            star = duality.nonabelian_dual(group, poly, spec.cap)
            space = state_space.b_state_space(poly.transpose(), star)
            doc["dual_polynomial"] = str(poly.transpose())
            doc["group"] = _group_json(star)
        doc["space"] = _space_json(space)
        _space_text(space, text)

    elif command == "hodge":
        group = spec.group()
        space = state_space.a_state_space(poly, group)
        diamond = state_space.HodgeDiamond(space)
        doc["space"] = {"total_dim": space.total_dim,
                        "dims": [{"bidegree": _bidegree(bd), "dim": d}
                                 for bd, d in space.sorted_dims()]}
        doc["hodge"] = {"integral": diamond.integral,
                        "rows": diamond.rows() if diamond.integral else None}
        text.append(diamond.render())

    elif command == "mirror-check":
        group = spec.group()
        report = mirror.full_comparison(poly, group, spec.cap)
        doc["mirror"] = {
            "verdict": report.verdict.value,
            "pc": {"holds": report.pc_holds,
                   "witness": None if report.pc_witness is None else
                   [_element_json(g) for g in report.pc_witness]},
            "pairings": _pairing_json(
                "untwisted-to-narrow", report.restricted.a0_to_narrow,
                report.a_space, report.b_space) + _pairing_json(
                "narrow-to-untwisted", report.restricted.narrow_to_b0,
                report.a_space, report.b_space),
            "total_dim_a": report.a_space.total_dim,
            "total_dim_b": report.b_space.total_dim,
            "dims_a": [{"bidegree": _bidegree(bd), "dim": d}
                       for bd, d in report.a_space.sorted_dims()],
            "dims_b": [{"bidegree": _bidegree(bd), "dim": d}
                       for bd, d in report.b_space.sorted_dims()],
            "mismatches": [{"bidegree": _bidegree(bd), "a": da, "b": db}
                           for bd, da, db in report.mismatches],
        }
        doc["group"] = _group_json(group)
        text.append(f"verdict: {report.verdict.value}")
        text.append(f"A total {report.a_space.total_dim}, "
                    f"B total {report.b_space.total_dim}")
        text.append("parity condition: " + ("holds" if report.pc_holds else "fails"))
        if report.pc_witness is not None:
            text.append("witness: " +
                        ", ".join(g.cycle_string() for g in report.pc_witness))
        for bd, da, db in report.mismatches:
            text.append(f"mismatch at ({bd[0]}, {bd[1]}): A {da} vs B {db}")
        if report.verdict is mirror.Verdict.BIGRADED_ISOMORPHIC:
            diamond = state_space.HodgeDiamond(report.a_space)
            text.append(diamond.render())

    else:
        raise ParseError(f"unknown command {command!r}")

    if as_json:
        return json.dumps(doc, indent=2)
    return "\n".join(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description="Exact Landau-Ginzburg state spaces and mirror maps")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("specfile", help="problem file with W = … and G = … lines")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--cap", type=int, default=None,
                        help="size cap of G and G*, at least 1 (default 10^6)")
    args = parser.parse_args(argv)
    try:
        spec = read_problem(args.specfile, cap=args.cap)
        document = _run_command(args.command, spec, args.json)
    except LGError as exc:
        if args.json:
            print(json.dumps({"error": {"type": exc.code, "message": str(exc)}}))
        else:
            print(f"error: {exc.code}: {exc}")
        return 1
    print(document)
    return 0


if __name__ == "__main__":
    sys.exit(main())
