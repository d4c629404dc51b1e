"""Command line front-end with bit-stable text and JSON output.

Problem files are line oriented::

    W = x1^4 + x2^4 + x3^4 + x4^4
    G = j; (1 2 3)

with optional ``cap = N`` (N ≥ 1, bounding G, Hᵀ and G*) and ``#`` comments.
Generators follow the generator grammar ('j', 'diag(1/2, 1/4, 1/4, 0)',
'(1 2)(3 4)', or a 'diag(…)*(cycles)' product) and are combined by group
closure.

``COMMANDS`` maps each command to a function that returns its JSON fields
and its text lines; the costly ones, class lists and labels of every basis
vector or element, are functions and generators that run only for the
output mode asked for.
Rationals serialize as "p/q" strings; every list is emitted in canonical
order, so identical input yields identical bytes: ``--json`` writes in one
pass the bytes of ``json.dumps(value, indent=2)``, with ASCII escapes.
Element, class, pairing and basis-vector records, the bulk of a group
block, a pairing list or a state space, are made once as that text
(``_Text``) and spliced in at their depth.  A vector's label and its terms
come from one pass over its nodes, and in each render a form's texts are
made once per run of nodes that share the form (``state_space.labeller``).
"""

from __future__ import annotations

import os
import re
import sys
from collections import namedtuple
from functools import cache
from itertools import chain
from json.encoder import encode_basestring_ascii
from math import lcm

from . import duality, mirror, polynomial, state_space, symmetry
from .errors import InputFileError, LGError, NotASymmetryError, ParseError


class ProblemSpec(namedtuple("ProblemSpec", "poly generators cap g_line")):
    """``generators`` holds (text, parsed) pairs from line ``g_line``."""

    __slots__ = ()

    def group(self) -> symmetry.SymmetryGroup:
        """The closure of the checked generators, bounded by ``cap``."""
        if not self.generators:
            raise ParseError("problem file defines no group line 'G = …'")
        for text, g in self.generators:
            if not symmetry.is_symmetry(g, self.poly):
                raise NotASymmetryError(
                    f"line {self.g_line}: generator {text!r} is not a symmetry of {self.poly}")
        group = symmetry.closure([g for _, g in self.generators], cap=self.cap)
        group._symmetries_of.add(self.poly)  # generated by symmetries, G is a group of them
        return group


def _on_line(lineno: int, start: int, parse, *args):
    """parse(*args) on text at ``start`` in the value of line ``lineno``: an
    error names the line, and a ParseError's offset moves into the value."""
    try:
        return parse(*args)
    except ParseError as exc:
        offset = None if exc.offset is None else start + exc.offset
        raise type(exc)(f"line {lineno}: {exc.message}", offset) from None
    except LGError as exc:
        raise type(exc)(f"line {lineno}: {exc}") from None


def read_problem(path: str, cap: int | None = None) -> ProblemSpec:
    if cap is not None and cap < 1:
        raise ParseError(f"cap must be at least 1, got {cap}")
    poly = None
    gens: list[tuple[int, str]] = []  # (offset in the G value, text)
    file_cap = symmetry.DEFAULT_CAP
    seen: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8") as handle:  # a leading BOM is dropped
            lines = handle.read().removeprefix("\ufeff").split("\n")
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
            poly = _on_line(lineno, 0, polynomial.parse_polynomial, value)
        elif name == "G":
            gens = [(m.end() - len(m[0].lstrip()), m[0].strip())
                    for m in re.finditer(r"[^;]+", value) if m[0].strip()]
            if not gens:
                raise ParseError(f"line {lineno}: G lists no generators")
        elif name == "cap":
            if not re.fullmatch(r"[+-]?\d+", value, re.ASCII):
                raise ParseError(f"line {lineno}: cap must be an integer")
            file_cap = polynomial.parse_digits(value, 0)
            if file_cap < 1:
                raise ParseError(f"line {lineno}: cap must be at least 1, got {file_cap}")
        else:
            raise ParseError(f"line {lineno}: unknown field {name!r}")
    if poly is None:
        raise ParseError("problem file defines no polynomial line 'W = …'")
    generators = [(text, _on_line(seen["G"], start, symmetry.parse_generator, text, poly))
                  for start, text in gens]
    return ProblemSpec(poly, generators, cap if cap is not None else file_cap, seen.get("G"))


# --- serialization helpers ---------------------------------------------------

def _bidegree(bd) -> list[str]:
    return [str(bd[0]), str(bd[1])]


class _Text(str):
    """A record written as ``json.dumps(record, indent=2)`` writes it at depth 0."""
    __slots__ = ()


def _element_json(perm, nums, mod: int) -> _Text:  # the integer form (perm, nums over mod), n ≥ 1
    """{"perm": …, "phases": […]} as text; cycle and phase texts need no escapes."""
    return _Text('{\n  "perm": "%s",\n  "phases": [\n    "%s"\n  ]\n}' % (
        symmetry._cycle_text(perm), '",\n    "'.join([symmetry.phase_text(x, mod) for x in nums])))


def _group_json(group: symmetry.SymmetryGroup) -> dict:
    return {"order": group.order, "classes": lambda: [
        _Text('{\n  "size": %d,\n  "representative": %s\n}' % (
            group.class_size(cosets),
            _element_json(*cosets[0][0], group.modulus).replace("\n", "\n  ")))
        for cosets in group.class_transversals]}


def _dims_json(space: state_space.GradedSpace) -> list[dict]:
    return [{"bidegree": _bidegree(bd), "dim": d} for bd, d in space.sorted_dims()]


def _pc_json(holds: bool, witness: symmetry.SymmetryGroup | None) -> dict:
    return {"holds": holds,
            "witness": None if witness is None else [_element_json(*lift, witness.modulus)
                                                     for lift in witness.lifts]}


def _space_json(space: state_space.GradedSpace) -> dict:
    """Basis records; a term's text but its phase and exponents once per run."""
    mod, basis, terms = lcm(2, space.group.modulus), [], []
    label = state_space.labeller(space.poly, space.group.modulus, lambda cycles, phases: (
        '{\n      "phase": "%%s",\n      "exponents": %%s,\n      "element": {\n        "perm": '
        '"%s",\n        "phases": [\n          "%s"\n        ]\n      }\n    }' % (
            cycles, '",\n          "'.join(phases))))
    for v in space.basis:  # the label fills ``terms``
        text = encode_basestring_ascii(label(v.nodes, terms))
        written = ",\n    ".join([term % (symmetry.phase_text(p, mod), "[\n        %s\n      ]" % (
            ",\n        ".join(map(str, exps))) if exps else "[]") for term, exps, p in terms])
        basis.append(_Text('{\n  "bidegree": [\n    "%s",\n    "%s"\n  ],\n  "label": %s,\n  '
                           '"terms": [\n    %s\n  ]\n}' % (*v.bidegree, text, written)))
        terms.clear()
    return {"total_dim": space.total_dim, "dims": _dims_json(space),
            "basis": basis, "census": space.census()}


def _space_text(space: state_space.GradedSpace):
    """The text lines, generated only when printed."""
    label = state_space.labeller(space.poly, space.group.modulus)
    for v in space.basis:
        yield f"({v.bidegree[0]}, {v.bidegree[1]})  {label(v.nodes)}"
    yield f"total dimension: {space.total_dim}"
    yield from (f"dim({bd[0]}, {bd[1]}) = {d}" for bd, d in space.sorted_dims())
    census = space.census()
    twisted = sum(census["twisted_broad"].values())
    yield (f"census: untwisted broad {census['untwisted_broad']}, "
           f"twisted broad {twisted}, "
           f"narrow diagonal {census['narrow_diagonal']}, "
           f"narrow nondiagonal {census['narrow_nondiagonal']}")


def _pairing_json(direction, pairs, a_space, b_space) -> list[_Text]:
    """One record per pair; each side's labels are one render."""
    a_label, b_label = (state_space.labeller(s.poly, s.group.modulus) for s in (a_space, b_space))
    return [_Text('{\n  "direction": %s,\n  "a": %s,\n  "b": %s,\n  "bidegree": [\n    "%s",\n'
                  '    "%s"\n  ]\n}' % (*map(encode_basestring_ascii, (
                      direction, a_label(va.nodes), b_label(vb.nodes))), *va.bidegree))
            for va, vb in pairs]


# --- commands: JSON fields after "command" and "polynomial", and text lines ---

def _weights(spec: ProblemSpec):
    poly = spec.poly
    weights = [str(q) for q in poly.weights]
    text = [" ".join(weights)]
    if poly.has_boundary_weight:
        text.append("note: a weight equals 1/2 (boundary of the admissible range)")
    return {"weights": weights, "boundary_weight": poly.has_boundary_weight}, text


def _atoms(spec: ProblemSpec):
    poly = spec.poly
    blocks, text = [], []
    for block in poly.atoms():
        names = [poly.var_names[i] for i in block.variables]
        blocks.append({"kind": block.kind, "variables": names,
                       "exponents": list(block.exponents)})
        exps = ",".join(str(a) for a in block.exponents)
        text.append(f"{block.kind}: {' -> '.join(names)} (a={exps})")
    return {"atoms": blocks}, text


def _dual_poly(spec: ProblemSpec):
    dual = spec.poly.transpose()
    weights = [str(q) for q in dual.weights]
    return ({"dual": str(dual), "dual_weights": weights},
            [str(dual), "weights: " + " ".join(weights)])


def _group(spec: ProblemSpec):
    group = spec.group()
    return ({"group": _group_json(group)},
            [f"order {group.order}"] + [
                f"class of {symmetry.form_label(*m[0][0], group.modulus)}: "
                f"size {group.class_size(m)}" for m in group.class_transversals])


def _dual_group(spec: ProblemSpec):
    group = spec.group()
    dual = duality.dual_group(group, spec.poly, spec.cap)
    return ({"group": _group_json(group),
             "dual_group": {"order": dual.order,
                            "elements": lambda: [_element_json(*f, dual.modulus)
                                                 for f in dual._forms]}},
            chain([f"order {dual.order}"], (symmetry.form_label(*f, dual.modulus)
                                            for f in dual._forms)))


def _nonabelian_dual(spec: ProblemSpec):
    group = spec.group()
    star = duality.nonabelian_dual(group, spec.poly, spec.cap)
    abelian = star.is_abelian
    return ({"group": _group_json(group),
             "nonabelian_dual": {
                 "order": star.order,
                 "generators": [_element_json(g.perm, g.nums, g.mod) for g in star.generators],
                 "abelian": abelian}},
            [f"order {star.order}", "abelian" if abelian else "non-abelian"] +
            [f"generator {g.label()}" for g in star.generators])


def _pc_check(spec: ProblemSpec):
    group = spec.group()
    parts = duality.decompose_hk(group, spec.poly)
    holds, witness = duality.parity_condition(parts.k)
    text = ["parity condition holds" if holds else "parity condition fails"]
    if witness is not None:
        text.append(f"witness subgroup of order {witness.order}: " +
                    ", ".join(symmetry._cycle_text(perm) for perm, _ in witness.lifts))
    return {"group": _group_json(group), "pc": _pc_json(holds, witness)}, text


def _astate(spec: ProblemSpec):
    space = state_space.a_state_space(spec.poly, spec.group())
    return {"space": lambda: _space_json(space)}, _space_text(space)


def _bstate(spec: ProblemSpec):
    star = duality.nonabelian_dual(spec.group(), spec.poly, spec.cap)
    dual = spec.poly.transpose()
    space = state_space.b_state_space(dual, star)
    return ({"dual_polynomial": str(dual), "group": _group_json(star),
             "space": lambda: _space_json(space)}, _space_text(space))


def _hodge(spec: ProblemSpec):
    space = state_space.a_state_space(spec.poly, spec.group())
    diamond = state_space.HodgeDiamond(space)
    return ({"space": {"total_dim": space.total_dim, "dims": _dims_json(space)},
             "hodge": {"integral": diamond.integral,
                       "rows": diamond.rows() if diamond.integral else None}},
            [diamond.render()])


def _mirror_check(spec: ProblemSpec):
    group = spec.group()
    report = mirror.full_comparison(spec.poly, group, spec.cap)
    a_space, b_space, restricted = report.a_space, report.b_space, report.restricted
    fields = {
        "mirror": {
            "verdict": report.verdict.value,
            "pc": _pc_json(report.pc_holds, report.pc_witness),
            "pairings": lambda: _pairing_json(
                "untwisted-to-narrow", restricted.a0_to_narrow, a_space, b_space) +
            _pairing_json(
                "narrow-to-untwisted", restricted.narrow_to_b0, a_space, b_space),
            "total_dim_a": a_space.total_dim,
            "total_dim_b": b_space.total_dim,
            "dims_a": _dims_json(a_space),
            "dims_b": _dims_json(b_space),
            "mismatches": [{"bidegree": _bidegree(bd), "a": da, "b": db}
                           for bd, da, db in report.mismatches],
        },
        "group": _group_json(group),
    }
    text = [f"verdict: {report.verdict.value}",
            f"A total {a_space.total_dim}, B total {b_space.total_dim}",
            "parity condition: " + ("holds" if report.pc_holds else "fails")]
    if report.pc_witness is not None:
        text.append("witness: " + ", ".join(symmetry._cycle_text(perm)
                                            for perm, _ in report.pc_witness.lifts))
    text.extend(f"mismatch at ({bd[0]}, {bd[1]}): A {da} vs B {db}"
                for bd, da, db in report.mismatches)
    if report.verdict is mirror.Verdict.BIGRADED_ISOMORPHIC:
        text.append(state_space.HodgeDiamond(a_space).render())
    return fields, text


COMMANDS = {
    "weights": _weights, "atoms": _atoms, "dual-poly": _dual_poly,
    "group": _group, "dual-group": _dual_group,
    "nonabelian-dual": _nonabelian_dual, "pc-check": _pc_check,
    "astate": _astate, "bstate": _bstate, "hodge": _hodge,
    "mirror-check": _mirror_check,
}


def _json_chunks(value, out: list[str], head: str = "", pad: str = "\n") -> None:
    """Append ``value`` as ``json.dumps(value, indent=2)`` writes it, one
    chunk per scalar with ``head``, the separator, indentation and key before
    it, fused in; ``pad`` indents the closing bracket of the container.  A
    zero-argument callable is rendered as the value it returns, and a record
    already written as text (``_Text``) is spliced in, each line indented by ``pad``."""
    if type(value) is _Text:
        out.append(head + value.replace("\n", pad))
    elif isinstance(value, str):
        out.append(head + encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        out.append(head + ("null" if value is None else "true" if value else "false"))
    elif isinstance(value, int):
        out.append(head + int.__repr__(value))
    elif isinstance(value, dict):
        inner, sep = pad + "  ", "{"
        for key, item in value.items():  # a key other than str raises TypeError
            _json_chunks(item, out, f"{head}{sep}{inner}{encode_basestring_ascii(key)}: ", inner)
            head, sep = "", ","
        out.append(head + "{}" if sep == "{" else pad + "}")
    elif isinstance(value, (list, tuple)):
        inner, sep = pad + "  ", "["
        for item in value:
            _json_chunks(item, out, head + sep + inner, inner)
            head, sep = "", ","
        out.append(head + "[]" if sep == "[" else pad + "]")
    elif callable(value):
        _json_chunks(value(), out, head, pad)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


@cache
def _parser():
    import argparse  # for help and usage errors: a plain command never loads it
    parser = argparse.ArgumentParser(
        prog="lgmirror",
        description="Exact Landau-Ginzburg state spaces and mirror maps")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("specfile", help="problem file with W = … and G = … lines")
    parser.add_argument("--json", action="store_true", help="emit JSON")
    parser.add_argument("--cap", type=int, default=None,
                        help="size cap of G, Hᵀ and G*, at least 1 (default 10^6)")
    return parser


_Args = namedtuple("_Args", "command specfile json cap")  # argparse's names


def _plain_args(argv):
    """argv as argparse reads it when it holds two positionals, the first a
    command, beside ``--json`` and ``--cap`` with ASCII digits; else None."""
    positionals, as_json, cap = [], False, None
    tokens = iter(argv)
    for token in tokens:
        if token == "--json":
            as_json = True
        elif token == "--cap":
            digits = next(tokens, "")
            if not (digits.isascii() and digits.isdigit()):
                return None
            try:
                cap = int(digits)
            except ValueError:  # past the digit limit: argparse reports it
                return None
        elif token[:1] in ("", "-"):
            return None
        else:
            positionals.append(token)
    if len(positionals) == 2 and positionals[0] in COMMANDS:
        return _Args(*positionals, as_json, cap)
    return None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _plain_args(argv) or _parser().parse_args(argv)  # argparse: every other shape
    try:
        spec = read_problem(args.specfile, cap=args.cap)
        fields, text = COMMANDS[args.command](spec)
        chunks: list[str] = []
        if args.json:  # a field given as a function is rendered here only
            _json_chunks({"command": args.command, "polynomial": str(spec.poly),
                          **fields}, chunks)
        out = "".join(chunks) if args.json else "\n".join(text)
    except LGError as exc:  # in JSON one line, as json.dumps writes it
        error = (exc.code, str(exc))
        print('{"error": {"type": %s, "message": %s}}' % tuple(map(encode_basestring_ascii, error))
              if args.json else "error: %s: %s" % error)
        return 1
    try:
        print(out)
    except BrokenPipeError:  # the reader left: fd 1 to devnull, so the exit's flush cannot raise
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
