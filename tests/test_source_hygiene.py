"""What deletions leave behind: an import nothing uses, or a private
module-level name nothing refers to; and a regular expression whose
``\\d``, ``\\s`` or ``\\w`` would read Unicode digits, blanks or letters.
Read from the syntax trees of ``src/lgmirror/*.py`` with the standard
library's ``ast`` alone."""

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "lgmirror"
MODULES = sorted(SRC.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), str(path))


def _loaded(tree):
    """Every name read in ``tree``, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def _exported(tree):
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used_or_exported(path):
    tree = _tree(path)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
    unused = set(bound) - _loaded(tree) - _exported(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} and never uses them"


def test_every_private_module_name_is_referenced():
    trees = {path.name: _tree(path) for path in MODULES}
    loaded = set().union(*map(_loaded, trees.values()))
    orphans = []
    for name, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            orphans += [f"{name}:{d}" for d in defined
                        if d.startswith("_") and not d.startswith("__") and d not in loaded]
    assert not orphans, f"private names nothing refers to: {orphans}"


_UNICODE_CLASS = re.compile(r"\\[dswDSW]")
_RE_FUNCTIONS = {"compile", "search", "match", "fullmatch", "finditer", "findall",
                 "split", "sub", "subn"}


def test_every_pattern_with_a_class_escape_is_ascii():
    # the spec grammar is ASCII on every Python: \d must not match '١'
    unicode_patterns = []
    for path in MODULES:
        for node in ast.walk(_tree(path)):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == "re"
                    and node.func.attr in _RE_FUNCTIONS and node.args
                    and isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)):
                continue
            flags = node.args[1:] + [k.value for k in node.keywords]
            ascii_flag = any(isinstance(n, ast.Attribute) and n.attr in ("ASCII", "A")
                             for flag in flags for n in ast.walk(flag))
            if _UNICODE_CLASS.search(node.args[0].value) and not ascii_flag:
                unicode_patterns.append(f"{path.name}:{node.lineno} {node.args[0].value!r}")
    assert not unicode_patterns, f"patterns without re.ASCII: {unicode_patterns}"
