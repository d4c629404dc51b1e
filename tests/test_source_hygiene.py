"""What deletions leave behind: an import nothing uses, or a private
module-level name nothing refers to.  Read from the syntax trees of
``src/lgmirror/*.py`` with the standard library's ``ast`` alone."""

import ast
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
