"""What deletions leave behind: an import nothing uses, or a private
module-level name nothing refers to; a regular expression whose ``\\d``,
``\\s`` or ``\\w`` would read Unicode digits, blanks or letters; a
module-level cache with no bound on its entries, or one keyed by a
polynomial; a rational or a listing of group elements on the path that
builds and compares state spaces; a vector's node list read there, or
an orbit record or a set key in the corner check; an
element or a sector on the path of the invariant search, the class walk,
the check that K normalizes Hᵀ and a vector's node list; a class member
listed, or a word composed, by the class walk, P's walk iterated by the
walk of a class with σ ≠ id, or P walked twice or replayed by the class
walk; a group built from a walk of P anywhere but ``closure``; a
subgroup closed by the parity walk, or lift generators read by
``duality``; outside
``symmetry``, a
position in a group's listing or a group built from more than its
structure; and a symmetry check outside its three places, or G*'s Hᵀ
built as a dual group.  Read from the syntax trees of ``src/lgmirror/*.py`` with the
standard library's ``ast`` alone."""

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


def _called_name(node):
    """The name a decorator refers to, bare or dotted, called or not."""
    node = node.func if isinstance(node, ast.Call) else node
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _unbounded(decorator):
    """True for ``cache`` and for ``lru_cache`` with maxsize None; a bare
    ``lru_cache`` keeps 128 entries."""
    name = _called_name(decorator)
    if name == "cache":
        return True
    if name != "lru_cache" or not isinstance(decorator, ast.Call):
        return False
    sizes = decorator.args[:1] + [k.value for k in decorator.keywords if k.arg == "maxsize"]
    return any(isinstance(size, ast.Constant) and size.value is None for size in sizes)


def test_every_module_level_cache_with_arguments_is_bounded():
    # a cache that outlives a call keeps at most CACHE_SIZE entries, so a
    # long sweep does not keep every polynomial, element and sector it saw;
    # a function without arguments, like cli._parser, caches one value
    unbounded = []
    for path in MODULES:
        for node in _tree(path).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            if (args.posonlyargs or args.args or args.kwonlyargs or args.vararg
                    or args.kwarg) and any(map(_unbounded, node.decorator_list)):
                unbounded.append(f"{path.name}:{node.name}")
    assert not unbounded, f"module-level caches without a bound: {unbounded}"


# the benchmark's tracer reads this cache's cache_info()
POLYNOMIAL_CACHES_KEPT = {"state_space.build_sector"}


def test_no_module_level_cache_is_keyed_by_a_polynomial():
    # what is derived from W alone (its atoms, the solve of A_W) lives on W
    # and goes with it; a module-level cache keyed by W keeps W and what was
    # derived from it alive after every call that used them
    keyed = []
    for path in MODULES:
        for node in _tree(path).body:
            if not (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                    _called_name(d) in ("cache", "lru_cache") for d in node.decorator_list)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs + [
                a for a in (args.vararg, args.kwarg) if a is not None]
            if any(a.annotation is not None and re.search(
                    r"\bInvertiblePolynomial\b", ast.unparse(a.annotation)) for a in params):
                keyed.append(f"{path.stem}.{node.name}")
    assert set(keyed) <= POLYNOMIAL_CACHES_KEPT, f"caches keyed by a polynomial: {keyed}"


# the state spaces are built, counted and compared on integers: a rational
# or an element is made only by a vector's views and the renderers
INTEGER_PATH = {"mirror.py": None,
                "state_space.py": {"invariant_basis", "_carries", "_kept", "GradedSpace.__init__"}}


def _scopes(tree, names):
    """(name, node) for the module-level functions and the methods, as
    ``Class.method``, named in ``names``; the whole module if None."""
    if names is None:
        return [("", tree)]
    scopes = [(f.name, f) for f in tree.body if isinstance(f, ast.FunctionDef)]
    scopes += [(f"{c.name}.{f.name}", f) for c in tree.body if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)]
    return [(name, node) for name, node in scopes if name in names]


def test_the_comparison_path_makes_no_rational_and_lists_no_element():
    found, seen = [], set()
    for module, names in INTEGER_PATH.items():
        for name, scope in _scopes(_tree(SRC / module), names):
            seen.add(name)
            for node in ast.walk(scope):
                if (isinstance(node, ast.Name) and node.id == "Fraction" or
                        isinstance(node, ast.alias) and node.name == "Fraction" or
                        isinstance(node, ast.Attribute) and node.attr == "elements"):
                    found.append(f"{module}:{name or '<module>'}:{node.lineno}")
    assert seen == {""} | INTEGER_PATH["state_space.py"], seen
    assert not found, f"rationals or element lists on the comparison path: {found}"


# a vector lists its nodes only when they are read: the corner check keys
# each vector by its lead and exponents, the histograms compare integer
# grades, and the census reads each vector's lead
NODE_FREE_PATH = {"mirror.py": None,
                  "state_space.py": {"GradedSpace.__init__", "GradedSpace.census"}}


def test_the_comparison_and_the_census_list_no_node():
    found, seen = [], set()
    for module, names in NODE_FREE_PATH.items():
        for name, scope in _scopes(_tree(SRC / module), names):
            seen.add(name)
            found += [f"{module}:{name or '<module>'}:{node.lineno}" for node in ast.walk(scope)
                      if isinstance(node, ast.Attribute) and node.attr in ("nodes", "terms")]
    assert seen == {""} | NODE_FREE_PATH["state_space.py"], seen
    assert not found, f"node lists read on the comparison path: {found}"


def test_the_corner_check_reads_no_orbit_record():
    # a corner vector's key is its lead's vector: the orbit record and the
    # class's cosets stay inside state_space, and no key is a set
    tree = _tree(SRC / "mirror.py")
    found = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("orbit", "cosets")
             or isinstance(node, ast.Name) and node.id == "frozenset"]
    assert not found, f"mirror.py reads an orbit record or builds a set key at lines {found}"

# the invariant search, the class walk and the check that K normalizes Hᵀ
# run on integer forms: elements and sectors are made only at the public
# entries and by the views
FORM_PATH = {"state_space.py": {"invariant_basis", "_carries", "_kept", "sector_map",
                                "SectorMap.apply", "GradedBasisVector.nodes"},
             "symmetry.py": {"SymmetryGroup.class_transversals"},
             "duality.py": {"star_group"}}
ELEMENT_NAMES = {"MonomialSymmetry", "from_numerators", "build_sector", "Sector", "inverse",
                 "conjugated_by"}


def test_the_search_makes_no_element_and_builds_no_sector():
    found, seen = [], set()
    for module, names in FORM_PATH.items():
        for name, scope in _scopes(_tree(SRC / module), names):
            seen.add(f"{module}:{name}")
            found += [f"{module}:{name}:{node.lineno}" for node in ast.walk(scope)
                      if isinstance(node, ast.Name) and node.id in ELEMENT_NAMES or
                      isinstance(node, ast.Attribute) and node.attr in ELEMENT_NAMES]
    assert seen == {f"{m}:{n}" for m, names in FORM_PATH.items() for n in names}, seen
    assert not found, f"elements or sectors on the search path: {found}"


def _functions(tree):
    """(name, node) for every module-level function and every method, as
    ``Class.method``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            yield from ((f"{node.name}.{f.name}", f) for f in node.body
                        if isinstance(f, ast.FunctionDef))


def test_forms_are_listed_in_one_place_and_no_module_keeps_dimino():
    # a group is its structure: only SymmetryGroup._coset lists a lattice,
    # the cosets of its diagonal part for the forms and im φ_σ with its
    # preimages for a permutation part's record, and closure walks the
    # permutation images instead of generating the whole group (Dimino,
    # which tests/oracles.py keeps as the reference)
    calls, sites, dimino = 0, [], []
    for path in MODULES:
        tree = _tree(path)
        calls += sum(isinstance(node, ast.Call) and _called_name(node) == "_lattice_forms"
                     for node in ast.walk(tree))
        sites += [f"{path.name}:{name}" for name, scope in _functions(tree)
                  for node in ast.walk(scope)
                  if isinstance(node, ast.Call) and _called_name(node) == "_lattice_forms"]
        dimino += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                   and node.name == "_generate"]
    assert calls == 1 and sites == ["symmetry.py:SymmetryGroup._coset"], sites
    assert not dimino, f"modules that define _generate: {dimino}"


def _readers(tree, test):
    """The scopes, named as ``_functions`` names them or '<module>', that
    hold a node for which ``test`` is true."""
    scope_of = {id(node): name for name, scope in _functions(tree) for node in ast.walk(scope)}
    return {scope_of.get(id(node), "<module>") for node in ast.walk(tree) if test(node)}


def test_the_class_walk_composes_no_word():
    # every class is read off P's one walk (``_walk``), each coset keeping
    # the word of the first τ to meet it: no word is composed past that walk
    (walk,) = [scope for name, scope in _functions(_tree(SRC / "symmetry.py"))
               if name == "SymmetryGroup.class_transversals"]
    assert "_compose" not in _loaded(walk)


def _bound_from_walk(scope):
    """The names ``scope`` binds to P's walk, ``_walk(self._lift_gens, …)``,
    or to a value that reads a name bound so."""
    assigns = [node for node in ast.walk(scope) if isinstance(node, ast.Assign)]
    names, grown = set(), True
    while grown:
        grown = False
        for node in assigns:
            walked = any(isinstance(n, ast.Call) and _called_name(n) == "_walk" and n.args
                         and ast.unparse(n.args[0]) == "self._lift_gens"
                         for n in ast.walk(node.value))
            if walked or _loaded(node.value) & names:
                bound = {n.id for t in node.targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                grown, names = grown or not bound <= names, names | bound
    return names


def test_a_class_with_a_permutation_walks_its_cosets_not_p():
    # a class led by (σ, r) with σ ≠ id is walked over its own cosets along
    # P's edges, so it costs its cosets times the lift generators: inside the
    # loop over the lifts σ ≠ id no loop iterates P's walk, as a table of one
    # step per coset τ∘⟨σ⟩ of P did, built for each σ that leads a class
    (walk,) = [scope for name, scope in _functions(_tree(SRC / "symmetry.py"))
               if name == "SymmetryGroup.class_transversals"]
    walked = _bound_from_walk(walk)
    (branch,) = [node for node in ast.walk(walk)
                 if isinstance(node, ast.For) and ast.unparse(node.iter) == "self.lifts[1:]"]
    loops = [node.iter for node in ast.walk(branch)
             if isinstance(node, (ast.For, ast.comprehension)) and node is not branch]
    over_p = [f"line {it.lineno}: {ast.unparse(it)}" for it in loops
              if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute)
              and it.func.attr in ("items", "keys", "values") and not it.args
              and isinstance(it.func.value, ast.Name) and it.func.value.id in walked
              or isinstance(it, ast.Name) and it.id in walked]
    assert walked and not over_p, f"loops over P's walk in the class walk of σ ≠ id: {over_p}"


def _inner_loops(scope):
    """The loops, ``for`` statements and comprehension clauses, that
    ``scope`` holds inside another loop."""
    inner = []
    for node in ast.walk(scope):
        if isinstance(node, (ast.For, ast.While)):
            body = node.body + node.orelse
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)):
            body = node.generators[1:] + [getattr(node, field) for field in ("elt", "key", "value")
                                          if hasattr(node, field)]
        else:
            continue
        inner += [n for part in body for n in ast.walk(part)
                  if isinstance(n, (ast.For, ast.comprehension))]
    return inner


def test_the_class_walk_walks_p_once():
    # the class walk reads every word off P's one walk, ``_walk``, and
    # replays none of it: no loop over the lift generators runs inside
    # another loop, as one over P's τ did to find the edges P's walk took
    (walk,) = [scope for name, scope in _functions(_tree(SRC / "symmetry.py"))
               if name == "SymmetryGroup.class_transversals"]
    walks = [node for node in ast.walk(walk) if isinstance(node, ast.Call)
             and _called_name(node) == "_walk" and node.args
             and ast.unparse(node.args[0]) == "self._lift_gens"]
    replays = [f"line {node.iter.lineno}" for node in _inner_loops(walk)
               if ast.unparse(node.iter) == "self._lift_gens"]
    assert len(walks) == 1, f"P walked {len(walks)} times by the class walk"
    assert not replays, f"loops over the lift generators inside a loop: {replays}"


def test_a_walk_becomes_a_group_only_in_closure():
    # a group generated by forms is built in one place: closure walks P
    # and takes the Hermite form of the Schreier generators.  subgroups()
    # builds each walked subgroup through it; the parity witness is not
    # walked, as its lifts are K's lifts at the indices the walk yields
    both = set()
    for path in MODULES:
        for name, scope in _functions(_tree(path)):
            called = {_called_name(node) for node in ast.walk(scope) if isinstance(node, ast.Call)}
            if {"_walk", "hermite"} <= called:
                both.add(f"{path.name}:{name}")
    assert both == {"symmetry.py:closure"}, both


def test_the_parity_walk_closes_no_subgroup():
    # the subgroup walk yields element indices and the parity condition
    # builds only its witness, from K's lifts, so neither calls closure;
    # and G* checks that K normalizes Hᵀ on K's lifts, so duality reads
    # no greedy lift generators
    scopes = {f"{path.name}:{name}": scope for path in (SRC / "symmetry.py", SRC / "duality.py")
              for name, scope in _functions(_tree(path))}
    found = [f"{name} calls closure" for name in ("symmetry.py:SymmetryGroup._subgroup_walk",
                                                  "duality.py:parity_condition")
             if any(isinstance(node, ast.Call) and _called_name(node) == "closure"
                    for node in ast.walk(scopes[name]))]
    found += [f"duality.py:{name} reads _lift_gens" for name in sorted(_readers(
        _tree(SRC / "duality.py"),
        lambda node: isinstance(node, ast.Attribute) and node.attr == "_lift_gens"))]
    assert not found, found


# a class is its cosets of im φ_σ: the class walk keeps one head and
# word per coset and lists no member, so the preimages of φ_σ are read
# where members are listed (the orbit carriers and the element classes),
# counted (a class's size) or looked up (a centralizer's lifts)
PREIMAGE_READERS = {"state_space.py:_carries", "symmetry.py:SymmetryGroup._classes",
                    "symmetry.py:SymmetryGroup.class_size",
                    "symmetry.py:SymmetryGroup._centralizer_lifts"}


def test_the_class_walk_lists_no_member():
    readers = set()
    for path in MODULES:
        readers |= {f"{path.name}:{name}" for name in _readers(
            _tree(path), lambda node: isinstance(node, ast.Attribute) and node.attr == "preimages")}
    assert "symmetry.py:SymmetryGroup.class_transversals" not in readers
    assert readers == PREIMAGE_READERS, readers


# the one output that prints a whole group, element by element
FORM_LISTINGS = {"cli.py:_dual_group"}


def test_a_group_is_read_through_its_structure_and_its_forms():
    # outside symmetry.py no module names an element by its position in a
    # group's listing: the listing is read only where a whole group is
    # printed; no module, symmetry.py included, reads a form index, as the
    # class walk goes over cosets and the subgroup walk keeps its own; and
    # every group is built from its structure alone, SymmetryGroup(mod,
    # basis, lifts), with no given generators
    listings, positions, built = set(), set(), []
    for path in MODULES:
        tree = _tree(path)
        built += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _called_name(node) == "SymmetryGroup"
                  and len(node.args) + len(node.keywords) != 3]
        positions |= {f"{path.name}:{name}" for name in _readers(
            tree, lambda node: isinstance(node, ast.Attribute) and node.attr in ("_index", "index"))}
        if path.name == "symmetry.py":
            continue
        listings |= {f"{path.name}:{name}" for name in _readers(
            tree, lambda node: isinstance(node, ast.Attribute) and node.attr == "_forms")}
    assert listings == FORM_LISTINGS, listings
    assert not positions, f"reads of a position in a group's listing: {positions}"
    assert not built, f"SymmetryGroup calls without exactly (mod, basis, lifts): {built}"


# where a generator meets is_symmetry: the user's, as the spec is read; a
# group's, once per W in the shared check; an element's, as its sector is built
SYMMETRY_CHECKERS = {"cli.py:ProblemSpec.group", "symmetry.py:check_symmetries",
                     "state_space.py:build_sector"}


def test_each_group_is_checked_against_w_in_one_place():
    # every other step reaches is_symmetry through check_symmetries, which
    # keeps each W a group passed for; and G* reads Hᵀ's lattice instead of
    # building Hᵀ with dual_group, whose checks would repeat what the H·K
    # split has checked
    callers = set()
    for path in MODULES:
        callers |= {f"{path.name}:{name}" for name in _readers(
            _tree(path), lambda node: isinstance(node, ast.Call)
            and _called_name(node) == "is_symmetry")}
    assert callers == SYMMETRY_CHECKERS, callers
    (star,) = [scope for name, scope in _functions(_tree(SRC / "duality.py"))
               if name == "star_group"]
    assert not [node.lineno for node in ast.walk(star)
                if isinstance(node, ast.Call) and _called_name(node) == "dual_group"]
