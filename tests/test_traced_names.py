"""The benchmark's tracer wraps library functions by name: each name it
lists must still resolve, so that moving a function cannot silently zero
a per-layer metric.  ``bench/tracer.py`` is imported without writing
bytecode and nothing is installed."""

import importlib.util
import sys
from pathlib import Path

import lgmirror as lg

BENCH = Path(__file__).resolve().parent.parent / "bench"

# missing since diagonal_group moved to duality and _dual_candidates went;
# repairing the bench (ROADMAP item 0) retraces them
KNOWN_MISSING = {"symmetry.diagonal_group", "symmetry.diagonal_group.cache_info",
                 "duality._dual_candidates.cache_info"}


def test_traced_names_resolve(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))  # the tracer imports bench's gen
    spec = importlib.util.spec_from_file_location("bench_tracer", BENCH / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = set()
    for table in (tracer.SPANNED, tracer.COUNTED):
        for name, (module, path) in table.items():
            if tracer._resolve(module, path) is None:
                missing.add(name)
    for caches in tracer.CACHED.values():
        for module, path in caches:
            found = tracer._resolve(module, path)
            if found is None or not hasattr(found[2], "cache_info"):
                missing.add(f"{module}.{path}.cache_info")
    assert missing <= KNOWN_MISSING, missing - KNOWN_MISSING


def test_subgroups_is_a_sized_tuple():
    # the tracer counts subgroups with len() on what subgroups() returns
    group = lg.closure([lg.MonomialSymmetry.from_cycles([(0, 1, 2)], 3)])
    subgroups = group.subgroups()
    assert isinstance(subgroups, tuple) and len(subgroups) == 2
