"""Spans and counters around lgmirror's public functions, taken from outside.

``Tracer.install()`` replaces each traced function at every binding across
lgmirror's modules (``mirror`` and ``state_space`` import names with
``from … import``), and wraps a few methods on their classes.  Each call
records a span: name, start, end, parent span and the operation it belongs
to.  Spans stay in memory until ``raw()`` folds them into totals at the end
of the run, and ``layer_metrics`` turns those into per-layer numbers.  The composition kernel
(``MonomialSymmetry.__mul__``) is too hot for spans: it keeps only a call
count and total time.

A traced name that no longer exists is reported in ``missing`` and its
metrics read 0; nothing is raised.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict

from gen import determinant

# metric prefix -> (module, attribute path); one span per call
SPANNED = {
    "polynomial.parse_polynomial": ("polynomial", "parse_polynomial"),
    "polynomial.transpose": ("polynomial", "InvertiblePolynomial.transpose"),
    "symmetry.closure": ("symmetry", "closure"),
    "symmetry.group_init": ("symmetry", "SymmetryGroup.__init__"),
    "symmetry.diagonal_group": ("symmetry", "diagonal_group"),
    "symmetry.conjugacy_classes": ("symmetry", "SymmetryGroup.conjugacy_classes"),
    "duality.decompose_hk": ("duality", "decompose_hk"),
    "duality.dual_group": ("duality", "dual_group"),
    "duality.nonabelian_dual": ("duality", "nonabelian_dual"),
    "duality.parity_condition": ("duality", "parity_condition"),
    "state_space.invariant_basis": ("state_space", "invariant_basis"),
    "state_space.sector_map": ("state_space", "sector_map"),
    "mirror.full_comparison": ("mirror", "full_comparison"),
    "cli.read_problem": ("cli", "read_problem"),
    "cli.main": ("cli", "main"),
}

# counter name -> (module, attribute path); counted, no spans
COUNTED = {
    "symmetry.compose": ("symmetry", "MonomialSymmetry.__mul__"),
    "symmetry.subgroups": ("symmetry", "SymmetryGroup.subgroups"),
    "state_space.sector_apply": ("state_space", "SectorMap.apply"),
}

# metric prefix -> the lru_caches, as (module, attribute), whose summed hits
# and misses give its hit ratio.  The diagonal group of Wᵀ is enumerated
# behind two caches: duality's candidate cache and diagonal_group's own.
CACHED = {
    "symmetry.diagonal_group": (("symmetry", "diagonal_group"),
                                ("duality", "_dual_candidates")),
    "state_space.build_sector": (("state_space", "build_sector"),),
}

MODULES = ("lgmirror", "lgmirror.polynomial", "lgmirror.symmetry",
           "lgmirror.duality", "lgmirror.state_space", "lgmirror.mirror",
           "lgmirror.cli")

# Every per-layer metric the traced run prints, in print order.
LAYER_METRICS = (
    ("symmetry.compose.calls", "count"),
    ("symmetry.compose.ns", "ns"),
    ("symmetry.closure.calls", "count"),
    ("symmetry.closure.self_s", "s"),
    ("symmetry.closure.elements", "count"),
    ("symmetry.group_init.calls", "count"),
    ("symmetry.group_init.self_s", "s"),
    ("symmetry.diagonal_group.self_s", "s"),
    ("symmetry.diagonal_group.hit_ratio", "ratio"),
    ("symmetry.conjugacy_classes.self_s", "s"),
    ("duality.dual_group.self_s", "s"),
    ("duality.dual_group.accept_ratio", "ratio"),
    ("duality.nonabelian_dual.self_s", "s"),
    ("duality.decompose_hk.self_s", "s"),
    ("duality.parity_condition.self_s", "s"),
    ("duality.parity_condition.subgroups", "count"),
    ("state_space.invariant_basis.A.self_s", "s"),
    ("state_space.invariant_basis.B.self_s", "s"),
    ("state_space.build_sector.calls", "count"),
    ("state_space.build_sector.hit_ratio", "ratio"),
    ("state_space.sector_map.calls", "count"),
    ("state_space.sector_map.self_s", "s"),
    ("state_space.orbit_nodes.visited", "count"),
    ("state_space.orbit_nodes.kept_ratio", "ratio"),
    ("mirror.full_comparison.self_s", "s"),
    ("mirror.pairs", "count"),
    ("cli.read_problem.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("polynomial.parse_polynomial.s", "s"),
    ("polynomial.transpose.calls", "count"),
    ("tracing.overhead_s", "s"),
)

# Metrics that must repeat exactly between two traced runs of one seed.
EXACT_COUNTS = tuple(name for name, _ in LAYER_METRICS
                     if name.endswith(".calls") or name.startswith(
                         ("state_space.orbit_nodes.", "mirror.pairs",
                          "cli.output_bytes")))


def _resolve(module_name, path):
    """(owner, attribute, value) for 'func' or 'Class.method'; None if gone."""
    owner = importlib.import_module(f"lgmirror.{module_name}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    value = owner.__dict__.get(attr) if isinstance(owner, type) else \
        getattr(owner, attr, None)
    if value is None:
        return None
    return owner, attr, value


class Tracer:
    """Holds every span and counter of one traced run in memory."""

    def __init__(self):
        self.spans: list[list] = []       # [name, start_ns, end_ns, parent, op]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self._cache_start: dict = {}
        self._accept: list[tuple] = []    # (exponent rows, |Hᵀ|)
        self._orbits: list[tuple] = []    # (nodes, kept nodes)

    # --- installation ------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        for name, caches in CACHED.items():
            for module, path in caches:
                found = _resolve(module, path)
                if found is None or not hasattr(found[2], "cache_info"):
                    self.missing.add(f"{module}.{path}.cache_info")
                    continue
                self._cache_start.setdefault(name, []).append(
                    (found[2], found[2].cache_info()))
        for name, (module, path) in SPANNED.items():
            found = _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, original = found
            self._replace(modules, owner, attr, original,
                          self._span_wrapper(name, original))
        for name, (module, path) in COUNTED.items():
            found = _resolve(module, path)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, original = found
            self._replace(modules, owner, attr, original,
                          self._count_wrapper(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _replace(self, modules, owner, attr, original, wrapper) -> None:
        if isinstance(owner, type):
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, original))
                    setattr(module, key, wrapper)

    # --- wrappers ------------------------------------------------------------

    def _span_wrapper(self, name, func):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        split_by_side = name == "state_space.invariant_basis"

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span_name = name
            if split_by_side:
                side = args[2] if len(args) > 2 else kwargs.get("side")
                span_name = f"{name}.{side}"
                applies = self.counts["state_space.sector_apply"]
            idx = len(spans)
            spans.append([span_name, clock(), 0,
                          stack[-1] if stack else -1, self.op])
            stack.append(idx)
            try:
                result = func(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if after is not None:
                try:
                    if split_by_side:
                        after(args, result, applies)
                    else:
                        after(args, result)
                except (AttributeError, TypeError, IndexError):
                    self.missing.add(name)
            return result
        return wrapper

    def _count_wrapper(self, name, func):
        counts, clock = self.counts, time.perf_counter_ns
        total = name + ".total_ns"

        if name == "symmetry.subgroups":
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                counts[name] += len(result)
                return result
            return wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            start = clock()
            result = func(*args, **kwargs)
            counts[total] += clock() - start
            counts[name] += 1
            return result
        return wrapper

    # Result hooks: cheap reads of public attributes; the heavier arithmetic
    # waits until raw() so it stays out of every span.

    def _after_symmetry_closure(self, args, result):
        self.counts["symmetry.closure.elements"] += result.order

    def _after_duality_dual_group(self, args, result):
        self._accept.append((args[1].exponents, result.order))

    def _after_state_space_invariant_basis(self, args, result, applies_before):
        applies = self.counts["state_space.sector_apply"] - applies_before
        generators = len(args[1].generators)
        kept = sum(len(v.terms) for v in result)
        # each node is expanded once along every generator move
        nodes = applies // generators if generators else kept
        self._orbits.append((nodes, kept))

    def _after_mirror_full_comparison(self, args, result):
        self.counts["mirror.pairs"] += (len(result.restricted.a0_to_narrow) +
                                        len(result.restricted.narrow_to_b0))

    # --- operations and results --------------------------------------------

    def begin(self, op: int) -> int:
        """Open the root span of operation ``op``; returns its index."""
        self.op = op
        idx = len(self.spans)
        self.spans.append(["op", time.perf_counter_ns(), 0, -1, op])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        """Close the root span opened by ``begin``."""
        self._stack.pop()
        self.spans[idx][2] = time.perf_counter_ns()

    def cache_stats(self) -> dict[str, tuple[int, int]]:
        """(hits, misses) of each traced lru_cache since install()."""
        out = {}
        for name, caches in self._cache_start.items():
            hits = misses = 0
            for func, start in caches:
                now = func.cache_info()
                hits += now.hits - start.hits
                misses += now.misses - start.misses
            out[name] = (hits, misses)
        return out

    def raw(self) -> dict:
        """Additive per-run totals; ``combine`` merges several processes."""
        calls: Counter = Counter()
        self_ns: Counter = Counter()
        total_ns: Counter = Counter()
        child_ns = defaultdict(int)
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            if parent >= 0:
                child_ns[parent] += end - start
        op_total: Counter = Counter()
        op_self: Counter = Counter()
        for idx, (name, start, end, parent, op) in enumerate(self.spans):
            dur = end - start
            own = dur - child_ns[idx]
            if name == "op":
                op_total[op] += dur
            else:
                calls[name] += 1
                self_ns[name] += own
                total_ns[name] += dur
                op_self[op] += own
        accept_num = sum(order for _, order in self._accept)
        accept_den = sum(abs(determinant(rows)) for rows, _ in self._accept)
        return {
            "calls": dict(calls), "self_ns": dict(self_ns),
            "total_ns": dict(total_ns), "counts": dict(self.counts),
            "caches": self.cache_stats(),
            "accept": [accept_num, accept_den],
            "orbits": [sum(n for n, _ in self._orbits),
                       sum(k for _, k in self._orbits)],
            "self_within_total": all(op_self[op] <= op_total[op]
                                     for op in op_total),
            "missing": sorted(self.missing),
        }


def combine(raws: list[dict]) -> dict:
    """Sum the additive totals of several traced processes."""
    out = {"calls": Counter(), "self_ns": Counter(), "total_ns": Counter(),
           "counts": Counter(), "caches": {}, "accept": [0, 0],
           "orbits": [0, 0], "self_within_total": True, "missing": set()}
    for raw in raws:
        for key in ("calls", "self_ns", "total_ns", "counts"):
            out[key].update(raw[key])
        for name, (hits, misses) in raw["caches"].items():
            h, m = out["caches"].get(name, (0, 0))
            out["caches"][name] = (h + hits, m + misses)
        for key in ("accept", "orbits"):
            out[key] = [a + b for a, b in zip(out[key], raw[key])]
        out["self_within_total"] &= raw["self_within_total"]
        out["missing"] |= set(raw["missing"])
    out["missing"] = sorted(out["missing"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(raw: dict, compose_ns: float, overhead_s: float) -> dict:
    """Per-layer metric values by name, from ``raw`` (one or combined)."""
    calls, counts = raw["calls"], raw["counts"]
    self_s = {k: v / 1e9 for k, v in raw["self_ns"].items()}
    total_s = {k: v / 1e9 for k, v in raw["total_ns"].items()}
    hits = {name: _ratio(h, h + m) for name, (h, m) in raw["caches"].items()}
    lookups = {name: h + m for name, (h, m) in raw["caches"].items()}
    nodes, kept = raw["orbits"]
    return {
        "symmetry.compose.calls": counts.get("symmetry.compose", 0),
        "symmetry.compose.ns": compose_ns,
        "symmetry.closure.calls": calls.get("symmetry.closure", 0),
        "symmetry.closure.self_s": self_s.get("symmetry.closure", 0.0),
        "symmetry.closure.elements": counts.get("symmetry.closure.elements", 0),
        "symmetry.group_init.calls": calls.get("symmetry.group_init", 0),
        "symmetry.group_init.self_s": self_s.get("symmetry.group_init", 0.0),
        "symmetry.diagonal_group.self_s": self_s.get("symmetry.diagonal_group", 0.0),
        "symmetry.diagonal_group.hit_ratio": hits.get("symmetry.diagonal_group", 0.0),
        "symmetry.conjugacy_classes.self_s":
            self_s.get("symmetry.conjugacy_classes", 0.0),
        "duality.dual_group.self_s": self_s.get("duality.dual_group", 0.0),
        "duality.dual_group.accept_ratio": _ratio(*raw["accept"]),
        "duality.nonabelian_dual.self_s": self_s.get("duality.nonabelian_dual", 0.0),
        "duality.decompose_hk.self_s": self_s.get("duality.decompose_hk", 0.0),
        "duality.parity_condition.self_s":
            self_s.get("duality.parity_condition", 0.0),
        "duality.parity_condition.subgroups": counts.get("symmetry.subgroups", 0),
        "state_space.invariant_basis.A.self_s":
            self_s.get("state_space.invariant_basis.A", 0.0),
        "state_space.invariant_basis.B.self_s":
            self_s.get("state_space.invariant_basis.B", 0.0),
        "state_space.build_sector.calls": lookups.get("state_space.build_sector", 0),
        "state_space.build_sector.hit_ratio":
            hits.get("state_space.build_sector", 0.0),
        "state_space.sector_map.calls": calls.get("state_space.sector_map", 0),
        "state_space.sector_map.self_s": self_s.get("state_space.sector_map", 0.0),
        "state_space.orbit_nodes.visited": nodes,
        "state_space.orbit_nodes.kept_ratio": _ratio(kept, nodes),
        "mirror.full_comparison.self_s": self_s.get("mirror.full_comparison", 0.0),
        "mirror.pairs": counts.get("mirror.pairs", 0),
        "cli.read_problem.s": total_s.get("cli.read_problem", 0.0),
        "cli.main.self_s": self_s.get("cli.main", 0.0),
        "cli.output_bytes": counts.get("cli.output_bytes", 0),
        "polynomial.parse_polynomial.s": total_s.get("polynomial.parse_polynomial", 0.0),
        "polynomial.transpose.calls": calls.get("polynomial.transpose", 0),
        "tracing.overhead_s": overhead_s,
    }
