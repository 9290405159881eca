"""In-process span tracing from outside the program, and the per-layer metrics.

``Tracer.install`` replaces the public functions of each layer with
span-recording wrappers in every ``autodegree`` module namespace that binds
them (``from .x import y`` included), and wraps a few methods on their
classes. ``uninstall`` puts every original back. Spans stay in memory as
``[name, start_ns, end_ns, parent, op]`` lists until written out.

The layers are the package's modules. A span's self time is its duration
minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional

_now = time.perf_counter_ns

# (module, function, span name, counter fed by the result or None)
FUNCTIONS: tuple[tuple[str, str, str, Optional[tuple[str, Callable]]], ...] = (
    ("cli", "main", "cli.main", None),
    ("scan", "run_scan", "scan.run_scan", ("scan.records", lambda r: len(r.records))),
    ("scan", "render_scan_kv", "reporting.render_scan_kv", None),
    ("scan", "render_scan_human", "reporting.render_scan_human", None),
    ("catalog", "catalog_build", "catalog.build", None),
    ("groups", "enumerate_subgroups", "groups.enumerate_subgroups", ("groups.subgroups_found", len)),
    ("groups", "find_isomorphism", "groups.iso_search", ("groups.iso_search.calls", lambda r: 1)),
    ("groups", "quotient_group", "groups.quotient", None),
    ("groups", "is_normal", "groups.is_normal", None),
    ("automorphisms", "compute_aut", "automorphisms.compute_aut",
     ("automorphisms.aut_members", lambda a: a.size)),
    ("automorphisms", "autocentre", "automorphisms.autocentre", None),
    ("automorphisms", "autocommutator_set", "automorphisms.autocommutator_set", None),
    ("automorphisms", "orbit", "automorphisms.orbit", None),
    ("automorphisms", "stabilizer", "automorphisms.stabilizer", None),
    ("automorphisms", "fixed_subgroup", "automorphisms.fixed_subgroup", None),
    ("degree", "degree_report", "degree.degree_report", None),
    ("degree", "pr_definition", "degree.pr_definition", None),
    ("degree", "pr_via_sums", "degree.pr_via_sums", None),
    ("degree", "pr_via_orbits", "degree.pr_via_orbits", None),
    ("degree", "pr_commuting", "degree.pr_commuting", None),
    ("degree", "pr_le_commuting", "degree.pr_le_commuting", None),
    ("degree", "bound_upper_main", "degree.bound_upper_main", None),
    ("degree", "bound_upper_pq", "degree.bound_upper_pq", None),
    ("degree", "bound_upper_nonabelian", "degree.bound_upper_nonabelian", None),
    ("degree", "bound_lower_main", "degree.bound_lower_main", None),
    ("degree", "bound_lower_S", "degree.bound_lower_S", None),
    ("degree", "bound_lower_commutator", "degree.bound_lower_commutator", None),
    ("degree", "check_monotonicity", "degree.check_monotonicity", None),
    ("degree", "classify_equality_pq", "degree.classify_equality_pq", None),
    ("degree", "classify_equality_pq2", "degree.classify_equality_pq2", None),
    ("degree", "converse_check", "degree.converse_check", None),
    ("degree", "equivalent_conditions", "degree.equivalent_conditions", None),
    ("isoclinism", "make_pair", "isoclinism.make_pair", None),
    ("isoclinism", "find_autoisoclinism", "isoclinism.find_autoisoclinism", None),
    ("isoclinism", "verify_witness", "isoclinism.verify_witness", None),
    ("reporting", "render_degree_kv", "reporting.render_degree_kv", None),
    ("reporting", "render_degree_human", "reporting.render_degree_human", None),
    ("reporting", "describe_check", "reporting.describe_check", None),
    ("reporting", "describe_equality", "reporting.describe_equality", None),
    ("reporting", "describe_equivalence", "reporting.describe_equivalence", None),
)

# (module, class, method, span name); the suites are the scan's per-suite methods.
METHODS: tuple[tuple[str, str, str, str], ...] = (
    ("groups", "SubgroupSet", "__post_init__", "groups.subgroupset"),
    ("automorphisms", "Automorphism", "cycle_notation", "automorphisms.cycle_notation"),
) + tuple(
    ("scan", "_Scan", suite, f"scan.suite.{suite}")
    for suite in ("formulas", "upper", "lower", "equalities", "equivalence", "isoclinism")
)

# (module, class, cached property, span name)
CACHED_PROPERTIES = (("automorphisms", "AutGroup", "abstract_group", "automorphisms.abstract_group"),)

STRUCTURES = frozenset(
    f"automorphisms.{f}"
    for f in ("autocentre", "autocommutator_set", "orbit", "stabilizer", "fixed_subgroup")
)
FORMULAS = frozenset(
    f"degree.{f}" for f in ("pr_definition", "pr_via_sums", "pr_via_orbits", "pr_commuting")
)
BOUNDS = frozenset(
    f"degree.{f}"
    for f in ("pr_le_commuting", "bound_upper_main", "bound_upper_pq", "bound_upper_nonabelian",
              "bound_lower_main", "bound_lower_S", "bound_lower_commutator", "check_monotonicity")
)
EQUALITIES = frozenset(
    f"degree.{f}" for f in ("classify_equality_pq", "classify_equality_pq2", "converse_check")
)
RENDER = frozenset(
    f"reporting.{f}"
    for f in ("render_scan_kv", "render_scan_human", "render_degree_kv", "render_degree_human",
              "describe_check", "describe_equality", "describe_equivalence")
)
# Spans whose self time is glue outside every named layer.
ENTRY = frozenset({"op", "cli.main", "scan.run_scan"})

# metric -> (kind, argument). Kinds: "self" sums self time over span names;
# "total" sums the durations of spans with no ancestor among the names;
# "calls" counts spans; "counter" reads a counter.
LAYER_METRICS: dict[str, tuple[str, object]] = {
    "cli.main.self_s": ("self", {"cli.main"}),
    "cli.output_bytes": ("counter", "cli.output_bytes"),
    "scan.run_scan.self_s": ("self", {"scan.run_scan"}),
    "scan.records": ("counter", "scan.records"),
    **{
        f"scan.suite.{s}_s": ("total", {f"scan.suite.{s}"})
        for s in ("formulas", "upper", "lower", "equalities", "equivalence", "isoclinism")
    },
    "catalog.build_s": ("total", {"catalog.build"}),
    "catalog.groups_built": ("calls", {"catalog.build"}),
    "groups.enumerate_subgroups_s": ("total", {"groups.enumerate_subgroups"}),
    "groups.subgroups_found": ("counter", "groups.subgroups_found"),
    "groups.subgroupset.calls": ("calls", {"groups.subgroupset"}),
    "groups.subgroupset.self_s": ("self", {"groups.subgroupset"}),
    "groups.aut_search_s": ("total", {"groups.aut_search"}),
    "groups.iso_search.calls": ("counter", "groups.iso_search.calls"),
    "groups.iso_search_s": ("total", {"groups.iso_search"}),
    "groups.quotient.calls": ("calls", {"groups.quotient"}),
    "groups.quotient_s": ("total", {"groups.quotient"}),
    "groups.is_normal_s": ("total", {"groups.is_normal"}),
    "automorphisms.compute_aut_s": ("total", {"automorphisms.compute_aut"}),
    "automorphisms.aut_members": ("counter", "automorphisms.aut_members"),
    "automorphisms.aut_closure_s": ("self", {"automorphisms.compute_aut"}),
    "automorphisms.abstract_group_s": ("total", {"automorphisms.abstract_group"}),
    **{
        f"automorphisms.{f}.calls": ("calls", {f"automorphisms.{f}"})
        for f in ("autocentre", "autocommutator_set", "orbit", "stabilizer", "fixed_subgroup")
    },
    "automorphisms.structures_s": ("self", STRUCTURES),
    "automorphisms.cycle_notation.calls": ("calls", {"automorphisms.cycle_notation"}),
    "automorphisms.cycle_notation_s": ("total", {"automorphisms.cycle_notation"}),
    "degree.degree_report.calls": ("calls", {"degree.degree_report"}),
    "degree.degree_report_s": ("total", {"degree.degree_report"}),
    "degree.pr_definition.calls": ("calls", {"degree.pr_definition"}),
    "degree.formulas.self_s": ("self", FORMULAS),
    "degree.bounds_s": ("total", BOUNDS),
    "degree.equalities_s": ("total", EQUALITIES),
    "degree.equivalent_conditions_s": ("total", {"degree.equivalent_conditions"}),
    "isoclinism.make_pair_s": ("total", {"isoclinism.make_pair"}),
    "isoclinism.find_autoisoclinism.calls": ("calls", {"isoclinism.find_autoisoclinism"}),
    "isoclinism.find_autoisoclinism_s": ("total", {"isoclinism.find_autoisoclinism"}),
    "isoclinism.verify_s": ("total", {"isoclinism.verify_witness"}),
    "reporting.render_s": ("total", RENDER),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter[str] = Counter()
        self.op: Optional[str] = None
        self._undo: list[tuple[object, str, object]] = []

    # ----- recording ------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, _now(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = _now()
        self.stack.pop()

    def wrap(self, name: str, fn: Callable, counter=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if counter is not None:
                self.counters[counter[0]] += counter[1](result)
            return result

        return traced

    def timed_iter(self, name: str, gen: Iterator) -> Iterator:
        """Yield from ``gen``, recording one span per ``next()``."""
        while True:
            idx = self.open(name)
            try:
                item = next(gen)
            except StopIteration:
                return
            finally:
                self.close(idx)
            yield item

    def _iter_isomorphisms(self, original: Callable) -> Callable:
        """Aut search under compute_aut, iso search elsewhere.

        A call made by find_isomorphism is already inside its span.
        """
        @functools.wraps(original)
        def traced(G1, G2):
            parent = self.spans[self.stack[-1]][0] if self.stack else None
            gen = original(G1, G2)
            if parent == "groups.iso_search":
                return gen
            if parent == "automorphisms.compute_aut":
                return self.timed_iter("groups.aut_search", gen)
            self.counters["groups.iso_search.calls"] += 1
            return self.timed_iter("groups.iso_search", gen)

        return traced

    # ----- installing -----------------------------------------------------

    def install(self) -> None:
        import autodegree.cli  # noqa: F401  (loads every module the CLI binds)

        modules = [m for k, m in sys.modules.items()
                   if k == "autodegree" or k.startswith("autodegree.")]
        replacements = {}
        for mod, fn, span, counter in FUNCTIONS:
            original = getattr(sys.modules[f"autodegree.{mod}"], fn)
            replacements[id(original)] = (original, self.wrap(span, original, counter))
        original = sys.modules["autodegree.groups"].iter_isomorphisms
        replacements[id(original)] = (original, self._iter_isomorphisms(original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    self._set(module, attr, hit[1])
        for mod, cls_name, method, span in METHODS:
            cls = getattr(sys.modules[f"autodegree.{mod}"], cls_name)
            self._set(cls, method, self.wrap(span, cls.__dict__[method]))
        for mod, cls_name, prop, span in CACHED_PROPERTIES:
            cls = getattr(sys.modules[f"autodegree.{mod}"], cls_name)
            wrapped = functools.cached_property(self.wrap(span, cls.__dict__[prop].func))
            wrapped.__set_name__(cls, prop)
            self._set(cls, prop, wrapped)

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, getattr(owner, "__dict__")[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # ----- output ---------------------------------------------------------

    def write(self, path: Path) -> None:
        """All spans as JSON: names interned, times in ns from the first span."""
        names: dict[str, int] = {}
        t0 = self.spans[0][1] if self.spans else 0
        rows = [
            [names.setdefault(n, len(names)), s - t0, e - t0, p, op]
            for n, s, e, p, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "op"],
               "names": list(names), "spans": rows}
        path.write_text(json.dumps(doc, separators=(",", ":"), ensure_ascii=False),
                        encoding="utf-8")


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[int, int]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0, start
        for s, e in sorted(children.get(i, ())):
            s, e = max(s, reach), min(e, end)
            if e > s:
                covered += e - s
                reach = e
        out.append(end - start - covered)
    return out


def _outermost(spans: list[list], names: Iterable[str]) -> Iterator[int]:
    """Indices of spans named in ``names`` with no ancestor named in it."""
    names = set(names)
    for i, span in enumerate(spans):
        if span[0] not in names:
            continue
        p = span[3]
        while p >= 0 and spans[p][0] not in names:
            p = spans[p][3]
        if p < 0:
            yield i


def layer_metrics(spans: list[list], counters: Counter) -> dict[str, float]:
    """Every per-layer metric of LAYER_METRICS, plus trace.coverage."""
    selfs = self_times(spans)
    out: dict[str, float] = {}
    for metric, (kind, arg) in LAYER_METRICS.items():
        if kind == "counter":
            out[metric] = counters[arg]
        elif kind == "calls":
            out[metric] = sum(1 for s in spans if s[0] in arg)
        elif kind == "self":
            out[metric] = sum(t for s, t in zip(spans, selfs) if s[0] in arg) / 1e9
        else:
            out[metric] = sum(spans[i][2] - spans[i][1] for i in _outermost(spans, arg)) / 1e9
    roots = sum(s[2] - s[1] for s in spans if s[0] == "op")
    glue = sum(t for s, t in zip(spans, selfs) if s[0] in ENTRY)
    out["trace.coverage"] = 1 - glue / roots if roots else 0.0
    return out
