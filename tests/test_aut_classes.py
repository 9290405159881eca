"""Aut(G)-classes of subgroups: an oracle that scan records ignore element labels.

An automorphism alpha carries H onto alpha(H) and conjugates Aut(G) onto
itself, so it carries the orbits, L, X, S and [H, A] of H onto those of
alpha(H). Every record of the formulas, upper, lower, equalities and
equivalence suites is therefore the same for H and alpha(H): name, status,
value, bound and detail. A route that reads element labels where it should
read structure gives class-mates different records.
"""

from collections import defaultdict
from fractions import Fraction

import pytest

from autodegree import degree
from autodegree.automorphisms import compute_aut
from autodegree.catalog import catalog_build
from autodegree.scan import DEFAULT_CATALOG_NAMES, CatalogEntry, run_scan

# The wide_aut_scan and deep_lattice_scan groups of the benchmark, past the CLI cap.
SCAN_GROUPS = ("Q8×C(4)", "C(2)×C(2)×C(8)", "C(2)×C(2)×C(2)×C(3)",
               "C(2)×S(4)", "D(4)×S(3)", "C(2)×C(2)×A(4)")
CAP = 48
# Aut-class counts of the deep lattices and of Q8×C(4), as first probed.
CLASS_COUNTS = {"C(2)×S(4)": 26, "D(4)×S(3)": 34, "C(2)×C(2)×A(4)": 20, "Q8×C(4)": 16}


def _members(label: str, order: int) -> tuple[int, ...]:
    return tuple(range(order)) if label == "whole" else tuple(map(int, label.split(",")))


def class_mismatches(name: str) -> tuple[int, list[str]]:
    """(number of Aut-classes, records that differ from a class-mate's or a mapped pair's).

    Records are keyed by the subgroup, or by the pair (H, K) of a
    monotonicity record; each key's records, in scan order, must equal those
    of its image under every automorphism.
    """
    g = catalog_build(name)
    report = run_scan("all", max_order=CAP, catalog=(CatalogEntry(name, g),), group_cap=CAP)
    records = defaultdict(list)
    for r in report.records:
        if r.suite == "isoclinism":
            continue
        key = tuple(_members(part, g.order) for part in r.subgroup.split("<="))
        records[key].append((r.suite, r.name, r.status, r.value, r.bound, r.detail))
    maps = list(compute_aut(g, cap=CAP).images)

    def image(alpha, members):
        return tuple(sorted(alpha[x] for x in members))

    classes = {frozenset(image(alpha, key[0]) for alpha in maps)
               for key in records if len(key) == 1}
    bad = [
        f"{name} {key} -> {mapped}"
        for key, recs in records.items()
        for mapped in {tuple(image(alpha, m) for m in key) for alpha in maps}
        if records.get(mapped) != recs
    ]
    return len(classes), bad


@pytest.mark.parametrize("name", DEFAULT_CATALOG_NAMES + SCAN_GROUPS)
def test_aut_class_mates_have_the_same_records(name):
    classes, bad = class_mismatches(name)
    assert bad == []
    assert CLASS_COUNTS.get(name, classes) == classes


def test_a_label_dependent_route_is_caught(monkeypatch):
    # Shift the orbit-average degree by the least non-identity label of H:
    # class-mates usually differ in it, so formula_agreement differs too.
    honest = degree.pr_via_orbits

    def by_label(H, A):
        return honest(H, A) + Fraction(min(H.members[1:], default=0), 10**6)

    monkeypatch.setattr(degree, "pr_via_orbits", by_label)
    _, bad = class_mismatches("D(4)")
    assert bad
