"""Equivalence (d) from the orbit action, against the abstract-table route.

``equivalent_conditions`` decides (d), "each stabilizer outside L is normal
in Aut(G) with quotient isomorphic to [H, Aut(G)]", from the group Aut(G)
induces on each orbit. These tests compare it with the |A| x |A| table
route kept in ``oracles.brute_condition_d``, check that it does not read
``AutGroup.orbit_of``, and check that no suite of the verify path builds
the abstract Aut table.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import oracles
from autodegree import degree
from autodegree.automorphisms import (
    AutGroup,
    Automorphism,
    autocentre,
    autocommutator_subgroup,
    compute_aut,
    orbit,
)
from autodegree.catalog import catalog_build, cyclic, symmetric
from autodegree.degree import HypothesisError, equivalent_conditions
from autodegree.groups import (
    enumerate_subgroups,
    find_isomorphism,
    subgroup_as_group,
    subgroup_closure,
)
from autodegree.scan import DEFAULT_CATALOG_NAMES, CatalogEntry, default_catalog, run_scan

ROOT = Path(__file__).resolve().parents[1]
VERIFY_SUITES = ("formulas", "upper", "lower", "equalities", "equivalence")


def d_flags_against_brute(name, cap=24):
    """(new flag, brute flag) for every applicable subgroup of ``name``."""
    g = catalog_build(name)
    A = compute_aut(g, cap=cap)
    out = []
    for h in enumerate_subgroups(g, cap=cap):
        try:
            flag = equivalent_conditions(h, A).stabilizer_quotients_match
        except HypothesisError:
            continue
        out.append((flag, oracles.brute_condition_d(h.members, A)))
    return out


@pytest.mark.parametrize("name", DEFAULT_CATALOG_NAMES)
def test_condition_d_matches_abstract_table_route_on_catalog(name):
    pairs = d_flags_against_brute(name)
    assert all(new == brute for new, brute in pairs)
    if name == "M16":
        assert sum(new for new, _ in pairs) == 6


@pytest.mark.parametrize("name, holds", [("Q8×C(4)", 3), ("D(4)×S(3)", 1)])
def test_condition_d_matches_abstract_table_route_past_the_default_cap(name, holds):
    pairs = d_flags_against_brute(name, cap=64)
    assert all(new == brute for new, brute in pairs)
    assert sum(new for new, _ in pairs) == holds


def test_corrupt_orbit_entry_moves_b_and_c_but_not_d():
    # In Q8×C(4), H = {0..7} has L = [H, A] = {0, 2, 4, 6}, and (d) holds with
    # orbit(1) = 1 [H, A] = {1, 3, 5, 7}. Dropping 7 from that one entry keeps L
    # (the orbit is not a point) and [H, A] (3, 5 and 7 still have full orbits).
    g = catalog_build("Q8×C(4)")
    h = subgroup_closure(g, range(8))
    A = compute_aut(g, cap=64)
    honest = equivalent_conditions(h, A)
    assert honest.flags() == (True,) * 5
    core, ksub = autocentre(h, A), autocommutator_subgroup(h, A)

    A = compute_aut(g, cap=64)
    orbits = A.orbit_of
    assert orbits[1] == (1, 3, 5, 7)
    vars(A)["orbit_of"] = orbits[:1] + ((1, 3, 5),) + orbits[2:]
    assert (autocentre(h, A), autocommutator_subgroup(h, A)) == (core, ksub)
    report = equivalent_conditions(h, A)
    assert not report.orbit_sizes_match
    assert not report.orbit_cosets_match
    assert report.stabilizer_quotients_match


def test_each_orbit_induced_group_is_built_once_per_aut_group(monkeypatch):
    # Aut(S(4)) = Inn(S(4)), so the stabiliser of x is its centraliser, which
    # is not normal for x != 1: each induced group is None, and None is kept.
    g = symmetric(4)
    A = compute_aut(g)
    built = []
    build = degree._induced_on_orbit

    def counting(auts, x):
        result = build(auts, x)
        built.append((x, result is None))
        return result

    monkeypatch.setattr(degree, "_induced_on_orbit", counting)
    for _ in range(2):
        for h in enumerate_subgroups(g):
            try:
                equivalent_conditions(h, A)
            except HypothesisError:
                continue
    points = [x for x, _ in built]
    assert len(points) == len(set(points))
    assert built and all(none for _, none in built)


def test_isomorphism_test_alone_decides_d():
    # A = {id, (4 6)(5 7), (1 3)(4 5)(6 7), (1 3)(4 7)(5 6)} acting on D(4),
    # H = {0, 4}. Stab(4) is trivial, so it is normal and the group induced
    # on orbit(4) has |orbit(4)| = |[H, A]| = 4 elements; but that group is
    # C(2) x C(2) and [H, A] = {0, 1, 2, 3} is C(4). Only the isomorphism
    # test makes (d) false here; comparing orders would make it true.
    g = catalog_build("D(4)")
    images = [
        (0, 1, 2, 3, 4, 5, 6, 7),
        (0, 1, 2, 3, 6, 7, 4, 5),
        (0, 3, 2, 1, 5, 4, 7, 6),
        (0, 3, 2, 1, 7, 6, 5, 4),
    ]
    A = AutGroup(g, tuple(Automorphism(g, image) for image in images))
    A.validate()
    h = subgroup_closure(g, {4})
    assert h.members == (0, 4)
    assert orbit(A, 4) == (4, 5, 6, 7)
    ksub = autocommutator_subgroup(h, A)
    assert ksub.members == (0, 1, 2, 3)
    assert find_isomorphism(subgroup_as_group(g, ksub)[0], cyclic(4)) is not None
    report = equivalent_conditions(h, A)
    assert report.flags() == (True, True, False, False, True)
    assert report.stabilizer_quotients_match == oracles.brute_condition_d(h.members, A)


def refuse_abstract_group(self):
    raise AssertionError("the |A| x |A| abstract Aut table was built")


@pytest.mark.parametrize(
    "catalog, group_cap",
    [
        (None, 24),
        ((CatalogEntry("C(2)×C(2)×D(4)", catalog_build("C(2)×C(2)×D(4)")),), 64),
    ],
    ids=["default catalog", "C(2)×C(2)×D(4)"],
)
def test_verify_suites_never_build_the_aut_table(catalog, group_cap, monkeypatch):
    monkeypatch.setattr(AutGroup, "abstract_group", property(refuse_abstract_group))
    catalog = default_catalog() if catalog is None else catalog
    for suite in VERIFY_SUITES:
        rep = run_scan(suite, max_order=32, catalog=catalog, group_cap=group_cap)
        assert rep.records and not rep.warnings


# The equivalence suite on E(2,4) (order 16, |Aut| = 20160) takes about 1.5 s
# on a 2-vCPU VM, Aut search included; through the abstract Aut table, with
# 406M entries, it did not finish.
E24_EQUIVALENCE_BOUND_S = 30
E24_EQUIVALENCE = """
from autodegree.automorphisms import AutGroup
from autodegree.catalog import catalog_build
from autodegree.scan import CatalogEntry, run_scan

def refuse(self):
    raise AssertionError("the |A| x |A| abstract Aut table was built")

AutGroup.abstract_group = property(refuse)
entry = CatalogEntry("E(2,4)", catalog_build("E(2,4)"))
rep = run_scan("equivalence", max_order=16, catalog=(entry,), group_cap=64)
print(len(rep.records), rep.failures, len(rep.warnings))
"""


def test_e24_equivalence_suite_finishes_within_bound():
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    start = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", E24_EQUIVALENCE], capture_output=True, env=env,
        timeout=E24_EQUIVALENCE_BOUND_S, check=False,
    )
    elapsed = time.monotonic() - start
    assert done.returncode == 0, done.stderr.decode()
    assert done.stdout == b"67 0 0\n"
    assert elapsed < E24_EQUIVALENCE_BOUND_S
