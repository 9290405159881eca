"""The automorphism action table against brute definitions, and its invariants.

``AutGroup.orbit_of`` and ``AutGroup.fixer_count`` are built once per group
and read by every orbit, autocentre, autocommutator and degree; the
per-subgroup records of ``AutGroup.action_on`` keep what is derived from
them once per (H, A). These tests compare what they feed against
definitions computed straight from the image arrays in ``oracles``, check
that corrupting either table or a record's degree breaks formula agreement
(so no degree formula is derived from another), that a record refuses a
foreign subgroup and that a scan validates few subgroups, and that
relabeling the elements leaves every invariant unchanged, the five
equivalence flags included.
"""

import contextlib
import io
import itertools
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from autodegree import cli, groups
from autodegree.automorphisms import (
    ActionOrbit,
    AutGroup,
    SubgroupAction,
    autocentre,
    autocommutator_set,
    autocommutator_subgroup,
    compute_aut,
    compute_inn,
    fixed_subgroup,
    orbit,
    orbits_on_subgroup,
    trivial_stabilizer_set,
)
from autodegree.catalog import catalog_build
from autodegree.degree import (
    HypothesisError,
    degree_report,
    equivalent_conditions,
    pr_commuting,
    pr_definition,
    pr_via_orbits,
)
from autodegree.groups import (
    GroupTable,
    ParentMismatchError,
    SubgroupSet,
    enumerate_subgroups,
    whole_subgroup,
)
from autodegree.scan import DEFAULT_CATALOG_NAMES, CatalogEntry, run_scan


def assert_action_matches_brute(g, A, subgroups):
    table = g.table
    auts = [a.image for a in A.members]
    orbits = {x: oracles.brute_orbit(table, auts, x) for x in g.elements()}
    for x in g.elements():
        assert orbit(A, x) == ActionOrbit(orbits[x][0], orbits[x])
    for h in subgroups:
        hm = h.members
        distinct = sorted({orbits[x] for x in hm})
        assert [o.members for o in orbits_on_subgroup(A, h)] == distinct
        assert autocentre(h, A).members == oracles.brute_autocentre(hm, auts)
        # With A trivial the literal set is all of H; the program returns it empty
        # so that it stays disjoint from the autocentre.
        only_identity = oracles.brute_only_identity_fixes(hm, auts) if len(auts) > 1 else ()
        assert trivial_stabilizer_set(h, A) == only_identity
        assert autocommutator_set(h, A) == oracles.brute_autocommutators(table, hm, auts)
        assert pr_definition(h, A) == oracles.brute_pr(table, hm, auts)


@pytest.mark.parametrize("name", DEFAULT_CATALOG_NAMES)
def test_action_table_matches_brute_definitions(name):
    g = catalog_build(name)
    subgroups = enumerate_subgroups(g)
    for A in (compute_aut(g), compute_inn(g)):
        assert_action_matches_brute(g, A, subgroups)


def test_action_table_matches_brute_definitions_past_the_default_cap():
    g = catalog_build("C(2)×C(2)×D(4)")
    subgroups = enumerate_subgroups(g, cap=32)
    for A in (compute_aut(g, cap=32), compute_inn(g)):
        assert_action_matches_brute(g, A, subgroups)


def test_tables_tally_images_on_member_sets_that_are_not_groups():
    # Off a group, orbit-stabilizer fails: for {id, (1 2), (1 2 3)} acting on the
    # involutions 1, 2, 3 of C(2)xC(2), element 3 has two fixers but |A| / |orbit| = 3/2.
    # Each table must still be a tally of the images, not derived from the other.
    g = catalog_build("C(2)×C(2)")
    full = compute_aut(g)
    for r in range(1, full.size + 1):
        for subset in itertools.combinations(full.members, r):
            A = AutGroup(g, subset)
            auts = [a.image for a in subset]
            for x in g.elements():
                assert A.orbit_of[x].members == oracles.brute_orbit(g.table, auts, x)
                assert A.fixer_count[x] == oracles.brute_fixed_pairs(g.table, (x,), auts)


def corrupted_report(field, corrupt):
    """degree_report of D(4) as a whole after ``corrupt`` rewrites one table of its Aut."""
    g = catalog_build("D(4)")
    A = compute_aut(g)
    h = whole_subgroup(g)
    honest = degree_report(h, A)
    assert honest.formulas_agree()
    A = compute_aut(g)
    vars(A)[field] = corrupt(getattr(A, field))
    return honest, degree_report(h, A)


def test_corrupt_orbit_entry_breaks_formula_agreement():
    # The rotation r = 1 of D(4) has orbit {r, r^3}; add r^2 to it.
    def corrupt(orbits):
        assert orbits[1].members == (1, 3)
        return orbits[:1] + (ActionOrbit(1, (1, 2, 3)),) + orbits[2:]

    honest, report = corrupted_report("orbit_of", corrupt)
    assert not report.formulas_agree()
    assert report.pr_orbit != honest.pr_orbit
    assert (report.pr_definition, report.pr_stab_sum, report.pr_fixed_sum) == (
        honest.pr_definition, honest.pr_stab_sum, honest.pr_fixed_sum
    )


def test_corrupt_fixer_count_entry_breaks_formula_agreement():
    def corrupt(counts):
        return counts[:1] + (counts[1] + 1,) + counts[2:]

    honest, report = corrupted_report("fixer_count", corrupt)
    assert not report.formulas_agree()
    assert report.pr_definition != honest.pr_definition
    assert (report.pr_stab_sum, report.pr_fixed_sum, report.pr_orbit) == (
        honest.pr_stab_sum, honest.pr_fixed_sum, honest.pr_orbit
    )


def test_corrupt_memoised_degree_breaks_formula_agreement_only():
    # The (H, A) record keeps only the fixer-tally degree; the other three
    # formulas and both sides of the Inn bridge must not read it.
    g = catalog_build("D(4)")
    h = whole_subgroup(g)
    honest = degree_report(h, compute_aut(g))
    A, inn = compute_aut(g), compute_inn(g)
    record = A.action_on(h)
    vars(record)["pr"] = record.pr + Fraction(1, 8)
    report = degree_report(h, A)
    assert not report.formulas_agree()
    assert report.pr_definition == honest.pr_definition + Fraction(1, 8)
    assert (report.pr_stab_sum, report.pr_fixed_sum, report.pr_orbit) == (
        honest.pr_stab_sum, honest.pr_fixed_sum, honest.pr_orbit
    )
    assert pr_commuting(h) == pr_definition(h, inn) == pr_via_orbits(h, inn)

    bridge = (pr_commuting(h), pr_via_orbits(h, inn))
    record = inn.action_on(h)
    vars(record)["pr"] = record.pr + Fraction(1, 8)
    assert pr_definition(h, inn) not in bridge
    assert (pr_commuting(h), pr_via_orbits(h, inn)) == bridge
    assert bridge[0] == bridge[1]


@pytest.mark.parametrize(
    "structure",
    [autocentre, autocommutator_set, autocommutator_subgroup, trivial_stabilizer_set, pr_definition],
)
def test_subgroup_of_a_foreign_group_is_refused(structure):
    # Q8 and D(4) both have order 8, so every member index is in range.
    A = compute_aut(catalog_build("D(4)"))
    with pytest.raises(ParentMismatchError):
        structure(whole_subgroup(catalog_build("Q8")), A)


@pytest.mark.parametrize("name", ["C(2)×S(4)", "D(4)×S(3)", "C(2)×C(2)×A(4)"])
def test_scan_builds_at_most_three_subgroup_sets_per_subgroup(name, monkeypatch):
    # One for enumeration, then L and [H, A] once each in the (H, Aut(G)) record.
    entry = CatalogEntry(name, catalog_build(name))
    found = len(enumerate_subgroups(entry.group, cap=48))
    built = []
    validate = SubgroupSet.__post_init__

    def counting(self):
        built.append(self.members)
        validate(self)

    monkeypatch.setattr(SubgroupSet, "__post_init__", counting)
    run_scan("all", max_order=48, catalog=(entry,), group_cap=48)
    assert len(built) <= 3 * found


def serving_pair(frame):
    """(A, H) of the nearest caller that holds an automorphism group and a subgroup."""
    while frame is not None:
        names = frame.f_locals
        if isinstance(names.get("self"), SubgroupAction):
            return names["self"].auts, names["self"].subgroup.members
        if isinstance(names.get("A"), AutGroup) and isinstance(names.get("H"), SubgroupSet):
            return names["A"], names["H"].members
        frame = frame.f_back
    raise AssertionError("called outside every (H, A)")


@pytest.mark.parametrize("builder", ["quotient_group", "subgroup_as_group"])
def test_verify_builds_each_quotient_and_commutator_table_once(builder, monkeypatch):
    # H/L and [H, A] as its own group are kept in the (H, A) record, so the
    # equality, equivalence and isoclinism suites share one of each.
    real = getattr(groups, builder)
    served = []

    def counting(*args):
        A, members = serving_pair(sys._getframe(1))
        served.append((A, members))
        return real(*args)

    for name, mod in list(sys.modules.items()):
        if (name == "autodegree" or name.startswith("autodegree.")) and getattr(mod, builder, None) is real:
            monkeypatch.setattr(mod, builder, counting)
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["verify", "--suite", "all", "--max-order", "24", "--format", "kv"]) == 1
    assert served
    repeats = Counter((id(A), members) for A, members in served)
    assert max(repeats.values()) == 1


@pytest.mark.parametrize("name", DEFAULT_CATALOG_NAMES)
def test_fixed_points_inside_every_subgroup_form_a_subgroup(name):
    g = catalog_build(name)
    A = compute_aut(g)
    for h in enumerate_subgroups(g):
        for a in A.members:
            fixed = fixed_subgroup(h, a)
            assert fixed.members == tuple(x for x in h.members if a.image[x] == x)


def relabeled(g, perm):
    """g with element x renamed perm[x]; perm fixes 0, so the identity stays at 0."""
    n = g.order
    rows = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            rows[perm[a]][perm[b]] = perm[g.table[a][b]]
    return GroupTable(tuple(tuple(r) for r in rows), name=g.name)


def equivalence_flags(h, A):
    """The five equivalence flags of (H, A), or None where they do not apply."""
    try:
        return equivalent_conditions(h, A).flags()
    except HypothesisError:
        return None


def invariants(g):
    A = compute_aut(g)
    subgroups = enumerate_subgroups(g)
    reports = [(degree_report(h, A), equivalence_flags(h, A)) for h in subgroups]
    return (
        A.size,
        Counter(o.size for o in orbits_on_subgroup(A, whole_subgroup(g))),
        Counter(h.size for h in subgroups),
        Counter(
            (r.size_h, r.pr_definition, r.size_autocentre, r.size_trivial_stabilizer,
             r.size_commutator_set, r.size_commutator_subgroup, flags)
            for r, flags in reports
        ),
    )


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_relabeling_elements_changes_no_invariant(data):
    g = catalog_build(data.draw(st.sampled_from(DEFAULT_CATALOG_NAMES)))
    perm = (0,) + tuple(data.draw(st.permutations(range(1, g.order))))
    assert invariants(relabeled(g, perm)) == invariants(g)
