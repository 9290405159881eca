"""Automorphism engine: Aut/Inn computation and action-derived structures."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from autodegree import automorphisms
from autodegree.catalog import catalog_build, cyclic, quaternion8, symmetric
from autodegree.automorphisms import (
    AutGroup,
    autocentre,
    autocommutator_set,
    autocommutator_subgroup,
    compute_aut,
    coset_autocommutator,
    compute_inn,
    fixed_subgroup,
    orbit,
    orbits_on_subgroup,
    stabilizer,
    trivial_stabilizer_set,
)
from autodegree.groups import (
    InvariantError,
    ParentMismatchError,
    SizeCapError,
    SubgroupSet,
    enumerate_subgroups,
    iter_isomorphisms,
    subgroup_as_group,
    subgroup_closure,
    trivial_subgroup,
    whole_subgroup,
)
from autodegree.scan import CatalogEntry, run_scan


def aut_of(name: str) -> tuple:
    g = catalog_build(name)
    return g, compute_aut(g)


class TestComputeAut:
    def test_trivial_group(self):
        g, a = aut_of("C(1)")
        assert a.size == 1
        assert a.members[0].is_identity()

    def test_z3_has_identity_and_inversion(self):
        g, a = aut_of("C(3)")
        assert a.size == 2
        assert a.members[1].image == (0, 2, 1)

    def test_s3(self):
        _, a = aut_of("S(3)")
        assert a.size == 6

    def test_q8(self):
        _, a = aut_of("Q8")
        assert a.size == 24

    @pytest.mark.parametrize(
        "name",
        ["C(1)", "C(2)", "C(3)", "C(4)", "C(5)", "C(6)", "C(7)", "C(8)",
         "C(2)×C(2)", "C(2)×C(4)", "C(2)×C(2)×C(2)", "D(3)", "D(4)", "Q8"],
    )
    def test_matches_permutation_filter_oracle(self, name):
        g = catalog_build(name)
        a = compute_aut(g)
        assert [m.image for m in a.members] == oracles.brute_automorphisms(g.table)

    @pytest.mark.parametrize("name", ["C(1)", "C(6)", "C(2)×C(2)×C(2)", "D(4)", "Q8"])
    def test_generator_image_oracle_matches_permutation_filter(self, name):
        table = catalog_build(name).table
        assert oracles.generator_automorphisms(table) == oracles.brute_automorphisms(table)

    @pytest.mark.parametrize(
        "name,size",
        [("M16", 16), ("Dic(3)", 12), ("D(8)", 32), ("C(2)×Q8", 192),
         ("C(2)×C(2)×C(4)", 192), ("C(3)×C(3)", 48), ("A(4)", 24), ("S(4)", 24)],
    )
    def test_matches_generator_image_oracle_past_order_8(self, name, size):
        g = catalog_build(name)
        images = [m.image for m in compute_aut(g).members]
        assert images == oracles.generator_automorphisms(g.table)
        assert len(images) == size

    def test_members_sorted_lexicographically(self):
        _, a = aut_of("C(8)")
        images = [m.image for m in a.members]
        assert images == sorted(images)
        assert a.members[0].is_identity()

    def test_cap(self):
        with pytest.raises(SizeCapError):
            compute_aut(catalog_build("C(16)"), cap=8)

    def test_group_axioms_on_members(self):
        _, a = aut_of("D(4)")
        a.validate()

    @pytest.mark.parametrize("name", ["S(3)", "C(5)", "Q8"])
    def test_validate_rejects_a_set_missing_one_member(self, name):
        g, a = aut_of(name)
        for dropped in range(a.size):
            rest = a.members[:dropped] + a.members[dropped + 1:]
            with pytest.raises(InvariantError):
                AutGroup(g, rest).validate()

    @pytest.mark.parametrize("name", ["S(3)", "C(5)", "D(4)"])
    def test_enumeration_dropping_one_automorphism_is_caught(self, name, monkeypatch):
        g, full = aut_of(name)
        for dropped in full.members:
            def search(G1, G2, dropped=dropped):
                return (h for h in iter_isomorphisms(G1, G2) if h.image != dropped.image)

            monkeypatch.setattr(automorphisms, "iter_isomorphisms", search)
            with pytest.raises(InvariantError, match="not closed under composition"):
                compute_aut(g)

    def test_validate_rejects_a_repeated_member(self):
        # Repeated, the inversion would weigh twice: |A| = 3 and Pr = 5/9, not 2/3.
        g, a = aut_of("C(3)")
        identity, inversion = a.members
        with pytest.raises(InvariantError, match="strictly increasing"):
            AutGroup(g, (identity, inversion, inversion)).validate()

    def test_enumeration_listing_a_map_twice_is_caught(self, monkeypatch):
        # The closure recheck reads the members as a set, so it cannot see a repeat.
        def search(G1, G2):
            for h in iter_isomorphisms(G1, G2):
                yield h
                yield h

        monkeypatch.setattr(automorphisms, "iter_isomorphisms", search)
        with pytest.raises(InvariantError, match="twice"):
            compute_aut(catalog_build("C(3)"))

    def test_c2_c2_d4_past_the_default_cap(self):
        assert compute_aut(catalog_build("C(2)×C(2)×D(4)"), cap=32).size == 3072

    def test_abstract_group_composition_consistent(self):
        _, a = aut_of("C(5)")
        t = a.abstract_group
        assert t.order == 4
        for i, x in enumerate(a.members):
            for j, y in enumerate(a.members):
                assert a.members[t.table[i][j]].image == tuple(x.image[k] for k in y.image)


class TestComputeInn:
    def test_abelian_trivial(self):
        assert compute_inn(cyclic(6)).size == 1

    def test_s3(self):
        assert compute_inn(symmetric(3)).size == 6

    def test_q8(self):
        assert compute_inn(quaternion8()).size == 4

    @pytest.mark.parametrize("name", ["S(3)", "D(4)", "Q8", "A(4)", "Dic(3)", "M16"])
    def test_inn_size_and_containment(self, name):
        g = catalog_build(name)
        inn = compute_inn(g)
        aut = compute_aut(g)
        assert inn.size == g.order // len(oracles.brute_center(g.table))
        aut_images = {m.image for m in aut.members}
        assert all(m.image in aut_images for m in inn.members)


class TestAutocommutator:
    def test_identity_automorphism_gives_identity(self):
        g, a = aut_of("C(4)")
        for x in g.elements():
            assert coset_autocommutator(g, (x,), a.members[0]) == 0

    def test_z4_inversion(self):
        g, a = aut_of("C(4)")
        inversion = a.members[1]
        assert inversion.image == (0, 3, 2, 1)
        assert coset_autocommutator(g, (1,), inversion) == 2

    def test_fixed_points_give_identity(self):
        g, a = aut_of("C(4)")
        core = autocentre(whole_subgroup(g), a)
        for x in core.members:
            for alpha in a.members:
                assert coset_autocommutator(g, (x,), alpha) == 0

    def test_parent_mismatch(self):
        g, a = aut_of("C(4)")
        with pytest.raises(ParentMismatchError):
            coset_autocommutator(cyclic(5), (1,), a.members[1])

    def test_fixed_subgroup_refuses_a_foreign_automorphism(self):
        # Every index of C(4) is in range for an automorphism of C(8), so
        # without the parent check its fixed points inside C(4) would be read.
        g, _ = aut_of("C(4)")
        for alpha in compute_aut(cyclic(8)).members:
            with pytest.raises(ParentMismatchError):
                fixed_subgroup(whole_subgroup(g), alpha)


class TestOrbitsAndStabilizers:
    def test_orbit_of_generator_z4(self):
        g, a = aut_of("C(4)")
        assert orbit(a, 1) == (1, 3)

    def test_orbit_of_identity(self):
        g, a = aut_of("S(3)")
        assert orbit(a, 0) == (0,)

    def test_orbit_of_transposition_s3(self):
        g, a = aut_of("S(3)")
        assert orbit(a, 1) == (1, 2, 5)

    def test_orbit_stabilizer_product(self):
        for name in ["C(4)", "C(6)", "S(3)", "Q8", "D(4)"]:
            g, a = aut_of(name)
            for x in g.elements():
                assert len(orbit(a, x)) * stabilizer(a, x).size == a.size

    def test_stabilizer_of_identity_is_whole(self):
        g, a = aut_of("S(3)")
        assert stabilizer(a, 0).size == a.size

    def test_stabilizer_z4_generator(self):
        g, a = aut_of("C(4)")
        s = stabilizer(a, 1)
        assert s.size == 1
        assert s.members[0].is_identity()

    def test_orbits_partition_group(self):
        for name in ["C(8)", "S(3)", "Q8", "A(4)"]:
            g, a = aut_of(name)
            seen = []
            for x in g.elements():
                seen.append(orbit(a, x))
            distinct = {m for m in seen}
            flat = sorted(e for ms in distinct for e in ms)
            assert flat == list(g.elements())

    def test_orbits_on_subgroup(self):
        g, a = aut_of("C(4)")
        whole = whole_subgroup(g)
        assert orbits_on_subgroup(a, whole) == [(0,), (1, 3), (2,)]
        assert orbits_on_subgroup(a, trivial_subgroup(g)) == [(0,)]

    def test_orbits_on_a3_inside_s3(self):
        s3, a = aut_of("S(3)")
        a3 = subgroup_closure(s3, {3})
        assert orbits_on_subgroup(a, a3) == [(0,), (3, 4)]

    def test_orbit_may_leave_subgroup(self):
        s3, a = aut_of("S(3)")
        h = subgroup_closure(s3, {1})
        assert orbits_on_subgroup(a, h) == [(0,), (1, 2, 5)]


class TestFixedStructures:
    def test_fixed_subgroup_identity(self):
        g, a = aut_of("S(3)")
        h = whole_subgroup(g)
        assert fixed_subgroup(h, a.members[0]).members == h.members

    def test_fixed_subgroup_z4_inversion(self):
        g, a = aut_of("C(4)")
        assert fixed_subgroup(whole_subgroup(g), a.members[1]).members == (0, 2)

    def test_fixed_subgroup_s3_inner(self):
        g = catalog_build("S(3)")
        inn = compute_inn(g)
        # conjugation by a transposition fixes exactly {e, that transposition}
        sizes = sorted(fixed_subgroup(whole_subgroup(g), m).size for m in inn.members)
        assert sizes == [2, 2, 2, 3, 3, 6]

    def test_autocentre_identity_only_aut(self):
        g = cyclic(2)
        a = compute_aut(g)
        assert a.size == 1
        h = whole_subgroup(g)
        assert autocentre(h, a).members == h.members

    def test_autocentre_z4(self):
        g, a = aut_of("C(4)")
        assert autocentre(whole_subgroup(g), a).members == (0, 2)

    def test_autocentre_s3_trivial(self):
        g, a = aut_of("S(3)")
        assert autocentre(whole_subgroup(g), a).members == (0,)

    def test_autocentre_inside_center(self):
        for name in ["C(4)", "C(6)", "S(3)", "Q8", "D(4)", "M16", "Dic(3)"]:
            g, a = aut_of(name)
            for h in (whole_subgroup(g), trivial_subgroup(g)):
                core = autocentre(h, a)
                assert core.member_set <= (h.member_set & set(oracles.brute_center(g.table)))


class TestAutocommutatorSets:
    def test_identity_only(self):
        g = cyclic(2)
        a = compute_aut(g)
        assert autocommutator_set(whole_subgroup(g), a) == (0,)
        assert autocommutator_subgroup(whole_subgroup(g), a).members == (0,)

    def test_z4(self):
        g, a = aut_of("C(4)")
        h = whole_subgroup(g)
        assert autocommutator_set(h, a) == (0, 2)
        assert autocommutator_subgroup(h, a).members == (0, 2)

    def test_z3_set_is_whole_group(self):
        g, a = aut_of("C(3)")
        assert autocommutator_set(whole_subgroup(g), a) == (0, 1, 2)

    def test_s3_against_closure_oracle(self):
        g, a = aut_of("S(3)")
        h = whole_subgroup(g)
        auts = [m.image for m in a.members]
        brute_set = oracles.brute_autocommutators(g.table, h.members, auts)
        assert autocommutator_set(h, a) == brute_set
        assert autocommutator_subgroup(h, a).members == oracles.brute_closure(g.table, brute_set)

    def test_subgroup_at_least_as_big_as_set(self):
        for name in ["C(8)", "S(3)", "Q8", "D(4)", "A(4)", "M16"]:
            g, a = aut_of(name)
            h = whole_subgroup(g)
            assert autocommutator_subgroup(h, a).size >= len(autocommutator_set(h, a))


class TestTrivialStabilizerSet:
    def test_z4(self):
        g, a = aut_of("C(4)")
        assert trivial_stabilizer_set(whole_subgroup(g), a) == (1, 3)

    def test_trivial_aut_special_case(self):
        g = cyclic(2)
        a = compute_aut(g)
        assert trivial_stabilizer_set(whole_subgroup(g), a) == ()

    def test_disjoint_from_autocentre(self):
        for name in ["C(2)", "C(4)", "C(6)", "S(3)", "Q8", "D(4)", "M16"]:
            g, a = aut_of(name)
            h = whole_subgroup(g)
            xs = set(trivial_stabilizer_set(h, a))
            ls = autocentre(h, a).member_set
            assert not (xs & ls)


class TestConjugacyClasses:
    def test_abelian_singletons(self):
        g = cyclic(5)
        for x in g.elements():
            assert orbit(compute_inn(g), x) == (x,)

    def test_s3_transposition_class(self):
        g = catalog_build("S(3)")
        assert orbit(compute_inn(g), 1) == (1, 2, 5)

    def test_class_inside_aut_orbit(self):
        for name in ["S(3)", "Q8", "D(4)", "A(4)"]:
            g, a = aut_of(name)
            for x in g.elements():
                assert set(orbit(compute_inn(g), x)) <= set(orbit(a, x))

    def test_classes_partition(self):
        g = catalog_build("D(4)")
        reps = {orbit(compute_inn(g), x) for x in g.elements()}
        flat = sorted(e for ms in reps for e in ms)
        assert flat == list(g.elements())


class TestAutomorphismBasics:
    def test_cycle_notation(self):
        g, a = aut_of("C(4)")
        assert a.members[0].cycle_notation() == "id"
        assert a.members[1].cycle_notation() == "(1 3)"

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_stabilizers_are_subgroups(self, data):
        name = data.draw(st.sampled_from(["C(6)", "C(8)", "S(3)", "D(4)", "Q8"]))
        g = catalog_build(name)
        a = compute_aut(g)
        x = data.draw(st.integers(0, g.order - 1))
        stab = stabilizer(a, x)
        stab.validate()


def _lattice_and_aut(name: str) -> tuple:
    g = catalog_build(name)
    return g, enumerate_subgroups(g, cap=48), compute_aut(g, cap=48)


def _record_rows(report) -> list[tuple]:
    return [(r.suite, r.group, r.subgroup, r.name, r.status, r.value, r.bound, r.detail)
            for r in report.records]


@pytest.mark.parametrize("name", ["D(4)×S(3)", "C(2)×S(4)"])
class TestDerivedMemo:
    """The autocentres and [H, A] that ``AutGroup.derived`` shares between subgroups."""

    def test_each_subgroup_reads_the_oracle_values(self, name):
        g, subs, a = _lattice_and_aut(name)
        images = [m.image for m in a.members]
        for h in subs:
            record = a.action_on(h)
            assert record.autocentre.members == oracles.brute_autocentre(h.members, images)
            seed = oracles.brute_autocommutators(g.table, h.members, images)
            assert record.commutator_subgroup.members == oracles.brute_closure(g.table, seed)
            standalone, _ = subgroup_as_group(g, record.commutator_subgroup)
            assert record.commutator_group == standalone

    def test_subgroups_with_one_seed_share_one_commutator_subgroup(self, name):
        _, subs, a = _lattice_and_aut(name)
        by_seed: dict[tuple[int, ...], set[int]] = {}
        for h in subs:
            record = a.action_on(h)
            by_seed.setdefault(record.autocommutators, set()).add(id(record.commutator_subgroup))
        assert len(by_seed) > 1
        assert all(len(ids) == 1 for ids in by_seed.values())

    def test_each_distinct_derived_subgroup_is_one_object(self, name):
        # C(2)×S(4) has 16 distinct S but 4 distinct [H, A]: the S share their closures.
        _, subs, a = _lattice_and_aut(name)
        by_members: dict[tuple[int, ...], set[int]] = {}
        for h in subs:
            record = a.action_on(h)
            for k in (record.autocentre, record.commutator_subgroup):
                by_members.setdefault(k.members, set()).add(id(k))
        assert all(len(ids) == 1 for ids in by_members.values())

    def test_each_distinct_subgroup_is_certified_once(self, name, monkeypatch):
        # A whole scan records the lattice first, so it certifies each of the
        # 120 subgroups of D(4)×S(3), or the 98 of C(2)×S(4), once, when it is
        # enumerated, and every L and [H, A] is one of them.
        g = catalog_build(name)
        built = []
        validate = SubgroupSet.__post_init__

        def counting(self):
            built.append(self.members)
            validate(self)

        monkeypatch.setattr(SubgroupSet, "__post_init__", counting)
        run_scan("all", max_order=48, catalog=(CatalogEntry(name, g),), group_cap=48)
        assert len(built) == {"D(4)×S(3)": 120, "C(2)×S(4)": 98}[name]
        assert len(set(built)) == len(built)

    def test_a_recorded_subgroup_is_never_certified_again(self, name, monkeypatch):
        # Read H by H in lattice order, an L or [H, A] with the members of an
        # already recorded H reuses it; only a larger [H, A] is certified.
        _, subs, a = _lattice_and_aut(name)
        recorded: set[tuple[int, ...]] = set()
        again, built = [], []
        validate = SubgroupSet.__post_init__

        def counting(self):
            (again if self.members in recorded else built).append(self.members)
            validate(self)

        monkeypatch.setattr(SubgroupSet, "__post_init__", counting)
        for h in subs:
            record = a.action_on(h)
            recorded.add(h.members)
            record.autocentre, record.commutator_subgroup, record.commutator_group
        assert again == []
        assert len(built) == len(set(built)) > 0


def test_a_corrupt_memo_entry_moves_only_the_records_of_its_seed(monkeypatch):
    name = "D(4)×S(3)"
    g, subs, a = _lattice_and_aut(name)
    entry = CatalogEntry(name, g)
    clean = _record_rows(run_scan("all", max_order=48, catalog=(entry,), group_cap=48))
    # The seed of the whole group, whose [H, A] has order 12, gets the trivial subgroup.
    seed = a.action_on(whole_subgroup(g)).autocommutators
    a.derived[("commutator", seed)] = trivial_subgroup(g)
    monkeypatch.setattr(automorphisms, "compute_aut", lambda group, cap: a)
    corrupt = _record_rows(run_scan("all", max_order=48, catalog=(entry,), group_cap=48))
    labels = {"whole" if h.is_whole() else ",".join(map(str, h.members))
              for h in subs if a.action_on(h).autocommutators == seed}
    before, after = Counter(clean), Counter(corrupt)
    moved = (before - after) + (after - before)
    assert moved
    assert {row[2] for row in moved} <= labels
