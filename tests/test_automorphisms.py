"""Automorphism engine: Aut/Inn computation and action-derived structures."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from autodegree import automorphisms, catalog
from autodegree.catalog import catalog_build, cyclic, quaternion8, symmetric
from autodegree.automorphisms import (
    AutGroup,
    Automorphism,
    autocentre,
    autocommutator_set,
    autocommutator_subgroup,
    compute_aut,
    compute_inn,
    coset_pairing,
    fixed_subgroup,
    orbit,
    orbits_on_subgroup,
    stabilizer,
    trivial_stabilizer_set,
)
from autodegree.degree import degree_report
from autodegree.groups import (
    GroupTable,
    InvariantError,
    ParentMismatchError,
    SizeCapError,
    SubgroupSet,
    compose_perms,
    enumerate_subgroups,
    iter_isomorphisms,
    permutation_table,
    subgroup_as_group,
    subgroup_closure,
    trivial_subgroup,
    validate_group_table,
    whole_subgroup,
)
from autodegree.scan import SUITES, CatalogEntry, run_scan


def aut_of(name: str) -> tuple:
    g = catalog_build(name)
    return g, compute_aut(g)


class TestComputeAut:
    def test_trivial_group(self):
        g, a = aut_of("C(1)")
        assert a.size == 1
        assert a.images[0] == tuple(g.elements())

    def test_z3_has_identity_and_inversion(self):
        g, a = aut_of("C(3)")
        assert a.size == 2
        assert a.images[1] == (0, 2, 1)

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
        assert list(a.images) == oracles.brute_automorphisms(g.table)

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
        images = list(compute_aut(g).images)
        assert images == oracles.generator_automorphisms(g.table)
        assert len(images) == size

    def test_members_sorted_lexicographically(self):
        g, a = aut_of("C(8)")
        images = list(a.images)
        assert images == sorted(images)
        assert a.images[0] == tuple(g.elements())

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
            rest = a.images[:dropped] + a.images[dropped + 1:]
            with pytest.raises(InvariantError):
                AutGroup(g, rest).validate()

    @pytest.mark.parametrize("name", ["S(3)", "C(5)", "D(4)"])
    def test_enumeration_dropping_one_automorphism_is_caught(self, name, monkeypatch):
        g, full = aut_of(name)
        for dropped in full.images:
            def search(G1, G2, dropped=dropped):
                return (image for image in iter_isomorphisms(G1, G2) if image != dropped)

            monkeypatch.setattr(automorphisms, "iter_isomorphisms", search)
            with pytest.raises(InvariantError, match="not closed under composition"):
                compute_aut(g)

    def test_validate_rejects_a_repeated_member(self):
        # Repeated, the inversion would weigh twice: |A| = 3 and Pr = 5/9, not 2/3.
        g, a = aut_of("C(3)")
        identity, inversion = a.images
        with pytest.raises(InvariantError, match="strictly increasing"):
            AutGroup(g, (identity, inversion, inversion)).validate()

    def test_validate_refuses_another_groups_automorphisms(self):
        # Only 2 of the 6 automorphisms of C(2)×C(2) are automorphisms of C(4);
        # read as Aut(C(4)), the set gives Pr(C(4)) = 1/2 by definition.
        with pytest.raises(InvariantError, match="not a homomorphism"):
            AutGroup(cyclic(4), compute_aut(catalog_build("C(2)×C(2)")).images).validate()

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

    @pytest.mark.parametrize("name, size", [
        ("C(1)", 1), ("C(2)", 1), ("C(5)", 4), ("S(4)", 24), ("D(8)", 32), ("Q8", 24),
        ("C(2)×Q8", 192), ("Q8×C(4)", 384),
    ])
    def test_abstract_group_composition_consistent(self, name, size):
        a = compute_aut(catalog_build(name), cap=32)
        t = a.abstract_group
        assert t.order == size
        for i, x in enumerate(a.images):
            for j, y in enumerate(a.images):
                assert a.images[t.table[i][j]] == tuple(x[k] for k in y)

    def test_members_agreeing_on_the_generators_are_refused(self):
        # C(4) is generated by 1; (0, 1, 3, 2) is no automorphism but agrees with the identity there.
        g = catalog_build("C(4)")
        assert g.generators == (1,)
        fake = AutGroup(g, (compute_aut(g).images[0], (0, 1, 3, 2)))
        with pytest.raises(InvariantError, match="share a key"):
            fake.abstract_group

    def test_repeated_permutation_is_refused(self):
        with pytest.raises(InvariantError, match="share a key"):
            permutation_table([(0, 1), (1, 0), (0, 1)])


def affine_group(p: int) -> GroupTable:
    """The permutations of Z/p generated by x -> x + 1 and x -> 2x, tabled in sorted order."""
    gens = [tuple((x + 1) % p for x in range(p)), tuple(2 * x % p for x in range(p))]
    return permutation_table(sorted(oracles.brute_generated(tuple(range(p)), gens, compose_perms)))


def heisenberg3() -> GroupTable:
    """(a,b,c)(d,e,f) = (a+d, b+e, c+f+ae) mod 3, with (a,b,c) at index 9a + 3b + c."""
    def law(x: int, y: int) -> int:
        (a, b, c), (d, e, f) = (x // 9, x // 3 % 3, x % 3), (y // 9, y // 3 % 3, y % 3)
        return 9 * ((a + d) % 3) + 3 * ((b + e) % 3) + (c + f + a * e) % 3

    return catalog._from_law(27, law, "Heis(3)")


EXTENDED_GROUPS = {
    "Q16": lambda: catalog._metacyclic(8, 7, 4, "Q16"),
    "SD16": lambda: catalog._metacyclic(8, 3, 0, "SD16"),
    "Q32": lambda: catalog._metacyclic(16, 15, 8, "Q32"),
    "SD32": lambda: catalog._metacyclic(16, 7, 0, "SD32"),
    "M32": lambda: catalog._metacyclic(16, 9, 0, "M32"),
    "F20": lambda: affine_group(5),
    "C7⋊C3": lambda: affine_group(7),
    "Heis(3)": heisenberg3,
}


class TestExtendedGroups:
    """|Aut| and subgroup counts of groups the catalog cannot name yet, past order 8."""

    @pytest.mark.parametrize("name, aut_order, subgroups", [
        ("Q16", 32, 11), ("SD16", 16, 15), ("Q32", 128, 20), ("SD32", 64, 28),
        ("M32", 32, 14), ("F20", 20, 14), ("C7⋊C3", 42, 10), ("Heis(3)", 432, 19),
    ])
    def test_aut_and_lattice_match_the_oracles(self, name, aut_order, subgroups):
        g = EXTENDED_GROUPS[name]()
        validate_group_table(g)
        a = compute_aut(g, cap=32)
        assert a.size == aut_order
        assert list(a.images) == oracles.generator_automorphisms(g.table)
        lattice = [h.members for h in enumerate_subgroups(g, cap=32)]
        assert len(lattice) == subgroups
        assert sorted(lattice) == sorted(oracles.brute_subgroup_lattice(g.table))


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
        aut_images = set(aut.images)
        assert all(img in aut_images for img in inn.images)


class TestAutocommutator:
    def test_identity_automorphism_gives_identity(self):
        g, a = aut_of("C(4)")
        singletons = tuple((x,) for x in g.elements())
        assert coset_pairing(AutGroup(g, a.images[:1]), singletons) == ((0,),) * g.order

    def test_z4_inversion(self):
        g, a = aut_of("C(4)")
        inversion = a.images[1]
        assert inversion == (0, 3, 2, 1)
        assert coset_pairing(AutGroup(g, (inversion,)), ((1,),)) == ((2,),)

    def test_fixed_points_give_identity(self):
        g, a = aut_of("C(4)")
        core = autocentre(whole_subgroup(g), a)
        rows = coset_pairing(a, tuple((x,) for x in core.members))
        assert rows == ((0,) * a.size,) * core.size

    def test_parent_mismatch(self):
        # The pairing reads A's own table, so a foreign A is refused where it
        # meets a subgroup: at the (H, A) record, before any value is read.
        g = catalog_build("C(4)")
        for name in ("C(8)", "C(2)×C(2)"):
            a = compute_aut(catalog_build(name))
            for h in enumerate_subgroups(g):
                with pytest.raises(ParentMismatchError):
                    a.action_on(h)
            assert a.derived == {}

    def test_representatives_that_disagree(self):
        # (0, 1) is no coset of the autocentre {0, 2}: inversion sends 0 to 0 and 1 to 2.
        g, a = aut_of("C(4)")
        with pytest.raises(InvariantError, match=r"coset \(0, 1\) maps to \[0, 2\] under \(1 3\)"):
            coset_pairing(a, ((0, 2), (0, 1)))
        # (2 3) disagrees only at the last representative and (1 2) already at
        # the second, so reading representative by representative would name (1 2).
        g, a = aut_of("C(2)×C(2)")
        with pytest.raises(InvariantError, match=r"coset \(0, 1, 2\) maps to \[0, 1\] under \(2 3\)$"):
            coset_pairing(a, ((0, 1, 2),))

    def test_fixed_subgroup_refuses_a_foreign_automorphism(self):
        # Every index of C(4) is in range for an automorphism of C(8), so
        # without the parent check its fixed points inside C(4) would be read.
        g, _ = aut_of("C(4)")
        g8 = cyclic(8)
        for img in compute_aut(g8).images:
            with pytest.raises(ParentMismatchError):
                fixed_subgroup(whole_subgroup(g), Automorphism(g8, img))


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
        assert s.images[0] == tuple(g.elements())

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

    @pytest.mark.parametrize("name", ["C(4)", "C(2)"])
    def test_orbits_on_a_subgroup_of_another_group_are_refused(self, name):
        # Unchecked, C(4) would give its own orbits and C(2) an IndexError.
        a = compute_aut(catalog_build(name))
        with pytest.raises(ParentMismatchError):
            orbits_on_subgroup(a, whole_subgroup(catalog_build("C(2)×C(2)")))


class TestFixedStructures:
    def test_fixed_subgroup_identity(self):
        g, a = aut_of("S(3)")
        h = whole_subgroup(g)
        assert fixed_subgroup(h, Automorphism(g, a.images[0])).members == h.members

    def test_fixed_subgroup_z4_inversion(self):
        g, a = aut_of("C(4)")
        assert fixed_subgroup(whole_subgroup(g), Automorphism(g, a.images[1])).members == (0, 2)

    def test_fixed_subgroup_s3_inner(self):
        g = catalog_build("S(3)")
        inn = compute_inn(g)
        # conjugation by a transposition fixes exactly {e, that transposition}
        sizes = sorted(fixed_subgroup(whole_subgroup(g), Automorphism(g, img)).size
                       for img in inn.images)
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
        auts = list(a.images)
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
        assert Automorphism(g, a.images[0]).cycle_notation() == "id"
        assert Automorphism(g, a.images[1]).cycle_notation() == "(1 3)"

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_stabilizers_are_subgroups(self, data):
        name = data.draw(st.sampled_from(["C(6)", "C(8)", "S(3)", "D(4)", "Q8"]))
        g = catalog_build(name)
        a = compute_aut(g)
        x = data.draw(st.integers(0, g.order - 1))
        stab = stabilizer(a, x)
        stab.validate()


class TestImageRepresentation:
    """An AutGroup's member data is its image arrays; an Automorphism is built only where named."""

    @staticmethod
    def _count_automorphisms(monkeypatch) -> list:
        """Log the image of every :class:`Automorphism` built from now on."""
        built = []
        init = Automorphism.__init__

        def counted(self, parent, image):
            built.append(image)
            init(self, parent, image)

        monkeypatch.setattr(automorphisms.Automorphism, "__init__", counted)
        return built

    @pytest.mark.parametrize("suite", SUITES + ("all",))
    def test_scans_build_no_automorphism(self, suite, monkeypatch):
        built = self._count_automorphisms(monkeypatch)
        run_scan(suite, 24)
        assert len(built) == 0
        # The count does see the one built to name a disagreeing automorphism.
        with pytest.raises(InvariantError, match=r"under \(1 3\)"):
            coset_pairing(compute_aut(cyclic(4)), ((0, 1),))
        assert built == [(0, 3, 2, 1)]

    def test_tables_checks_and_pairing_build_none(self, monkeypatch):
        g = catalog_build("C(2)×C(2)×D(4)")
        A = compute_aut(g, cap=32)
        built = self._count_automorphisms(monkeypatch)
        for name in ("orbit_of", "fixer_count", "stabilizer_sizes", "fixed_point_sets",
                     "member_images", "abstract_group"):
            getattr(A, name)
        A.validate()
        pairing = A.action_on(whole_subgroup(g)).pairing
        assert len(pairing) > 1 and len(pairing[0]) == A.size
        assert built == []
        assert not hasattr(A, "members")


def _lattice_and_aut(name: str) -> tuple:
    g = catalog_build(name)
    return g, enumerate_subgroups(g, cap=48), compute_aut(g, cap=48)


def _certifications(monkeypatch) -> list[tuple[int, ...]]:
    """The members of each SubgroupSet certified from now on, in order."""
    built = []
    validate = SubgroupSet.__post_init__

    def counting(self):
        built.append(self.members)
        validate(self)

    monkeypatch.setattr(SubgroupSet, "__post_init__", counting)
    return built


def _record_rows(report) -> list[tuple]:
    return [(r.suite, r.group, r.subgroup, r.name, r.status, r.value, r.bound, r.detail)
            for r in report.records]


@pytest.mark.parametrize("name", ["D(4)×S(3)", "C(2)×S(4)"])
class TestDerivedMemo:
    """The autocentres and [H, A] that subgroups share, read from the table's registry."""

    def test_each_subgroup_reads_the_oracle_values(self, name):
        g, subs, a = _lattice_and_aut(name)
        images = list(a.images)
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
        # A whole scan certifies each of the 120 subgroups of D(4)×S(3), or
        # the 98 of C(2)×S(4), once, when it is enumerated, and every L and
        # [H, A] is one of them.
        g = catalog_build(name)
        built = _certifications(monkeypatch)
        run_scan("all", max_order=48, catalog=(CatalogEntry(name, g),), group_cap=48)
        assert len(built) == {"D(4)×S(3)": 120, "C(2)×S(4)": 98}[name]
        assert len(set(built)) == len(built)

    def test_a_recorded_subgroup_is_never_certified_again(self, name, monkeypatch):
        # Every L and [H, A] is a subgroup of G, which the table's registry
        # already holds after enumeration, so reading them certifies nothing.
        _, subs, a = _lattice_and_aut(name)
        built = _certifications(monkeypatch)
        for h in subs:
            record = a.action_on(h)
            record.autocentre, record.commutator_subgroup, record.commutator_group
        assert built == []

    def test_certification_does_not_depend_on_call_order(self, name, monkeypatch):
        # Reports in reverse lattice order, against Aut(G) and then Inn(G), read
        # every L and [H, A] from the lattice's own objects and certify nothing.
        g, subs, a = _lattice_and_aut(name)
        lattice = {h.members: h for h in subs}
        built = _certifications(monkeypatch)
        for auts in (a, compute_inn(g)):
            for h in reversed(subs):
                degree_report(h, auts)
                record = auts.action_on(h)
                for k in (record.autocentre, record.commutator_subgroup):
                    assert k is lattice[k.members]
        assert built == []


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
