"""Group core: parsing, catalog construction, and structural queries."""

import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from autodegree import groups
from autodegree.catalog import (
    CatalogNameError,
    alternating4,
    catalog_build,
    catalog_order,
    cyclic,
    dicyclic3,
    dihedral,
    elementary_abelian,
    modular16,
    quaternion8,
    symmetric,
)
from autodegree.groups import (
    AxiomError,
    GroupHom,
    InvariantError,
    ParentMismatchError,
    PreconditionError,
    SizeCapError,
    SubgroupSet,
    TableParseError,
    close_partial_map,
    direct_product,
    enumerate_subgroups,
    find_isomorphism,
    generating_set,
    is_normal,
    iter_isomorphisms,
    parse_group_table,
    quotient_group,
    subgroup_as_group,
    subgroup_closure,
    trivial_subgroup,
    validate_group_table,
    whole_subgroup,
)

Z3_TEXT = """\
# cyclic group of order 3
3
0 1 2
1 2 0
2 0 1
"""

# A Latin square with identity and two-sided "inverses" broken on purpose
# further down; this one is a genuine non-associative loop of order 5.
LOOP5_TEXT = """\
5
0 1 2 3 4
1 0 3 4 2
2 3 4 0 1
3 4 1 2 0
4 2 0 1 3
"""


class TestParsing:
    def test_trivial_group(self):
        g = parse_group_table("1\n0")
        assert g.order == 1
        assert g.table == ((0,),)

    def test_cyclic_3_with_comments(self):
        g = parse_group_table(Z3_TEXT)
        assert g.order == 3
        assert g.table[1][2] == 0

    def test_out_of_range_entry_reports_line(self):
        text = "3\n0 1 2\n1 2 7\n2 0 1"
        with pytest.raises(TableParseError) as exc:
            parse_group_table(text)
        assert "7" in str(exc.value)
        assert exc.value.line == 3

    def test_short_row(self):
        with pytest.raises(TableParseError) as exc:
            parse_group_table("2\n0 1\n1")
        assert exc.value.line == 3

    def test_extra_row(self):
        with pytest.raises(TableParseError):
            parse_group_table("1\n0\n0")

    def test_missing_rows(self):
        with pytest.raises(TableParseError):
            parse_group_table("3\n0 1 2")

    def test_empty_input(self):
        with pytest.raises(TableParseError):
            parse_group_table("# nothing here\n")

    def test_non_integer(self):
        with pytest.raises(TableParseError):
            parse_group_table("2\n0 1\n1 q")

    def test_non_positive_order(self):
        with pytest.raises(TableParseError):
            parse_group_table("0\n")

    def test_identity_not_first_gets_relabel_hint(self):
        # Z3 with labels 0 and 1 swapped, so the identity sits at index 1.
        text = "3\n2 0 1\n0 1 2\n1 2 0"
        with pytest.raises(AxiomError) as exc:
            parse_group_table(text)
        assert "relabel" in str(exc.value)
        assert "1" in str(exc.value)

    def test_nonassociative_loop_names_axiom_and_witness(self):
        with pytest.raises(AxiomError) as exc:
            parse_group_table(LOOP5_TEXT)
        assert "associativity" in str(exc.value)

    def test_missing_inverse_names_axiom(self):
        # Associative monoid (max) that is not a group.
        with pytest.raises(AxiomError) as exc:
            parse_group_table("2\n0 1\n1 1")
        assert "inverse" in str(exc.value)


@st.composite
def table_texts(draw):
    """An order line of at most 8 and rows of random tokens.

    Half the draws have exactly n rows of n entries in range, so the axiom
    checks decide them; the rest vary the row and entry counts, put in
    tokens that are no entry, and may shuffle the order line among the rows.
    """
    n = draw(st.integers(min_value=1, max_value=8))
    entry = st.integers(min_value=0, max_value=n - 1).map(str)
    if draw(st.booleans()):
        row = st.lists(entry, min_size=n, max_size=n).map(" ".join)
        return "\n".join([str(n)] + draw(st.lists(row, min_size=n, max_size=n)))
    token = st.one_of(
        entry,
        st.integers(min_value=-2, max_value=n + 2).map(str),
        st.sampled_from(["x", "1.0", "#", "0x1", "", "٣"]),
    )
    row = st.lists(token, min_size=n - 1, max_size=n + 1).map(" ".join)
    lines = [str(n)] + draw(st.lists(row, min_size=n - 1, max_size=n + 1))
    return "\n".join(draw(st.permutations(lines)) if draw(st.booleans()) else lines)


def parsed_or_refused(text):
    """parse_group_table's result if it is a valid table; only its own errors may escape."""
    try:
        g = parse_group_table(text)
    except (TableParseError, AxiomError):
        return None
    n = g.order
    assert all(len(row) == n and all(0 <= e < n for e in row) for row in g.table)
    assert all(g.table[0][a] == g.table[a][0] == a for a in range(n))
    assert all(any(g.table[a][b] == 0 for b in range(n)) for a in range(n))
    assert all(
        g.table[g.table[a][b]][c] == g.table[a][g.table[b][c]]
        for a in range(n) for b in range(n) for c in range(n)
    )
    return g


class TestParserFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.text())
    def test_arbitrary_text(self, text):
        parsed_or_refused(text)

    @settings(max_examples=300, deadline=None)
    @given(table_texts())
    def test_order_line_and_random_rows(self, text):
        parsed_or_refused(text)


# sha256 of repr((name, table)) for 55 catalog names, recorded from the
# hand-written tables that the law-built ones replaced.
TABLE_DIGESTS = json.loads(
    (Path(__file__).parent / "golden" / "catalog_tables.json").read_text(encoding="utf-8")
)


class TestCatalog:
    @pytest.mark.parametrize("name", TABLE_DIGESTS)
    def test_table_matches_recorded_digest(self, name):
        g = catalog_build(name)
        assert hashlib.sha256(repr((g.name, g.table)).encode()).hexdigest() == TABLE_DIGESTS[name]
        assert catalog_order(name) == g.order

    @pytest.mark.parametrize(
        "name,label,order",
        [
            ("C(2) × C(3)", "C(2)×C(3)", 6),
            (" C(2)", "C(2)", 2),
            ("C(02)", "C(2)", 2),
            ("C(2)\tx C(2)", "C(2)×C(2)", 4),
            ("C(1)xC(1)xC(1)", "C(1)×C(1)×C(1)", 1),
            ("E(2,3)xE(3,1)", "E(2,3)×E(3,1)", 24),
            ("M16xDic(3)", "M16×Dic(3)", 192),
        ],
    )
    def test_accepted_spellings(self, name, label, order):
        assert (catalog_order(name), catalog_build(name).name) == (order, label)

    @pytest.mark.parametrize(
        "name",
        ["C(2x3)", "C(2)××C(3)", "x", "", "xC(2)", "C(2))xC(3)", "(C(2))", "C(2)xD(", "c(2)",
         "E( 2,1)", "C(2)X C(2)", "C(2)*C(2)", "C(2)×(C(2)×C(2))", "C(-1)", "S(0)", "D(0)"],
    )
    def test_refused_spellings(self, name):
        for read in (catalog_order, catalog_build):
            with pytest.raises(CatalogNameError):
                read(name)

    def test_malformed_product_names_its_first_bad_piece(self):
        # The name splits at every product sign, so the parenthesis is cut.
        with pytest.raises(CatalogNameError, match=r"unknown name: 'C\(2'"):
            catalog_build("C(2x3)")

    @pytest.mark.parametrize("group,m,r,s", [(modular16, 8, 5, 0), (dicyclic3, 6, 5, 3)])
    def test_metacyclic_presentation(self, group, m, r, s):
        # a is element 1 and b element m: a^m = 1, b^2 = a^s, b a b^-1 = a^r.
        g = group()
        a, b = 1, m
        assert g.element_order(a) == m
        assert g.table[b][b] == s
        assert g.table[g.table[b][a]][g.inv(b)] == r

    def test_cyclic_canonical_table(self):
        g = catalog_build("C(4)")
        assert g.name == "C(4)"
        assert g.table == tuple(tuple((i + j) % 4 for j in range(4)) for i in range(4))

    def test_symmetric3_is_a_group(self):
        g = catalog_build("S(3)")
        assert g.order == 6
        validate_group_table(g)

    def test_klein_four_exponent_two(self):
        g = catalog_build("C(2)×C(2)")
        assert g.order == 4
        assert all(g.element_order(a) <= 2 for a in g.elements())

    def test_ascii_product_separator(self):
        g = catalog_build("C(2)xC(2)")
        assert g.name == "C(2)×C(2)"
        assert g.table == catalog_build("C(2)×C(2)").table

    @pytest.mark.parametrize(
        "name,order",
        [
            ("C(1)", 1),
            ("C(16)", 16),
            ("D(3)", 6),
            ("D(8)", 16),
            ("Q8", 8),
            ("S(4)", 24),
            ("A(4)", 12),
            ("E(2,3)", 8),
            ("E(3,2)", 9),
            ("M16", 16),
            ("Dic(3)", 12),
            ("C(2)×C(4)", 8),
            ("C(2)×C(2)×C(2)", 8),
        ],
    )
    def test_orders_and_validity(self, name, order):
        g = catalog_build(name)
        assert g.order == order
        validate_group_table(g)

    def test_unknown_name_lists_grammar(self):
        with pytest.raises(CatalogNameError) as exc:
            catalog_build("F(7)")
        assert "Dic(3)" in str(exc.value)

    @pytest.mark.parametrize(
        "name",
        ["S(5)", "E(4,1)", "E(2,0)", "E(0,1)", "E(1,2)", "E(9,1)", "C(0)", "A(5)", "C(2)×", "Dic(4)"],
    )
    def test_rejected_parameters(self, name):
        with pytest.raises(CatalogNameError):
            catalog_build(name)

    def test_d3_isomorphic_to_s3(self):
        iso = find_isomorphism(dihedral(3), symmetric(3))
        assert iso is not None
        iso.validate()
        assert iso.is_bijective()

    def test_e22_equals_product_table(self):
        assert elementary_abelian(2, 2).table == catalog_build("C(2)×C(2)").table

    def test_q8_structure(self):
        g = quaternion8()
        assert g.order_profile == (1, 2, 4, 4, 4, 4, 4, 4)
        assert oracles.brute_center(g.table) == (0, 1)

    def test_m16_center(self):
        g = modular16()
        # a^2 generates the centre: b a^2 b^-1 = a^10 = a^2.
        assert oracles.brute_center(g.table) == (0, 2, 4, 6)

    def test_dic3_structure(self):
        g = dicyclic3()
        assert oracles.brute_center(g.table) == (0, 3)
        assert g.element_order(6) == 4  # the element b squares to a^3

    def test_a4_has_no_order_6_element(self):
        assert 6 not in alternating4().order_profile


class TestElementOps:
    def test_multiply_inverse_pair(self):
        z4 = cyclic(4)
        assert z4.mul(1, 3) == 0
        assert z4.inv(1) == 3

    def test_element_order(self):
        z4 = cyclic(4)
        assert z4.element_order(2) == 2
        assert z4.element_order(1) == 4
        assert z4.element_order(0) == 1

    def test_s3_three_cycle_order(self):
        s3 = symmetric(3)
        # lexicographic one-line order puts the 3-cycles at indices 3 and 4
        assert s3.element_order(3) == 3
        assert s3.element_order(4) == 3

    def test_foreign_index_rejected(self):
        z4 = cyclic(4)
        with pytest.raises(ParentMismatchError):
            z4.mul(1, 7)
        with pytest.raises(ParentMismatchError):
            z4.element_order(-1)


class TestSubgroups:
    def test_closure_of_single_element(self):
        z4 = cyclic(4)
        assert subgroup_closure(z4, {2}).members == (0, 2)

    def test_closure_of_empty_seed(self):
        assert subgroup_closure(cyclic(4), set()).members == (0,)

    def test_closure_generates_s3(self):
        s3 = symmetric(3)
        h = subgroup_closure(s3, {1, 3})  # a transposition and a 3-cycle
        assert h.members == tuple(range(6))
        assert h.members == oracles.brute_closure(s3.table, (1, 3))

    def test_enumerate_z4(self):
        subs = enumerate_subgroups(cyclic(4))
        assert [s.members for s in subs] == [(0,), (0, 2), (0, 1, 2, 3)]

    def test_enumerate_trivial(self):
        assert len(enumerate_subgroups(cyclic(1))) == 1

    def test_enumerate_s3(self):
        subs = enumerate_subgroups(symmetric(3))
        assert len(subs) == 6
        assert sorted(s.size for s in subs) == [1, 2, 2, 2, 3, 6]

    @pytest.mark.parametrize(
        "name", ["C(6)", "C(8)", "C(12)", "C(2)×C(4)", "C(2)×C(2)×C(2)", "D(4)", "Q8", "A(4)", "Dic(3)"]
    )
    def test_enumeration_matches_subset_brute_force(self, name):
        g = catalog_build(name)
        got = [s.members for s in enumerate_subgroups(g)]
        assert got == oracles.brute_subgroups(g.table)

    @pytest.mark.parametrize(
        "name",
        ["S(4)", "C(2)×C(2)×C(2)×C(3)", "Q8×C(4)", "C(2)×S(4)", "D(4)×S(3)", "C(2)×C(2)×A(4)"],
    )
    def test_enumeration_matches_cyclic_join_lattice_past_order_12(self, name):
        g = catalog_build(name)
        got = [s.members for s in enumerate_subgroups(g, cap=48)]
        assert got == oracles.brute_subgroup_lattice(g.table)

    @pytest.mark.parametrize("name", ["D(4)", "S(4)", "C(2)×S(4)"])
    def test_enumeration_closes_once_per_double_coset(self, name, monkeypatch):
        # Each subgroup K found is extended once per double coset K g K other than K.
        g = catalog_build(name)
        closures = []
        close = groups._closure_members

        def counting(G, gens):
            closures.append(gens)
            return close(G, gens)

        monkeypatch.setattr(groups, "_closure_members", counting)
        subs = enumerate_subgroups(g, cap=48)
        expected = sum(len(oracles.brute_double_cosets(g.table, s.members)) - 1 for s in subs)
        assert len(closures) == expected

    def test_cap_respected(self):
        with pytest.raises(SizeCapError):
            enumerate_subgroups(catalog_build("C(16)"), cap=8)

    @pytest.mark.parametrize("name", ["D(4)", "S(4)", "C(2)×C(2)×C(2)", "C(2)×C(2)×A(4)"])
    def test_enumeration_builds_each_subgroup_once(self, name, monkeypatch):
        # Extensions that close to a subgroup already found build no SubgroupSet.
        g = catalog_build(name)
        built = []
        validate = SubgroupSet.__post_init__

        def counting(self):
            built.append(self.members)
            validate(self)

        monkeypatch.setattr(SubgroupSet, "__post_init__", counting)
        subs = enumerate_subgroups(g, cap=48)
        assert sorted(built) == sorted(s.members for s in subs)

    def test_subgroup_rejects_nonclosed(self):
        with pytest.raises(AxiomError):
            SubgroupSet(cyclic(4), (0, 1))

    def test_subgroup_requires_identity(self):
        with pytest.raises(AxiomError):
            SubgroupSet(cyclic(4), (2,))

    def test_lagrange_over_catalog(self):
        for name in ["C(12)", "S(3)", "D(4)", "Q8", "A(4)"]:
            g = catalog_build(name)
            for s in enumerate_subgroups(g):
                assert g.order % s.size == 0

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_closure_is_subgroup_and_divides(self, data):
        name = data.draw(st.sampled_from(["C(6)", "C(8)", "D(4)", "S(3)", "Q8", "A(4)"]))
        g = catalog_build(name)
        seed = data.draw(st.sets(st.integers(0, g.order - 1), max_size=3))
        h = subgroup_closure(g, seed)
        assert g.order % h.size == 0
        assert h.members == oracles.brute_closure(g.table, tuple(seed))


class TestCenterAndNormality:
    def test_center_abelian(self):
        g = cyclic(6)
        assert oracles.brute_center(g.table) == tuple(range(6))

    def test_center_s3_trivial(self):
        assert oracles.brute_center(symmetric(3).table) == (0,)

    def test_transposition_subgroup_not_normal(self):
        s3 = symmetric(3)
        h = subgroup_closure(s3, {1})
        assert h.size == 2
        assert not is_normal(s3, h, whole_subgroup(s3))

    def test_a3_normal_in_s3(self):
        s3 = symmetric(3)
        a3 = subgroup_closure(s3, {3})
        assert a3.size == 3
        assert is_normal(s3, a3, whole_subgroup(s3))

    def test_everything_normal_in_abelian(self):
        g = cyclic(8)
        whole = whole_subgroup(g)
        for s in enumerate_subgroups(g):
            assert is_normal(g, s, whole)

    def test_containment_precondition(self):
        s3 = symmetric(3)
        h = subgroup_closure(s3, {1})
        a3 = subgroup_closure(s3, {3})
        with pytest.raises(PreconditionError):
            is_normal(s3, h, a3)


class TestQuotients:
    def test_z4_mod_two_element_subgroup(self):
        z4 = cyclic(4)
        q = quotient_group(z4, whole_subgroup(z4), subgroup_closure(z4, {2}))
        assert q.group.order == 2
        assert q.cosets == ((0, 2), (1, 3))

    def test_h_mod_h_trivial(self):
        z4 = cyclic(4)
        h = whole_subgroup(z4)
        assert quotient_group(z4, h, h).group.order == 1

    def test_s3_mod_a3(self):
        s3 = symmetric(3)
        a3 = subgroup_closure(s3, {3})
        q = quotient_group(s3, whole_subgroup(s3), a3)
        assert q.group.order == 2
        validate_group_table(q.group)

    def test_projection_is_surjective_with_kernel_n(self):
        # x -> its coset is a homomorphism from H onto the coset table, whose
        # identity coset is N.
        g = catalog_build("C(2)×C(4)")
        for h in enumerate_subgroups(g):
            for n in enumerate_subgroups(g):
                if not n.member_set <= h.member_set:
                    continue
                q = quotient_group(g, h, n)
                validate_group_table(q.group)
                coset = {x: i for i, cs in enumerate(q.cosets) for x in cs}
                assert sorted(coset) == list(h.members)
                assert len(q.cosets) == q.group.order
                assert q.cosets[0] == n.members
                for a in h.members:
                    for b in h.members:
                        assert coset[g.table[a][b]] == q.group.table[coset[a]][coset[b]]

    def test_non_normal_rejected(self):
        s3 = symmetric(3)
        h = subgroup_closure(s3, {1})
        with pytest.raises(PreconditionError):
            quotient_group(s3, whole_subgroup(s3), h)

    def test_subgroup_as_group_of_whole_is_the_group(self):
        s3 = symmetric(3)
        table, embedding = subgroup_as_group(s3, whole_subgroup(s3))
        assert table == s3
        assert embedding == tuple(range(6))

    def test_subgroup_as_group(self):
        s3 = symmetric(3)
        a3 = subgroup_closure(s3, {3})
        table, embedding = subgroup_as_group(s3, a3)
        validate_group_table(table)
        assert table.order == 3
        assert embedding == (0, 3, 4)


class TestIsomorphisms:
    def test_self_isomorphism_is_identity_first(self):
        g = catalog_build("C(6)")
        iso = find_isomorphism(g, g)
        assert iso is not None
        assert iso.image == tuple(range(6))

    def test_order_profile_obstruction(self):
        assert find_isomorphism(cyclic(4), catalog_build("C(2)×C(2)")) is None

    def test_s3_d3_witness_validates(self):
        iso = find_isomorphism(symmetric(3), dihedral(3))
        assert iso is not None
        iso.validate()

    def test_symmetry(self):
        g1, g2 = symmetric(3), dihedral(3)
        w12 = find_isomorphism(g1, g2)
        w21 = find_isomorphism(g2, g1)
        assert (w12 is None) == (w21 is None)
        inv = GroupHom(g2, g1, tuple(w12.image.index(y) for y in g2.elements()))
        inv.validate()

    def test_c2xc3_isomorphic_c6(self):
        assert find_isomorphism(catalog_build("C(2)×C(3)"), cyclic(6)) is not None

    def test_iso_count_equals_aut_order(self):
        # for G ~ G the isomorphisms are exactly the automorphisms
        assert len(list(iter_isomorphisms(cyclic(5), cyclic(5)))) == 4
        assert len(list(iter_isomorphisms(symmetric(3), symmetric(3)))) == 6

    def test_all_yielded_isos_validate(self):
        for hom in iter_isomorphisms(catalog_build("C(2)×C(2)"), catalog_build("E(2,2)")):
            hom.validate()
            assert hom.is_bijective()

    def test_nonisomorphic_same_profile_rejected_by_search(self):
        # C(4)xC(4) and M16... too big for a quick test; use Q8 vs C(2)xC(4):
        # different profiles, plus D(4) vs Q8 which share the order but not profile.
        assert find_isomorphism(dihedral(4), quaternion8()) is None

    def test_partial_map_conflict_and_extension(self):
        # In C(4) the generator 1 must go to an element of order 4: 1 -> 2
        # forces 2 -> 0, an image already taken; 1 -> 3 extends to inversion.
        z4 = cyclic(4)
        mapped, used = {0: 0, 1: 2}, {0, 2}
        assert not close_partial_map(z4, z4, mapped, used, [1])
        mapped, used = {0: 0, 1: 3}, {0, 3}
        assert close_partial_map(z4, z4, mapped, used, [1])
        assert mapped == {0: 0, 1: 3, 2: 2, 3: 1}
        assert used == {0, 1, 2, 3}

    def test_generating_set_small(self):
        assert generating_set(cyclic(7)) == (1,)
        assert generating_set(cyclic(1)) == ()
        gens = generating_set(symmetric(4))
        assert subgroup_closure(symmetric(4), gens).size == 24


class TestDirectProduct:
    def test_trivial_factor_is_identity_table(self):
        g = symmetric(3)
        assert direct_product(cyclic(1), g).table == g.table

    def test_hom_validate_rejects_corrupt(self):
        g = cyclic(4)
        with pytest.raises(InvariantError):
            GroupHom(g, g, (0, 2, 1, 3)).validate()

    def test_parent_mismatch_between_groups(self):
        z4, z5 = cyclic(4), cyclic(5)
        h = trivial_subgroup(z4)
        with pytest.raises(ParentMismatchError):
            is_normal(z5, h, whole_subgroup(z5))
