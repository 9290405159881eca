"""Degree formulas, bounds, equality characterizations, and the equivalence."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from autodegree.automorphisms import autocentre, compute_aut, compute_inn
from autodegree.catalog import catalog_build, cyclic
from autodegree.degree import (
    BoundCheck,
    _is_cyclic_power,
    bound_lower_S,
    bound_lower_commutator,
    bound_lower_main,
    bound_upper_main,
    bound_upper_nonabelian,
    bound_upper_pq,
    check_monotonicity,
    classify_equality_pq,
    classify_equality_pq2,
    converse_check,
    degree_report,
    equivalent_conditions,
    HypothesisError,
    pr_commuting,
    pr_definition,
    pr_le_commuting,
    pr_via_orbits,
    pr_via_sums,
    smallest_prime_divisor,
)
from autodegree.groups import (
    ParentMismatchError,
    PreconditionError,
    enumerate_subgroups,
    subgroup_closure,
    trivial_subgroup,
    whole_subgroup,
)
from autodegree.scan import DEFAULT_CATALOG_NAMES


def instance(name: str):
    g = catalog_build(name)
    return g, whole_subgroup(g), compute_aut(g)


# Frozen spot values, re-derived by the permutation-filter oracle in
# test_spot_values_match_oracle below.
SPOT_VALUES = {
    "C(3)": Fraction(2, 3),
    "C(4)": Fraction(3, 4),
    "S(3)": Fraction(1, 2),
    "Q8": Fraction(3, 8),
}


class TestFormulas:
    @pytest.mark.parametrize("name,expected", sorted(SPOT_VALUES.items()))
    def test_spot_values_match_oracle(self, name, expected):
        g, h, a = instance(name)
        auts = oracles.brute_automorphisms(g.table)
        assert oracles.brute_pr(g.table, h.members, auts) == expected
        assert pr_definition(h, a) == expected

    def test_a3_inside_s3(self):
        g = catalog_build("S(3)")
        a = compute_aut(g)
        a3 = subgroup_closure(g, {3})
        auts = oracles.brute_automorphisms(g.table)
        assert oracles.brute_pr(g.table, a3.members, auts) == Fraction(2, 3)
        assert pr_definition(a3, a) == Fraction(2, 3)

    def test_trivial_aut_gives_one(self):
        g, h, a = instance("C(2)")
        assert a.size == 1
        assert pr_definition(h, a) == 1
        assert pr_via_sums(h, a) == (Fraction(1), Fraction(1))

    def test_sums_z4(self):
        g, h, a = instance("C(4)")
        assert pr_via_sums(h, a) == (Fraction(3, 4), Fraction(3, 4))

    def test_orbit_form_z4(self):
        g, h, a = instance("C(4)")
        assert pr_via_orbits(h, a) == Fraction(3, 4)
        assert degree_report(h, a).pr_orbit_count == Fraction(3, 4)

    def test_orbit_form_a3(self):
        g = catalog_build("S(3)")
        a = compute_aut(g)
        a3 = subgroup_closure(g, {3})
        assert pr_via_orbits(a3, a) == Fraction(2, 3)

    def test_orbit_forms_diverge_when_orbit_leaves_h(self):
        g = catalog_build("S(3)")
        a = compute_aut(g)
        h = subgroup_closure(g, {1})
        assert pr_via_orbits(h, a) == Fraction(2, 3)
        rep = degree_report(h, a)
        assert not rep.formulas_agree() is False  # the four formula fields agree
        assert rep.pr_orbit == Fraction(2, 3)
        assert rep.pr_orbit_count == Fraction(1)
        assert any("orbit leaves H" in f for f in rep.findings)

    @pytest.mark.parametrize(
        "name", ["C(1)", "C(4)", "C(6)", "C(8)", "S(3)", "D(4)", "Q8", "A(4)", "M16", "Dic(3)"]
    )
    def test_four_way_agreement_all_subgroups(self, name):
        g = catalog_build(name)
        a = compute_aut(g)
        for h in enumerate_subgroups(g):
            rep = degree_report(h, a)
            assert rep.formulas_agree(), (name, h.members)
            assert (rep.pr_definition * h.size * a.size).denominator == 1
            assert (rep.pr_definition == 1) == rep.h_equals_autocentre

    def test_trivial_aut_finding(self):
        g, h, a = instance("C(2)")
        rep = degree_report(h, a)
        assert any("trivial automorphism group" in f for f in rep.findings)
        assert rep.size_trivial_stabilizer == 0


# Unchecked, whole C(2)×C(2) against Aut(C(4)) read 3/4 from both routes, and
# whole C(4) against Aut(C(8)) 1/2: every member index is in range of the other group.
@pytest.mark.parametrize("route", [pr_via_sums, pr_via_orbits])
@pytest.mark.parametrize("name, other", [("C(2)×C(2)", "C(4)"), ("C(4)", "C(8)")])
def test_degree_route_refuses_a_subgroup_of_another_group(route, name, other):
    with pytest.raises(ParentMismatchError):
        route(whole_subgroup(catalog_build(name)), compute_aut(catalog_build(other)))


def test_factor_order_leaves_aut_and_the_degrees_unchanged():
    # C(2)×C(4) and C(4)×C(2) are one group with its elements numbered differently.
    def profile(name):
        g = catalog_build(name)
        auts = compute_aut(g)
        return auts.size, sorted((h.size, pr_definition(h, auts)) for h in enumerate_subgroups(g))

    size, degrees = profile("C(2)×C(4)")
    assert (size, len(degrees)) == (8, 8)
    assert profile("C(4)×C(2)") == (size, degrees)


class TestCommuting:
    def test_abelian_is_one(self):
        g, h, _ = instance("C(12)")
        assert pr_commuting(h) == 1

    def test_s3_whole(self):
        g, h, _ = instance("S(3)")
        assert pr_commuting(h) == Fraction(1, 2)

    def test_transposition_subgroup(self):
        g = catalog_build("S(3)")
        h = subgroup_closure(g, {1})
        assert pr_commuting(h) == Fraction(2, 3)
        assert oracles.brute_commuting_pr(g.table, h.members) == Fraction(2, 3)

    @pytest.mark.parametrize("name", ["S(3)", "D(4)", "Q8", "A(4)", "Dic(3)", "M16"])
    def test_inner_degree_equals_commuting(self, name):
        g = catalog_build(name)
        inn = compute_inn(g)
        for h in enumerate_subgroups(g):
            assert pr_definition(h, inn) == pr_commuting(h)
            assert pr_via_orbits(h, inn) == pr_commuting(h)

    def test_bound_by_commuting(self):
        g, h, a = instance("S(3)")
        c = pr_le_commuting(h, a)
        assert c.holds and c.is_equality  # complete group: Aut = Inn

    def test_bound_by_commuting_abelian(self):
        g, h, a = instance("C(4)")
        c = pr_le_commuting(h, a)
        assert c.holds and c.value == Fraction(3, 4) and c.bound == 1


class TestBoundCheck:
    def test_unknown_direction_rejected_at_construction(self):
        with pytest.raises(ValueError, match="sideways"):
            BoundCheck("c", Fraction(1, 2), Fraction(1, 2), "sideways")

    @pytest.mark.parametrize("direction, below, above", [
        ("upper", True, False),
        ("lower", False, True),
        ("equal", False, False),
    ])
    def test_verdict_derived_from_value(self, direction, below, above):
        check = BoundCheck("c", Fraction(1, 2), Fraction(1, 2), direction)
        assert check.holds and check.is_equality
        for value, holds in ((Fraction(1, 3), below), (Fraction(2, 3), above)):
            moved = BoundCheck("c", value, Fraction(1, 2), direction)
            assert moved.holds == holds and not moved.is_equality
        with pytest.raises(ValueError):
            BoundCheck("c", Fraction(1, 2), Fraction(1, 2), "both")

    # Small denominators, so equal values are drawn often.
    values = st.one_of(st.fractions(min_value=0, max_denominator=12), st.integers(0, 4))

    @given(values, values)
    def test_integer_decision_matches_fraction_comparison(self, value, bound):
        compare = {"upper": value <= bound, "lower": value >= bound, "equal": value == bound}
        for direction, holds in compare.items():
            check = BoundCheck("c", value, bound, direction)
            assert check.holds == holds
            assert check.is_equality == (value == bound)


class TestMonotonicity:
    def test_equal_subgroups(self):
        g, h, a = instance("S(3)")
        c = check_monotonicity(h, h, a)
        assert c.holds and c.is_equality and c.condition_met

    def test_a3_in_s3(self):
        g = catalog_build("S(3)")
        a = compute_aut(g)
        a3 = subgroup_closure(g, {3})
        c = check_monotonicity(a3, whole_subgroup(g), a)
        assert c.value == Fraction(2, 3) and c.bound == 1
        assert c.holds and not c.is_equality

    def test_trivial_in_s3(self):
        g = catalog_build("S(3)")
        a = compute_aut(g)
        c = check_monotonicity(trivial_subgroup(g), whole_subgroup(g), a)
        assert c.value == 1 and c.bound == 3 and c.holds

    def test_not_nested_rejected(self):
        g = catalog_build("S(3)")
        a = compute_aut(g)
        h1 = subgroup_closure(g, {1})
        h2 = subgroup_closure(g, {2})
        with pytest.raises(PreconditionError):
            check_monotonicity(h1, h2, a)

    def test_bound_is_the_index_times_the_larger_degree(self):
        g = catalog_build("D(4)×S(3)")
        a = compute_aut(g, cap=48)
        subs = enumerate_subgroups(g, cap=48)
        nested = 0
        for i, h in enumerate(subs):
            for k in subs[i:]:
                if h.member_set <= k.member_set:
                    c = check_monotonicity(h, k, a)
                    assert c.bound == (k.size // h.size) * pr_definition(k, a)
                    nested += 1
        assert nested > len(subs)

    def test_equality_characterization_over_catalog(self):
        for name in ["C(8)", "S(3)", "Q8", "D(4)"]:
            g = catalog_build(name)
            a = compute_aut(g)
            subs = enumerate_subgroups(g)
            for h in subs:
                for k in subs:
                    if h.member_set <= k.member_set:
                        c = check_monotonicity(h, k, a)
                        assert c.holds
                        assert c.is_equality == c.condition_met, (name, h.members, k.members)


class TestUpperBounds:
    def test_main_z4_equality(self):
        g, h, a = instance("C(4)")
        c = bound_upper_main(h, a)
        assert c.bound == Fraction(3, 4) and c.holds and c.is_equality and c.p == 2

    def test_main_z3_equality(self):
        g, h, a = instance("C(3)")
        c = bound_upper_main(h, a)
        assert c.bound == Fraction(2, 3) and c.is_equality

    def test_main_s3(self):
        g, h, a = instance("S(3)")
        c = bound_upper_main(h, a)
        assert c.bound == Fraction(7, 12)
        assert c.holds and not c.is_equality

    def test_hypothesis_error_on_fixed_subgroup(self):
        g, _, a = instance("C(4)")
        with pytest.raises(HypothesisError):
            bound_upper_main(trivial_subgroup(g), a)

    def test_hypothesis_error_on_trivial_aut(self):
        g, h, a = instance("C(2)")
        with pytest.raises(HypothesisError):
            bound_upper_main(h, a)

    def test_pq_z4(self):
        g, h, a = instance("C(4)")
        pq, cap = bound_upper_pq(h, a)
        assert pq.bound == Fraction(3, 4) and pq.is_equality
        assert cap.bound == Fraction(3, 4) and cap.hypothesis_met and cap.holds

    def test_pq_s3(self):
        g, h, a = instance("S(3)")
        pq, cap = bound_upper_pq(h, a)
        assert (pq.p, pq.q) == (2, 2)
        assert pq.value == Fraction(1, 2) and pq.holds

    def test_nonabelian_s3(self):
        g, h, a = instance("S(3)")
        main, cap = bound_upper_nonabelian(h, a)
        assert main.bound == Fraction(5, 8) and main.holds
        assert cap.bound == Fraction(5, 8) and cap.hypothesis_met

    def test_nonabelian_q8(self):
        g, h, a = instance("Q8")
        main, cap = bound_upper_nonabelian(h, a)
        assert main.value == Fraction(3, 8) and main.holds

    def test_nonabelian_rejects_abelian(self):
        g, h, a = instance("C(4)")
        with pytest.raises(HypothesisError):
            bound_upper_nonabelian(h, a)


class TestLowerBounds:
    def test_main_z4(self):
        g, h, a = instance("C(4)")
        c = bound_lower_main(h, a)
        assert c.bound == Fraction(3, 4) and c.is_equality

    def test_main_z3(self):
        g, h, a = instance("C(3)")
        c = bound_lower_main(h, a)
        assert c.bound == Fraction(2, 3) and c.is_equality

    def test_main_s3(self):
        g, h, a = instance("S(3)")
        c = bound_lower_main(h, a)
        assert c.bound == Fraction(4, 9) and c.holds and not c.is_equality

    def test_sset_z4_equality_condition_met(self):
        g, h, a = instance("C(4)")
        c = bound_lower_S(h, a)
        assert c.bound == Fraction(3, 4)
        assert c.is_equality and c.condition_met

    def test_sset_z3_strict_with_condition_failed(self):
        g, h, a = instance("C(3)")
        c = bound_lower_S(h, a)
        assert c.bound == Fraction(5, 9)
        assert c.holds and not c.is_equality and not c.condition_met

    def test_commutator_z4(self):
        g, h, a = instance("C(4)")
        main, monotone, plain = bound_lower_commutator(h, a)
        assert main.bound == Fraction(3, 4) and main.holds
        assert monotone.holds

    def test_commutator_z3(self):
        g, h, a = instance("C(3)")
        main, monotone, plain = bound_lower_commutator(h, a)
        assert main.bound == Fraction(5, 9) and main.holds and not main.is_equality
        assert monotone.holds
        # The textbook comparison against the plain lower bound fails here:
        # the only-identity-stabilizer correction makes the plain form exceed
        # the commutator form. Recorded as informational, never a violation.
        assert plain.informational
        assert plain.value == Fraction(5, 9) and plain.bound == 1
        assert not plain.holds

    def test_condition_matches_equality_across_catalog(self):
        for name in ["C(4)", "C(6)", "C(8)", "S(3)", "Q8", "D(4)", "M16"]:
            g = catalog_build(name)
            a = compute_aut(g)
            if a.size == 1:
                continue
            for h in enumerate_subgroups(g):
                try:
                    c = bound_lower_S(h, a)
                except HypothesisError:
                    continue
                assert c.holds, (name, h.members)
                assert c.is_equality == c.condition_met, (name, h.members)


def _least_prime(n: int) -> int:
    return next(d for d in range(2, n + 1) if n % d == 0)


def _power(table, x: int, e: int) -> int:
    acc = 0
    for _ in range(e):
        acc = table[acc][x]
    return acc


def _formula_bounds(table, h, auts) -> dict[str, Fraction]:
    """Each applicable check's bound from the paper's formula, by check name."""
    hm = h.members
    nh, na = len(hm), len(auts)
    core = oracles.brute_autocentre(hm, auts)
    nl = len(core)
    x = len(oracles.brute_only_identity_fixes(hm, auts))
    p = _least_prime(na)
    bounds = {"lower_main": Fraction(nl, nh) + Fraction(p * (nh - x - nl) + x, nh * na)}
    if nl == nh:
        return bounds
    q = _least_prime(nh)
    sset = oracles.brute_autocommutators(table, hm, auts)
    k = len(oracles.brute_closure(table, sset))
    index = nh // nl

    def family(m: int) -> Fraction:
        return Fraction(1, m) * (1 + Fraction(m - 1, index))

    bounds.update(
        upper_main=(Fraction((p - 1) * nl + nh, p * nh)
                    - Fraction(x * (na - p), p * nh * na)),
        upper_pq=Fraction(p + q - 1, p * q),
        upper_cap_3_4=Fraction(3, 4),
        lower_autocommutator_set=family(len(sset)),
        lower_commutator_subgroup=family(k),
        lower_monotone_family=family(k),
        lower_commutator_vs_plain=Fraction(nl, nh) + Fraction(p * (nh - nl), nh * na),
    )
    if not h.is_abelian:
        bounds["upper_nonabelian_pq2"] = Fraction(q * q + p - 1, p * q * q)
        bounds["upper_cap_5_8"] = Fraction(5, 8)
    if all(len(oracles.brute_orbit(table, auts, y)) == p for y in hm if y not in core):
        bounds["converse_degree"] = family(p)
        if index == q:
            bounds["converse_cyclic_quotient"] = Fraction(q + p - 1, p * q)
        elif index == q * q and all(_power(table, y, q) in core for y in hm):
            bounds["converse_bicyclic_quotient"] = Fraction(q * q + p - 1, p * q * q)
    return bounds


class TestBoundFormulas:
    """Every bound value against the paper's formulas, written out in the test.

    L, X, S and [H, A] come from the brute-force oracles, p and q from trial
    division, and H/L = C(q) or C(q) x C(q) from the index and the q-th
    powers; nothing is read from the package but the checks under test.
    """

    @pytest.mark.parametrize("name", DEFAULT_CATALOG_NAMES)
    def test_bounds_over_aut_and_inn(self, name):
        g = catalog_build(name)
        for a in (compute_aut(g), compute_inn(g)):
            if a.size == 1:
                continue
            for h in enumerate_subgroups(g):
                checks = [bound_lower_main(h, a)]
                if autocentre(h, a).size < h.size:
                    checks += [bound_upper_main(h, a), *bound_upper_pq(h, a)]
                    checks += [bound_lower_S(h, a), *bound_lower_commutator(h, a)]
                    if not h.is_abelian:
                        checks += bound_upper_nonabelian(h, a)
                    checks += converse_check(h, a)
                got = {c.name: c.bound for c in checks}
                assert len(got) == len(checks)
                expected = _formula_bounds(g.table, h, list(a.images))
                assert got == expected, (name, a.size, h.members)


class TestEqualityClassification:
    def test_z4(self):
        g, h, a = instance("C(4)")
        rep = classify_equality_pq(h, a)
        assert rep is not None
        assert (rep.p, rep.q) == (2, 2)
        assert rep.divisibility_holds and rep.structure_holds
        assert rep.quotient_order == 2

    def test_z3(self):
        g, h, a = instance("C(3)")
        rep = classify_equality_pq(h, a)
        assert rep is not None
        assert (rep.p, rep.q) == (2, 3)
        assert rep.expected_structure == "C(3)"
        assert rep.passed()

    def test_z3_subgroup_of_c6(self):
        g = catalog_build("C(6)")
        a = compute_aut(g)
        h = subgroup_closure(g, {2})
        rep = classify_equality_pq(h, a)
        assert rep is not None and rep.passed()

    def test_s3_inapplicable(self):
        g, h, a = instance("S(3)")
        assert classify_equality_pq(h, a) is None

    def test_pq2_abelian_inapplicable(self):
        g, h, a = instance("C(4)")
        assert classify_equality_pq2(h, a) is None

    def test_pq2_s3_inapplicable(self):
        g, h, a = instance("S(3)")
        assert classify_equality_pq2(h, a) is None

    @pytest.mark.parametrize("quot, q, k", [
        (cyclic(4), 2, 2),
        (cyclic(9), 3, 2),
        (catalog_build("C(2)×C(2)"), 2, 1),
    ])
    def test_cyclic_power_refuses_the_other_shape(self, quot, q, k):
        assert not _is_cyclic_power(quot, q, k)

    @pytest.mark.parametrize("quot, q, k", [
        (cyclic(3), 3, 1),
        (catalog_build("C(2)×C(2)"), 2, 2),
        (catalog_build("C(3)×C(3)"), 3, 2),
    ])
    def test_cyclic_power_accepts(self, quot, q, k):
        assert _is_cyclic_power(quot, q, k)


@pytest.mark.parametrize("name", ["Q8", "D(4)", "M16"])
class TestPq2FamilyOverInn:
    """Over Inn(G) the non-abelian pq^2 family is attained: Pr = 5/8 with
    H/L = G/Z(G) = C(2) x C(2). Over Aut(G) it is vacuous on the catalog."""

    @staticmethod
    def inner(name):
        g = catalog_build(name)
        return g, whole_subgroup(g), compute_inn(g)

    def test_degree_and_autocentre(self, name):
        g, h, a = self.inner(name)
        t = g.table
        centre = [z for z in g.elements() if all(t[z][y] == t[y][z] for y in g.elements())]
        assert pr_definition(h, a) == Fraction(5, 8)
        assert autocentre(h, a).members == tuple(centre)

    def test_classification_is_the_5_8_case(self, name):
        g, h, a = self.inner(name)
        rep = classify_equality_pq2(h, a)
        assert rep is not None and rep.passed()
        assert rep.special_case_5_8
        assert rep.expected_structure == "C(2)×C(2)" and rep.quotient_order == 4
        assert classify_equality_pq(h, a) is None

    def test_nonabelian_bound_and_cap_attained(self, name):
        g, h, a = self.inner(name)
        checks = bound_upper_nonabelian(h, a)
        assert [c.name for c in checks] == ["upper_nonabelian_pq2", "upper_cap_5_8"]
        assert all(c.holds and c.is_equality and c.bound == Fraction(5, 8) for c in checks)

    def test_converse_takes_the_bicyclic_form(self, name):
        g, h, a = self.inner(name)
        checks = converse_check(h, a)
        assert [c.name for c in checks] == ["converse_degree", "converse_bicyclic_quotient"]
        assert all(c.holds for c in checks)
        assert [c.bound for c in checks] == [Fraction(5, 8)] * 2


class TestConverse:
    def test_z4(self):
        g, h, a = instance("C(4)")
        checks = converse_check(h, a)
        assert [c.name for c in checks] == ["converse_degree", "converse_cyclic_quotient"]
        assert all(c.holds for c in checks)
        assert checks[0].bound == Fraction(3, 4)

    def test_z3(self):
        g, h, a = instance("C(3)")
        checks = converse_check(h, a)
        assert checks and all(c.holds for c in checks)
        assert checks[0].bound == Fraction(2, 3)

    def test_q8_inapplicable(self):
        g, h, a = instance("Q8")
        assert converse_check(h, a) == []


@pytest.mark.parametrize("name", ["C(2)", "S(3)"])
class TestHypothesisConvention:
    """On a degenerate instance the checks that assume H != L and |A| > 1 raise HypothesisError.

    Aut(C(2)) is trivial; the trivial subgroup of S(3) is its own autocentre.
    """

    @staticmethod
    def degenerate(name):
        g = catalog_build(name)
        return (whole_subgroup(g) if name == "C(2)" else trivial_subgroup(g)), compute_aut(g)

    @pytest.mark.parametrize("check", [
        classify_equality_pq, converse_check, bound_upper_main, bound_lower_S,
        equivalent_conditions,
    ])
    def test_raises(self, name, check):
        with pytest.raises(HypothesisError):
            check(*self.degenerate(name))

    def test_pq2_returns_none_on_abelian_h_first(self, name):
        assert classify_equality_pq2(*self.degenerate(name)) is None


class TestEquivalence:
    def test_z4_all_true(self):
        g, h, a = instance("C(4)")
        rep = equivalent_conditions(h, a)
        assert rep.flags() == (True,) * 5
        assert rep.consistent

    def test_z3_all_false(self):
        g, h, a = instance("C(3)")
        rep = equivalent_conditions(h, a)
        assert rep.flags() == (False,) * 5
        assert rep.consistent

    def test_q8_consistent(self):
        g, h, a = instance("Q8")
        rep = equivalent_conditions(h, a)
        assert rep.consistent

    def test_requires_nondegenerate(self):
        g, _, a = instance("C(4)")
        with pytest.raises(HypothesisError):
            equivalent_conditions(trivial_subgroup(g), a)

    def test_transposition_subgroup_of_s3_breaks_the_equivalence(self):
        # A genuine counterexample to the five-way equivalence: here
        # [H, A] is the alternating subgroup, which escapes H entirely, so
        # the containment in (c) and the normal-stabilizer claim in (d)
        # fail while (a), (b) and (e) hold.
        g = catalog_build("S(3)")
        a = compute_aut(g)
        h = subgroup_closure(g, {1})
        rep = equivalent_conditions(h, a)
        assert rep.flags() == (True, True, False, False, True)
        assert not rep.consistent

    def test_a_b_e_always_agree_and_contained_commutator_restores_all(self):
        # (a), (b) and (e) are equivalent unconditionally; when [H, A]
        # stays inside H the full five-way equivalence holds as well.
        from autodegree.automorphisms import autocommutator_subgroup

        for name in ["C(4)", "C(6)", "C(8)", "C(12)", "S(3)", "Q8", "D(4)", "Dic(3)"]:
            g = catalog_build(name)
            a = compute_aut(g)
            if a.size == 1:
                continue
            for h in enumerate_subgroups(g):
                try:
                    rep = equivalent_conditions(h, a)
                except HypothesisError:
                    continue
                flags = rep.flags()
                assert flags[0] == flags[1] == flags[4], (name, h.members, flags)
                k = autocommutator_subgroup(h, a)
                if k.member_set <= h.member_set:
                    assert rep.consistent, (name, h.members, flags)


class TestHelpers:
    def test_smallest_prime(self):
        assert smallest_prime_divisor(2) == 2
        assert smallest_prime_divisor(15) == 3
        assert smallest_prime_divisor(49) == 7
        assert smallest_prime_divisor(97) == 97
        for n in (0, 1):
            with pytest.raises(ValueError):
                smallest_prime_divisor(n)
