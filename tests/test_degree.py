"""Degree formulas, bounds, equality characterizations, and the equivalence."""

from fractions import Fraction

import pytest

import oracles
from autodegree.automorphisms import compute_aut, compute_inn
from autodegree.catalog import catalog_build
from autodegree.degree import (
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
    orbit_count_ratio,
    pr_commuting,
    pr_definition,
    pr_le_commuting,
    pr_via_orbits,
    pr_via_sums,
    smallest_prime_divisor,
)
from autodegree.groups import (
    PreconditionError,
    enumerate_subgroups,
    subgroup_closure,
    trivial_subgroup,
    whole_subgroup,
)


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
        assert orbit_count_ratio(h, a) == Fraction(3, 4)

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
        assert orbit_count_ratio(h, a) == Fraction(1)
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
