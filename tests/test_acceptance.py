"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every tolerance is exact (rational equality); runtimes are asserted where
the criterion states a target. Criterion 5 checks the five-way equivalence
under its hypothesis [H, Aut(G)] <= H; the `equivalence` verify suite
still reports, as failures, the catalog instances outside that hypothesis
(see "Known mathematical findings" in README.md, and tests/test_degree.py
for the worked counterexample at the transposition subgroup of S(3)).
"""

import time
from fractions import Fraction

import oracles
from autodegree.automorphisms import compute_aut, compute_inn
from autodegree.catalog import catalog_build
from autodegree.degree import (
    equivalent_conditions,
    pr_commuting,
    pr_definition,
)
from autodegree.groups import enumerate_subgroups, subgroup_closure, whole_subgroup
from autodegree.isoclinism import (
    decide_autoisoclinism,
    find_autoisoclinism,
    make_pair,
    verify_witness,
)
from autodegree.scan import _subgroup_label, default_catalog, run_scan


def report(num: int, ok: bool, desc: str) -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_formula_agreement():
    start = time.monotonic()
    rep = run_scan("formulas", max_order=16)
    elapsed = time.monotonic() - start
    agreement = [r for r in rep.records if r.name == "formula_agreement"]
    ok = bool(agreement) and all(r.status == "pass" for r in agreement)
    ok = ok and rep.failures == 0 and elapsed < 120
    report(1, ok, f"four formulas agree exactly on {len(agreement)} instances "
                  f"with |G| <= 16 in {elapsed:.1f}s")


def test_criterion_2_spot_values_against_oracle():
    expected = {
        ("C(3)", None): Fraction(2, 3),
        ("C(4)", None): Fraction(3, 4),
        ("S(3)", None): Fraction(1, 2),
        ("S(3)", (3,)): Fraction(2, 3),   # the alternating subgroup
        ("Q8", None): Fraction(3, 8),
    }
    ok = True
    for (name, gens), value in expected.items():
        g = catalog_build(name)
        h = whole_subgroup(g) if gens is None else subgroup_closure(g, gens)
        auts = oracles.brute_automorphisms(g.table)
        oracle_value = oracles.brute_pr(g.table, h.members, auts)
        built_value = pr_definition(h, compute_aut(g))
        ok = ok and oracle_value == value == built_value
    report(2, ok, "Pr spot values match the all-permutation oracle exactly")


def test_criterion_3_bound_suites():
    upper = run_scan("upper", max_order=24)
    lower = run_scan("lower", max_order=24)
    caps = [
        r for r in upper.records
        if r.name in ("upper_cap_3_4", "upper_cap_5_8") and r.status != "inapplicable"
    ]
    ok = (
        upper.failures == 0
        and lower.failures == 0
        and bool(caps)
        and all(r.status == "pass" for r in caps)
    )
    report(3, ok, f"all upper/lower bounds hold on every applicable instance "
                  f"({upper.count('pass')} + {lower.count('pass')} checks); "
                  f"3/4 and 5/8 caps never exceeded")


def test_criterion_4_equality_characterizations():
    rep = run_scan("equalities", max_order=24)
    pq_pass = {(r.group, r.subgroup) for r in rep.records
               if r.name == "equality_pq" and r.status == "pass"}
    pq2_records = [r for r in rep.records if r.name == "equality_pq2"]
    pq2_applicable = [r for r in pq2_records if r.status != "inapplicable"]
    pq2_ok = (
        all(r.status == "pass" for r in pq2_applicable)
        if pq2_applicable
        else any(v.startswith("equality_pq2") for v in rep.vacuous)
    )
    ok = (
        rep.failures == 0
        and ("C(4)", "whole") in pq_pass
        and ("C(3)", "whole") in pq_pass
        and pq2_ok
    )
    detail = (f"{len(pq_pass)} cyclic-quotient witnesses incl. C(4), C(3); "
              + ("non-abelian case vacuous (recorded)" if not pq2_applicable
                 else f"{len(pq2_applicable)} non-abelian witnesses"))
    report(4, ok, detail)


def _aut_invariant(H, auts) -> bool:
    """Every automorphism maps H into H, which is [H, Aut(G)] <= H."""
    return all(img[x] in H.member_set for img in auts.images for x in H.members)


def test_criterion_5_five_way_equivalence():
    z4 = catalog_build("C(4)")
    z4_flags = equivalent_conditions(whole_subgroup(z4), compute_aut(z4)).flags()
    z3 = catalog_build("C(3)")
    z3_flags = equivalent_conditions(whole_subgroup(z3), compute_aut(z3)).flags()
    witnesses_ok = z4_flags == (True,) * 5 and z3_flags == (False,) * 5

    rep = run_scan("equivalence", max_order=24)
    records = {(r.group, r.subgroup): r for r in rep.records
               if r.name == "equivalent_conditions"}
    witness_keys = {("C(4)", "whole"), ("C(3)", "whole")}
    abe_ok = True
    inside: dict[tuple[str, str], tuple[bool, ...]] = {}
    outside: set[tuple[str, str]] = set()
    for entry in default_catalog():
        if entry.group.order > 24:
            continue
        auts = compute_aut(entry.group)
        for h in enumerate_subgroups(entry.group):
            key = (entry.name, _subgroup_label(h))
            if records[key].status == "inapplicable":
                continue
            flags = equivalent_conditions(h, auts).flags()
            abe_ok = abe_ok and flags[0] == flags[1] == flags[4]
            if _aut_invariant(h, auts):
                inside[key] = flags
            else:
                outside.add(key)
    inside_ok = all(
        len(set(flags)) == 1 and records[key].status == "pass"
        for key, flags in inside.items()
    )
    others = [flags for key, flags in inside.items() if key not in witness_keys]
    both_kinds = (True,) * 5 in others and (False,) * 5 in others
    fails = [k for k, r in records.items() if r.status == "fail"]
    fails_outside = all(k in outside for k in fails)
    ok = witnesses_ok and abe_ok and inside_ok and both_kinds and fails_outside
    report(
        5, ok,
        f"required witnesses ok={witnesses_ok} (C(4) all-true, C(3) all-false); "
        f"(a)=(b)=(e) on all {len(inside) + len(outside)} applicable instances={abe_ok}; "
        f"five booleans identical on all {len(inside)} instances with [H,A] <= H"
        f"={inside_ok and both_kinds} ({others.count((True,) * 5)} all-true, "
        f"{others.count((False,) * 5)} all-false besides the witnesses); "
        f"{len(fails)} fail records all outside the hypothesis={fails_outside} "
        f"(see 'Known mathematical findings' in README.md)"
    )


def test_criterion_6_inn_commuting_bridge():
    ok = True
    checked = 0
    for entry in default_catalog():
        if entry.group.order > 16:
            continue
        g = entry.group
        auts = compute_aut(g)
        inn = compute_inn(g)
        for h in enumerate_subgroups(g):
            commuting = pr_commuting(h)
            ok = ok and pr_definition(h, inn) == commuting
            ok = ok and pr_definition(h, auts) <= commuting
            checked += 1
    s3 = catalog_build("S(3)")
    h = whole_subgroup(s3)
    equality_witness = pr_definition(h, compute_aut(s3)) == pr_commuting(h) == Fraction(1, 2)
    ok = ok and equality_witness
    report(6, ok, f"Pr(H,Inn) = Pr(H,G) and Pr(H,Aut) <= Pr(H,G) on {checked} "
                  f"instances; complete-group equality witness S(3)")


def test_criterion_7_isoclinism():
    entries = []
    skipped = []
    for entry in default_catalog():
        auts = compute_aut(entry.group)
        pair = make_pair(entry.group, auts=auts)
        if auts.size > 48 or pair.quotient.group.order > 24:
            skipped.append(entry.name)
            continue
        entries.append((entry.name, pair))
    ok = True
    reflexive = 0
    for name, pair in entries:
        w = find_autoisoclinism(pair, pair, aut_cap=48, quotient_cap=24)
        good = w is not None and verify_witness(pair, pair, w)[0]
        ok = ok and good
        reflexive += 1
    witnesses = 0
    for i, (n1, p1) in enumerate(entries):
        for n2, p2 in entries[i + 1:]:
            w, _, degrees = decide_autoisoclinism(p1, p2, aut_cap=48, quotient_cap=24)
            if w is None:
                continue
            ok = ok and degrees is not None and degrees.holds
            witnesses += 1
    p3 = make_pair(catalog_build("C(3)"))
    p6 = make_pair(catalog_build("C(6)"))
    w36, _, degrees36 = decide_autoisoclinism(p3, p6)
    ok = ok and pr_definition(p3.subgroup, p3.auts) == Fraction(2, 3)
    ok = ok and pr_definition(p6.subgroup, p6.auts) == Fraction(2, 3)
    if w36 is not None:
        ok = ok and degrees36 is not None and degrees36.holds
    report(7, ok, f"reflexive witnesses for {reflexive} entries with |Aut| <= 48 "
                  f"(skipped over-cap: {skipped}); {witnesses} cross-pair witnesses "
                  f"all verified with equal degrees; (Z3,Z3)~(Z6,Z6) terminated "
                  f"with both degrees 2/3")


def test_criterion_8_aut_cross_validation():
    ok = True
    checked = []
    for entry in default_catalog():
        if entry.group.order > 8:
            continue
        built = list(compute_aut(entry.group).images)
        brute = oracles.brute_automorphisms(entry.group.table)
        ok = ok and built == brute
        checked.append(entry.name)
    report(8, ok, f"compute_aut equals the n!-permutation filter element-for-element "
                  f"on {len(checked)} groups of order <= 8")
