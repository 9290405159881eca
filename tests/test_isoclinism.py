"""Autoisoclinism: pairing, witness search, verification, equal degrees."""

import contextlib
import io
import sys
from fractions import Fraction

import pytest

from autodegree import automorphisms, cli, isoclinism
from autodegree.automorphisms import (
    AutGroup,
    SubgroupAction,
    compute_aut,
    coset_pairing,
)
from autodegree.catalog import catalog_build
from autodegree.degree import pr_definition
from autodegree.groups import (
    ParentMismatchError,
    PreconditionError,
    SizeCapError,
    enumerate_subgroups,
    find_isomorphism,
    iter_isomorphisms,
    subgroup_closure,
    whole_subgroup,
)
from autodegree.isoclinism import (
    AUT_CAP,
    QUOTIENT_CAP,
    IsoclinismWitness,
    cap_refusal,
    decide_autoisoclinism,
    find_autoisoclinism,
    make_pair,
    verify_witness,
)
from autodegree.scan import default_catalog, run_scan


def pair_of(name: str):
    return make_pair(catalog_build(name))


def pairing_value(P, c, alpha) -> int:
    """[x, alpha] for x in coset c of the pair's quotient, alpha an image array of P's group."""
    return coset_pairing(AutGroup(P.auts.parent, (alpha,)), P.quotient.cosets[c:c + 1])[0][0]


def any_beta_derives(P1, P2) -> bool:
    """Whether some (gamma, psi) derives a beta, searched with no size gate."""
    psis = list(iter_isomorphisms(P1.quotient.group, P2.quotient.group))
    return any(
        isoclinism._derive_beta(P1, P2, psi, gamma) is not None
        for gamma in iter_isomorphisms(P1.auts.abstract_group, P2.auts.abstract_group)
        for psi in psis
    )


def inverted(image: tuple[int, ...]) -> tuple[int, ...]:
    inverse = [0] * len(image)
    for a, y in enumerate(image):
        inverse[y] = a
    return tuple(inverse)


def size_gate_rejects(P1, P2) -> bool:
    """The search's shortcut: the quotient, Aut or [H, A] orders differ."""
    return (
        P1.quotient.group.order != P2.quotient.group.order
        or P1.auts.size != P2.auts.size
        or P1.commutator_subgroup.size != P2.commutator_subgroup.size
    )


class TestPairing:
    def test_z4_pairing_value(self):
        p = pair_of("C(4)")
        assert p.autocentre.members == (0, 2)
        assert p.quotient.cosets == ((0, 2), (1, 3))
        inversion = p.auts.images[1]
        assert pairing_value(p, 1, inversion) == 2

    def test_identity_automorphism_maps_every_coset_to_identity(self):
        p = pair_of("C(4)")
        for c in range(len(p.quotient.cosets)):
            assert pairing_value(p, c, p.auts.images[0]) == 0

    def test_automorphisms_without_inn_are_refused_up_front(self):
        # A = {id, (2 5)(3 4)} is closed, but it misses most of Inn(S(3)); its
        # autocentre {0, 1} is not normal, so without the check the quotient fails.
        s3 = catalog_build("S(3)")
        A = AutGroup(s3, (compute_aut(s3).images[0], (0, 1, 5, 4, 3, 2)))
        A.validate()
        with pytest.raises(PreconditionError, match=r"Inn\(G\).* \(1 2\)\(3 4\) is missing"):
            make_pair(s3, auts=A)

    def test_well_defined_across_representatives(self):
        # The pairing is built on first read, which checks every representative
        # of every coset and raises InvariantError on a disagreement, so
        # reading it is the check.
        for name in ["C(4)", "C(6)", "S(3)", "Q8", "D(4)", "Dic(3)", "M16"]:
            p = pair_of(name)
            assert len(p.pairing) == len(p.quotient.cosets)

    def test_pairing_lands_in_commutator_subgroup(self):
        p = pair_of("Q8")
        kset = set(p.commutator_subgroup.members)
        for c in range(len(p.quotient.cosets)):
            for alpha in p.auts.images:
                assert pairing_value(p, c, alpha) in kset

    def test_pair_invariants(self):
        p = pair_of("S(3)")
        assert p.autocentre.members == (0,)
        assert p.quotient.group.order == 6
        assert p.commutator_group.order == p.commutator_subgroup.size

    def test_pair_is_the_subgroup_record(self):
        s3 = catalog_build("S(3)")
        A = compute_aut(s3)
        for h in (subgroup_closure(s3, {3}), whole_subgroup(s3)):
            assert make_pair(s3, h, auts=A) is A.action_on(h)

    def test_foreign_automorphisms_for_the_whole_group_are_refused(self):
        # Inn(C(4)) is trivial, so the Inn(G) check alone would pass Aut(C(2)xC(2));
        # the parent check refuses it first, before anything enters A's memo.
        A = compute_aut(catalog_build("C(2)×C(2)"))
        with pytest.raises(ParentMismatchError):
            make_pair(catalog_build("C(4)"), auts=A)
        assert A.derived == {}

    @pytest.mark.parametrize("name, foreign", [("D(3)", "C(6)"), ("C(4)", "C(2)×C(2)")])
    def test_a_foreign_automorphism_group_is_named(self, monkeypatch, name, foreign):
        # Aut(C(6)) lacks most of Inn(D(3)), and Inn(C(4)) is trivial, so without
        # the parent check the first is blamed on Inn(G) and the second on H.
        # The check comes first: Inn(G) is never built.
        A = compute_aut(catalog_build(foreign))

        def refuse(G):
            raise AssertionError("make_pair built Inn(G) for a foreign Aut")

        monkeypatch.setattr(automorphisms, "compute_inn", refuse)
        with pytest.raises(ParentMismatchError, match="^the automorphisms belong to a different group$"):
            make_pair(catalog_build(name), auts=A)

    @pytest.mark.parametrize("name", ["C(8)", "C(2)×C(2)"])
    def test_foreign_automorphisms_are_refused(self, name):
        # An automorphism of C(8) would read the indices of C(4) as its own, and
        # one of C(2)xC(2) would split a coset of C(4). The pairing reads A's own
        # table, so a foreign A is refused at the (H, A) record, for every H,
        # built through the memo or directly.
        A = compute_aut(catalog_build(name))
        for h in enumerate_subgroups(catalog_build("C(4)")):
            with pytest.raises(ParentMismatchError):
                A.action_on(h)
            with pytest.raises(ParentMismatchError):
                SubgroupAction(h, A)


class TestWitnessSearch:
    def test_reflexive_c4(self):
        p = pair_of("C(4)")
        w = find_autoisoclinism(p, p)
        assert w is not None
        ok, why = verify_witness(p, p, w)
        assert ok, why

    def test_psi_candidates_are_drawn_as_they_are_tried(self, monkeypatch):
        # The quotient of C(3)×C(3) by its trivial autocentre has 48 automorphisms;
        # the first psi already closes the diagram with the first gamma.
        p = pair_of("C(3)×C(3)")
        drawn = []

        def counted(G1, G2):
            for hom in iter_isomorphisms(G1, G2):
                if G1 is p.quotient.group:
                    drawn.append(hom)
                yield hom

        monkeypatch.setattr(isoclinism, "iter_isomorphisms", counted)
        assert find_autoisoclinism(p, p) is not None
        assert len(drawn) == 1
        assert sum(1 for _ in iter_isomorphisms(p.quotient.group, p.quotient.group)) == 48

    def test_identity_triple_verifies(self):
        p = pair_of("C(4)")
        ident = IsoclinismWitness(
            psi=tuple(p.quotient.group.elements()),
            gamma=tuple(p.auts.abstract_group.elements()),
            beta=tuple(p.commutator_group.elements()),
        )
        ok, why = verify_witness(p, p, ident)
        assert ok, why

    @pytest.mark.parametrize("name1, name2", [
        ("S(3)", "S(3)"), ("Q8", "Q8"), ("D(4)", "D(4)"), ("D(6)", "Dic(3)"),
    ])
    def test_verify_reads_no_stored_pairing(self, monkeypatch, name1, name2):
        # The search fills each pair's stored pairing; once it is gone, the
        # check still builds both sides' tables itself.
        p1 = pair_of(name1)
        p2 = p1 if name2 == name1 else pair_of(name2)
        w = find_autoisoclinism(p1, p2)
        assert w is not None

        def refuse(self):
            raise AssertionError("verify_witness read the stored pairing")

        monkeypatch.setattr(SubgroupAction, "pairing", property(refuse))
        calls = _count_pairing_builds(monkeypatch)
        assert verify_witness(p1, p2, w) == (True, None)
        assert calls == [p1.label(), p2.label()]  # one table per side

    def test_corrupted_beta_rejected_with_counterexample(self):
        p = pair_of("C(4)")
        w = find_autoisoclinism(p, p)
        bad = IsoclinismWitness(
            psi=w.psi,
            gamma=w.gamma,
            beta=(1, 0),
        )
        ok, why = verify_witness(p, p, bad)
        assert not ok
        assert "beta" in why

    def test_another_pairs_witness_is_refused_at_psi(self):
        # The (C(4), C(4)) witness maps quotients of order 2; those of (S(3), S(3))
        # have order 6, so psi is checked against the S(3) quotients and fails.
        p = pair_of("C(4)")
        w = find_autoisoclinism(p, p)
        q = pair_of("S(3)")
        assert verify_witness(q, q, w) == (False, "psi: not a bijection onto the target")

    def test_fast_rejection_on_aut_size(self):
        p1 = pair_of("C(3)")
        p2 = pair_of("C(8)")
        assert p1.auts.size == 2 and p2.auts.size == 4
        assert find_autoisoclinism(p1, p2) is None

    def test_rejections_agree_with_exhaustive_search(self):
        names = ["C(1)", "C(2)", "C(3)", "C(4)", "C(5)", "C(6)", "C(2)×C(2)"]
        pairs = [pair_of(n) for n in names]
        for i, pa in enumerate(pairs):
            for pb in pairs[i + 1:]:
                fast = find_autoisoclinism(pa, pb)
                assert (fast is None) == (not any_beta_derives(pa, pb))

    def test_z3_z6_witness_and_degrees(self):
        p1 = pair_of("C(3)")
        p2 = pair_of("C(6)")
        w = find_autoisoclinism(p1, p2)
        assert w is not None
        ok, why = verify_witness(p1, p2, w)
        assert ok, why
        _, _, check = decide_autoisoclinism(p1, p2)
        assert check.holds
        assert check.value == Fraction(2, 3) and check.bound == Fraction(2, 3)

    def test_symmetry_by_inversion(self):
        p1 = pair_of("C(3)")
        p2 = pair_of("C(6)")
        w = find_autoisoclinism(p1, p2)
        back = IsoclinismWitness(
            psi=inverted(w.psi), gamma=inverted(w.gamma), beta=inverted(w.beta)
        )
        ok, why = verify_witness(p2, p1, back)
        assert ok, why
        forward = find_autoisoclinism(p2, p1)
        assert forward is not None

    def test_size_gate_is_sound_on_the_catalog(self):
        # Every default-catalog group the default caps admit, self-pairs
        # included: wherever the size gate answers None, the ungated search
        # finds no (gamma, psi) that derives a beta either.
        pairs = [make_pair(e.group) for e in default_catalog()]
        pairs = [p for p in pairs if cap_refusal(p, AUT_CAP, QUOTIENT_CAP) is None]
        assert len(pairs) == 30
        gated = [
            (p1, p2) for i, p1 in enumerate(pairs) for p2 in pairs[i:] if size_gate_rejects(p1, p2)
        ]
        assert len(gated) == 428
        for p1, p2 in gated:
            assert find_autoisoclinism(p1, p2) is None
            assert not any_beta_derives(p1, p2), (p1.label(), p2.label())

    @pytest.mark.parametrize("spec1, spec2", [
        (("C(2)×C(2)", [1]), ("S(3)", [1])),
        (("C(2)×C(4)", [4]), ("C(2)×C(4)", [1])),
    ])
    def test_unequal_commutator_orders_find_nothing(self, spec1, spec2):
        # Isomorphic quotients and automorphism groups, so the unrestricted
        # search derives beta for every (gamma, psi); [H, A] orders differ,
        # so no derived beta may be accepted.
        def build(name, gens):
            g = catalog_build(name)
            return make_pair(g, subgroup_closure(g, gens))

        p1, p2 = build(*spec1), build(*spec2)
        assert find_isomorphism(p1.quotient.group, p2.quotient.group) is not None
        assert find_isomorphism(p1.auts.abstract_group, p2.auts.abstract_group) is not None
        assert p1.commutator_subgroup.size != p2.commutator_subgroup.size
        assert not any_beta_derives(p1, p2)
        assert not any_beta_derives(p2, p1)

    @pytest.mark.parametrize("label", ["psi", "gamma"])
    def test_bad_psi_or_gamma_named(self, label):
        # For S(3) the quotient and the automorphism group both have order 6,
        # with elements 1 and 3 of orders 2 and 3; the all-zero map is a
        # homomorphism but not a bijection, and swapping 1 and 3 is a
        # bijection but not a homomorphism.
        p = pair_of("S(3)")
        w = find_autoisoclinism(p, p)
        for image, defect in (((0,) * 6, "not a bijection"), ((0, 3, 2, 1, 4, 5), "not a homomorphism")):
            maps = {"psi": w.psi, "gamma": w.gamma, "beta": w.beta, label: image}
            bad = IsoclinismWitness(**maps)
            ok, why = verify_witness(p, p, bad)
            assert not ok
            assert why.startswith(f"{label}: {defect}"), why

    def test_unequal_degree_pairs_find_nothing(self):
        # Pr(C4) = 3/4 but Pr(C5) = 2/5; sizes also differ, but even an
        # unrestricted search must come back empty.
        p1 = pair_of("C(4)")
        p2 = pair_of("C(5)")
        assert not any_beta_derives(p1, p2)

    def test_subgroup_pairs(self):
        s3 = catalog_build("S(3)")
        a = compute_aut(s3)
        a3 = subgroup_closure(s3, {3})
        p1 = make_pair(s3, a3, auts=a)
        p2 = pair_of("C(3)")
        # (A3, S3) vs (Z3, Z3): both quotients C(3), both degrees 2/3, but
        # |Aut| is 6 against 2, so the size gate leaves no witness to find.
        assert decide_autoisoclinism(p1, p2) == (None, None, None)
        assert pr_definition(p1.subgroup, p1.auts) == pr_definition(p2.subgroup, p2.auts)

    def test_subgroup_pair_with_a_witness(self):
        # (<r>, D(6)) against (<r^2>, D(6)): H = {0..5} and {0, 2, 4}.
        d6 = catalog_build("D(6)")
        a = compute_aut(d6)
        p1 = make_pair(d6, subgroup_closure(d6, {1}), auts=a)
        p2 = make_pair(d6, subgroup_closure(d6, {2}), auts=a)
        assert (p1.subgroup.members, p2.subgroup.members) == (tuple(range(6)), (0, 2, 4))
        w, why, check = decide_autoisoclinism(p1, p2)
        assert w is not None and why is None, why
        assert verify_witness(p1, p2, w) == (True, None)
        assert check.holds
        assert check.value == check.bound == Fraction(2, 3)

    def test_reflexive_across_catalog_sample(self):
        for name in ["C(1)", "C(2)", "C(5)", "C(6)", "S(3)", "Q8", "D(4)", "Dic(3)"]:
            p = pair_of(name)
            w, why, check = decide_autoisoclinism(p, p)
            assert w is not None, name
            assert why is None, (name, why)
            assert check.holds


class TestCaps:
    def test_aut_cap_named_in_error(self):
        p = pair_of("C(4)")
        with pytest.raises(SizeCapError) as exc:
            find_autoisoclinism(p, p, aut_cap=1)
        assert "cap 1" in str(exc.value)

    def test_quotient_cap(self):
        p = pair_of("C(7)")  # quotient has order 7
        with pytest.raises(SizeCapError):
            find_autoisoclinism(p, p, quotient_cap=2)

    def test_one_refusal_wording_for_search_and_scan(self):
        assert cap_refusal(pair_of("C(7)"), AUT_CAP, QUOTIENT_CAP) is None
        assert cap_refusal(pair_of("C(4)"), 1, QUOTIENT_CAP) == "|Aut| = 2 over cap 1"
        assert cap_refusal(pair_of("C(7)"), AUT_CAP, 2) == "quotient order 7 over cap 2"
        report = run_scan("isoclinism", max_order=24)
        assert report.warnings == [
            "C(2)×C(2)×C(2): skipped in isoclinism suite (|Aut| = 168 over cap 48)",
            "S(4): skipped in isoclinism suite (quotient order 24 over cap 16)",
        ]


def test_isoclinic_computes_aut_once_per_distinct_group(monkeypatch, capsys):
    # Equal specs share one Aut; different groups each need their own.
    calls = []
    real = automorphisms.compute_aut

    def counted(G, *args, **kwargs):
        calls.append(G.label())
        return real(G, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name == "autodegree" or name.startswith("autodegree."):
            if getattr(mod, "compute_aut", None) is real:
                monkeypatch.setattr(mod, "compute_aut", counted)
    assert cli.main(["isoclinic", "E(2,4)", "E(2,4)"]) == 3
    assert calls == ["E(2,4)"]
    calls.clear()
    assert cli.main(["isoclinic", "S(3)", "D(3)"]) == 0
    assert calls == ["S(3)", "D(3)"]
    capsys.readouterr()


def test_verify_checks_each_found_witness_once(monkeypatch):
    # Wrap the search and the verifier in every package namespace that binds
    # them, then count: each witness the search returns is verified exactly
    # once, whatever module asks for it.
    found, verified = [], []
    real_find, real_verify = isoclinism.find_autoisoclinism, isoclinism.verify_witness

    def find(*args, **kwargs):
        w = real_find(*args, **kwargs)
        if w is not None:
            found.append(w)
        return w

    def verify(P1, P2, witness):
        verified.append(witness)
        return real_verify(P1, P2, witness)

    for name, mod in list(sys.modules.items()):
        if name == "autodegree" or name.startswith("autodegree."):
            for attr, real, wrapper in (
                ("find_autoisoclinism", real_find, find),
                ("verify_witness", real_verify, verify),
            ):
                if getattr(mod, attr, None) is real:
                    monkeypatch.setattr(mod, attr, wrapper)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify", "--suite", "all", "--max-order", "24", "--format", "kv"])
    assert code == 1
    assert len(found) == 36
    assert len(verified) == len(found)
    assert all(v is f for v, f in zip(verified, found))


def _count_pairing_builds(monkeypatch) -> list[str]:
    """Wrap ``coset_pairing`` in every package namespace; log each call's group."""
    calls = []
    real = automorphisms.coset_pairing

    def counted(A, cosets):
        calls.append(A.parent.label())
        return real(A, cosets)

    for name, mod in list(sys.modules.items()):
        if name == "autodegree" or name.startswith("autodegree."):
            if getattr(mod, "coset_pairing", None) is real:
                monkeypatch.setattr(mod, "coset_pairing", counted)
    return calls


class TestPairingAfterCaps:
    """A pair that a witness-search cap refuses never builds its coset pairing."""

    def test_aut_cap_refusal_builds_no_pairing(self, monkeypatch, capsys):
        calls = _count_pairing_builds(monkeypatch)
        assert cli.main(["isoclinic", "E(2,4)", "E(2,4)"]) == 3
        assert "20160" in capsys.readouterr().err
        assert calls == []

    def test_quotient_cap_skip_in_scan_builds_no_pairing(self, monkeypatch):
        calls = _count_pairing_builds(monkeypatch)
        report = run_scan("isoclinism", max_order=24)
        assert any(w.startswith("S(4): skipped") for w in report.warnings)
        assert "S(4)" not in calls
        assert "D(4)" in calls  # pairs within the caps still build theirs

    def test_quotient_cap_refusal_builds_no_quotient(self):
        # S(4) is the one catalog group the quotient cap refuses; |H : L| = 24
        # is read from the subgroup orders, not from an order-24 quotient table.
        p = pair_of("S(4)")
        assert cap_refusal(p, AUT_CAP, QUOTIENT_CAP) == "quotient order 24 over cap 16"
        assert "quotient" not in vars(p)

    def test_unequal_quotient_orders_build_no_quotient(self):
        # |H : L| is 3 for C(3) and 2 for C(4), so the size gate answers first.
        p1, p2 = pair_of("C(3)"), pair_of("C(4)")
        assert find_autoisoclinism(p1, p2) is None
        assert "quotient" not in vars(p1) and "quotient" not in vars(p2)
