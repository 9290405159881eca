"""Autoisoclinism: pairing, witness search, verification, equal degrees."""

import contextlib
import dataclasses
import io
import sys
from fractions import Fraction

import pytest

from autodegree import automorphisms, cli, isoclinism
from autodegree.automorphisms import AutGroup, Automorphism, compute_aut, coset_autocommutator
from autodegree.catalog import catalog_build
from autodegree.degree import pr_definition
from autodegree.groups import (
    GroupHom,
    ParentMismatchError,
    PreconditionError,
    SizeCapError,
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
    """[x, alpha] for x in coset c of the pair's quotient, from the definition."""
    return coset_autocommutator(P.subgroup.parent, P.quotient.cosets[c], alpha)


def any_beta_derives(P1, P2) -> bool:
    """Whether some (gamma, psi) derives a beta, searched with no size gate."""
    psis = list(iter_isomorphisms(P1.quotient.group, P2.quotient.group))
    return any(
        isoclinism._derive_beta(P1, P2, psi.image, gamma.image) is not None
        for gamma in iter_isomorphisms(P1.auts.abstract_group, P2.auts.abstract_group)
        for psi in psis
    )


def inverted(hom: GroupHom) -> GroupHom:
    image = [0] * len(hom.image)
    for a, y in enumerate(hom.image):
        image[y] = a
    return GroupHom(hom.target, hom.source, tuple(image))


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
        inversion = p.auts.members[1]
        assert pairing_value(p, 1, inversion) == 2

    def test_identity_automorphism_maps_every_coset_to_identity(self):
        p = pair_of("C(4)")
        for c in range(len(p.quotient.cosets)):
            assert pairing_value(p, c, p.auts.members[0]) == 0

    def test_automorphisms_without_inn_are_refused_up_front(self):
        # A = {id, (2 5)(3 4)} is closed, but it misses most of Inn(S(3)); its
        # autocentre {0, 1} is not normal, so without the check the quotient fails.
        s3 = catalog_build("S(3)")
        swap = Automorphism(s3, (0, 1, 5, 4, 3, 2))
        A = AutGroup(s3, (compute_aut(s3).members[0], swap))
        A.validate()
        with pytest.raises(PreconditionError, match=r"Inn\(G\)"):
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
            for alpha in p.auts.members:
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

    @pytest.mark.parametrize("name", ["C(8)", "C(2)×C(2)"])
    def test_foreign_automorphisms_are_refused(self, name):
        # An automorphism of C(8) reads the indices of C(4) as its own, giving
        # wrong values or an IndexError; one of C(2)xC(2) splits a coset of C(4).
        p = pair_of("C(4)")
        for alpha in compute_aut(catalog_build(name)).members:
            for c in range(len(p.quotient.cosets)):
                with pytest.raises(ParentMismatchError):
                    pairing_value(p, c, alpha)


class TestWitnessSearch:
    def test_reflexive_c4(self):
        p = pair_of("C(4)")
        w = find_autoisoclinism(p, p)
        assert w is not None
        ok, why = verify_witness(p, p, w)
        assert ok, why

    def test_identity_triple_verifies(self):
        p = pair_of("C(4)")
        ident = IsoclinismWitness(
            psi=GroupHom(p.quotient.group, p.quotient.group,
                         tuple(p.quotient.group.elements())),
            gamma=GroupHom(p.auts.abstract_group, p.auts.abstract_group,
                           tuple(p.auts.abstract_group.elements())),
            beta=GroupHom(p.commutator_group, p.commutator_group,
                          tuple(p.commutator_group.elements())),
        )
        ok, why = verify_witness(p, p, ident)
        assert ok, why

    def test_corrupted_beta_rejected_with_counterexample(self):
        p = pair_of("C(4)")
        w = find_autoisoclinism(p, p)
        bad = IsoclinismWitness(
            psi=w.psi,
            gamma=w.gamma,
            beta=GroupHom(p.commutator_group, p.commutator_group, (1, 0)),
        )
        ok, why = verify_witness(p, p, bad)
        assert not ok
        assert "beta" in why

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
        hom = getattr(w, label)
        for image, defect in (((0,) * 6, "not a bijection"), ((0, 3, 2, 1, 4, 5), "not a homomorphism")):
            bad = dataclasses.replace(w, **{label: GroupHom(hom.source, hom.target, image)})
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
    """Wrap ``coset_autocommutator`` in every package namespace; log each call's group."""
    calls = []
    real = automorphisms.coset_autocommutator

    def counted(G, coset, alpha):
        calls.append(G.label())
        return real(G, coset, alpha)

    for name, mod in list(sys.modules.items()):
        if name == "autodegree" or name.startswith("autodegree."):
            if getattr(mod, "coset_autocommutator", None) is real:
                monkeypatch.setattr(mod, "coset_autocommutator", counted)
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
