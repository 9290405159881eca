"""Autoisoclinism: pairing, witness search, verification, equal degrees."""

import contextlib
import dataclasses
import io
import sys
from fractions import Fraction

import pytest

from autodegree import cli, isoclinism
from autodegree.automorphisms import AutGroup, Automorphism, compute_aut
from autodegree.catalog import catalog_build
from autodegree.degree import pr_definition
from autodegree.groups import (
    GroupHom,
    PreconditionError,
    SizeCapError,
    find_isomorphism,
    subgroup_closure,
)
from autodegree.isoclinism import (
    IsoclinismWitness,
    autocommutator_pairing,
    check_equal_degree,
    find_autoisoclinism,
    invert_witness,
    make_pair,
    verify_witness,
)


def pair_of(name: str):
    return make_pair(catalog_build(name))


class TestPairing:
    def test_z4_pairing_value(self):
        p = pair_of("C(4)")
        assert p.autocentre.members == (0, 2)
        assert p.quotient.cosets == ((0, 2), (1, 3))
        inversion = p.auts.members[1]
        assert autocommutator_pairing(p, 1, inversion) == 2

    def test_identity_automorphism_maps_every_coset_to_identity(self):
        p = pair_of("C(4)")
        for c in range(len(p.quotient.cosets)):
            assert autocommutator_pairing(p, c, p.auts.identity()) == 0

    def test_automorphisms_without_inn_are_refused_up_front(self):
        # A = {id, (2 5)(3 4)} is closed, but it misses most of Inn(S(3)); its
        # autocentre {0, 1} is not normal, so without the check the quotient fails.
        s3 = catalog_build("S(3)")
        swap = Automorphism(s3, (0, 1, 5, 4, 3, 2))
        A = AutGroup(s3, (compute_aut(s3).identity(), swap))
        A.validate()
        with pytest.raises(PreconditionError, match=r"Inn\(G\)"):
            make_pair(s3, auts=A)

    def test_well_defined_across_representatives(self):
        # make_pair checks every representative of every coset and raises
        # InvariantError on a disagreement, so building the pair is the check.
        for name in ["C(4)", "C(6)", "S(3)", "Q8", "D(4)", "Dic(3)", "M16"]:
            p = pair_of(name)
            assert len(p.pairing) == len(p.quotient.cosets)

    def test_pairing_lands_in_commutator_subgroup(self):
        p = pair_of("Q8")
        kset = set(p.commutator.members)
        for c in range(len(p.quotient.cosets)):
            for alpha in p.auts.members:
                assert autocommutator_pairing(p, c, alpha) in kset

    def test_pair_invariants(self):
        p = pair_of("S(3)")
        assert p.autocentre.members == (0,)
        assert p.quotient.group.order == 6
        assert p.commutator_group.order == p.commutator.size


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
                slow = find_autoisoclinism(pa, pb, fast_reject=False)
                assert (fast is None) == (slow is None)

    def test_z3_z6_witness_and_degrees(self):
        p1 = pair_of("C(3)")
        p2 = pair_of("C(6)")
        w = find_autoisoclinism(p1, p2)
        assert w is not None
        ok, why = verify_witness(p1, p2, w)
        assert ok, why
        check = check_equal_degree(p1, p2, w)
        assert check.holds
        assert check.value == Fraction(2, 3) and check.bound == Fraction(2, 3)

    def test_symmetry_by_inversion(self):
        p1 = pair_of("C(3)")
        p2 = pair_of("C(6)")
        w = find_autoisoclinism(p1, p2)
        back = invert_witness(w)
        ok, why = verify_witness(p2, p1, back)
        assert ok, why
        forward = find_autoisoclinism(p2, p1)
        assert forward is not None

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
        assert p1.commutator.size != p2.commutator.size
        assert find_autoisoclinism(p1, p2, fast_reject=False) is None
        assert find_autoisoclinism(p2, p1, fast_reject=False) is None

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

    def test_check_equal_degree_refuses_a_bad_witness(self):
        p = pair_of("S(3)")
        w = find_autoisoclinism(p, p)
        bad = dataclasses.replace(w, psi=GroupHom(w.psi.source, w.psi.target, (0,) * 6))
        with pytest.raises(PreconditionError, match="psi: not a bijection"):
            check_equal_degree(p, p, bad)

    def test_unequal_degree_pairs_find_nothing(self):
        # Pr(C4) = 3/4 but Pr(C5) = 2/5; sizes also differ, but even an
        # unrestricted search must come back empty.
        p1 = pair_of("C(4)")
        p2 = pair_of("C(5)")
        assert find_autoisoclinism(p1, p2, fast_reject=False) is None

    def test_subgroup_pairs(self):
        s3 = catalog_build("S(3)")
        a = compute_aut(s3)
        a3 = subgroup_closure(s3, {3})
        p1 = make_pair(s3, a3, auts=a)
        p2 = pair_of("C(3)")
        # (A3, S3) vs (Z3, Z3): both quotients C(3), both degrees 2/3.
        w = find_autoisoclinism(p1, p2)
        if w is not None:
            ok, why = verify_witness(p1, p2, w)
            assert ok, why
            assert check_equal_degree(p1, p2, w).holds
        assert pr_definition(p1.subgroup, p1.auts) == pr_definition(p2.subgroup, p2.auts)

    def test_reflexive_across_catalog_sample(self):
        for name in ["C(1)", "C(2)", "C(5)", "C(6)", "S(3)", "Q8", "D(4)", "Dic(3)"]:
            p = pair_of(name)
            w = find_autoisoclinism(p, p)
            assert w is not None, name
            ok, why = verify_witness(p, p, w)
            assert ok, (name, why)
            assert check_equal_degree(p, p, w).holds


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
