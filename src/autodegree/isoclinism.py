"""Autoisoclinism between pairs (subgroup, group): witness search and checks.

Two pairs are autoisoclinic when three isomorphisms (psi between the
quotients by the autocentres, gamma between the automorphism groups, beta
between the autocommutator subgroups) make the coset autocommutator
pairing commute. The search enumerates gamma and psi deterministically and
derives beta from the diagram, so a returned witness commutes by
construction. :func:`decide_autoisoclinism` is the one path from a pair of
pairs to a verdict: it searches, re-verifies the witness from scratch
once, and compares the degrees.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import automorphisms as am
from .automorphisms import AutGroup, SubgroupAction
from .degree import BoundCheck, pr_definition
from .groups import (
    GroupError,
    GroupHom,
    GroupTable,
    PreconditionError,
    SizeCapError,
    SubgroupSet,
    _require_same_parent,
    close_partial_map,
    iter_isomorphisms,
    whole_subgroup,
)

# The witness search's default caps on |Aut| and on the quotient order.
AUT_CAP = 48
QUOTIENT_CAP = 16


def make_pair(
    G: GroupTable,
    H: Optional[SubgroupSet] = None,
    auts: Optional[AutGroup] = None,
) -> SubgroupAction:
    """The (H, A) record of one (subgroup, group) pair.

    ``auts`` is Aut(G), if the caller has already computed it; any
    automorphism group containing Inn(G) will do, and one that does not
    raises :class:`PreconditionError`. The coset pairing is well defined
    for every H: A contains every inner automorphism, so the autocentre L,
    whose members every automorphism fixes, lies in the centre of G (hence
    is normal in H), and for l in L, (xl)^-1 alpha(xl) =
    l^-1 x^-1 alpha(x) alpha(l) = l^-1 (x^-1 alpha(x)) l = x^-1 alpha(x).
    The pairing is not built here: :func:`_derive_beta` builds it on first
    use, after the witness-search caps have passed, so a pair refused by a
    cap never pays for it. Every coset representative is still checked when
    it is built, and a disagreement raises :class:`InvariantError`.
    """
    H = whole_subgroup(G) if H is None else H
    _require_same_parent(G, H)
    A = auts if auts is not None else am.compute_aut(G)
    images = {a.image for a in A.members}
    missing = [a for a in am.compute_inn(G).members if a.image not in images]
    if missing:
        raise PreconditionError(
            f"the automorphisms must contain Inn(G), as the quotient by the autocentre "
            f"and the coset pairing need; {missing[0].cycle_notation()} is missing"
        )
    return A.action_on(H)


@dataclass(frozen=True)
class IsoclinismWitness:
    """The triple of isomorphisms making the pairing diagram commute."""

    psi: GroupHom    # quotient of pair 1 -> quotient of pair 2
    gamma: GroupHom  # automorphism group 1 -> 2, as abstract groups
    beta: GroupHom   # autocommutator subgroup 1 -> 2, as standalone groups


def _derive_beta(
    P1: SubgroupAction, P2: SubgroupAction, psi_img: tuple[int, ...], gamma_img: tuple[int, ...]
) -> Optional[tuple[int, ...]]:
    """The only beta that can close the diagram for (psi, gamma), or None.

    The diagram forces beta on every pairing value. Those values generate
    the autocommutator subgroup, so closing the pinned map under right
    multiplication by them (:func:`close_partial_map`) either extends it to
    an injective homomorphism on the whole subgroup or exposes a conflict.
    The pinned images are the second pair's pairing values, which generate
    its subgroup, so a conflict-free beta is onto as well; the final size
    check guards that bijection.
    """
    partial: dict[int, int] = {}
    for c, prow1 in enumerate(P1.pairing):
        prow2 = P2.pairing[psi_img[c]]
        for a, x in enumerate(prow1):
            y = prow2[gamma_img[a]]
            if partial.setdefault(x, y) != y:
                return None
    used = set(partial.values())
    if len(used) != len(partial):
        return None
    g1, g2 = P1.commutator_group, P2.commutator_group
    if not close_partial_map(g1, g2, partial, used, list(partial)):
        return None
    if len(partial) != g1.order or len(used) != g2.order:
        return None
    return tuple(partial[x] for x in range(g1.order))


def cap_refusal(P: SubgroupAction, aut_cap: int, quotient_cap: int) -> Optional[str]:
    """Why the witness-search caps refuse pair P, or None when they admit it.

    |Aut| is tested first, so a pair over the aut cap never builds its quotient.
    """
    if P.auts.size > aut_cap:
        return f"|Aut| = {P.auts.size} over cap {aut_cap}"
    if P.quotient.group.order > quotient_cap:
        return f"quotient order {P.quotient.group.order} over cap {quotient_cap}"
    return None


def find_autoisoclinism(
    P1: SubgroupAction,
    P2: SubgroupAction,
    aut_cap: int = AUT_CAP,
    quotient_cap: int = QUOTIENT_CAP,
) -> Optional[IsoclinismWitness]:
    """Search for an autoisoclinism witness; None after exhausting the space.

    Deterministic: gamma candidates (between the automorphism groups as
    abstract groups) and psi candidates (between the quotients) are
    enumerated in lexicographic generator-image order and the first triple
    whose derived beta closes the diagram wins. A pair refused by
    :func:`cap_refusal` raises :class:`SizeCapError`. The search is skipped
    when the quotient, automorphism group or commutator sizes differ: psi,
    gamma and beta are bijections between those groups, so no witness
    exists when any of the three pairs of orders differs.
    """
    for P, which in ((P1, "first"), (P2, "second")):
        refusal = cap_refusal(P, aut_cap, quotient_cap)
        if refusal is not None:
            raise SizeCapError(f"witness search refuses the {which} pair {P.label()}: {refusal}")
    if (
        P1.quotient.group.order != P2.quotient.group.order
        or P1.auts.size != P2.auts.size
        or P1.commutator_subgroup.size != P2.commutator_subgroup.size
    ):
        return None
    psis = tuple(iter_isomorphisms(P1.quotient.group, P2.quotient.group))
    if not psis:
        return None
    for gamma in iter_isomorphisms(P1.auts.abstract_group, P2.auts.abstract_group):
        for psi in psis:
            beta = _derive_beta(P1, P2, psi.image, gamma.image)
            if beta is not None:
                return IsoclinismWitness(
                    psi=psi,
                    gamma=gamma,
                    beta=GroupHom(P1.commutator_group, P2.commutator_group, beta),
                )
    return None


def verify_witness(
    P1: SubgroupAction, P2: SubgroupAction, witness: IsoclinismWitness
) -> tuple[bool, Optional[str]]:
    """Re-check a witness from scratch, independent of the search path.

    Verifies that each of psi, gamma, beta is a bijective homomorphism,
    with :meth:`GroupHom.validate` and :meth:`GroupHom.is_bijective`, and
    that the square commutes on every (coset, automorphism) input, with
    the pairing values recomputed by :func:`coset_autocommutator` from the
    definitions rather than read from the stored pairing. Returns
    (ok, counterexample-or-None); a counterexample names the failing map
    as psi, gamma or beta.
    """
    for label, hom, src, dst in (
        ("psi", witness.psi, P1.quotient.group, P2.quotient.group),
        ("gamma", witness.gamma, P1.auts.abstract_group, P2.auts.abstract_group),
        ("beta", witness.beta, P1.commutator_group, P2.commutator_group),
    ):
        if hom.source.table != src.table or hom.target.table != dst.table:
            return False, f"{label}: maps the wrong groups"
        try:
            hom.validate()
        except GroupError as exc:
            return False, f"{label}: {exc}"
        if not hom.is_bijective():
            return False, f"{label}: not a bijection onto the target"
    G1, G2 = P1.subgroup.parent, P2.subgroup.parent
    for c, coset in enumerate(P1.quotient.cosets):
        for a, alpha in enumerate(P1.auts.members):
            v1 = am.coset_autocommutator(G1, coset, alpha)
            lhs = witness.beta.image[P1.commutator_position[v1]]
            coset2 = P2.quotient.cosets[witness.psi.image[c]]
            alpha2 = P2.auts.members[witness.gamma.image[a]]
            v2 = am.coset_autocommutator(G2, coset2, alpha2)
            rhs = P2.commutator_position[v2]
            if lhs != rhs:
                return False, (
                    f"diagram fails at coset {c}, automorphism {alpha.cycle_notation()}"
                )
    return True, None


def decide_autoisoclinism(
    P1: SubgroupAction, P2: SubgroupAction, aut_cap: int = AUT_CAP, quotient_cap: int = QUOTIENT_CAP
) -> tuple[Optional[IsoclinismWitness], Optional[str], Optional[BoundCheck]]:
    """Search for a witness, verify it once, and compare the degrees.

    Returns (witness, failure, degrees). The witness is None when the
    search exhausts the space. A found witness is checked once by
    :func:`verify_witness`; ``failure`` is its counterexample, and
    ``degrees`` is the equal-degree check, made only when it verifies.
    """
    witness = find_autoisoclinism(P1, P2, aut_cap, quotient_cap)
    if witness is None:
        return None, None, None
    ok, why = verify_witness(P1, P2, witness)
    if not ok:
        return witness, why, None
    pr1, pr2 = pr_definition(P1.subgroup, P1.auts), pr_definition(P2.subgroup, P2.auts)
    return witness, None, BoundCheck("isoclinic_equal_degree", pr1, pr2, "equal")
