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

from itertools import chain, islice
from typing import Iterator, Optional

from . import automorphisms as am
from .automorphisms import AutGroup, SubgroupAction
from .degree import BoundCheck, pr_definition
from .groups import (
    GroupError,
    GroupTable,
    ParentMismatchError,
    PreconditionError,
    SizeCapError,
    SubgroupSet,
    _Frozen,
    _require_same_parent,
    close_partial_map,
    iter_isomorphisms,
    validate_isomorphism,
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
    raises :class:`PreconditionError`. An automorphism group of another
    table raises :class:`ParentMismatchError` before Inn(G) is built. The
    coset pairing is well defined for every H: A contains every inner
    automorphism, so the autocentre L, whose members every automorphism
    fixes, lies in the centre of G (hence is normal in H), and for l in L,
    (xl)^-1 alpha(xl) = l^-1 x^-1 alpha(x) alpha(l) = l^-1 (x^-1 alpha(x)) l
    = x^-1 alpha(x).
    The pairing is not built here: :func:`_derive_beta` builds it on first
    use, after the witness-search caps have passed, so a pair refused by a
    cap never pays for it. :func:`coset_pairing` builds it and checks every
    coset representative, and a disagreement raises :class:`InvariantError`.
    """
    A = auts if auts is not None else am.compute_aut(G)
    if A.parent is not G and A.parent != G:
        raise ParentMismatchError("the automorphisms belong to a different group")
    images = set(A.images)
    missing = [img for img in am.compute_inn(G).images if img not in images]
    if missing:
        raise PreconditionError(
            f"the automorphisms must contain Inn(G), as the quotient by the autocentre "
            f"and the coset pairing need; {am.Automorphism(G, missing[0]).cycle_notation()} is missing"
        )
    if H is None:
        H = whole_subgroup(A.parent)
    _require_same_parent(G, H)
    return A.action_on(H)


class IsoclinismWitness(_Frozen):
    """The triple of isomorphisms making the pairing diagram commute, as image tuples.

    ``psi`` maps quotient 1 to quotient 2, ``gamma`` automorphism group 1 to 2
    as abstract groups, and ``beta`` autocommutator subgroup 1 to 2 as
    standalone groups; entry x of each is the image of its source's element x.
    """

    def __init__(self, psi: tuple[int, ...], gamma: tuple[int, ...], beta: tuple[int, ...]):
        vars(self).update(psi=psi, gamma=gamma, beta=beta)


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

    |Aut| is tested first, and the quotient order is read as |H| / |L|, so no quotient is built.
    """
    if P.auts.size > aut_cap:
        return f"|Aut| = {P.auts.size} over cap {aut_cap}"
    order = P.subgroup.size // P.autocentre.size
    if order > quotient_cap:
        return f"quotient order {order} over cap {quotient_cap}"
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
    whose derived beta closes the diagram wins. The psi candidates are drawn
    from their search as the first gamma tries them and kept for the later
    gammas, so a witness found early does not pay to list every psi. A pair
    refused by :func:`cap_refusal` raises :class:`SizeCapError`. The search
    is skipped when the quotient, automorphism group or commutator sizes
    differ: psi, gamma and beta are bijections between those groups, so no
    witness exists when any of the three pairs of orders differs (|H| / |L| for the quotients).
    """
    for P, which in ((P1, "first"), (P2, "second")):
        refusal = cap_refusal(P, aut_cap, quotient_cap)
        if refusal is not None:
            raise SizeCapError(f"witness search refuses the {which} pair {P.label()}: {refusal}")
    if (
        P1.subgroup.size // P1.autocentre.size != P2.subgroup.size // P2.autocentre.size
        or P1.auts.size != P2.auts.size
        or P1.commutator_subgroup.size != P2.commutator_subgroup.size
    ):
        return None
    source = iter_isomorphisms(P1.quotient.group, P2.quotient.group)
    psis = list(islice(source, 1))
    if not psis:
        return None
    for gamma in iter_isomorphisms(P1.auts.abstract_group, P2.auts.abstract_group):
        for psi in chain(psis, _kept(source, psis)):
            beta = _derive_beta(P1, P2, psi, gamma)
            if beta is not None:
                return IsoclinismWitness(psi=psi, gamma=gamma, beta=beta)
    return None


def _kept(source: Iterator[tuple[int, ...]], kept: list[tuple[int, ...]]) -> Iterator[tuple[int, ...]]:
    """The items of ``source``, each appended to ``kept`` as it is drawn."""
    for item in source:
        kept.append(item)
        yield item


def verify_witness(
    P1: SubgroupAction, P2: SubgroupAction, witness: IsoclinismWitness
) -> tuple[bool, Optional[str]]:
    """Re-check a witness from scratch, independent of the search path.

    Verifies that each of psi, gamma, beta is an isomorphism between the
    pairs' own groups, named as in :class:`IsoclinismWitness`, with one
    :func:`validate_isomorphism` per image tuple, and that the square
    commutes on every (coset, automorphism) input, one lookup each in the
    pairing tables that :func:`coset_pairing` builds afresh for both sides;
    the stored pairing is never read. Returns (ok, counterexample-or-None);
    a counterexample names the failing map as psi, gamma or beta.
    """
    for label, image, src, dst in (
        ("psi", witness.psi, P1.quotient.group, P2.quotient.group),
        ("gamma", witness.gamma, P1.auts.abstract_group, P2.auts.abstract_group),
        ("beta", witness.beta, P1.commutator_group, P2.commutator_group),
    ):
        try:
            validate_isomorphism(src, dst, image)
        except GroupError as exc:
            return False, f"{label}: {exc}"
    rows1, rows2 = (am.coset_pairing(P.auts, P.quotient.cosets) for P in (P1, P2))
    pos1, pos2 = P1.commutator_position, P2.commutator_position
    psi, gamma, beta = witness.psi, witness.gamma, witness.beta
    for c, row1 in enumerate(rows1):
        row2 = rows2[psi[c]]
        for a, v1 in enumerate(row1):
            if beta[pos1[v1]] != pos2[row2[gamma[a]]]:
                alpha = am.Automorphism(P1.auts.parent, P1.auts.images[a]).cycle_notation()
                return False, f"diagram fails at coset {c}, automorphism {alpha}"
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
