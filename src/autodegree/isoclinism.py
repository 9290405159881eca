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
from functools import cached_property
from typing import Optional

from . import automorphisms as am
from .automorphisms import AutGroup, Automorphism
from .degree import BoundCheck, _check, pr_definition
from .groups import (
    GroupError,
    GroupHom,
    GroupTable,
    InvariantError,
    PreconditionError,
    Quotient,
    SizeCapError,
    SubgroupSet,
    close_partial_map,
    iter_isomorphisms,
    quotient_group,
    subgroup_as_group,
    whole_subgroup,
)


@dataclass(frozen=True)
class PairedGroups:
    """Everything the isoclinism diagram needs about one pair (H, G).

    ``pairing[c][a]`` is the autocommutator [x, alpha] of the canonical
    (smallest) representative x of coset c with automorphism index a,
    expressed as an element index of ``commutator_group``.
    """

    group: GroupTable
    subgroup: SubgroupSet
    auts: AutGroup
    autocentre: SubgroupSet
    commutator: SubgroupSet
    quotient: Quotient
    commutator_group: GroupTable
    commutator_embedding: tuple[int, ...]
    pairing: tuple[tuple[int, ...], ...]

    @cached_property
    def commutator_position(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.commutator_embedding)}

    def label(self) -> str:
        g = self.group.label()
        if self.subgroup.is_whole():
            return g
        return f"{g}[{','.join(str(m) for m in self.subgroup.members)}]"


def make_pair(
    G: GroupTable,
    H: Optional[SubgroupSet] = None,
    auts: Optional[AutGroup] = None,
) -> PairedGroups:
    """Assemble the derived structures for one (subgroup, group) pair.

    ``auts`` is Aut(G), if the caller has already computed it; any
    automorphism group containing Inn(G) will do, and one that does not
    raises :class:`PreconditionError`. The coset pairing is well defined
    for every H: A contains every inner automorphism, so the autocentre L,
    whose members every automorphism fixes, lies in the centre of G (hence
    is normal in H), and for l in L, (xl)^-1 alpha(xl) =
    l^-1 x^-1 alpha(x) alpha(l) = l^-1 (x^-1 alpha(x)) l = x^-1 alpha(x).
    Every coset representative is still checked while the pairing is
    built, and a disagreement raises :class:`InvariantError`.
    """
    if H is None:
        H = whole_subgroup(G)
    A = auts if auts is not None else am.compute_aut(G)
    images = {a.image for a in A.members}
    missing = [a for a in am.compute_inn(G).members if a.image not in images]
    if missing:
        raise PreconditionError(
            f"the automorphisms must contain Inn(G), as the quotient by the autocentre "
            f"and the coset pairing need; {missing[0].cycle_notation()} is missing"
        )
    core = am.autocentre(H, A)
    ksub = am.autocommutator_subgroup(H, A)
    quot = quotient_group(G, H, core)
    k_group, k_embed = subgroup_as_group(G, ksub)
    k_pos = {m: i for i, m in enumerate(k_embed)}
    t = G.table
    invs = G.inverses
    rows = []
    for coset in quot.cosets:
        row = []
        for a in A.members:
            img = a.image
            values = {t[invs[x]][img[x]] for x in coset}
            if len(values) != 1:
                raise InvariantError(
                    f"coset {coset} maps to {sorted(values)} under {a.cycle_notation()}"
                )
            v = values.pop()
            if v not in k_pos:
                raise InvariantError("an autocommutator left the autocommutator subgroup")
            row.append(k_pos[v])
        rows.append(tuple(row))
    return PairedGroups(
        group=G,
        subgroup=H,
        auts=A,
        autocentre=core,
        commutator=ksub,
        quotient=quot,
        commutator_group=k_group,
        commutator_embedding=k_embed,
        pairing=tuple(rows),
    )


def autocommutator_pairing(P: PairedGroups, coset_index: int, alpha: Automorphism) -> int:
    """The pairing value [x, alpha] for coset ``coset_index``, as a parent index.

    Uses the canonical (smallest) representative, after checking that every
    representative of the coset gives the same value (see :func:`make_pair`
    for why they always do).
    """
    if not 0 <= coset_index < len(P.quotient.cosets):
        raise PreconditionError(f"no coset {coset_index} in a quotient of order {len(P.quotient.cosets)}")
    coset = P.quotient.cosets[coset_index]
    t = P.group.table
    invs = P.group.inverses
    img = alpha.image
    values = {t[invs[x]][img[x]] for x in coset}
    if len(values) != 1:
        raise InvariantError(
            f"coset {coset} maps to {sorted(values)} under {alpha.cycle_notation()}"
        )
    return t[invs[coset[0]]][img[coset[0]]]


@dataclass(frozen=True)
class IsoclinismWitness:
    """The triple of isomorphisms making the pairing diagram commute."""

    psi: GroupHom    # quotient of pair 1 -> quotient of pair 2
    gamma: GroupHom  # automorphism group 1 -> 2, as abstract groups
    beta: GroupHom   # autocommutator subgroup 1 -> 2, as standalone groups


def _derive_beta(
    P1: PairedGroups, P2: PairedGroups, psi_img: tuple[int, ...], gamma_img: tuple[int, ...]
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


def find_autoisoclinism(
    P1: PairedGroups,
    P2: PairedGroups,
    aut_cap: int = 48,
    quotient_cap: int = 16,
    fast_reject: bool = True,
) -> Optional[IsoclinismWitness]:
    """Search for an autoisoclinism witness; None after exhausting the space.

    Deterministic: gamma candidates (between the automorphism groups as
    abstract groups) and psi candidates (between the quotients) are
    enumerated in lexicographic generator-image order and the first triple
    whose derived beta closes the diagram wins. ``fast_reject`` skips the
    search when the quotient, automorphism group or commutator sizes
    differ; disabling it is only useful for validating the rejections.
    """
    for P, which in ((P1, "first"), (P2, "second")):
        if P.auts.size > aut_cap:
            raise SizeCapError(
                f"automorphism group of the {which} pair has order {P.auts.size}, "
                f"over the witness-search cap {aut_cap}"
            )
        if P.quotient.group.order > quotient_cap:
            raise SizeCapError(
                f"quotient of the {which} pair has order {P.quotient.group.order}, "
                f"over the witness-search cap {quotient_cap}"
            )
    if fast_reject:
        if (
            P1.quotient.group.order != P2.quotient.group.order
            or P1.auts.size != P2.auts.size
            or P1.commutator.size != P2.commutator.size
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
    P1: PairedGroups, P2: PairedGroups, witness: IsoclinismWitness
) -> tuple[bool, Optional[str]]:
    """Re-check a witness from scratch, independent of the search path.

    Verifies that each of psi, gamma, beta is a bijective homomorphism,
    with :meth:`GroupHom.validate` and :meth:`GroupHom.is_bijective`, and
    that the square commutes on every (coset, automorphism) input, with
    the pairing values recomputed through :func:`autocommutator_pairing`
    from the definitions rather than read from the stored pairing. Returns
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
    for c in range(len(P1.quotient.cosets)):
        for a, alpha in enumerate(P1.auts.members):
            v1 = autocommutator_pairing(P1, c, alpha)
            lhs = witness.beta.image[P1.commutator_position[v1]]
            c2 = witness.psi.image[c]
            alpha2 = P2.auts.members[witness.gamma.image[a]]
            v2 = autocommutator_pairing(P2, c2, alpha2)
            rhs = P2.commutator_position[v2]
            if lhs != rhs:
                return False, (
                    f"diagram fails at coset {c}, automorphism {alpha.cycle_notation()}"
                )
    return True, None


def invert_witness(witness: IsoclinismWitness) -> IsoclinismWitness:
    """The reverse witness, for the symmetry of the relation."""
    return IsoclinismWitness(
        psi=witness.psi.inverse(),
        gamma=witness.gamma.inverse(),
        beta=witness.beta.inverse(),
    )


def _equal_degree(P1: PairedGroups, P2: PairedGroups) -> BoundCheck:
    return _check(
        "isoclinic_equal_degree",
        pr_definition(P1.subgroup, P1.auts),
        pr_definition(P2.subgroup, P2.auts),
        "equal",
    )


def check_equal_degree(
    P1: PairedGroups, P2: PairedGroups, witness: IsoclinismWitness
) -> BoundCheck:
    """Autoisoclinic pairs must have exactly equal degrees.

    Refuses a witness that does not verify with :class:`PreconditionError`.
    """
    ok, why = verify_witness(P1, P2, witness)
    if not ok:
        raise PreconditionError(f"witness does not verify: {why}")
    return _equal_degree(P1, P2)


def decide_autoisoclinism(
    P1: PairedGroups, P2: PairedGroups, aut_cap: int = 48, quotient_cap: int = 16
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
    return witness, why, _equal_degree(P1, P2) if ok else None
