"""Automorphism groups and the structures derived from their action.

All automorphisms are stored as full permutation arrays so that applying
one is a single index lookup; the downstream degree formulas spend nearly
all of their time doing exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional

from .groups import (
    ORDER_CAP,
    GroupError,
    GroupHom,
    GroupTable,
    InvariantError,
    ParentMismatchError,
    Quotient,
    SubgroupSet,
    _require_same_parent,
    closure_witness,
    compose_perms,
    iter_isomorphisms,
    permutation_table,
    quotient_group,
    refuse_over_cap,
    subgroup_as_group,
    subgroup_closure,
)


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism as the permutation it induces on element indices."""

    parent: GroupTable
    image: tuple[int, ...]

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.image))

    def validate(self) -> None:
        if sorted(self.image) != list(self.parent.elements()):
            raise InvariantError("automorphism image is not a permutation")
        GroupHom(self.parent, self.parent, self.image).validate()

    def cycle_notation(self) -> str:
        """Disjoint cycles of element indices; 'id' for the identity."""
        seen: set[int] = set()
        out = []
        for start in range(len(self.image)):
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            x = self.image[start]
            while x != start:
                cyc.append(x)
                seen.add(x)
                x = self.image[x]
            if len(cyc) > 1:
                out.append("(" + " ".join(str(c) for c in cyc) + ")")
        return "".join(out) or "id"


@dataclass(frozen=True)
class AutGroup:
    """A composition-closed set of automorphisms, in lexicographic image order.

    The identity automorphism is always members[0]: every automorphism fixes
    index 0, and the identity array is lexicographically least among such
    permutations.

    The action is tabulated once per group by two separate routes:
    ``orbit_of`` from image sets, ``fixer_count`` by a pair-by-pair tally.
    As A is a group, orbit-stabilizer gives |orbit(x)| |Stab(x)| = |A|. The
    four degree formulas count by four routes (the fixer tally, a
    per-element count of fixers in ``members``, a per-automorphism loop,
    the orbit table), so their agreement stays a check.

    :meth:`action_on` keeps one :class:`SubgroupAction` per subgroup H,
    holding L, S, [H, A], X, the fixer-tally degree, H/L and the coset
    pairing, so each is computed once per (H, A) and dropped with this
    group. The cross-checks must not read its orbit data, and each keeps
    its own route: ``pr_via_sums`` (a per-element and a per-automorphism
    loop over ``members``), ``pr_via_orbits`` (the orbit table),
    ``pr_commuting`` (the table of G, the other side of the Inn bridge),
    and equivalence (d) and (e), which read ``members``.
    """

    parent: GroupTable
    members: tuple[Automorphism, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def orbit_of(self) -> tuple[tuple[int, ...], ...]:
        """The orbit of each element, indexed by element: its images, sorted, least first."""
        columns = zip(*(a.image for a in self.members))
        return tuple(tuple(sorted(set(c))) for c in columns)

    @cached_property
    def fixer_count(self) -> tuple[int, ...]:
        """How many members fix each element, counted pair by pair, not as |A| / |orbit|."""
        columns = zip(*(a.image for a in self.members))
        return tuple(c.count(x) for x, c in enumerate(columns))

    @cached_property
    def actions(self) -> dict[tuple[int, ...], "SubgroupAction"]:
        """The per-subgroup records built so far, keyed by member tuple."""
        return {}

    def action_on(self, H: SubgroupSet) -> "SubgroupAction":
        """The one record of (H, A); H must be a subgroup of this group's parent."""
        _require_same_parent(self.parent, H)
        record = self.actions.get(H.members)
        if record is None:
            record = self.actions[H.members] = SubgroupAction(H, self)
        return record

    def validate(self) -> None:
        """Check the group axioms for this set under composition."""
        if not self.members:
            raise InvariantError("automorphism group is empty")
        if list(self.members) != sorted(self.members, key=lambda a: a.image):
            raise InvariantError("members are not in lexicographic image order")
        if not self.members[0].is_identity():
            raise InvariantError("members[0] is not the identity automorphism")
        for a in self.members:
            a.validate()
        if _composition_witness(self.parent, self.members) is not None:
            raise InvariantError("automorphism set not closed under composition")

    @cached_property
    def abstract_group(self) -> GroupTable:
        """This set as an abstract group under composition.

        Index i of the abstract group is members[i] (:func:`permutation_table`);
        the identity lands at index 0 by the ordering argument above. Only the
        autoisoclinism witness search reads this |A|^2-entry table.
        """
        table = permutation_table([a.image for a in self.members])
        if any(table.table[0][j] != j for j in range(len(self.members))):
            raise InvariantError("identity automorphism did not land at index 0")
        return table


def _composition_witness(
    G: GroupTable, members: tuple[Automorphism, ...]
) -> Optional[tuple[tuple[int, ...], tuple[int, ...]]]:
    """closure_witness for automorphisms of G under composition, on image arrays."""
    return closure_witness(tuple(G.elements()), [a.image for a in members], compose_perms)


def compute_aut(G: GroupTable, cap: int = ORDER_CAP) -> AutGroup:
    """The full automorphism group, by generator-image backtracking.

    Candidate generator images are restricted to elements of equal order;
    every complete assignment is validated during map extension, so the
    enumeration returns exactly the automorphisms. As insurance against
    search bugs, closure under composition is then certified from a
    generating set (:func:`closure_witness`), in O(|A| log |A| n) steps.
    """
    refuse_over_cap("automorphism search", G.order, cap)
    perms = sorted(h.image for h in iter_isomorphisms(G, G))
    group = AutGroup(G, tuple(Automorphism(G, p) for p in perms))
    if _composition_witness(G, group.members) is not None:
        raise InvariantError("automorphism enumeration is not closed under composition")
    return group


def compute_inn(G: GroupTable) -> AutGroup:
    """The inner automorphisms: conjugation by each element, deduplicated."""
    t = G.table
    invs = G.inverses
    images = {
        tuple(t[t[g][x]][invs[g]] for x in G.elements())
        for g in G.elements()
    }
    return AutGroup(G, tuple(Automorphism(G, img) for img in sorted(images)))


def orbit(A: AutGroup, x: int) -> tuple[int, ...]:
    """The sorted members of orbit(x)."""
    A.parent.check_element(x)
    return A.orbit_of[x]


def orbits_on_subgroup(A: AutGroup, H: SubgroupSet) -> list[tuple[int, ...]]:
    """The distinct orbits of the members of H, ordered by representative.

    H need not be invariant under A, so an orbit may contain elements
    outside H; each orbit still appears once.
    """
    return sorted({A.orbit_of[x] for x in H.members})


def stabilizer(A: AutGroup, x: int) -> AutGroup:
    """Members of A fixing x; a subgroup of A, in the inherited order."""
    A.parent.check_element(x)
    return AutGroup(A.parent, tuple(a for a in A.members if a.image[x] == x))


def fixed_subgroup(H: SubgroupSet, alpha: Automorphism) -> SubgroupSet:
    """Fixed points of alpha inside H; alpha must be an automorphism of H's parent.

    The fixed set of an automorphism inside a subgroup is always closed;
    closure is still verified and a violation raises rather than silently
    re-closing the set.
    """
    if alpha.parent != H.parent:
        raise ParentMismatchError("automorphism belongs to a different group")
    fixed = tuple(x for x in H.members if alpha.image[x] == x)
    try:
        return SubgroupSet(H.parent, fixed)
    except GroupError as exc:
        raise InvariantError(
            f"fixed points of an automorphism inside a subgroup failed to close: {exc}"
        ) from exc


def coset_autocommutator(G: GroupTable, coset: tuple[int, ...], alpha: Automorphism) -> int:
    """[x, alpha] = x^-1 alpha(x) for the representatives x of a coset of L, checked equal.

    Raises :class:`InvariantError` when two representatives disagree, and
    :class:`ParentMismatchError` for an automorphism of a group other than G.
    """
    if alpha.parent != G:
        raise ParentMismatchError("automorphism belongs to a different group")
    t, invs, img = G.table, G.inverses, alpha.image
    values = {t[invs[x]][img[x]] for x in coset}
    if len(values) != 1:
        raise InvariantError(
            f"coset {coset} maps to {sorted(values)} under {alpha.cycle_notation()}"
        )
    return values.pop()


@dataclass(frozen=True, eq=False)
class SubgroupAction:
    """The structures of one (H, A), each computed on first use and then kept.

    Build it through :meth:`AutGroup.action_on`, which keeps one per
    subgroup, so every report, bound and pair reads the same values. It is
    also the pair (H, G) of the isoclinism layer (:func:`make_pair`).
    """

    subgroup: SubgroupSet
    auts: AutGroup

    @cached_property
    def autocentre(self) -> SubgroupSet:
        H, orbits = self.subgroup, self.auts.orbit_of
        fixed = tuple(x for x in H.members if len(orbits[x]) == 1)
        # When A fixes all of H, L is H itself and needs no second validation.
        return H if len(fixed) == H.size else SubgroupSet(H.parent, fixed)

    @cached_property
    def autocommutators(self) -> tuple[int, ...]:
        H, orbits = self.subgroup, self.auts.orbit_of
        t = H.parent.table
        invs = H.parent.inverses
        return tuple(sorted({t[invs[x]][y] for x in H.members for y in orbits[x]}))

    @cached_property
    def commutator_subgroup(self) -> SubgroupSet:
        return subgroup_closure(self.subgroup.parent, self.autocommutators)

    @cached_property
    def only_identity(self) -> tuple[int, ...]:
        A = self.auts
        if A.size == 1:
            return ()
        return tuple(x for x in self.subgroup.members if len(A.orbit_of[x]) == A.size)

    @cached_property
    def pr(self) -> Fraction:
        H, A = self.subgroup, self.auts
        return Fraction(sum(A.fixer_count[x] for x in H.members), H.size * A.size)

    @cached_property
    def quotient(self) -> Quotient:
        """H/L; L must be normal in H, as it is whenever A contains Inn(G)."""
        return quotient_group(self.subgroup.parent, self.subgroup, self.autocentre)

    @cached_property
    def commutator_group(self) -> GroupTable:
        """[H, A] as its own group: element i is ``commutator_subgroup.members[i]``."""
        return subgroup_as_group(self.subgroup.parent, self.commutator_subgroup)[0]

    @cached_property
    def commutator_position(self) -> dict[int, int]:
        """The element of :attr:`commutator_group` for each member of [H, A]."""
        return {m: i for i, m in enumerate(self.commutator_subgroup.members)}

    @cached_property
    def pairing(self) -> tuple[tuple[int, ...], ...]:
        """``pairing[c][a]``: [x, members[a]] for x in coset c of :attr:`quotient`.

        Each value is an element of :attr:`commutator_group`, and every
        representative of every coset is checked (:func:`coset_autocommutator`).
        """
        G, pos = self.subgroup.parent, self.commutator_position
        rows = []
        for coset in self.quotient.cosets:
            values = [coset_autocommutator(G, coset, a) for a in self.auts.members]
            if any(v not in pos for v in values):
                raise InvariantError("an autocommutator left the autocommutator subgroup")
            rows.append(tuple(pos[v] for v in values))
        return tuple(rows)

    def label(self) -> str:
        """The parent's label, followed by the members of H unless H is the whole group."""
        g = self.subgroup.parent.label()
        if self.subgroup.is_whole():
            return g
        return f"{g}[{','.join(str(m) for m in self.subgroup.members)}]"


def autocentre(H: SubgroupSet, A: AutGroup) -> SubgroupSet:
    """Members of H fixed by every automorphism in A: orbit size 1, as A holds the identity."""
    return A.action_on(H).autocentre


def autocommutator_set(H: SubgroupSet, A: AutGroup) -> tuple[int, ...]:
    """All values x^-1 * alpha(x) with x in H, alpha in A; sorted, contains 0.

    As alpha runs over A, alpha(x) runs over orbit(x), so this is the union
    of x^-1 orbit(x) over x in H.
    """
    return A.action_on(H).autocommutators


def autocommutator_subgroup(H: SubgroupSet, A: AutGroup) -> SubgroupSet:
    """The subgroup generated by the autocommutators of (H, A)."""
    return A.action_on(H).commutator_subgroup


def trivial_stabilizer_set(H: SubgroupSet, A: AutGroup) -> tuple[int, ...]:
    """Members of H fixed only by the identity automorphism.

    By orbit-stabilizer, these are the members whose orbit has |A| elements.

    When A itself is trivial the literal definition would return all of H
    while the autocentre is also all of H; to keep the two disjoint, that
    degenerate case returns the empty set (the report layer surfaces a note
    carrying the literal value).
    """
    return A.action_on(H).only_identity
