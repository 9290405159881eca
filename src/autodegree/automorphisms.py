"""Automorphism groups and the structures derived from their action.

All automorphisms are stored as full permutation arrays so that applying
one is a single index lookup; the downstream degree formulas spend nearly
all of their time doing exactly that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from .groups import (
    GroupError,
    GroupHom,
    GroupTable,
    InvariantError,
    ParentMismatchError,
    SizeCapError,
    SubgroupSet,
    closure_witness,
    compose_perms,
    iter_isomorphisms,
    permutation_table,
    subgroup_closure,
)


@dataclass(frozen=True)
class Automorphism:
    """A group automorphism as the permutation it induces on element indices."""

    parent: GroupTable
    image: tuple[int, ...]

    def __call__(self, x: int) -> int:
        self.parent.check_element(x)
        return self.image[x]

    def is_identity(self) -> bool:
        return all(y == x for x, y in enumerate(self.image))

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self applied after other."""
        if other.parent != self.parent:
            raise ParentMismatchError("cannot compose automorphisms of different groups")
        return Automorphism(self.parent, compose_perms(self.image, other.image))

    def inverse(self) -> "Automorphism":
        hom = GroupHom(self.parent, self.parent, self.image)
        return Automorphism(self.parent, hom.inverse().image)

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
    four degree formulas count by four routes (the fixer tally, the
    :func:`stabilizer` lists, a per-automorphism loop, the orbit table), so
    their agreement stays a check.
    """

    parent: GroupTable
    members: tuple[Automorphism, ...]

    @property
    def size(self) -> int:
        return len(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def identity(self) -> Automorphism:
        return self.members[0]

    @cached_property
    def orbit_of(self) -> tuple["ActionOrbit", ...]:
        """The orbit of each element, indexed by element: the set of its images."""
        columns = zip(*(a.image for a in self.members))
        orbits = (tuple(sorted(set(c))) for c in columns)
        return tuple(ActionOrbit(ms[0], ms) for ms in orbits)

    @cached_property
    def fixer_count(self) -> tuple[int, ...]:
        """How many members fix each element, counted pair by pair, not as |A| / |orbit|."""
        columns = zip(*(a.image for a in self.members))
        return tuple(c.count(x) for x, c in enumerate(columns))

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


def compute_aut(G: GroupTable, cap: int = 24) -> AutGroup:
    """The full automorphism group, by generator-image backtracking.

    Candidate generator images are restricted to elements of equal order;
    every complete assignment is validated during map extension, so the
    enumeration returns exactly the automorphisms. As insurance against
    search bugs, closure under composition is then certified from a
    generating set (:func:`closure_witness`), in O(|A| log |A| n) steps.
    """
    if G.order > cap:
        raise SizeCapError(
            f"automorphism search is capped at group order {cap}; this group has order {G.order}"
        )
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


def autocommutator(G: GroupTable, x: int, alpha: Automorphism) -> int:
    """x^-1 * alpha(x): how far alpha moves x."""
    if alpha.parent != G:
        raise ParentMismatchError("automorphism belongs to a different group")
    G.check_element(x)
    return G.table[G.inverses[x]][alpha.image[x]]


@dataclass(frozen=True)
class ActionOrbit:
    """One orbit of the automorphism action, with its smallest member first."""

    representative: int
    members: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.members)


def orbit(A: AutGroup, x: int) -> ActionOrbit:
    A.parent.check_element(x)
    return A.orbit_of[x]


def orbits_on_subgroup(A: AutGroup, H: SubgroupSet) -> list[ActionOrbit]:
    """The distinct orbits of the members of H, ordered by representative.

    H need not be invariant under A, so an orbit may contain elements
    outside H; each orbit still appears once.
    """
    seen = {A.orbit_of[x].representative: A.orbit_of[x] for x in H.members}
    return [seen[r] for r in sorted(seen)]


def stabilizer(A: AutGroup, x: int) -> AutGroup:
    """Members of A fixing x; a subgroup of A, in the inherited order."""
    A.parent.check_element(x)
    return AutGroup(A.parent, tuple(a for a in A.members if a.image[x] == x))


def pointwise_stabilizer(H: SubgroupSet, A: AutGroup) -> AutGroup:
    """Members of A fixing every element of H."""
    ms = tuple(a for a in A.members if all(a.image[x] == x for x in H.members))
    return AutGroup(A.parent, ms)


def fixed_subgroup(H: SubgroupSet, alpha: Automorphism) -> SubgroupSet:
    """Fixed points of alpha inside H.

    The fixed set of an automorphism inside a subgroup is always closed;
    closure is still verified and a violation raises rather than silently
    re-closing the set.
    """
    fixed = tuple(x for x in H.members if alpha.image[x] == x)
    try:
        return SubgroupSet(H.parent, fixed)
    except GroupError as exc:
        raise InvariantError(
            f"fixed points of an automorphism inside a subgroup failed to close: {exc}"
        ) from exc


def autocentre(H: SubgroupSet, A: AutGroup) -> SubgroupSet:
    """Members of H fixed by every automorphism in A: orbit size 1, as A holds the identity."""
    return SubgroupSet(H.parent, tuple(x for x in H.members if A.orbit_of[x].size == 1))


def autocommutator_set(H: SubgroupSet, A: AutGroup) -> tuple[int, ...]:
    """All values x^-1 * alpha(x) with x in H, alpha in A; sorted, contains 0.

    As alpha runs over A, alpha(x) runs over orbit(x), so this is the union
    of x^-1 orbit(x) over x in H.
    """
    t = H.parent.table
    invs = H.parent.inverses
    return tuple(sorted({t[invs[x]][y] for x in H.members for y in A.orbit_of[x].members}))


def autocommutator_subgroup(H: SubgroupSet, A: AutGroup) -> SubgroupSet:
    """The subgroup generated by the autocommutators of (H, A)."""
    return subgroup_closure(H.parent, autocommutator_set(H, A))


def trivial_stabilizer_set(H: SubgroupSet, A: AutGroup) -> tuple[int, ...]:
    """Members of H fixed only by the identity automorphism.

    By orbit-stabilizer, these are the members whose orbit has |A| elements.

    When A itself is trivial the literal definition would return all of H
    while the autocentre is also all of H; to keep the two disjoint, that
    degenerate case returns the empty set (the report layer surfaces a note
    carrying the literal value).
    """
    if A.size == 1:
        return ()
    return tuple(x for x in H.members if A.orbit_of[x].size == A.size)


def conjugacy_class(G: GroupTable, x: int) -> ActionOrbit:
    """The conjugacy class of x, as the orbit under inner automorphisms."""
    return orbit(compute_inn(G), x)
