"""Automorphism groups and the structures derived from their action.

All automorphisms are stored as full permutation arrays so that applying
one is a single index lookup; the downstream degree formulas spend nearly
all of their time doing exactly that.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Callable

from .groups import (
    ORDER_CAP,
    GroupError,
    GroupTable,
    InvariantError,
    ParentMismatchError,
    Quotient,
    SubgroupSet,
    _Frozen,
    _closure_members,
    _composition_table,
    _require_same_parent,
    closure_witness,
    compose_perms,
    iter_isomorphisms,
    quotient_group,
    refuse_over_cap,
    subgroup_as_group,
    validate_isomorphism,
)


class Automorphism(_Frozen):
    """A group automorphism as the permutation it induces on element indices.

    Built from one of :attr:`AutGroup.images` only where an automorphism is named.
    """

    def __init__(self, parent: GroupTable, image: tuple[int, ...]):
        vars(self).update(parent=parent, image=image)

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


# Marks a memo key with nothing built yet; None is a value that can be built.
_UNBUILT = object()


class AutGroup(_Frozen):
    """A composition-closed set of automorphisms, in strictly increasing image order.

    The member data is ``images``: each automorphism as the tuple of its
    images of the element indices, with no wrapper object per member. The
    identity array is always images[0]: every automorphism fixes index 0,
    and the identity array is lexicographically least among such
    permutations. The image arrays are the only copy: an
    :class:`Automorphism` is built from one only to name it.

    The action is tabulated once per group, each table by its own loop over
    ``images`` and none from another: ``orbit_of`` from image columns,
    ``fixer_count`` by a tally of those columns, ``stabilizer_sizes`` and
    ``member_images`` element by element, ``fixed_point_sets`` member by
    member. As A is a group, orbit-stabilizer gives |orbit(x)| |Stab(x)| =
    |A|, but no count is derived that way. The four degree formulas read
    four of these tables (``fixer_count``, ``stabilizer_sizes``,
    ``fixed_point_sets``, ``orbit_of``), so their agreement stays a check.

    :attr:`derived` is the one memo of what is built from (H, A): the
    (H, A) records of :meth:`action_on`, the [H, A] of each autocommutator
    set, [H, A] as its own group, and the group induced on each orbit. No
    degree route reads it. Every H, L and [H, A] is read from the parent
    table's registry (:meth:`GroupTable.subgroup`), so each is certified
    once per table, in any call order and under every automorphism group.

    :meth:`action_on` keeps one :class:`SubgroupAction` per subgroup H,
    holding L, S, [H, A], X, the fixer-tally degree, H/L and the coset
    pairing, so each is computed once per (H, A) and dropped with this
    group. The cross-checks must not read its orbit data, and each keeps
    its own route: ``pr_via_sums`` (the stabiliser and fixed-set tables),
    ``pr_via_orbits`` (the orbit table), ``pr_commuting`` (the centraliser
    table of G, the other side of the Inn bridge), and equivalence (d) and
    (e), which read ``member_images`` and the induced groups.
    """

    def __init__(self, parent: GroupTable, images: tuple[tuple[int, ...], ...]):
        vars(self).update(parent=parent, images=images, size=len(images))

    @cached_property
    def orbit_of(self) -> tuple[tuple[int, ...], ...]:
        """The orbit of each element, indexed by element: its images, sorted, least first."""
        return tuple(tuple(sorted(set(c))) for c in zip(*self.images))

    @cached_property
    def fixer_count(self) -> tuple[int, ...]:
        """How many members fix each element, counted pair by pair, not as |A| / |orbit|."""
        return tuple(c.count(x) for x, c in enumerate(zip(*self.images)))

    @cached_property
    def stabilizer_sizes(self) -> tuple[int, ...]:
        """How many members fix each element, counted element by element over ``images``."""
        images = self.images
        return tuple(sum(1 for img in images if img[x] == x) for x in self.parent.elements())

    @cached_property
    def fixed_point_sets(self) -> tuple[tuple[frozenset[int], int], ...]:
        """The distinct fixed-point sets of the members, each with how many members have it."""
        counts = Counter(frozenset(x for x, y in enumerate(img) if x == y) for img in self.images)
        return tuple(counts.items())

    @cached_property
    def member_images(self) -> tuple[frozenset[int], ...]:
        """The images of each element over ``images``, collected element by element."""
        images = self.images
        return tuple(frozenset(map(itemgetter(x), images)) for x in self.parent.elements())

    @cached_property
    def derived(self) -> dict[tuple[str, tuple[int, ...]], object]:
        """What is built from (H, A) so far, each once per group, by kind and member tuple.

        ``("action", members of H)`` holds the :class:`SubgroupAction` of H;
        ``("commutator", S)`` the subgroup [H, A] that the autocommutator
        set S generates, read from the parent's registry;
        ``("table", members)`` that subgroup as its own group;
        ``("induced", (x,))`` the group induced on the orbit with least
        point x, or None when Stab(x) is not normal.
        """
        return {}

    def derive(self, key: tuple[str, tuple[int, ...]], build: Callable[[], object]) -> object:
        """The memo entry of :attr:`derived` under ``key``, built on first use.

        A stored None counts as built: it is not built again.
        """
        value = self.derived.get(key, _UNBUILT)
        if value is _UNBUILT:
            value = self.derived[key] = build()
        return value

    def action_on(self, H: SubgroupSet) -> "SubgroupAction":
        """The one record of (H, A); H must be a subgroup of this group's parent."""
        _require_same_parent(self.parent, H)
        record = self.derived.get(("action", H.members))
        if record is None:
            record = self.derived["action", H.members] = SubgroupAction(H, self)
        return record

    def validate(self) -> None:
        """Check the group axioms under composition, each image array by :func:`validate_isomorphism`."""
        G, images = self.parent, self.images
        if not images:
            raise InvariantError("automorphism group is empty")
        if any(a >= b for a, b in zip(images, images[1:])):
            raise InvariantError("members are not in strictly increasing image order")
        identity = tuple(G.elements())
        if images[0] != identity:
            raise InvariantError("members[0] is not the identity automorphism")
        for img in images:
            validate_isomorphism(G, G, img)
        if closure_witness(identity, images, compose_perms) is not None:
            raise InvariantError("automorphism set not closed under composition")

    @cached_property
    def abstract_group(self) -> GroupTable:
        """This set as an abstract group under composition.

        Index i of the abstract group is images[i]; the identity lands at
        index 0 by the ordering argument above. An automorphism is fixed by
        its images of ``parent.generators`` (as in :func:`validate_isomorphism`),
        so each member is keyed by them (:func:`_composition_table`):
        |generators| lookups per entry, not n. Only the autoisoclinism
        witness search reads this |A|^2-entry table.
        """
        images, gens = self.images, self.parent.generators
        table = _composition_table(images, [compose_perms(img, gens) for img in images])
        if any(table.table[0][j] != j for j in range(self.size)):
            raise InvariantError("identity automorphism did not land at index 0")
        return table


def compute_aut(G: GroupTable, cap: int = ORDER_CAP) -> AutGroup:
    """The full automorphism group, from :func:`iter_isomorphisms` of G with itself.

    The search pins generator images of equal order and centraliser size
    and closes each prefix by map extension, which validates it; it
    reaches the first automorphism leaf by leaf and composes the others
    from the pointwise stabilisers it finds on the way (the chain walk,
    :func:`~autodegree.groups._coset_heads`), so the enumeration is
    exactly the automorphisms without a search per automorphism. As
    insurance against search bugs, closure under composition is then
    certified from a generating set (:func:`closure_witness`), in
    O(|A| log |A| n) steps, and the listing is checked free of repeats,
    which the set-based recheck cannot see. The sorted image arrays are
    the group's member data, ``images``.
    """
    refuse_over_cap("automorphism search", G.order, cap)
    images = tuple(sorted(iter_isomorphisms(G, G)))
    if any(p == q for p, q in zip(images, images[1:])):
        raise InvariantError("automorphism enumeration listed a map twice")
    if closure_witness(tuple(G.elements()), images, compose_perms) is not None:
        raise InvariantError("automorphism enumeration is not closed under composition")
    return AutGroup(G, images)


def compute_inn(G: GroupTable) -> AutGroup:
    """The inner automorphisms: conjugation by each element, deduplicated."""
    t = G.table
    invs = G.inverses
    images = {
        tuple(t[t[g][x]][invs[g]] for x in G.elements())
        for g in G.elements()
    }
    return AutGroup(G, tuple(sorted(images)))


def orbit(A: AutGroup, x: int) -> tuple[int, ...]:
    """The sorted members of orbit(x)."""
    A.parent.check_element(x)
    return A.orbit_of[x]


def orbits_on_subgroup(A: AutGroup, H: SubgroupSet) -> list[tuple[int, ...]]:
    """The distinct orbits of the members of H, ordered by representative.

    H need not be invariant under A, so an orbit may contain elements
    outside H; each orbit still appears once. H must be a subgroup of A's parent.
    """
    _require_same_parent(A.parent, H)
    return sorted({A.orbit_of[x] for x in H.members})


def stabilizer(A: AutGroup, x: int) -> AutGroup:
    """Members of A fixing x; a subgroup of A, in the inherited order."""
    A.parent.check_element(x)
    return AutGroup(A.parent, tuple(img for img in A.images if img[x] == x))


def fixed_subgroup(H: SubgroupSet, alpha: Automorphism) -> SubgroupSet:
    """Fixed points of alpha inside H; alpha must be an automorphism of H's parent.

    The fixed set of an automorphism inside a subgroup is always closed;
    closure is still verified when the parent's registry first certifies
    the set, and a violation raises rather than silently re-closing it.
    """
    if alpha.parent != H.parent:
        raise ParentMismatchError("automorphism belongs to a different group")
    fixed = tuple(x for x in H.members if alpha.image[x] == x)
    try:
        return H.parent.subgroup(fixed)
    except GroupError as exc:
        raise InvariantError(
            f"fixed points of an automorphism inside a subgroup failed to close: {exc}"
        ) from exc


def coset_pairing(A: AutGroup, cosets: tuple[tuple[int, ...], ...]) -> tuple[tuple[int, ...], ...]:
    """``rows[c][a]`` = [x, alpha] = x^-1 alpha(x) for x in ``cosets[c]``, alpha = ``A.images[a]``.

    Each row is read from the coset's first representative, and every other
    representative is compared with it, automorphism by automorphism. Two
    that disagree raise :class:`InvariantError`, naming the coset, the first
    automorphism of A at which its representatives disagree and the
    sorted values they take there. The table read is that of A's parent, so
    an automorphism of another group cannot reach the pairing.
    """
    G, images = A.parent, A.images
    t, invs = G.table, G.inverses
    rows = []
    for coset in cosets:
        first, *others = coset
        inverse_row = t[invs[first]]
        row = [inverse_row[img[first]] for img in images]
        for x in others:
            inverse_row = t[invs[x]]
            if [inverse_row[img[x]] for img in images] != row:
                for img in images:
                    values = {t[invs[y]][img[y]] for y in coset}
                    if len(values) != 1:
                        raise InvariantError(f"coset {coset} maps to {sorted(values)} "
                                             f"under {Automorphism(G, img).cycle_notation()}")
        rows.append(tuple(row))
    return tuple(rows)


class SubgroupAction(_Frozen):
    """The structures of one (H, A), each computed on first use and then kept.

    Build it through :meth:`AutGroup.action_on`, which keeps one per
    subgroup, so every report, bound and pair reads the same values. It is
    also the pair (H, G) of the isoclinism layer (:func:`make_pair`). H must
    be a subgroup of A's parent, as :func:`coset_pairing` reads A's table.
    """

    def __init__(self, subgroup: SubgroupSet, auts: AutGroup):
        _require_same_parent(auts.parent, subgroup)
        vars(self).update(subgroup=subgroup, auts=auts)

    @cached_property
    def autocentre(self) -> SubgroupSet:
        H, orbits = self.subgroup, self.auts.orbit_of
        return self.auts.parent.subgroup(tuple(x for x in H.members if len(orbits[x]) == 1))

    @cached_property
    def autocommutators(self) -> tuple[int, ...]:
        H, orbits = self.subgroup, self.auts.orbit_of
        t = H.parent.table
        invs = H.parent.inverses
        return tuple(sorted({t[invs[x]][y] for x in H.members for y in orbits[x]}))

    @cached_property
    def commutator_subgroup(self) -> SubgroupSet:
        G, seed = self.auts.parent, self.autocommutators
        return self.auts.derive(("commutator", seed),
                                lambda: G.subgroup(tuple(sorted(_closure_members(G, seed)))))

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
        K = self.commutator_subgroup
        return self.auts.derive(("table", K.members), lambda: subgroup_as_group(K.parent, K)[0])

    @cached_property
    def commutator_position(self) -> dict[int, int]:
        """The element of :attr:`commutator_group` for each member of [H, A]."""
        return {m: i for i, m in enumerate(self.commutator_subgroup.members)}

    @cached_property
    def pairing(self) -> tuple[tuple[int, ...], ...]:
        """``pairing[c][a]``: [x, auts.images[a]] for x in coset c of :attr:`quotient`.

        Each value is an element of :attr:`commutator_group`: the table of
        :func:`coset_pairing`, which checks every representative of every
        coset, mapped to positions in [H, A].
        """
        rows = coset_pairing(self.auts, self.quotient.cosets)
        pos = self.commutator_position
        if any(v not in pos for row in rows for v in row):
            raise InvariantError("an autocommutator left the autocommutator subgroup")
        return tuple(tuple(map(pos.__getitem__, row)) for row in rows)

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
