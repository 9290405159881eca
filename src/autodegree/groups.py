"""Finite groups as Cayley tables over element indices 0..n-1.

Elements are plain ints indexing into an n-by-n multiplication table;
index 0 is always the identity. Tables, subgroups and homomorphisms are
frozen and their cached properties are deterministic, so threads may share
them; a cached value filled by concurrent first use may be computed twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Hashable, Iterable, Iterator, Optional, Sequence, TypeVar

T = TypeVar("T", bound=Hashable)

# The largest group order the exhaustive searches accept unless told otherwise.
ORDER_CAP = 24


class GroupError(Exception):
    """Base class for all errors raised by this package."""


class TableParseError(GroupError):
    """Group table text is malformed (shape, entries, or framing)."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class AxiomError(GroupError):
    """A table fails a group axiom; the message names the axiom and a witness."""


class ParentMismatchError(GroupError):
    """An element index or subgroup was used with a foreign group."""


class PreconditionError(GroupError):
    """An operation was called outside its stated preconditions."""


class SizeCapError(GroupError):
    """An exhaustive computation would exceed its configured cap."""


class InvariantError(GroupError):
    """An internal invariant that should hold by construction was violated."""


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the index of the product a*b. Constructors in this
    package produce valid tables by construction; text input must go
    through :func:`parse_group_table`, which checks every axiom.
    """

    table: tuple[tuple[int, ...], ...]
    name: Optional[str] = field(default=None, compare=False)

    @property
    def order(self) -> int:
        return len(self.table)

    def elements(self) -> range:
        return range(len(self.table))

    def check_element(self, a: int) -> None:
        if not isinstance(a, int) or not 0 <= a < len(self.table):
            raise ParentMismatchError(
                f"element index {a!r} does not belong to a group of order {len(self.table)}"
            )

    def mul(self, a: int, b: int) -> int:
        self.check_element(a)
        self.check_element(b)
        return self.table[a][b]

    @cached_property
    def inverses(self) -> tuple[int, ...]:
        out = []
        for a, row in enumerate(self.table):
            try:
                b = row.index(0)
            except ValueError:
                raise AxiomError(f"inverse: element {a} has no right inverse") from None
            if self.table[b][a] != 0:
                raise AxiomError(f"inverse: {b} inverts {a} on the right but not the left")
            out.append(b)
        return tuple(out)

    def inv(self, a: int) -> int:
        self.check_element(a)
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        self.check_element(a)
        k, acc = 1, a
        while acc != 0:
            acc = self.table[acc][a]
            k += 1
            if k > len(self.table):
                raise InvariantError(f"element {a} has no finite order; table is not a group")
        return k

    @cached_property
    def order_profile(self) -> tuple[int, ...]:
        """Sorted multiset of element orders; a cheap isomorphism invariant."""
        return tuple(sorted(self.element_order(a) for a in self.elements()))

    def label(self) -> str:
        return self.name if self.name is not None else f"group<{self.order}>"


def _identity_candidate(table: tuple[tuple[int, ...], ...]) -> Optional[int]:
    n = len(table)
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            return e
    return None


def validate_group_table(g: GroupTable) -> None:
    """Exhaustively check the group axioms, raising AxiomError with a witness.

    Checks, in order: identity at index 0, associativity over all n^3
    triples, and two-sided inverses (through :attr:`GroupTable.inverses`).
    """
    t = g.table
    n = len(t)
    for row in t:
        if len(row) != n:
            raise AxiomError("table is not square")
    for a in range(n):
        if t[0][a] != a or t[a][0] != a:
            e = _identity_candidate(t)
            if e is not None and e != 0:
                raise AxiomError(
                    f"identity: element {e} acts as the identity; relabel the elements "
                    f"so that the identity has index 0"
                )
            raise AxiomError(f"identity: 0*{a} = {t[0][a]} and {a}*0 = {t[a][0]}")
    for a in range(n):
        row_a = t[a]
        for b in range(n):
            ab = row_a[b]
            row_b = t[b]
            for c in range(n):
                if t[ab][c] != row_a[row_b[c]]:
                    raise AxiomError(
                        f"associativity: ({a}*{b})*{c} = {t[ab][c]} "
                        f"but {a}*({b}*{c}) = {row_a[row_b[c]]}"
                    )
    g.inverses  # raises AxiomError for an element without a two-sided inverse


def parse_group_table(text: str) -> GroupTable:
    """Parse a group from the documented text format and validate it.

    Format: '#' comment lines and blank lines are ignored; the first data
    line is the order n; the next n lines hold n space-separated entries in
    [0, n), with ``table[a][b]`` on row a, column b. The identity must be
    element 0. Parsing does not assume the table is a group; the axioms are
    checked afterwards.
    """
    rows: list[tuple[int, ...]] = []
    n: Optional[int] = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if n is None:
            try:
                n = int(line)
            except ValueError:
                raise TableParseError(f"expected the group order, got {line!r}", lineno) from None
            if n <= 0:
                raise TableParseError(f"group order must be positive, got {n}", lineno)
            continue
        if len(rows) == n:
            raise TableParseError(f"unexpected extra row after {n} table rows", lineno)
        parts = line.split()
        if len(parts) != n:
            raise TableParseError(f"expected {n} entries, got {len(parts)}", lineno)
        try:
            entries = tuple(int(p) for p in parts)
        except ValueError:
            raise TableParseError(f"non-integer entry in row {line!r}", lineno) from None
        for e in entries:
            if not 0 <= e < n:
                raise TableParseError(f"entry {e} out of range [0, {n})", lineno)
        rows.append(entries)
    if n is None:
        raise TableParseError("empty input: no group order found")
    if len(rows) != n:
        raise TableParseError(f"expected {n} table rows, found {len(rows)}")
    g = GroupTable(tuple(rows))
    validate_group_table(g)
    return g


def closure_witness(
    identity: T, members: Sequence[T], product: Callable[[T, T], T]
) -> Optional[tuple[T, T]]:
    """Certify that ``members`` is a group under ``product``, from a generating set.

    ``product`` must be the operation of a finite group that contains
    every member, and ``identity`` its identity. The members are walked in
    order, growing a reached set R (starting at the identity) and a
    generator list T: a member s not yet in R is appended to T, every r
    already in R is multiplied on the right by s, and the new elements are
    closed under all of T. Returns the first pair (r, t) of R x T whose
    product falls outside the set, ``(identity, identity)`` if the identity
    itself is missing, or None on success.

    On success R is the whole set and R t lies in R for each t in T. Right
    multiplication by t is injective, so on a finite set it is onto: the set
    is closed under t^-1 too, hence it is the subgroup generated by T. Each
    new generator at least doubles R, so |T| <= log2 |members| and the check
    takes O(|members| |T|) products instead of |members|^2 (Holt, Eick and
    O'Brien, Handbook of Computational Group Theory, 2005, ch. 4).
    """
    inside = set(members)
    if identity not in inside:
        return identity, identity
    size = len(inside)
    reached = {identity}
    order = [identity]
    gens: list[T] = []
    for s in members:
        if s in reached:
            continue
        gens.append(s)
        old = len(order)
        for i in range(old):
            r = order[i]
            y = product(r, s)
            if y not in reached:
                if y not in inside:
                    return r, s
                reached.add(y)
                order.append(y)
        i = old
        while i < len(order):
            r = order[i]
            i += 1
            for t in gens:
                y = product(r, t)
                if y not in reached:
                    if y not in inside:
                        return r, t
                    reached.add(y)
                    order.append(y)
        if len(order) == size:
            break
    return None


@dataclass(frozen=True)
class SubgroupSet:
    """A subgroup of a parent group, stored as a sorted tuple of member indices.

    Construction certifies the subgroup axioms with :func:`closure_witness`,
    in O(|H| log |H|) table lookups, so any SubgroupSet in circulation is
    genuinely a subgroup. A set that is not closed raises AxiomError naming
    a pair whose product leaves it.
    """

    parent: GroupTable
    members: tuple[int, ...]

    def __post_init__(self):
        ms = self.members
        if tuple(sorted(set(ms))) != ms:
            raise InvariantError("subgroup members must be sorted and distinct")
        n = self.parent.order
        if any(not 0 <= m < n for m in ms):
            raise ParentMismatchError(f"subgroup members {ms} out of range for order {n}")
        if not ms or ms[0] != 0:
            raise AxiomError("subgroup must contain the identity (index 0)")
        t = self.parent.table
        witness = closure_witness(0, ms, lambda a, b: t[a][b])
        if witness is not None:
            raise AxiomError(f"subgroup not closed under product at {witness}")

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def __contains__(self, a: int) -> bool:
        return a in self.member_set

    def is_whole(self) -> bool:
        return len(self.members) == self.parent.order

    @cached_property
    def is_abelian(self) -> bool:
        t = self.parent.table
        return all(t[a][b] == t[b][a] for a in self.members for b in self.members)

    @cached_property
    def commuting_pairs(self) -> int:
        """How many pairs (x, y) in H x G commute, counted pair by pair."""
        t = self.parent.table
        return sum(1 for x in self.members for y, xy in enumerate(t[x]) if xy == t[y][x])


def _require_same_parent(G: GroupTable, H: SubgroupSet) -> None:
    if H.parent is not G and H.parent != G:
        raise ParentMismatchError("subgroup belongs to a different group")


def trivial_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, (0,))


def whole_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, tuple(G.elements()))


def _closure_members(G: GroupTable, gens: Iterable[int]) -> set[int]:
    t = G.table
    gens = list(gens)
    seen = {0}
    queue = [0]
    while queue:
        x = queue.pop()
        row = t[x]
        for s in gens:
            y = row[s]
            if y not in seen:
                seen.add(y)
                queue.append(y)
    return seen


def subgroup_closure(G: GroupTable, seed: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup containing ``seed``, by worklist closure.

    In a finite group, closing under right multiplication by the seed
    elements already yields the generated subgroup; inverses come free.
    """
    gens = sorted(set(seed))
    for s in gens:
        G.check_element(s)
    return SubgroupSet(G, tuple(sorted(_closure_members(G, gens))))


def _double_coset(G: GroupTable, gens: Sequence[int], g: int) -> set[int]:
    """K g K for K = <gens>: {g} closed under left and right multiplication by ``gens``."""
    t = G.table
    seen = {g}
    queue = [g]
    while queue:
        x = queue.pop()
        row = t[x]
        for s in gens:
            for y in (row[s], t[s][x]):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
    return seen


def refuse_over_cap(search: str, order: int, cap: int = ORDER_CAP) -> None:
    """Raise :class:`SizeCapError` when a group of this order is over the cap of ``search``."""
    if order > cap:
        raise SizeCapError(f"{search} is capped at group order {cap}; this group has order {order}")


def enumerate_subgroups(G: GroupTable, cap: int = ORDER_CAP) -> list[SubgroupSet]:
    """All subgroups of G, each exactly once, sorted by (order, members).

    Works by cyclic extension: start from the trivial subgroup and
    repeatedly extend each known subgroup K by a single new generator g;
    only a member tuple not seen before becomes a (validated) SubgroupSet.
    Each subgroup keeps the generators that produced it, and an extension
    closes those plus g rather than every member, so a closure costs
    O(|K| log |G|) lookups.

    One closure per double coset: <K, a g b> = <K, g> for a, b in K, so
    after closing <K, g> the whole double coset K g K is marked covered
    and its other elements are skipped (Holt, Eick and O'Brien, Handbook
    of Computational Group Theory, 2005, sec. 3.3). Elements are tried in
    ascending order, so a skipped pair (K, g') always has an earlier pair
    (K, g) with the same result: every subgroup keeps the seed it had
    before, and K costs |K \\ G / K| - 1 closures instead of |G| - |K|.
    Exhaustive, hence the order cap.
    """
    refuse_over_cap("subgroup enumeration", G.order, cap)
    trivial = trivial_subgroup(G)
    found: dict[tuple[int, ...], SubgroupSet] = {trivial.members: trivial}
    frontier: list[tuple[SubgroupSet, tuple[int, ...]]] = [(trivial, ())]
    while frontier:
        nxt = []
        for h, gens in frontier:
            covered = set(h.members)
            for g in G.elements():
                if g in covered:
                    continue
                seed = gens + (g,)
                members = tuple(sorted(_closure_members(G, seed)))
                if members not in found:
                    found[members] = SubgroupSet(G, members)
                    nxt.append((found[members], seed))
                covered |= _double_coset(G, gens, g)
        frontier = nxt
    return sorted(found.values(), key=lambda s: (s.size, s.members))


def is_normal(G: GroupTable, N: SubgroupSet, in_: SubgroupSet) -> bool:
    """True iff k*n*k^-1 stays in N for every k in the ambient subgroup."""
    _require_same_parent(G, N)
    _require_same_parent(G, in_)
    if not N.member_set <= in_.member_set:
        raise PreconditionError("N must be contained in the ambient subgroup")
    t = G.table
    invs = G.inverses
    nset = N.member_set
    for k in in_.members:
        kinv = invs[k]
        row = t[k]
        for x in N.members:
            if t[row[x]][kinv] not in nset:
                return False
    return True


@dataclass(frozen=True)
class GroupHom:
    """A homomorphism between two groups, as an image array over the source."""

    source: GroupTable
    target: GroupTable
    image: tuple[int, ...]

    def is_bijective(self) -> bool:
        return (
            len(self.image) == self.target.order
            and len(set(self.image)) == len(self.image)
        )

    def validate(self) -> None:
        """Raise InvariantError unless this is a homomorphism sending 0 to 0."""
        if len(self.image) != self.source.order:
            raise InvariantError("image array length does not match the source order")
        for y in self.image:
            self.target.check_element(y)
        if self.image[0] != 0:
            raise InvariantError("homomorphism must map the identity to the identity")
        s, t = self.source.table, self.target.table
        img = self.image
        for a in self.source.elements():
            for b in self.source.elements():
                if img[s[a][b]] != t[img[a]][img[b]]:
                    raise InvariantError(f"not a homomorphism at ({a}, {b})")


def subgroup_as_group(G: GroupTable, H: SubgroupSet) -> tuple[GroupTable, tuple[int, ...]]:
    """H re-indexed as a standalone group: (table, embedding).

    ``embedding[i]`` is the parent index of standalone element i; the
    identity keeps index 0 because members are sorted. The whole group
    re-indexes to itself, so G is returned as it is.
    """
    _require_same_parent(G, H)
    if H.is_whole():
        return G, H.members
    pos = {m: i for i, m in enumerate(H.members)}
    t = G.table
    rows = tuple(tuple(pos[t[a][b]] for b in H.members) for a in H.members)
    return GroupTable(rows), H.members


@dataclass(frozen=True)
class Quotient:
    """A quotient H/N inside a parent group: its coset table and cosets.

    ``cosets[i]`` lists the parent indices of coset i in ascending order;
    cosets are numbered by smallest member, which puts the identity coset
    N at index 0, and ``group`` multiplies cosets by their representatives.
    """

    group: GroupTable
    cosets: tuple[tuple[int, ...], ...]


def quotient_group(G: GroupTable, H: SubgroupSet, N: SubgroupSet) -> Quotient:
    """Cosets of N in H as a group, numbered as in :class:`Quotient`.

    N must be a normal subgroup of H.
    """
    _require_same_parent(G, H)
    _require_same_parent(G, N)
    if not N.member_set <= H.member_set:
        raise PreconditionError("N must be contained in H")
    if not is_normal(G, N, H):
        raise PreconditionError("N is not normal in H")
    t = G.table
    cosets: list[tuple[int, ...]] = []
    index_of: dict[int, int] = {}
    for x in H.members:
        if x in index_of:
            continue
        cs = tuple(sorted(t[x][m] for m in N.members))
        for e in cs:
            index_of[e] = len(cosets)
        cosets.append(cs)
    reps = [cs[0] for cs in cosets]
    qtable = tuple(
        tuple(index_of[t[a][b]] for b in reps) for a in reps
    )
    return Quotient(GroupTable(qtable), tuple(cosets))


def compose_perms(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """The permutation a applied after b, as an image array: x -> a[b[x]]."""
    return tuple(map(a.__getitem__, b))


def permutation_table(perms: Sequence[tuple[int, ...]], name: Optional[str] = None) -> GroupTable:
    """The Cayley table of permutations closed under :func:`compose_perms`.

    Index i of the table is ``perms[i]``; a product outside the list raises
    KeyError.
    """
    pos = {p: i for i, p in enumerate(perms)}
    rows = tuple(tuple(pos[compose_perms(a, b)] for b in perms) for a in perms)
    return GroupTable(rows, name=name)


def generating_set(G: GroupTable) -> tuple[int, ...]:
    """A small generating set, chosen greedily by maximal closure growth.

    Ties break toward the smallest index, so the result is deterministic.
    The trivial group yields the empty tuple.
    """
    gens: list[int] = []
    closed = {0}
    while len(closed) < G.order:
        best_g, best = -1, -1
        for g in G.elements():
            if g in closed:
                continue
            size = len(_closure_members(G, gens + [g]))
            if size > best:
                best, best_g = size, g
        gens.append(best_g)
        closed = _closure_members(G, gens)
    return tuple(gens)


def close_partial_map(
    G1: GroupTable,
    G2: GroupTable,
    mapped: dict[int, int],
    used: set[int],
    gens: Sequence[int],
) -> bool:
    """Close an injective partial map G1 -> G2 under right multiplication by ``gens``.

    ``mapped`` must already hold every generator and ``used`` its image
    set; both are extended in place. Every x reached gets x*q -> f(x)*f(q)
    for each generator q, and an image that is already taken or disagrees
    with an earlier value is a conflict, reported by returning False.

    On success f(xq) = f(x)f(q) for every x in the domain and q in
    ``gens``. If the domain started with the identity and inside the
    subgroup generated by ``gens``, it is now that subgroup and f is an
    injective homomorphism on it (every element is a positive word in the
    generators); the caller compares sizes to decide whether f is onto.
    """
    t1, t2 = G1.table, G2.table
    queue = list(mapped)
    i = 0
    while i < len(queue):
        x = queue[i]
        i += 1
        fx = mapped[x]
        row1 = t1[x]
        row2 = t2[fx]
        for q in gens:
            xq = row1[q]
            yq = row2[mapped[q]]
            cur = mapped.get(xq)
            if cur is None:
                if yq in used:
                    return False
                mapped[xq] = yq
                used.add(yq)
                queue.append(xq)
            elif cur != yq:
                return False
    return True


def iter_isomorphisms(G1: GroupTable, G2: GroupTable) -> Iterator[GroupHom]:
    """Yield every isomorphism G1 -> G2 in a fixed deterministic order.

    Backtracks over images of a generating set of G1; candidate images are
    restricted to elements of equal order and tried in ascending order, so
    witnesses appear in lexicographic generator-image order. Each new
    generator image is pinned and the map closed under the generators
    assigned so far with :func:`close_partial_map`, which also checks every
    product relation against them.
    """
    if G1.order != G2.order or G1.order_profile != G2.order_profile:
        return
    gens = generating_set(G1)
    orders = [G1.element_order(g) for g in gens]
    by_order: dict[int, list[int]] = {}
    for y in G2.elements():
        by_order.setdefault(G2.element_order(y), []).append(y)
    n = G1.order

    def backtrack(i: int, mapped: dict[int, int], used: set[int]) -> Iterator[GroupHom]:
        if i == len(gens):
            if len(mapped) != n:
                raise InvariantError("generating set failed to generate the group")
            yield GroupHom(G1, G2, tuple(mapped[a] for a in range(n)))
            return
        assigned = gens[: i + 1]
        for y in by_order.get(orders[i], ()):
            if y in used:
                continue
            ext, ext_used = {**mapped, gens[i]: y}, used | {y}
            if close_partial_map(G1, G2, ext, ext_used, assigned):
                yield from backtrack(i + 1, ext, ext_used)

    yield from backtrack(0, {0: 0}, {0})


def find_isomorphism(G1: GroupTable, G2: GroupTable) -> Optional[GroupHom]:
    """First isomorphism G1 -> G2 in the deterministic search order, or None."""
    return next(iter_isomorphisms(G1, G2), None)


def direct_product(G1: GroupTable, G2: GroupTable) -> GroupTable:
    """Componentwise product; the pair (a, b) gets index a * |G2| + b."""
    n1, n2 = G1.order, G2.order
    t1, t2 = G1.table, G2.table
    rows = []
    for a1 in range(n1):
        for b1 in range(n2):
            rows.append(
                tuple(
                    t1[a1][a2] * n2 + t2[b1][b2]
                    for a2 in range(n1)
                    for b2 in range(n2)
                )
            )
    name = None
    if G1.name is not None and G2.name is not None:
        name = f"{G1.name}×{G2.name}"
    return GroupTable(tuple(rows), name=name)
