"""Finite groups as Cayley tables over element indices 0..n-1.

Elements are plain ints indexing into an n-by-n multiplication table;
index 0 is always the identity. Tables, subgroups and homomorphisms, like
the package's other immutable records, derive from :class:`_Frozen`: their
fields are set once in ``__init__``, and assigning to or deleting one raises
AttributeError. Their cached properties are deterministic, so threads may
share them; a cached value filled by concurrent first use may be computed
twice.
"""

from __future__ import annotations

import re
from functools import cached_property
from operator import eq, itemgetter
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


class _Frozen:
    """Base of the immutable records: ``__init__`` fills ``vars(self)``, later writes raise.

    ``cached_property`` writes to ``__dict__`` directly, so cached values still fill.
    """

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign {name!r}: a {type(self).__name__} is immutable")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r}: a {type(self).__name__} is immutable")


class GroupTable(_Frozen):
    """A finite group given by its full multiplication table.

    ``table[a][b]`` is the index of the product a*b. Constructors in this
    package produce valid tables by construction; text input must go
    through :func:`parse_group_table`, which checks every axiom. Two tables
    are equal when their tables are; ``name`` is only a label.
    """

    def __init__(self, table: tuple[tuple[int, ...], ...], name: Optional[str] = None):
        vars(self).update(table=table, name=name)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        # A renamed copy shares its table tuple, so identity settles most comparisons.
        return self.table is other.table or self.table == other.table

    def __hash__(self) -> int:
        return hash(self.table)

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

    @cached_property
    def columns(self) -> tuple[tuple[int, ...], ...]:
        """``columns[b][a]`` is a*b: right multiplication by b as an image array."""
        return tuple(zip(*self.table))

    @cached_property
    def centralizer_sizes(self) -> tuple[int, ...]:
        """|C_G(x)| for each element x, counted pair by pair against its column."""
        return tuple(sum(map(eq, row, col)) for row, col in zip(self.table, self.columns))

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """A small generating set, chosen greedily by maximal closure growth.

        Each step appends the first g, in ascending order, with the largest
        <K, g>, K being the subgroup generated so far; the trivial group yields
        the empty tuple. All of K g K give that same closure, so the first
        maximum is the least element of its double coset: the maximum is
        taken over :func:`_cyclic_extensions`, one closure per double coset.
        """
        gens: tuple[int, ...] = ()
        members: tuple[int, ...] = (0,)
        while len(members) < self.order:
            g, members = max(_cyclic_extensions(self, members, gens), key=lambda c: len(c[1]))
            gens += (g,)
        return gens

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


def _ascii_int(token: str) -> int:
    """``int(token)`` for a signed run of ASCII digits only, not ``_`` or other scripts' digits."""
    if re.fullmatch(r"[+-]?[0-9]+", token) is None:
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def _data_lines(text: str) -> Iterator[tuple[int, str]]:
    """(line number, stripped line) of each line that is neither blank nor a '#' comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield lineno, line


def _read_order(data: Iterator[tuple[int, str]]) -> int:
    """The group order n from the first data line, which it consumes."""
    for lineno, line in data:
        try:
            n = _ascii_int(line)
        except ValueError:
            raise TableParseError(f"expected the group order, got {line!r}", lineno) from None
        if n <= 0:
            raise TableParseError(f"group order must be positive, got {n}", lineno)
        return n
    raise TableParseError("empty input: no group order found")


def table_order(text: str) -> int:
    """The order a table text declares, read without parsing its rows.

    It raises the :class:`TableParseError` that :func:`parse_group_table`
    gives for the same order line, so a caller can refuse an over-cap file
    before paying for the rows.
    """
    return _read_order(_data_lines(text))


def parse_group_table(text: str) -> GroupTable:
    """Parse a group from the documented text format and validate it.

    Format: '#' comment lines and blank lines are ignored; the first data
    line is the order n; the next n lines hold n space-separated entries in
    [0, n), with ``table[a][b]`` on row a, column b. The identity must be
    element 0. Parsing does not assume the table is a group; the axioms are
    checked afterwards.
    """
    data = _data_lines(text)
    n = _read_order(data)
    rows: list[tuple[int, ...]] = []
    for lineno, line in data:
        if len(rows) == n:
            raise TableParseError(f"unexpected extra row after {n} table rows", lineno)
        parts = line.split()
        if len(parts) != n:
            raise TableParseError(f"expected {n} entries, got {len(parts)}", lineno)
        try:
            entries = tuple(map(_ascii_int, parts))
        except ValueError:
            raise TableParseError(f"non-integer entry in row {line!r}", lineno) from None
        for e in entries:
            if not 0 <= e < n:
                raise TableParseError(f"entry {e} out of range [0, {n})", lineno)
        rows.append(entries)
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


class SubgroupSet(_Frozen):
    """A subgroup of a parent group, stored as a sorted tuple of member indices.

    Construction certifies the subgroup axioms with :func:`closure_witness`,
    in O(|H| log |H|) table lookups, so any SubgroupSet in circulation is
    genuinely a subgroup. A set that is not closed raises AxiomError naming
    a pair whose product leaves it.
    """

    def __init__(self, parent: GroupTable, members: tuple[int, ...]):
        vars(self).update(parent=parent, members=members)
        self.__post_init__()

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.parent, self.members) == (other.parent, other.members)

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

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


def _require_same_parent(G: GroupTable, H: SubgroupSet) -> None:
    if H.parent is not G and H.parent != G:
        raise ParentMismatchError("subgroup belongs to a different group")


def trivial_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, (0,))


def whole_subgroup(G: GroupTable) -> SubgroupSet:
    return SubgroupSet(G, tuple(G.elements()))


def _orbit_points(perms: Sequence[tuple[int, ...]], seed: Iterable[int]) -> set[int]:
    """The points reached from ``seed`` under the permutations ``perms``."""
    seen = set(seed)
    queue = list(seen)
    for p in queue:
        for h in perms:
            q = h[p]
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def _right_cosets(
    G: GroupTable, base: tuple[int, ...], reps: Iterable[int], gens: Sequence[int]
) -> set[int]:
    """The union of the right cosets K r reached from ``reps`` by right multiplying by ``gens``.

    ``base`` lists the members of a subgroup K. Each coset K r is read from
    ``G.columns[r]`` with one ``itemgetter`` over K. A coset K r joins with
    K (r s) for each s in ``gens``; since k r s lies in K (r s), the union is
    closed under right multiplication by ``gens``, and the walk takes one
    step per coset and generator, not per element and generator.
    """
    coset = itemgetter(*base) if len(base) > 1 else lambda column: (column[base[0]],)
    columns, table = G.columns, G.table
    members: set[int] = set()
    queue = []
    for r in reps:
        if r not in members:
            members.update(coset(columns[r]))
            queue.append(r)
    for r in queue:
        row = table[r]
        for s in gens:
            y = row[s]
            if y not in members:
                members.update(coset(columns[y]))
                queue.append(y)
    return members


def _closure_members(G: GroupTable, gens: Sequence[int], base: tuple[int, ...] = (0,)) -> set[int]:
    """<gens> as a union of right cosets of K, the subgroup whose members ``base`` lists.

    K must lie in <gens>. This is Dimino's method (Butler, Fundamental
    Algorithms for Permutation Groups, 1991): the cosets of K reached from K
    under right multiplication by ``gens`` make up <gens>, in
    O(|<gens> : K| |gens|) steps.
    """
    return _right_cosets(G, base, (0,), gens)


def subgroup_closure(G: GroupTable, seed: Iterable[int]) -> SubgroupSet:
    """Smallest subgroup containing ``seed``, by worklist closure.

    In a finite group, closing under right multiplication by the seed
    elements already yields the generated subgroup; inverses come free.
    """
    gens = sorted(set(seed))
    for s in gens:
        G.check_element(s)
    return SubgroupSet(G, tuple(sorted(_closure_members(G, gens))))


def refuse_over_cap(search: str, order: int, cap: int = ORDER_CAP) -> None:
    """Raise :class:`SizeCapError` when a group of this order is over the cap of ``search``."""
    if order > cap:
        raise SizeCapError(f"{search} is capped at group order {cap}; this group has order {order}")


def _cyclic_extensions(
    G: GroupTable, base: tuple[int, ...], gens: tuple[int, ...]
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """(g, sorted members of <K, g>) for the least g of each double coset K g K other than K.

    ``base`` lists the members of a subgroup K and ``gens`` generates it.
    <K, a g b> = <K, g> for a, b in K, so one closure (:func:`_closure_members`)
    per double coset covers every g outside K, and K costs |K \\ G / K| - 1
    closures (Holt, Eick and O'Brien, Handbook of Computational Group
    Theory, 2005, sec. 3.3). Elements are taken in ascending order; after
    each closure, K g K, the union of the right cosets K g b reached from
    K g under ``gens``, is marked covered.
    """
    covered = set(base)
    for g in G.elements():
        if g not in covered:
            yield g, tuple(sorted(_closure_members(G, gens + (g,), base)))
            covered |= _right_cosets(G, base, (g,), gens)


def enumerate_subgroups(G: GroupTable, cap: int = ORDER_CAP) -> list[SubgroupSet]:
    """All subgroups of G, each exactly once, sorted by (order, members).

    Works by cyclic extension: start from the trivial subgroup and
    repeatedly extend each known subgroup K by a single new generator g;
    only a member tuple not seen before becomes a (validated) SubgroupSet.
    Each subgroup keeps the generators that produced it. K is extended only
    by the least g of each double coset K g K (:func:`_cyclic_extensions`):
    a skipped a g b has an earlier g with the same <K, g>, so every subgroup
    keeps the seed that trying each g in ascending order would give it.
    Exhaustive, hence the order cap.
    """
    refuse_over_cap("subgroup enumeration", G.order, cap)
    trivial = trivial_subgroup(G)
    found: dict[tuple[int, ...], SubgroupSet] = {trivial.members: trivial}
    frontier: list[tuple[SubgroupSet, tuple[int, ...]]] = [(trivial, ())]
    while frontier:
        nxt = []
        for h, gens in frontier:
            for g, members in _cyclic_extensions(G, h.members, gens):
                if members not in found:
                    found[members] = SubgroupSet(G, members)
                    nxt.append((found[members], gens + (g,)))
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


class GroupHom(_Frozen):
    """A homomorphism between two groups, as an image array over the source."""

    def __init__(self, source: GroupTable, target: GroupTable, image: tuple[int, ...]):
        vars(self).update(source=source, target=target, image=image)

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


class Quotient(_Frozen):
    """A quotient H/N inside a parent group: its coset table and cosets.

    ``cosets[i]`` lists the parent indices of coset i in ascending order;
    cosets are numbered by smallest member, which puts the identity coset
    N at index 0, and ``group`` multiplies cosets by their representatives.
    """

    def __init__(self, group: GroupTable, cosets: tuple[tuple[int, ...], ...]):
        vars(self).update(group=group, cosets=cosets)


def quotient_group(G: GroupTable, H: SubgroupSet, N: SubgroupSet) -> Quotient:
    """Cosets of N in H as a group, numbered as in :class:`Quotient`.

    N must be a normal subgroup of H.
    """
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
    # itemgetter of a single index returns the item itself, not a 1-tuple.
    return itemgetter(*b)(a) if len(b) > 1 else tuple(a[x] for x in b)


def permutation_table(perms: Sequence[tuple[int, ...]], name: Optional[str] = None) -> GroupTable:
    """The Cayley table of permutations closed under :func:`compose_perms`.

    Index i of the table is ``perms[i]``; a product outside the list raises
    KeyError.
    """
    pos = {p: i for i, p in enumerate(perms)}
    rows = tuple(tuple(pos[compose_perms(a, b)] for b in perms) for a in perms)
    return GroupTable(rows, name=name)


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


def _grow_orbit(orbit: dict[int, tuple[int, ...]], perms: Sequence[tuple[int, ...]]) -> None:
    """Close ``orbit`` (point -> a product of ``perms`` reaching it) under ``perms``, in place."""
    queue = list(orbit)
    for p in queue:
        for h in perms:
            q = h[p]
            if q not in orbit:
                orbit[q] = compose_perms(h, orbit[p])
                queue.append(q)


def iter_isomorphisms(G1: GroupTable, G2: GroupTable) -> Iterator[GroupHom]:
    """Yield every isomorphism G1 -> G2 in a fixed deterministic order.

    The order is lexicographic in the images of a generating set ``gens``
    of G1; candidate images are the elements of equal order in ascending
    order. A prefix P, the images of ``gens[:i]``, is pinned and closed
    with :func:`close_partial_map`, which also checks every product
    relation against the generators assigned so far.

    The isomorphisms that extend P are exactly phi_P * S_i (phi_P after an
    element of S_i), where phi_P is any one of them and S_i is the
    pointwise stabiliser of ``gens[:i]`` in Aut(G1). So only the first
    isomorphism phi_0 is searched leaf by leaf. That search records its
    path as it unwinds: for each level i, deepest first, the prefix, its
    used images and the candidates left after phi_0's own choice. Once
    phi_0 is yielded, one loop walks the path in that order, and at each
    level the rest of the first prefix's subtree is read from what has been
    found so far:

    - a candidate y for ``gens[i]`` is settled without a search when
      x = phi_0^-1(y) is in the orbit of ``gens[i]`` under the part of S_i
      found so far: its subtree is phi_0 * t * S_(i+1), with t the orbit's
      transversal element;
    - otherwise a search to the first leaf phi_P either finds a new element
      phi_0^-1 * phi_P of S_i, which grows the orbit, and yields
      phi_P * S_(i+1); or it fails, and then every point of the known orbit
      of x fails with it, since an automorphism reaching one would reach x.

    When the level finishes, its orbit is all of the S_i-orbit of
    ``gens[i]``, so S_i is the transversal times S_(i+1) and every later
    prefix at level i needs only its own first leaf. Each coset is listed
    orbit point by orbit point, ordered by the image of the level's
    generator, which is the order the leaf-by-leaf search would visit it
    in; the order is unchanged and nothing is listed ahead of its turn.
    The search to phi_0 is the leaf-by-leaf search itself, so
    :func:`find_isomorphism` makes the closure calls of a plain depth-first
    search, and every yielded map is a composition of maps that the
    closure found.
    """
    if G1.order != G2.order or G1.order_profile != G2.order_profile:
        return
    gens = G1.generators
    k = len(gens)
    # Level i's candidate images of gens[i]: the elements of its order, ascending.
    levels = [[y for y in G2.elements() if G2.element_order(y) == order]
              for order in map(G1.element_order, gens)]
    n = G1.order
    # Level i's orbit of gens[i]: point -> transversal element of S_i.
    orbits = [{g: tuple(range(n))} for g in gens]
    # Generators found so far. Levels finish deepest first, so when level i
    # starts reading its orbit these generate S_(i+1), and then S_i once the
    # level has added its own.
    strong: list[tuple[int, ...]] = []

    def first_leaf(
        i: int, mapped: dict[int, int], used: set[int], path: list, candidates=None
    ) -> Optional[tuple[int, ...]]:
        """The first leaf under the prefix ``mapped``, or None; a found leaf's levels go on ``path``.

        ``gens[i]`` tries ``candidates``, by default every element of its
        order; each image is added to the prefix and closed, and a conflict
        moves on to the next.
        """
        if i == k:
            if len(mapped) != n:
                raise InvariantError("generating set failed to generate the group")
            return tuple(mapped[a] for a in range(n))
        if candidates is None:
            candidates = iter(levels[i])
        for y in candidates:
            if y in used:
                continue
            ext, ext_used = {**mapped, gens[i]: y}, used | {y}
            if close_partial_map(G1, G2, ext, ext_used, gens[: i + 1]):
                found = first_leaf(i + 1, ext, ext_used, path)
                if found is not None:
                    path.append((i, mapped, used, candidates))
                    return found
        return None

    def coset(phi: tuple[int, ...], i: int) -> Iterator[GroupHom]:
        """phi * S_i in search order: by the image of gens[i], then deeper."""
        if i == k:
            yield GroupHom(G1, G2, phi)
            return
        orbit = orbits[i]
        for x in sorted(orbit, key=phi.__getitem__):
            yield from coset(compose_perms(phi, orbit[x]), i + 1)

    # first_leaf and coset reach themselves through their closure cells: clearing both
    # names when the search ends or is dropped frees its state without the cyclic GC.
    try:
        path: list[tuple[int, dict[int, int], set[int], Iterator[int]]] = []
        phi0 = first_leaf(0, {0: 0}, {0}, path)
        if phi0 is None:
            return
        yield GroupHom(G1, G2, phi0)
        inv0 = tuple(sorted(range(n), key=phi0.__getitem__))
        for i, mapped, used, candidates in path:
            orbit = orbits[i]
            failed: set[int] = set()
            for y in candidates:
                if y in used:
                    continue
                x = inv0[y]
                if x in orbit:
                    yield from coset(compose_perms(phi0, orbit[x]), i + 1)
                    continue
                if x in failed:
                    continue
                phi = first_leaf(i, mapped, used, [], [y])
                if phi is None:
                    failed |= _orbit_points(strong, [x])
                    continue
                strong.append(compose_perms(inv0, phi))
                _grow_orbit(orbit, strong)
                failed = _orbit_points(strong, failed)
                yield from coset(phi, i + 1)
    finally:
        del first_leaf, coset


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
