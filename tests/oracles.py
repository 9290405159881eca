"""Brute-force reference computations used to pin expected test values.

They cover automorphisms (by filtering permutations, and by searching
generator images past order 8), homomorphism counts, degrees, subgroups
and double cosets, orbits, autocommutators, the autocentre, the centre
(:func:`brute_center`) and condition (d) of the equivalence. Everything
here favors the most direct computation over speed, and shares no code
with the package under test beyond reading plain Cayley tables.
The three exceptions keep an older route of the package itself as the
reference for a newer one: :func:`brute_condition_d`;
:func:`dfs_isomorphisms`, which reads the package's ``GroupTable.generators``
and calls its ``close_partial_map``; and :func:`greedy_generators`, which
calls its ``_closure_members``.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction


def divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def is_homomorphism(table, perm) -> bool:
    n = len(table)
    for a in range(n):
        for b in range(n):
            if perm[table[a][b]] != table[perm[a]][perm[b]]:
                return False
    return True


def brute_automorphisms(table) -> list[tuple[int, ...]]:
    """Every automorphism, by filtering all n! permutations.

    A homomorphic permutation necessarily fixes 0 (the identity maps to an
    idempotent, and the identity is the only one), so permutations moving 0
    are skipped up front purely as a speedup.
    """
    n = len(table)
    out = []
    for perm in itertools.permutations(range(n)):
        if perm[0] != 0:
            continue
        if is_homomorphism(table, perm):
            out.append(perm)
    return sorted(out)


def brute_element_order(table, a: int) -> int:
    k, acc = 1, a
    while acc != 0:
        acc, k = table[acc][a], k + 1
    return k


def generator_automorphisms(table) -> list[tuple[int, ...]]:
    """Every automorphism, by searching the images of a generating set.

    Generators are taken greedily in index order, each one outside the
    span of those before it. A breadth-first tree of right multiplications
    by them reaches every element, so an assignment of generator images
    (each of the same order as its generator) fixes at most one map; it is
    kept when it is a bijective homomorphism. Reaches past order 8, where
    filtering all n! permutations does not.
    """
    n = len(table)
    gens, extend = generator_words(table, table)
    orders = [brute_element_order(table, x) for x in range(n)]
    choices = [[x for x in range(n) if orders[x] == orders[g]] for g in gens]
    out = []
    for images in itertools.product(*choices):
        perm = extend(images)
        if len(set(perm)) == n and is_homomorphism(table, perm):
            out.append(tuple(perm))
    return sorted(out)


def generator_words(table, target_table):
    """(gens, extend): greedy generators in index order, and the map their images fix.

    Each generator lies outside the span of those before it. A breadth-first
    tree of right multiplications by them reaches every element, so
    ``extend(images)`` sends each element, a word in ``gens``, to the same
    word in ``images`` under ``target_table``. The result is a homomorphism
    only if some homomorphism sends ``gens`` to ``images``.
    """
    gens: list[int] = []
    span = {0}
    for x in range(len(table)):
        if x not in span:
            gens.append(x)
            span = brute_generated(0, span | {x}, lambda a, b: table[a][b])
    tree, reached = {0: None}, [0]
    for y in reached:
        for i, g in enumerate(gens):
            if table[y][g] not in tree:
                tree[table[y][g]] = (y, i)
                reached.append(table[y][g])

    def extend(images) -> list[int]:
        out = [0] * len(table)
        for z in reached[1:]:
            y, i = tree[z]
            out[z] = target_table[out[y]][images[i]]
        return out

    return gens, extend


def brute_hom_count(t1, t2, target) -> int:
    """How many homomorphisms G1 -> G2 take values in the subgroup ``target`` of G2.

    Every assignment of members of ``target`` to the generators of
    :func:`generator_words` fixes at most one map; it is counted when it
    is a homomorphism, checked pair by pair.
    """
    n = len(t1)
    gens, extend = generator_words(t1, t2)
    count = 0
    for images in itertools.product(target, repeat=len(gens)):
        f = extend(images)
        if all(f[t1[a][b]] == t2[f[a]][f[b]] for a in range(n) for b in range(n)):
            count += 1
    return count


def greedy_generators(G) -> tuple[int, ...]:
    """``G.generators`` by the package's older rule: one closure per element outside the span.

    Each step appends the first g, in ascending order, whose closure with
    the generators so far is largest, closing <gens, g> for every g outside
    the span with the package's ``_closure_members``.
    """
    from autodegree.groups import _closure_members

    gens: list[int] = []
    closed = {0}
    while len(closed) < G.order:
        best = max(
            (g for g in G.elements() if g not in closed),
            key=lambda g: len(_closure_members(G, gens + [g])),
        )
        gens.append(best)
        closed = _closure_members(G, gens)
    return tuple(gens)


def brute_fixed_pairs(table, h_members, auts) -> int:
    return sum(1 for x in h_members for a in auts if a[x] == x)


def brute_pr(table, h_members, auts) -> Fraction:
    """Fixed-pair probability over H x auts, counted pair by pair."""
    return Fraction(brute_fixed_pairs(table, h_members, auts), len(h_members) * len(auts))


def brute_fixed_point_sets(auts) -> Counter:
    """How many of the maps have each fixed-point set."""
    return Counter(frozenset(x for x in range(len(a)) if a[x] == x) for a in auts)


def brute_commuting_pr(table, h_members) -> Fraction:
    n = len(table)
    hits = sum(1 for x in h_members for y in range(n) if table[x][y] == table[y][x])
    return Fraction(hits, len(h_members) * n)


def brute_center(table) -> tuple[int, ...]:
    """Elements commuting with every element, by comparing both products."""
    n = len(table)
    return tuple(z for z in range(n) if all(table[z][g] == table[g][z] for g in range(n)))


def brute_inverse(table, a: int) -> int:
    return next(b for b in range(len(table)) if table[a][b] == 0 and table[b][a] == 0)


def is_subgroup(table, subset) -> bool:
    sset = set(subset)
    if 0 not in sset:
        return False
    for a in subset:
        if brute_inverse(table, a) not in sset:
            return False
        for b in subset:
            if table[a][b] not in sset:
                return False
    return True


def brute_is_group(identity, members, product) -> bool:
    """Pairwise check: the identity and every product of two members lie in the set.

    Inside a finite group these two facts already make the set a subgroup.
    """
    mset = set(members)
    return identity in mset and all(product(a, b) in mset for a in mset for b in mset)


def brute_generated(identity, seed, product) -> set:
    """The set generated by ``seed``, by repeated pairwise products to a fixed point."""
    members = {identity} | set(seed)
    while True:
        new = {product(a, b) for a in members for b in members} - members
        if not new:
            return members
        members |= new


def brute_subgroups(table) -> list[tuple[int, ...]]:
    """All subgroups by filtering every subset whose size divides the order."""
    n = len(table)
    out = []
    for size in divisors(n):
        for combo in itertools.combinations(range(1, n), size - 1):
            cand = (0,) + combo
            if is_subgroup(table, cand):
                out.append(cand)
    return sorted(out, key=lambda s: (len(s), s))


def brute_subgroup_lattice(table) -> list[tuple[int, ...]]:
    """All subgroups, by joining cyclic subgroups until nothing new appears.

    A subgroup is generated by its elements, so it is a join of cyclic
    subgroups; joining every subgroup found so far with every cyclic one
    reaches them all. Reaches past the order where filtering subsets is
    affordable.
    """
    product = lambda a, b: table[a][b]
    cyclic = {frozenset(brute_generated(0, (g,), product)) for g in range(len(table))}
    found = set(cyclic)
    frontier = set(cyclic)
    while frontier:
        new = set()
        for h in frontier:
            for c in cyclic:
                if not c <= h:
                    join = frozenset(brute_generated(0, h | c, product))
                    if join not in found:
                        new.add(join)
        found |= new
        frontier = new
    return sorted((tuple(sorted(s)) for s in found), key=lambda s: (len(s), s))


def brute_double_cosets(table, k_members) -> set[frozenset]:
    """The double cosets K g K of a subgroup K, each as the set {a g b : a, b in K}."""
    return {
        frozenset(table[table[a][g]][b] for a in k_members for b in k_members)
        for g in range(len(table))
    }


def brute_closure(table, seed) -> tuple[int, ...]:
    """Generated subgroup by repeated pairwise products to a fixed point."""
    return tuple(sorted(brute_generated(0, seed, lambda a, b: table[a][b])))


def brute_orbit(table, auts, x) -> tuple[int, ...]:
    return tuple(sorted({a[x] for a in auts}))


def brute_autocommutators(table, h_members, auts) -> tuple[int, ...]:
    out = set()
    for x in h_members:
        xi = brute_inverse(table, x)
        for a in auts:
            out.add(table[xi][a[x]])
    return tuple(sorted(out))


def brute_autocentre(h_members, auts) -> tuple[int, ...]:
    """Members of H that every automorphism fixes."""
    return tuple(x for x in h_members if all(a[x] == x for a in auts))


def brute_only_identity_fixes(h_members, auts) -> tuple[int, ...]:
    """Members of H that no automorphism except the identity fixes (the literal definition)."""
    moving = [a for a in auts if any(a[x] != x for x in range(len(a)))]
    return tuple(x for x in h_members if all(a[x] != x for a in moving))


def brute_condition_d(h_members, aut_group) -> bool:
    """Condition (d) of ``equivalent_conditions`` by the abstract-table route.

    This is how the package decided (d) before it read the orbit action:
    Aut as an |A| x |A| table, each distinct stabilizer of a member of H
    outside the autocentre tested for normality in that table, and its
    quotient compared with [H, A] by an isomorphism search. It calls the
    package's table, normality, quotient and isomorphism code, none of
    which the orbit route uses; L and [H, A] come from the brute
    definitions above.
    """
    from autodegree.groups import (
        SubgroupSet,
        find_isomorphism,
        is_normal,
        quotient_group,
        subgroup_as_group,
        subgroup_closure,
        whole_subgroup,
    )

    g = aut_group.parent
    auts = [a.image for a in aut_group.members]
    core = set(brute_autocentre(h_members, auts))
    k_members = brute_closure(g.table, brute_autocommutators(g.table, h_members, auts))
    k_group, _ = subgroup_as_group(g, subgroup_closure(g, k_members))
    aut_table = aut_group.abstract_group
    whole_aut = whole_subgroup(aut_table)
    checked = set()
    for x in h_members:
        stab = tuple(i for i, a in enumerate(auts) if a[x] == x)
        if x in core or stab in checked:
            continue
        checked.add(stab)
        stab_sub = SubgroupSet(aut_table, stab)
        if not is_normal(aut_table, stab_sub, whole_aut):
            return False
        quot = quotient_group(aut_table, whole_aut, stab_sub)
        if find_isomorphism(quot.group, k_group) is None:
            return False
    return True


def dfs_isomorphisms(g1, g2):
    """Every isomorphism g1 -> g2, leaf by leaf, as image arrays.

    This is how the package listed isomorphisms before it composed
    stabiliser cosets: a depth-first search over images of the package's
    generating set, candidates of equal order in ascending order, each
    prefix closed by the package's ``close_partial_map``. It yields lazily,
    so the closure calls to its first leaf can be counted.
    """
    from autodegree import groups

    if g1.order != g2.order or g1.order_profile != g2.order_profile:
        return
    gens = g1.generators
    orders = [g1.element_order(g) for g in gens]
    n = g1.order

    def backtrack(i, mapped, used):
        if i == len(gens):
            assert len(mapped) == n
            yield tuple(mapped[a] for a in range(n))
            return
        for y in g2.elements():
            if g2.element_order(y) != orders[i] or y in used:
                continue
            ext, ext_used = {**mapped, gens[i]: y}, used | {y}
            if groups.close_partial_map(g1, g2, ext, ext_used, gens[: i + 1]):
                yield from backtrack(i + 1, ext, ext_used)

    yield from backtrack(0, {0: 0}, {0})
