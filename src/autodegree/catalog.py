"""Named small-group constructors and the name grammar that combines them.

Canonical element order per family (so that reports are reproducible):

- ``C(n)``: element i is i, addition mod n.
- ``D(n)``: order 2n; rotations r^0..r^(n-1) at 0..n-1, then reflections
  s*r^0..s*r^(n-1) at n..2n-1, with r*s = s*r^-1.
- ``Q8``: 1, -1, i, -i, j, -j, k, -k at 0..7.
- ``S(n)``: permutations of 0..n-1 in lexicographic one-line order,
  composing left to right of application: (f*g)(x) = f(g(x)). n <= 4.
- ``A(4)``: the even permutations of S(4), in lexicographic order.
- ``E(p,k)``: elementary abelian p^k, k-digit base-p vectors row-major.
- ``M16``: <a,b | a^8 = b^2 = 1, b*a*b^-1 = a^5>; a^i at i, a^i*b at 8+i.
- ``Dic(3)``: <a,b | a^6 = 1, b^2 = a^3, b*a*b^-1 = a^-1>; a^i at i,
  a^i*b at 6+i.
- Products ``X×Y`` (the letter x also accepted): row-major indices,
  pair (a, b) at a*|Y| + b.
"""

from __future__ import annotations

import itertools
import re
from functools import reduce

from .groups import GroupError, GroupTable, direct_product, permutation_table

GRAMMAR = (
    "C(n) cyclic; D(n) dihedral of order 2n; Q8; S(n) symmetric with n <= 4; "
    "A(4) alternating; E(p,k) elementary abelian of order p^k; M16 modular of order 16; "
    "Dic(3) dicyclic of order 12; and direct products such as C(2)×C(2) "
    "(a plain letter x also works as the product sign)"
)


class CatalogNameError(GroupError):
    """The requested name is not in the catalog grammar."""

    def __init__(self, name: str, reason: str = "unknown name"):
        super().__init__(f"{reason}: {name!r}; accepted grammar: {GRAMMAR}")


def cyclic(n: int) -> GroupTable:
    if n < 1:
        raise CatalogNameError(f"C({n})", "cyclic order must be at least 1")
    rows = tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    return GroupTable(rows, name=f"C({n})")


def dihedral(n: int) -> GroupTable:
    if n < 1:
        raise CatalogNameError(f"D({n})", "dihedral parameter must be at least 1")
    rows = []
    for i in range(2 * n):
        fi, ri = i >= n, i % n
        row = []
        for j in range(2 * n):
            fj, rj = j >= n, j % n
            if not fi and not fj:
                row.append((ri + rj) % n)
            elif not fi and fj:
                row.append(n + (rj - ri) % n)
            elif fi and not fj:
                row.append(n + (ri + rj) % n)
            else:
                row.append((rj - ri) % n)
        rows.append(tuple(row))
    return GroupTable(tuple(rows), name=f"D({n})")


# Quaternion basis products: codes 0=1, 1=i, 2=j, 3=k; value = (sign flip, base).
_QUAT = {
    (0, 0): (0, 0), (0, 1): (0, 1), (0, 2): (0, 2), (0, 3): (0, 3),
    (1, 0): (0, 1), (1, 1): (1, 0), (1, 2): (0, 3), (1, 3): (1, 2),
    (2, 0): (0, 2), (2, 1): (1, 3), (2, 2): (1, 0), (2, 3): (0, 1),
    (3, 0): (0, 3), (3, 1): (0, 2), (3, 2): (1, 1), (3, 3): (1, 0),
}


def quaternion8() -> GroupTable:
    def prod(x: int, y: int) -> int:
        b1, s1 = divmod(x, 2)
        b2, s2 = divmod(y, 2)
        flip, base = _QUAT[(b1, b2)]
        return 2 * base + (s1 ^ s2 ^ flip)

    rows = tuple(tuple(prod(x, y) for y in range(8)) for x in range(8))
    return GroupTable(rows, name="Q8")


def _perm_parity(perm: tuple[int, ...]) -> int:
    inv = sum(
        1
        for i in range(len(perm))
        for j in range(i + 1, len(perm))
        if perm[i] > perm[j]
    )
    return inv % 2


def symmetric(n: int) -> GroupTable:
    if not 1 <= n <= 4:
        raise CatalogNameError(f"S({n})", "symmetric groups are limited to n <= 4")
    perms = list(itertools.permutations(range(n)))
    return permutation_table(perms, f"S({n})")


def alternating4() -> GroupTable:
    perms = [p for p in itertools.permutations(range(4)) if _perm_parity(p) == 0]
    return permutation_table(perms, "A(4)")


def smallest_prime_divisor(n: int) -> int:
    """The least prime factor of n, by trial division; ValueError for n < 2."""
    if n < 2:
        raise ValueError(f"no prime divides {n}")
    d = 2
    while d * d <= n:
        if n % d == 0:
            return d
        d += 1
    return n


def elementary_abelian(p: int, k: int) -> GroupTable:
    if p < 2 or smallest_prime_divisor(p) != p:
        raise CatalogNameError(f"E({p},{k})", "E(p,k) needs a prime p")
    if k < 1:
        raise CatalogNameError(f"E({p},{k})", "E(p,k) needs k >= 1")
    g = reduce(direct_product, [cyclic(p)] * k)
    return GroupTable(g.table, name=f"E({p},{k})")


def modular16() -> GroupTable:
    def prod(x: int, y: int) -> int:
        j, i = divmod(x, 8)
        l, k = divmod(y, 8)
        return (i + k * 5 ** j) % 8 + 8 * ((j + l) % 2)

    rows = tuple(tuple(prod(x, y) for y in range(16)) for x in range(16))
    return GroupTable(rows, name="M16")


def dicyclic3() -> GroupTable:
    def prod(x: int, y: int) -> int:
        j, i = divmod(x, 6)
        l, k = divmod(y, 6)
        e = (i + (-k if j else k)) % 6
        if j and l:
            e = (e + 3) % 6
        return e + 6 * ((j + l) % 2)

    rows = tuple(tuple(prod(x, y) for y in range(12)) for x in range(12))
    return GroupTable(rows, name="Dic(3)")


def _split_product(name: str) -> list[str]:
    parts: list[str] = []
    depth = 0
    cur: list[str] = []
    for ch in name:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch in ("×", "x") and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    parts.append("".join(cur))
    return [p.strip() for p in parts]


_ATOM_PATTERNS = (
    (re.compile(r"C\((\d+)\)"), lambda m: cyclic(int(m.group(1)))),
    (re.compile(r"D\((\d+)\)"), lambda m: dihedral(int(m.group(1)))),
    (re.compile(r"Q8"), lambda m: quaternion8()),
    (re.compile(r"S\((\d+)\)"), lambda m: symmetric(int(m.group(1)))),
    (re.compile(r"A\(4\)"), lambda m: alternating4()),
    (re.compile(r"E\((\d+),(\d+)\)"), lambda m: elementary_abelian(int(m.group(1)), int(m.group(2)))),
    (re.compile(r"M16"), lambda m: modular16()),
    (re.compile(r"Dic\(3\)"), lambda m: dicyclic3()),
)


def _build_atom(name: str) -> GroupTable:
    for pattern, build in _ATOM_PATTERNS:
        m = pattern.fullmatch(name)
        if m:
            return build(m)
    raise CatalogNameError(name)


def catalog_build(name: str) -> GroupTable:
    """Build a named catalog group; see GRAMMAR for the accepted names.

    Product names multiply left to right with row-major element indexing,
    and are normalized to the ``×`` separator in the resulting group name.
    """
    parts = _split_product(name)
    if any(not p for p in parts):
        raise CatalogNameError(name, "empty factor in product")
    factors = [_build_atom(p) for p in parts]
    if len(factors) == 1:
        return factors[0]
    g = reduce(direct_product, factors)
    return GroupTable(g.table, name="×".join(f.name for f in factors))
