"""Named small-group constructors and the name grammar that combines them.

Each family's canonical element order (so that reports are reproducible)
and the law its table is built from:

- ``C(n)``: element i is i; i*j = i + j mod n.
- ``D(n)``: order 2n; s^j*r^i at j*n + i, so rotations r^0..r^(n-1) at
  0..n-1, then reflections s*r^0..s*r^(n-1) at n..2n-1;
  (s^j r^i)(s^l r^k) = s^(j+l) r^((-1)^l i + k).
- ``Q8``: 1, -1, i, -i, j, -j, k, -k at 0..7; the quaternion products of
  the basis 1, i, j, k, with the signs multiplied.
- ``S(n)``: permutations of 0..n-1 in lexicographic one-line order,
  composing left to right of application: (f*g)(x) = f(g(x)). n <= 4.
- ``A(4)``: the even permutations of S(4), in lexicographic order.
- ``E(p,k)``: elementary abelian p^k, k-digit base-p vectors row-major;
  the direct product of k copies of C(p).
- ``M16`` and ``Dic(3)``: the metacyclic law
  <a,b | a^m = 1, b^2 = a^s, b*a*b^-1 = a^r> with a^i*b^j at j*m + i, so
  (a^i b^j)(a^k b^l) = a^(i + k r^j + s [j + l >= 2]) b^(j+l mod 2).
  ``M16`` is (m, r, s) = (8, 5, 0) and ``Dic(3)`` is (6, 5, 3): a^i at i,
  a^i*b at m + i.
- Products ``X×Y`` (the letter x also accepted): row-major indices,
  pair (a, b) at a*|Y| + b.
"""

from __future__ import annotations

import itertools
import math
import re
from functools import partial, reduce
from typing import Callable

from .groups import GroupError, GroupTable, SizeCapError, direct_product, permutation_table

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


# Python prints an int of at most this many digits by default. No order cap
# comes near such an order, and a cap message could not print it, so a name
# whose order would be this long is refused from its logarithm instead.
_MAX_ORDER_DIGITS = 4300


def _refuse_long_order(name: str, log10_order: float) -> None:
    if log10_order >= _MAX_ORDER_DIGITS:
        raise SizeCapError(
            f"{name} has an order of more than {_MAX_ORDER_DIGITS} digits, over every order cap"
        )


def _from_law(n: int, law: Callable[[int, int], int], name: str) -> GroupTable:
    """The table of a law on the labels 0..n-1: ``table[x][y] = law(x, y)``."""
    return GroupTable(tuple(tuple(law(x, y) for y in range(n)) for x in range(n)), name=name)


def _cyclic_order(n: int) -> int:
    if n < 1:
        raise CatalogNameError(f"C({n})", "cyclic order must be at least 1")
    return n


def cyclic(n: int) -> GroupTable:
    return _from_law(_cyclic_order(n), lambda x, y: (x + y) % n, f"C({n})")


def _dihedral_order(n: int) -> int:
    if n < 1:
        raise CatalogNameError(f"D({n})", "dihedral parameter must be at least 1")
    return 2 * n


def dihedral(n: int) -> GroupTable:
    def law(x: int, y: int) -> int:
        j, i = divmod(x, n)
        l, k = divmod(y, n)
        return (j ^ l) * n + ((-i if l else i) + k) % n

    return _from_law(_dihedral_order(n), law, f"D({n})")


def quaternion8() -> GroupTable:
    def law(x: int, y: int) -> int:
        # Units 0=1, 1=i, 2=j, 3=k: i^2 = j^2 = k^2 = -1, ij = k, jk = i,
        # ki = j, and the reversed products are negated.
        (b1, s1), (b2, s2) = divmod(x, 2), divmod(y, 2)
        if 0 in (b1, b2):
            base, flip = b1 + b2, 0
        elif b1 == b2:
            base, flip = 0, 1
        else:
            base, flip = 6 - b1 - b2, int((b2 - b1) % 3 == 2)
        return 2 * base + (s1 ^ s2 ^ flip)

    return _from_law(8, law, "Q8")


def _symmetric_order(n: int) -> int:
    if not 1 <= n <= 4:
        raise CatalogNameError(f"S({n})", "symmetric groups are limited to n <= 4")
    return math.factorial(n)


def symmetric(n: int) -> GroupTable:
    _symmetric_order(n)
    return permutation_table(list(itertools.permutations(range(n))), f"S({n})")


def alternating4() -> GroupTable:
    perms = [
        p for p in itertools.permutations(range(4))
        if sum(p[i] > p[j] for i, j in itertools.combinations(range(4), 2)) % 2 == 0
    ]
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


# The primes up to 41 as Miller-Rabin bases decide primality exactly below
# 3,317,044,064,679,887,385,961,981 (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Whether n is prime, by Miller-Rabin with the bases 2 to 41.

    Exact below about 3.3e24. Above that a strong pseudoprime to all
    thirteen bases would pass as prime. ``E(p,k)`` is the only caller, and
    such a p alone is over every order cap, so that name would be refused
    by the cap (exit 3) instead of as a bad name (exit 2).
    """
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _elementary_order(p: int, k: int) -> int:
    if not is_prime(p):
        raise CatalogNameError(f"E({p},{k})", "E(p,k) needs a prime p")
    if k < 1:
        raise CatalogNameError(f"E({p},{k})", "E(p,k) needs k >= 1")
    _refuse_long_order(f"E({p},{k})", k * math.log10(p))
    return p ** k


def elementary_abelian(p: int, k: int) -> GroupTable:
    _elementary_order(p, k)
    g = reduce(direct_product, [cyclic(p)] * k)
    return GroupTable(g.table, name=f"E({p},{k})")


def _metacyclic(m: int, r: int, s: int, name: str) -> GroupTable:
    """<a,b | a^m = 1, b^2 = a^s, b*a*b^-1 = a^r>, a^i*b^j at j*m + i (see the module docstring)."""
    def law(x: int, y: int) -> int:
        j, i = divmod(x, m)
        l, k = divmod(y, m)
        carry, e = divmod(j + l, 2)
        return (i + k * r ** j + carry * s) % m + m * e

    return _from_law(2 * m, law, name)


def modular16() -> GroupTable:
    return _metacyclic(8, 5, 0, "M16")


def dicyclic3() -> GroupTable:
    return _metacyclic(6, 5, 3, "Dic(3)")


# Each atom of the grammar: its pattern, its order from the parameters
# (refusing bad ones without building anything), and its constructor.
_ATOMS = (
    (r"C\(([0-9]+)\)", _cyclic_order, cyclic),
    (r"D\(([0-9]+)\)", _dihedral_order, dihedral),
    (r"Q8", lambda: 8, quaternion8),
    (r"S\(([0-9]+)\)", _symmetric_order, symmetric),
    (r"A\(4\)", lambda: 12, alternating4),
    (r"E\(([0-9]+),([0-9]+)\)", _elementary_order, elementary_abelian),
    (r"M16", lambda: 16, modular16),
    (r"Dic\(3\)", lambda: 12, dicyclic3),
)


def _refuse_long_parameter(name: str, part: str, order: Callable, digits: list[str]) -> None:
    """Refuse a factor with a parameter too long for ``int()``, from digit counts alone.

    Such a parameter is over 4 in ``S(n)``, and makes the order of ``C(n)``, ``D(n)`` and
    ``E(p,k)`` too long to print, unless its other parameter is bad: p not prime, or k = 0.
    """
    if order is _symmetric_order:
        raise CatalogNameError(part, "symmetric groups are limited to n <= 4")
    if order is _elementary_order:
        p, k = digits
        if len(p) <= _MAX_ORDER_DIGITS and not is_prime(int(p)):
            raise CatalogNameError(part, "E(p,k) needs a prime p")
        if k == "0":
            raise CatalogNameError(part, "E(p,k) needs k >= 1")
    _refuse_long_order(name, math.inf)


def _factors(name: str) -> list[tuple[int, Callable[[], GroupTable]]]:
    """(order, constructor) of each factor of a name; no atom contains × or x."""
    parts = [p.strip() for p in re.split("[×x]", name)]
    if any(not p for p in parts):
        raise CatalogNameError(name, "empty factor in product")
    factors = []
    for part in parts:
        for pattern, order, build in _ATOMS:
            m = re.fullmatch(pattern, part)
            if m:
                digits = [a.lstrip("0") or "0" for a in m.groups()]
                if any(len(d) > _MAX_ORDER_DIGITS for d in digits):
                    _refuse_long_parameter(name, part, order, digits)
                args = [int(d) for d in digits]
                factors.append((order(*args), partial(build, *args)))
                break
        else:
            raise CatalogNameError(part)
    return factors


def catalog_order(name: str) -> int:
    """The order of a named catalog group, read from the name without building a table."""
    orders = [order for order, _ in _factors(name)]
    _refuse_long_order(name, sum(map(math.log10, orders)))
    return math.prod(orders)


def catalog_build(name: str) -> GroupTable:
    """Build a named catalog group; see GRAMMAR for the accepted names.

    Product names multiply left to right with row-major element indexing,
    and are normalized to the ``×`` separator in the resulting group name.
    """
    return reduce(direct_product, [build() for _, build in _factors(name)])
