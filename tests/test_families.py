"""Three families with closed-form degrees, as oracles that share no code with the package.

Every expected value below comes from tau (the number of divisors), phi
(Euler's totient) and |GL(k, p)| alone:

- Pr(C(d), Aut(C(n))) = tau(d)/d for each d | n (Sherman, Amer. Math.
  Monthly 82, 1975, for d = n);
- Pr(D(n), Aut(D(n))) = (tau(n) + 1)/(2n) for n >= 3;
- Pr(H, Aut(E(p, k))) = (1/|H|)(1 + (|H| - 1)/(p^k - 1)) for every
  subgroup H, as GL(k, p) is transitive on the nonzero vectors.

Each is checked through all four degree routes, each reading its own table
(``pr_definition``, both sums of ``pr_via_sums``, ``pr_via_orbits``), and
|Aut| = phi(n), n phi(n) and |GL(k, p)| through both the listing and the
chain count.
"""

import functools
from fractions import Fraction
from math import gcd, prod

import pytest

from autodegree.automorphisms import compute_aut
from autodegree.catalog import catalog_build
from autodegree.degree import pr_definition, pr_via_orbits, pr_via_sums
from autodegree.groups import count_isomorphisms, enumerate_subgroups, whole_subgroup

CAP = 64
CYCLIC = range(1, 65)
DIHEDRAL = range(3, 25)
ELEMENTARY = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)]


def tau(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def phi(n: int) -> int:
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def gl_order(k: int, p: int) -> int:
    return prod(p**k - p**i for i in range(k))


@functools.lru_cache(maxsize=None)
def group_and_aut(name: str):
    g = catalog_build(name)
    return g, compute_aut(g, cap=CAP)


def assert_four_routes(h, a, expected: Fraction) -> None:
    assert pr_definition(h, a) == expected
    assert pr_via_sums(h, a) == (expected, expected)
    assert pr_via_orbits(h, a) == expected


@pytest.mark.parametrize("n", CYCLIC)
def test_every_subgroup_of_a_cyclic_group(n):
    g, a = group_and_aut(f"C({n})")
    subs = enumerate_subgroups(g, cap=CAP)
    # One subgroup per divisor d of n, so 280 over n <= 64.
    assert sorted(h.size for h in subs) == [d for d in range(1, n + 1) if n % d == 0]
    for h in subs:
        assert_four_routes(h, a, Fraction(tau(h.size), h.size))


@pytest.mark.parametrize("n", DIHEDRAL)
def test_whole_dihedral_group(n):
    g, a = group_and_aut(f"D({n})")
    assert_four_routes(whole_subgroup(g), a, Fraction(tau(n) + 1, 2 * n))


@pytest.mark.parametrize("p, k", ELEMENTARY)
def test_every_subgroup_of_an_elementary_abelian_group(p, k):
    g, a = group_and_aut(f"E({p},{k})")
    for h in enumerate_subgroups(g, cap=CAP):
        assert_four_routes(h, a, Fraction(1, h.size) * (1 + Fraction(h.size - 1, p**k - 1)))


@pytest.mark.parametrize("name, order", (
    [(f"C({n})", phi(n)) for n in CYCLIC]
    + [(f"D({n})", n * phi(n)) for n in DIHEDRAL]
    + [(f"E({p},{k})", gl_order(k, p)) for p, k in ELEMENTARY]
))
def test_aut_order_by_listing_and_by_count(name, order):
    g, a = group_and_aut(name)
    assert a.size == order
    assert count_isomorphisms(g, g) == order
