"""Factor oracles for direct products: Aut(G1×G2) and the degree from the factors.

Bidwell, Curran and McCaughan, "Automorphisms of direct products of finite
groups", Arch. Math. 86 (2006): when G1 and G2 share no direct factor,
|Aut(G1×G2)| = |Aut G1|·|Aut G2|·|Hom(G1, Z(G2))|·|Hom(G2, Z(G1))|.
When gcd(|G1|, |G2|) = 1, every subgroup is H1×H2 and
Aut(G1×G2) = Aut(G1)×Aut(G2), so the orbits, L, S and [H, A] factor and
Pr(H1×H2) = Pr(H1)·Pr(H2). The homomorphisms are counted by
:func:`oracles.brute_hom_count`, independently of the package.
"""

from functools import lru_cache
from math import gcd

import pytest

import oracles
from autodegree.automorphisms import compute_aut
from autodegree.catalog import catalog_build
from autodegree.degree import degree_report
from autodegree.groups import SubgroupSet, direct_product, enumerate_subgroups

CAP = 64

NO_COMMON_FACTOR = {
    ("D(4)", "Q8"): 3072, ("Q8", "S(3)"): 288, ("S(3)", "C(4)"): 24, ("D(4)", "C(4)"): 128,
    ("Q8", "C(4)"): 384, ("D(4)", "S(3)"): 96,
    ("A(4)", "C(2)"): 24, ("S(4)", "C(2)"): 48, ("D(8)", "C(2)"): 256, ("Q8", "C(2)"): 192,
    ("D(4)", "C(2)"): 64, ("Dic(3)", "C(2)"): 48, ("M16", "C(2)"): 128,
    ("D(4)", "C(2)×C(2)"): 3072, ("Q8", "C(2)×C(2)"): 9216, ("S(3)", "C(2)×C(2)"): 144,
    ("A(4)", "C(4)"): 48, ("D(3)", "D(4)"): 96, ("M16", "C(4)"): 1024, ("Dic(3)", "C(4)"): 192,
    ("D(5)", "C(4)"): 80, ("Q8", "C(8)"): 768,
}
# Pairs sharing a direct factor: (|Aut(G1×G2)|, the formula's value).
COMMON_FACTOR = {
    ("D(4)", "D(4)"): (2048, 1024),
    ("Q8", "Q8"): (18432, 9216),
    ("S(3)", "S(3)"): (72, 36),
    ("D(6)", "C(2)"): (144, 96),  # D(6) is S(3)×C(2)
}
COPRIME = [("C(3)", "D(4)"), ("C(3)", "Q8"), ("S(3)", "C(5)"), ("D(5)", "C(3)"),
           ("Q8", "C(5)"), ("C(3)", "M16"), ("A(4)", "C(5)"), ("D(4)", "C(7)")]
# degree_report fields that are products over the factors when the orders are coprime.
MULTIPLICATIVE = ("pr_definition", "pr_orbit", "size_autocentre", "size_commutator_set",
                  "size_commutator_subgroup", "orbit_count")


def ids(pairs) -> list[str]:
    return ["×".join(pair) for pair in pairs]


@lru_cache(maxsize=None)
def aut(name: str):
    return compute_aut(catalog_build(name), cap=CAP)


def aut_of_product(g1: str, g2: str) -> int:
    return compute_aut(direct_product(catalog_build(g1), catalog_build(g2)), cap=CAP).size


def formula(g1: str, g2: str) -> int:
    t1, t2 = catalog_build(g1).table, catalog_build(g2).table
    homs = (oracles.brute_hom_count(t1, t2, oracles.brute_center(t2))
            * oracles.brute_hom_count(t2, t1, oracles.brute_center(t1)))
    return aut(g1).size * aut(g2).size * homs


@pytest.mark.parametrize("pair", list(NO_COMMON_FACTOR), ids=ids(NO_COMMON_FACTOR))
def test_aut_of_a_product_without_a_common_factor(pair):
    assert aut_of_product(*pair) == formula(*pair) == NO_COMMON_FACTOR[pair]


@pytest.mark.parametrize("pair", list(COMMON_FACTOR), ids=ids(COMMON_FACTOR))
def test_a_common_direct_factor_breaks_the_formula(pair):
    assert (aut_of_product(*pair), formula(*pair)) == COMMON_FACTOR[pair]


def test_hom_count_of_small_groups():
    c2, c4, q8 = (catalog_build(n).table for n in ("C(2)", "C(4)", "Q8"))
    assert oracles.brute_hom_count(c4, c4, range(4)) == 4
    assert oracles.brute_hom_count(c4, c2, range(2)) == 2
    assert oracles.brute_hom_count(q8, q8, oracles.brute_center(q8)) == 4  # Q8/Q8' = C(2)×C(2)
    assert oracles.brute_hom_count(c2, q8, (0,)) == 1


def factors(members: tuple[int, ...], n2: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The projections of a subset of G1×G2, indexed as by ``direct_product``."""
    return tuple(sorted({m // n2 for m in members})), tuple(sorted({m % n2 for m in members}))


@pytest.mark.parametrize("pair", COPRIME, ids=ids(COPRIME))
def test_coprime_product_factors(pair):
    g1, g2 = map(catalog_build, pair)
    assert gcd(g1.order, g2.order) == 1
    g, n2 = direct_product(g1, g2), g2.order
    a, a1, a2 = compute_aut(g, cap=CAP), aut(pair[0]), aut(pair[1])
    assert a.size == a1.size * a2.size
    subs, subs1, subs2 = (enumerate_subgroups(x, cap=CAP) for x in (g, g1, g2))
    assert len(subs) == len(subs1) * len(subs2)
    for h in subs:
        h1, h2 = factors(h.members, n2)
        assert h.members == tuple(sorted(x * n2 + y for x in h1 for y in h2))
        whole = degree_report(h, a)
        r1, r2 = degree_report(SubgroupSet(g1, h1), a1), degree_report(SubgroupSet(g2, h2), a2)
        for field in MULTIPLICATIVE:
            product = getattr(r1, field) * getattr(r2, field)
            assert getattr(whole, field) == product, (h.members, field)


def test_orders_that_are_not_coprime_break_the_factorisation():
    g1, g2 = catalog_build("C(3)"), catalog_build("A(4)")
    g = direct_product(g1, g2)
    assert compute_aut(g, cap=CAP).size == 144
    assert aut("C(3)").size * aut("A(4)").size == 48
    counts = [len(enumerate_subgroups(x, cap=CAP)) for x in (g, g1, g2)]
    assert counts == [30, 2, 10]
