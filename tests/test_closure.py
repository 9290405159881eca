"""Closure certificates: closure_witness against brute pairwise checks."""

import itertools
import math
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from autodegree.automorphisms import AutGroup, Automorphism
from autodegree.catalog import catalog_build, cyclic
from autodegree.groups import (
    AxiomError,
    InvariantError,
    SubgroupSet,
    closure_witness,
    enumerate_subgroups,
    subgroup_closure,
)

TABLE_GROUPS = ["C(6)", "C(8)", "C(2)×C(4)", "C(2)×C(2)×C(2)", "D(4)", "Q8", "S(3)", "A(4)",
                "Dic(3)", "S(4)"]
AUT_GROUPS = ["C(8)", "C(2)×C(2)", "S(3)", "D(4)", "Q8"]


@lru_cache(maxsize=None)
def group_and_subgroups(name):
    g = catalog_build(name)
    return g, [s.members for s in enumerate_subgroups(g)]


@lru_cache(maxsize=None)
def brute_aut_images(name):
    g = catalog_build(name)
    return g.order, oracles.brute_automorphisms(g.table)


def compose(a, b):
    """a applied after b, on image tuples."""
    return tuple(a[x] for x in b)


@st.composite
def near_subgroup(draw, universe, subgroups, product):
    """A random subset of ``universe``, a subgroup with one element added or
    removed, or a product set HK of two subgroups (a subgroup only when HK = KH)."""
    kind = draw(st.sampled_from(["random", "subgroup", "added", "removed", "product"]))
    if kind == "random":
        members = draw(st.sets(st.sampled_from(universe), max_size=len(universe)))
    elif kind == "product":
        h, k = draw(st.sampled_from(subgroups)), draw(st.sampled_from(subgroups))
        members = {product(a, b) for a in h for b in k}
    else:
        members = set(draw(st.sampled_from(subgroups)))
        if kind == "added" and len(members) < len(universe):
            members.add(draw(st.sampled_from([u for u in universe if u not in members])))
        elif kind == "removed":
            members.discard(draw(st.sampled_from(sorted(members))))
    return draw(st.permutations(sorted(members)))


def check_witness(identity, members, product, witness):
    """A rejection names a reached element and a generator whose product leaves the set."""
    inside = set(members)
    r, t = witness
    assert product(r, t) not in inside
    if identity in inside:
        assert r in inside and t in inside
    else:
        assert witness == (identity, identity)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_certificate_matches_pairwise_check_on_tables(data):
    name = data.draw(st.sampled_from(TABLE_GROUPS))
    g, subs = group_and_subgroups(name)
    table = g.table
    product = lambda a, b: table[a][b]  # noqa: E731
    members = data.draw(near_subgroup(list(g.elements()), subs, product))
    witness = closure_witness(0, members, product)
    assert (witness is None) == oracles.brute_is_group(0, members, product)
    ordered = tuple(sorted(members))
    if witness is None:
        assert SubgroupSet(g, ordered).members == subgroup_closure(g, members).members
    else:
        check_witness(0, members, product, witness)
        with pytest.raises(AxiomError):
            SubgroupSet(g, ordered)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_certificate_matches_pairwise_check_on_automorphisms(data):
    name = data.draw(st.sampled_from(AUT_GROUPS))
    n, images = brute_aut_images(name)
    identity = tuple(range(n))
    seeds = [(), *((a,) for a in images[:6]), tuple(images[1:3])]
    subgroups = [tuple(sorted(oracles.brute_generated(identity, s, compose))) for s in seeds]
    members = data.draw(near_subgroup(images, subgroups, compose))
    witness = closure_witness(identity, members, compose)
    assert (witness is None) == oracles.brute_is_group(identity, members, compose)
    if witness is not None:
        check_witness(identity, members, compose, witness)
        if members:
            g = catalog_build(name)
            auts = AutGroup(g, tuple(Automorphism(g, p) for p in sorted(members)))
            with pytest.raises(InvariantError):
                auts.validate()


def test_witness_names_the_escaping_product():
    c4 = cyclic(4)
    assert closure_witness(0, (0, 1), lambda a, b: c4.table[a][b]) == (1, 1)
    with pytest.raises(AxiomError, match=r"\(1, 1\)"):
        SubgroupSet(c4, (0, 1))


def test_product_of_two_subgroups_is_rejected_in_every_member_order():
    s3 = catalog_build("S(3)")
    t = s3.table
    a, b = [s[1] for s in group_and_subgroups("S(3)")[1] if len(s) == 2][:2]
    hk = (0, a, b, t[a][b])  # <a><b>, with b*a outside
    assert t[b][a] not in hk
    for members in itertools.permutations(hk):
        assert closure_witness(0, members, lambda x, y: t[x][y]) is not None


def test_missing_identity_is_rejected():
    c4 = cyclic(4)
    assert closure_witness(0, (1, 2, 3), lambda a, b: c4.table[a][b]) == (0, 0)
    assert closure_witness(0, (), lambda a, b: a) == (0, 0)


@pytest.mark.parametrize("name", ["S(4)", "C(16)", "C(2)×C(2)×C(2)×C(3)", "A(4)"])
def test_products_stay_within_size_times_log_size(name):
    g = catalog_build(name)
    calls = []

    def product(a, b):
        calls.append((a, b))
        return g.table[a][b]

    assert closure_witness(0, tuple(g.elements()), product) is None
    assert len(calls) <= g.order * math.floor(math.log2(g.order))
    assert len(set(calls)) == len(calls)
