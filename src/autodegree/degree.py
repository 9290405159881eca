"""Exact fixed-point degrees of automorphism actions, with every bound.

The degree of (H, A) is the probability that a uniformly random pair
(x, alpha) in H x A satisfies alpha(x) = x. Everything here is computed
as an exact Fraction; floats appear only in rendered reports.

The paper's bounds come in three families, each written once:
- :func:`_sharp` (q^k + p - 1)/(p q^k): the pq and pq^2 upper bounds, their
  3/4 and 5/8 caps, and the equality and converse checks with H/L = C(q)^k;
- :func:`_family` (1/m)(1 + (m - 1)/|H : L|): the lower bounds through S
  and [H, A], equivalence (a), and the converse closed form;
- :func:`_lower` |L|/|H| + (p(|H| - |X| - |L|) + |X|)/(|H||A|): the main
  lower bound, and the plain bound at |X| = 0.

Every public (H, A) check raises :class:`HypothesisError` when its hypothesis
is unmet, most often the nontrivial action H != L, |A| > 1 that the bounds assume.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from functools import partial
from math import lcm
from typing import Optional

from .automorphisms import (
    AutGroup,
    autocentre,
    autocommutator_set,
    autocommutator_subgroup,
    orbits_on_subgroup,
    trivial_stabilizer_set,
)
from .catalog import smallest_prime_divisor
from .groups import (
    GroupError,
    GroupTable,
    InvariantError,
    PreconditionError,
    SubgroupSet,
    _Frozen,
    _require_same_parent,
    find_isomorphism,
    permutation_table,
)


class HypothesisError(GroupError):
    """The standing assumptions behind a bound are not met on this instance."""


def pr_definition(H: SubgroupSet, A: AutGroup) -> Fraction:
    """Fixed-pair count over |H| |A|, from the tally ``AutGroup.fixer_count``.

    Kept in the (H, A) record of :meth:`AutGroup.action_on`. No other degree
    formula reads that tally or the record; :class:`AutGroup` lists the routes.
    """
    return A.action_on(H).pr


def pr_via_sums(H: SubgroupSet, A: AutGroup) -> tuple[Fraction, Fraction]:
    """The degree from stabilizer sizes and again from fixed-set sizes.

    Both decompose the fixed-pair set: once by the element, counting the
    members of A that fix it (``AutGroup.stabilizer_sizes``), and once by
    the automorphism, counting the points of H each fixes, summed over the
    distinct fixed-point sets F with their multiplicities m as
    sum m |F & H| (``AutGroup.fixed_point_sets``). H must be a subgroup of
    A's group, or :class:`ParentMismatchError` is raised.
    """
    _require_same_parent(A.parent, H)
    denom = H.size * A.size
    sizes, hset = A.stabilizer_sizes, H.member_set
    stab_total = sum(sizes[x] for x in H.members)
    fixed_total = sum(m * len(fixed & hset) for fixed, m in A.fixed_point_sets)
    return Fraction(stab_total, denom), Fraction(fixed_total, denom)


def pr_via_orbits(H: SubgroupSet, A: AutGroup) -> Fraction:
    """Average of 1/|orbit(x)| over H (orbit-stabilizer form), as one Fraction.

    With M the lcm of the orbit lengths l(x), the average is
    (sum of M / l(x) over H) / (M |H|). H must be a subgroup of A's group,
    or :class:`ParentMismatchError` is raised.
    """
    _require_same_parent(A.parent, H)
    orbits = A.orbit_of
    lengths = [len(orbits[x]) for x in H.members]
    m = lcm(*set(lengths))
    return Fraction(sum(m // length for length in lengths), m * H.size)


def pr_commuting(H: SubgroupSet) -> Fraction:
    """Probability that a member of H commutes with an element of the parent:
    |C_G(x)| summed over H, from ``GroupTable.centralizer_sizes``, which no Aut table reads."""
    sizes = H.parent.centralizer_sizes
    return Fraction(sum(sizes[x] for x in H.members), H.size * H.parent.order)


class DegreeReport(_Frozen):
    """All degree formulas plus the sizes of every derived structure."""

    def __init__(self, group: str, subgroup: tuple[int, ...], pr_definition: Fraction,
                 pr_stab_sum: Fraction, pr_fixed_sum: Fraction, pr_orbit: Fraction,
                 pr_orbit_count: Fraction, size_h: int, size_aut: int, size_autocentre: int,
                 size_commutator_set: int, size_commutator_subgroup: int,
                 size_trivial_stabilizer: int, orbit_count: int,
                 orbits: tuple[tuple[int, ...], ...], h_equals_autocentre: bool,
                 findings: tuple[str, ...] = ()):
        vars(self).update(
            group=group, subgroup=subgroup, pr_definition=pr_definition,
            pr_stab_sum=pr_stab_sum, pr_fixed_sum=pr_fixed_sum, pr_orbit=pr_orbit,
            pr_orbit_count=pr_orbit_count, size_h=size_h, size_aut=size_aut,
            size_autocentre=size_autocentre, size_commutator_set=size_commutator_set,
            size_commutator_subgroup=size_commutator_subgroup,
            size_trivial_stabilizer=size_trivial_stabilizer, orbit_count=orbit_count,
            orbits=orbits, h_equals_autocentre=h_equals_autocentre, findings=findings)

    def formulas_agree(self) -> bool:
        return (
            self.pr_definition
            == self.pr_stab_sum
            == self.pr_fixed_sum
            == self.pr_orbit
        )


def degree_report(H: SubgroupSet, A: AutGroup) -> DegreeReport:
    """Compute every formula and structure size for one (H, A) instance."""
    core = autocentre(H, A)
    sset = autocommutator_set(H, A)
    ksub = autocommutator_subgroup(H, A)
    xset = trivial_stabilizer_set(H, A)
    orbs = orbits_on_subgroup(A, H)
    stab_sum, fixed_sum = pr_via_sums(H, A)
    p_def = pr_definition(H, A)
    p_orb = pr_via_orbits(H, A)
    p_cnt = Fraction(len(orbs), H.size)
    findings = []
    if A.size == 1:
        findings.append(
            f"trivial automorphism group: only-identity-stabilizer set forced empty "
            f"(the literal definition would give all {H.size} members of H)"
        )
    if p_orb != p_cnt:
        findings.append(
            f"an orbit leaves H: orbit-count form {p_cnt} differs from orbit average {p_orb}"
        )
    return DegreeReport(
        group=H.parent.label(),
        subgroup=H.members,
        pr_definition=p_def,
        pr_stab_sum=stab_sum,
        pr_fixed_sum=fixed_sum,
        pr_orbit=p_orb,
        pr_orbit_count=p_cnt,
        size_h=H.size,
        size_aut=A.size,
        size_autocentre=core.size,
        size_commutator_set=len(sset),
        size_commutator_subgroup=ksub.size,
        size_trivial_stabilizer=len(xset),
        orbit_count=len(orbs),
        orbits=tuple(orbs),
        h_equals_autocentre=core.size == H.size,
        findings=tuple(findings),
    )


_HOLDS = {"upper": operator.le, "lower": operator.ge, "equal": operator.eq}


class BoundCheck(_Frozen):
    """One evaluated inequality or equality claim about a degree.

    ``holds`` and ``is_equality`` are decided once, at construction, from
    ``value``, ``bound`` and ``direction``, by comparing the integers
    value.numerator * bound.denominator and bound.numerator * value.denominator
    (denominators are positive, so the order is that of the two values;
    ints carry both attributes too), and stored as fields. An unknown
    direction raises :class:`ValueError`. ``holds`` is never enforced: a
    falsified claim whose hypothesis is met is a scan failure, not an
    exception. ``informational`` marks claims that are reported as
    findings instead of failures.
    """

    def __init__(self, name: str, value: Fraction, bound: Fraction,
                 direction: str,  # "upper", "lower" or "equal"
                 hypothesis_met: bool = True, p: Optional[int] = None, q: Optional[int] = None,
                 condition_met: Optional[bool] = None, informational: bool = False):
        if direction not in _HOLDS:
            raise ValueError(f"unknown direction {direction!r}")
        v, b = value.numerator * bound.denominator, bound.numerator * value.denominator
        vars(self).update(
            name=name, value=value, bound=bound, direction=direction,
            hypothesis_met=hypothesis_met, p=p, q=q, condition_met=condition_met,
            informational=informational, holds=_HOLDS[direction](v, b), is_equality=v == b)


def _sharp(p: int, q: int, k: int) -> Fraction:
    """The sharp family (q^k + p - 1)/(p q^k)."""
    return Fraction(q**k + p - 1, p * q**k)


def _family(m: int, H: SubgroupSet, L: SubgroupSet) -> Fraction:
    """The lower family (1/m)(1 + (m - 1)/|H : L|) = (|H : L| + m - 1)/(m |H : L|)."""
    index = H.size // L.size
    return Fraction(index + m - 1, m * index)


def _lower(H: SubgroupSet, A: AutGroup, L: SubgroupSet, p: int, x: int) -> Fraction:
    """The main lower form |L|/|H| + (p(|H| - x - |L|) + x)/(|H||A|), x = |X|.

    As one Fraction: (|L||A| + p(|H| - x - |L|) + x)/(|H||A|).
    """
    return Fraction(L.size * A.size + p * (H.size - x - L.size) + x, H.size * A.size)


def _standing_assumptions(H: SubgroupSet, A: AutGroup) -> tuple[SubgroupSet, int, int]:
    """The bounds assume a nontrivial action: H != L and |A| > 1.

    Otherwise the degree is 1 and :class:`HypothesisError` is raised. Returns
    the autocentre L, p (the smallest prime dividing |A|) and q (the
    smallest prime dividing |H|), so callers do not recompute them.
    """
    core = autocentre(H, A)
    if A.size == 1:
        raise HypothesisError("the automorphism group is trivial, so the degree is 1")
    if core.size == H.size:
        raise HypothesisError("H equals its autocentre, so the degree is 1")
    return core, smallest_prime_divisor(A.size), smallest_prime_divisor(H.size)


def check_monotonicity(H: SubgroupSet, K: SubgroupSet, A: AutGroup) -> BoundCheck:
    """Pr(H) <= |K : H| Pr(K) for nested subgroups, equality iff H = K.

    ``condition_met`` records H = K so the equality characterization can be
    asserted against ``is_equality``.
    """
    if not H.member_set <= K.member_set:
        raise PreconditionError("H must be contained in K")
    index = K.size // H.size
    pr_k = pr_definition(K, A)
    return BoundCheck(
        "monotonicity",
        pr_definition(H, A),
        Fraction(index * pr_k.numerator, pr_k.denominator),
        "upper",
        condition_met=H.members == K.members,
    )


def bound_upper_main(H: SubgroupSet, A: AutGroup) -> BoundCheck:
    """Upper bound from splitting H into the autocentre, the free part, and the rest.

    p is the smallest prime dividing |A|; members outside the autocentre L
    and the only-identity-stabilizer set X have stabilizers of size at most
    |A|/p, which gives
    Pr <= ((p-1)|L| + |H|) / (p|H|) - |X| (|A| - p) / (p |H| |A|),
    built as one Fraction: (((p-1)|L| + |H|)|A| - |X|(|A| - p)) / (p|H||A|).
    """
    core, p, _ = _standing_assumptions(H, A)
    x = len(trivial_stabilizer_set(H, A))
    bound = Fraction(
        ((p - 1) * core.size + H.size) * A.size - x * (A.size - p), p * H.size * A.size
    )
    return BoundCheck("upper_main", pr_definition(H, A), bound, "upper", p=p)


def _upper_sharp(H: SubgroupSet, A: AutGroup, k: int, name: str, cap: str) -> list[BoundCheck]:
    """Pr <= (q^k + p - 1)/(p q^k), and its p = q = 2 value as a cap when q >= p."""
    _, p, q = _standing_assumptions(H, A)
    value = pr_definition(H, A)
    return [
        BoundCheck(name, value, _sharp(p, q, k), "upper", p=p, q=q),
        BoundCheck(cap, value, _sharp(2, 2, k), "upper", hypothesis_met=q >= p, p=p, q=q),
    ]


def bound_upper_pq(H: SubgroupSet, A: AutGroup) -> list[BoundCheck]:
    """Pr <= (p + q - 1)/(pq), and the 3/4 cap whenever q >= p."""
    return _upper_sharp(H, A, 1, "upper_pq", "upper_cap_3_4")


def bound_upper_nonabelian(H: SubgroupSet, A: AutGroup) -> list[BoundCheck]:
    """For non-abelian H: Pr <= (q^2 + p - 1)/(p q^2), and 5/8 when q >= p."""
    if H.is_abelian:
        raise HypothesisError("this bound applies only to non-abelian subgroups")
    return _upper_sharp(H, A, 2, "upper_nonabelian_pq2", "upper_cap_5_8")


def pr_le_commuting(H: SubgroupSet, A: AutGroup) -> BoundCheck:
    """The automorphism degree never exceeds the commuting probability.

    Holds because each conjugacy class sits inside the corresponding orbit.
    No standing assumptions: valid for every (H, A).
    """
    return BoundCheck("pr_le_commuting", pr_definition(H, A), pr_commuting(H), "upper")


def bound_lower_main(H: SubgroupSet, A: AutGroup) -> BoundCheck:
    """Lower bound: elements outside L and X still have at least p fixing maps.

    Pr >= |L|/|H| + (p(|H| - |X| - |L|) + |X|) / (|H| |A|).
    """
    if A.size == 1:
        raise HypothesisError("the automorphism group is trivial")
    core = autocentre(H, A)
    p = smallest_prime_divisor(A.size)
    x = len(trivial_stabilizer_set(H, A))
    return BoundCheck("lower_main", pr_definition(H, A), _lower(H, A, core, p, x), "lower", p=p)


def _coset_times_set(H: SubgroupSet, x: int, values) -> frozenset[int]:
    row = H.parent.table[x]
    return frozenset(row[s] for s in values)


def bound_lower_S(H: SubgroupSet, A: AutGroup) -> BoundCheck:
    """Lower bound through the autocommutator set S, with its equality test.

    Pr >= (1/|S|)(1 + (|S| - 1)/|H : L|); equality holds exactly when
    orbit(x) = x S for every x in H outside L, which is evaluated into
    ``condition_met``.
    """
    core, _, _ = _standing_assumptions(H, A)
    sset = autocommutator_set(H, A)
    orbits = A.orbit_of
    cond = all(
        frozenset(orbits[x]) == _coset_times_set(H, x, sset)
        for x in H.members
        if x not in core.member_set
    )
    return BoundCheck(
        "lower_autocommutator_set", pr_definition(H, A), _family(len(sset), H, core), "lower",
        condition_met=cond,
    )


def bound_lower_commutator(H: SubgroupSet, A: AutGroup) -> list[BoundCheck]:
    """Lower bound through the autocommutator subgroup, plus two side checks.

    The main bound replaces |S| with the (at least as large) order of the
    generated subgroup [H, A]. The monotone check confirms that growing the
    set parameter can only weaken this family of bounds. The final
    comparison against the plain bound |L|/|H| + p(|H| - |L|)/(|H| |A|) is
    informational only: it fails on instances where the only-identity
    stabilizer correction matters (for example the cyclic group of order 3),
    so a failure is reported as a finding rather than a violation.
    """
    core, p, _ = _standing_assumptions(H, A)
    by_set = _family(len(autocommutator_set(H, A)), H, core)
    by_subgroup = _family(autocommutator_subgroup(H, A).size, H, core)
    return [
        BoundCheck("lower_commutator_subgroup", pr_definition(H, A), by_subgroup, "lower"),
        BoundCheck("lower_monotone_family", by_set, by_subgroup, "lower"),
        BoundCheck("lower_commutator_vs_plain", by_subgroup, _lower(H, A, core, p, 0), "lower",
                   p=p, informational=True),
    ]


class EqualityReport(_Frozen):
    """Structural conclusions drawn from a degree attaining a sharp bound."""

    def __init__(self, name: str, p: int, q: int, pr: Fraction, divisibility_holds: bool,
                 quotient_order: int, structure_holds: bool, expected_structure: str,
                 special_case_5_8: bool = False):
        vars(self).update(
            name=name, p=p, q=q, pr=pr, divisibility_holds=divisibility_holds,
            quotient_order=quotient_order, structure_holds=structure_holds,
            expected_structure=expected_structure, special_case_5_8=special_case_5_8)

    def passed(self) -> bool:
        return self.divisibility_holds and self.structure_holds


def _is_cyclic_power(quot: GroupTable, q: int, k: int) -> bool:
    """Whether ``quot`` is C(q)^k, for prime q and k = 1 or 2, from its element orders.

    Exact: a group of order q is cyclic, and one of order q^2 is C(q^2) or C(q)^2.
    """
    return quot.order_profile == (1,) + (q,) * (q**k - 1)


def _classify_sharp(H: SubgroupSet, A: AutGroup, name: str, k: int) -> Optional[EqualityReport]:
    """When Pr = (q^k + p - 1)/(p q^k): check pq | |H||A| and H/L = C(q)^k.

    k = 1 is the pq bound and k = 2 the pq^2 bound; only k = 2 can reach the
    5/8 special case, since k = 1 gives 3/4 at p = q = 2. Returns None when
    the instance does not attain the bound.
    """
    _, p, q = _standing_assumptions(H, A)
    pr = pr_definition(H, A)
    if pr != _sharp(p, q, k):
        return None
    quot = A.action_on(H).quotient.group
    return EqualityReport(
        name=name,
        p=p,
        q=q,
        pr=pr,
        divisibility_holds=(H.size * A.size) % (p * q) == 0,
        quotient_order=quot.order,
        structure_holds=_is_cyclic_power(quot, q, k),
        expected_structure="×".join([f"C({q})"] * k),
        special_case_5_8=(p == 2 and q == 2 and pr == Fraction(5, 8)),
    )


def classify_equality_pq(H: SubgroupSet, A: AutGroup) -> Optional[EqualityReport]:
    """When Pr = (p + q - 1)/(pq): check pq | |H||A| and H/L cyclic of order q.

    Returns None when the instance does not attain the bound; raises
    :class:`HypothesisError` when H = L or |A| = 1.
    """
    return _classify_sharp(H, A, "equality_pq", 1)


def classify_equality_pq2(H: SubgroupSet, A: AutGroup) -> Optional[EqualityReport]:
    """For non-abelian H with Pr = (q^2 + p - 1)/(p q^2): H/L = C(q) x C(q).

    Also flags the even-order special case: p = q = 2 with Pr = 5/8 forces
    the Klein four quotient. Returns None for abelian H, before the standing
    assumptions are checked, and when the bound is not attained; raises
    :class:`HypothesisError` for non-abelian H when H = L or |A| = 1.
    """
    if H.is_abelian:
        return None
    return _classify_sharp(H, A, "equality_pq2", 2)


def converse_check(H: SubgroupSet, A: AutGroup) -> list[BoundCheck]:
    """Partial converse: if every orbit outside L has size exactly p, the
    degree takes the closed form (1/p)((p - 1)/|H : L| + 1), and the shape
    of H/L pins it to the sharp pq or pq^2 value.

    Raises :class:`HypothesisError` when H = L or |A| = 1, and returns an
    empty list when only the orbit-size hypothesis fails.
    """
    core, p, q = _standing_assumptions(H, A)
    orbits = A.orbit_of
    if any(len(orbits[x]) != p for x in H.members if x not in core.member_set):
        return []
    pr = pr_definition(H, A)
    checks = [BoundCheck("converse_degree", pr, _family(p, H, core), "equal", p=p, q=q)]
    quot = A.action_on(H).quotient.group
    for k, name in ((1, "converse_cyclic_quotient"), (2, "converse_bicyclic_quotient")):
        if _is_cyclic_power(quot, q, k):
            checks.append(BoundCheck(name, pr, _sharp(p, q, k), "equal", p=p, q=q))
            break
    return checks


class EquivalenceReport(_Frozen):
    """The five equivalent descriptions of equality in the commutator bound."""

    def __init__(self, bound_attained: bool, orbit_sizes_match: bool, orbit_cosets_match: bool,
                 stabilizer_quotients_match: bool, commutators_from_each_element: bool):
        vars(self).update(
            bound_attained=bound_attained, orbit_sizes_match=orbit_sizes_match,
            orbit_cosets_match=orbit_cosets_match,
            stabilizer_quotients_match=stabilizer_quotients_match,
            commutators_from_each_element=commutators_from_each_element)

    def flags(self) -> tuple[bool, bool, bool, bool, bool]:
        return (
            self.bound_attained,
            self.orbit_sizes_match,
            self.orbit_cosets_match,
            self.stabilizer_quotients_match,
            self.commutators_from_each_element,
        )

    @property
    def consistent(self) -> bool:
        return len(set(self.flags())) == 1


def _induced_on_orbit(A: AutGroup, x: int) -> Optional[GroupTable]:
    """The group A induces on orbit(x) if Stab(x) is normal in A, else None."""
    points, images = sorted(A.member_images[x]), A.images
    if any(img[y] != y for img in images if img[x] == x for y in points):
        return None
    pos = {y: i for i, y in enumerate(points)}
    # The identity restriction is the least, so it lands at index 0.
    induced = sorted({tuple(pos[img[y]] for y in points) for img in images})
    if len(induced) != len(points):
        raise InvariantError(f"{len(induced)} induced permutations on an orbit of {len(points)}")
    return permutation_table(induced)


def equivalent_conditions(H: SubgroupSet, A: AutGroup) -> EquivalenceReport:
    """Evaluate all five conditions independently and report them.

    (a) the degree equals the commutator-subgroup lower bound;
    (b) every orbit outside L has size |[H, A]|;
    (c) orbit(x) = x [H, A] outside L, and [H, A] sits inside L;
    (d) each stabilizer outside L is normal in A with quotient isomorphic
        to [H, A];
    (e) the autocommutators of each single x outside L already fill [H, A].

    (d) is read from the action on each orbit, one orbit at a time, from
    ``A.member_images`` and the members rather than ``A.orbit_of``, so it
    shares no route with (b) and (c); each orbit's induced group is built
    once per A. Stab(alpha(x)) = alpha Stab(x) alpha^-1, so Stab(x) is normal
    exactly when every automorphism fixing x fixes all of orbit(x); it is
    then the kernel of the action on orbit(x), and A/Stab(x) is the group
    A induces there. That group is transitive and its point stabilizers,
    the images of Stab(y) = Stab(x), are trivial: it acts regularly, with
    |orbit(x)| elements, and points of one orbit give the same quotient.

    (a), (b) and (e) are equivalent for every H, since orbit(x) lies in
    x [H, A]. All five are equivalent when [H, A] <= H, that is, when every
    automorphism maps H into H. Outside that hypothesis (c) and (d) can
    differ from the rest: for H the transposition subgroup of S(3), [H, A]
    is the alternating subgroup, and (a), (b), (e) hold while (c), (d) fail.
    """
    core, _, _ = _standing_assumptions(H, A)
    t = H.parent.table
    invs = H.parent.inverses
    ksub = autocommutator_subgroup(H, A)
    kset = ksub.member_set
    outside = [x for x in H.members if x not in core.member_set]
    a_flag = pr_definition(H, A) == _family(ksub.size, H, core)
    orbs = A.orbit_of
    b_flag = all(len(orbs[x]) == ksub.size for x in outside)
    c_flag = (
        all(
            frozenset(orbs[x]) == _coset_times_set(H, x, ksub.members)
            for x in outside
        )
        and kset <= core.member_set
    )
    k_group = A.action_on(H).commutator_group
    images = A.member_images
    reps = sorted({min(images[x]) for x in outside})
    quotients = [A.derive(("induced", (r,)), partial(_induced_on_orbit, A, r)) for r in reps]
    d_flag = all(q is not None and find_isomorphism(q, k_group) is not None for q in quotients)
    e_flag = all({t[invs[x]][y] for y in images[x]} == kset for x in outside)
    return EquivalenceReport(a_flag, b_flag, c_flag, d_flag, e_flag)
