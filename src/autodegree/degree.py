"""Exact fixed-point degrees of automorphism actions, with every bound.

The degree of (H, A) is the probability that a uniformly random pair
(x, alpha) in H x A satisfies alpha(x) = x. Everything here is computed
as an exact Fraction; floats appear only in rendered reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .automorphisms import (
    AutGroup,
    autocentre,
    autocommutator_set,
    autocommutator_subgroup,
    orbit,
    orbits_on_subgroup,
    stabilizer,
    trivial_stabilizer_set,
)
from .catalog import cyclic, smallest_prime_divisor
from .groups import (
    GroupError,
    GroupTable,
    InvariantError,
    PreconditionError,
    SubgroupSet,
    direct_product,
    find_isomorphism,
    permutation_table,
    quotient_group,
    subgroup_as_group,
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

    Both decompose the fixed-pair set: once by the element, summing the
    size of each element's stabilizer in A, and once by the automorphism,
    counting the points of H each automorphism fixes.
    """
    denom = H.size * A.size
    stab_total = sum(stabilizer(A, x).size for x in H.members)
    fixed_total = sum(1 for a in A.members for x in H.members if a.image[x] == x)
    return Fraction(stab_total, denom), Fraction(fixed_total, denom)


def pr_via_orbits(H: SubgroupSet, A: AutGroup) -> Fraction:
    """Average of 1/|orbit(x)| over the members of H (orbit-stabilizer form)."""
    total = sum((Fraction(1, orbit(A, x).size) for x in H.members), Fraction(0))
    return total / H.size


def orbit_count_ratio(H: SubgroupSet, A: AutGroup) -> Fraction:
    """Distinct member orbits over |H|.

    Agrees with :func:`pr_via_orbits` exactly when every orbit of a member
    of H stays inside H; otherwise the two can differ and the difference is
    surfaced as a report finding.
    """
    return Fraction(len(orbits_on_subgroup(A, H)), H.size)


def pr_commuting(H: SubgroupSet) -> Fraction:
    """Probability that a member of H commutes with an element of the parent."""
    return Fraction(H.commuting_pairs, H.size * H.parent.order)


@dataclass(frozen=True)
class DegreeReport:
    """All degree formulas plus the sizes of every derived structure."""

    group: str
    subgroup: tuple[int, ...]
    pr_definition: Fraction
    pr_stab_sum: Fraction
    pr_fixed_sum: Fraction
    pr_orbit: Fraction
    pr_orbit_count: Fraction
    size_h: int
    size_aut: int
    size_autocentre: int
    size_commutator_set: int
    size_commutator_subgroup: int
    size_trivial_stabilizer: int
    orbit_count: int
    orbits: tuple[tuple[int, ...], ...]
    h_equals_autocentre: bool
    findings: tuple[str, ...] = ()

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
        orbits=tuple(o.members for o in orbs),
        h_equals_autocentre=core.size == H.size,
        findings=tuple(findings),
    )


@dataclass(frozen=True)
class BoundCheck:
    """One evaluated inequality or equality claim about a degree.

    ``holds`` is recorded, never enforced: a falsified claim whose
    hypothesis is met is a scan failure, not an exception. ``informational``
    marks claims that are reported as findings instead of failures.
    """

    name: str
    value: Fraction
    bound: Fraction
    direction: str  # "upper", "lower" or "equal"
    holds: bool
    is_equality: bool
    hypothesis_met: bool
    p: Optional[int] = None
    q: Optional[int] = None
    condition_met: Optional[bool] = None
    informational: bool = False


def _check(
    name: str,
    value: Fraction,
    bound: Fraction,
    direction: str,
    hypothesis_met: bool = True,
    p: Optional[int] = None,
    q: Optional[int] = None,
    condition_met: Optional[bool] = None,
    informational: bool = False,
) -> BoundCheck:
    if direction == "upper":
        holds = value <= bound
    elif direction == "lower":
        holds = value >= bound
    elif direction == "equal":
        holds = value == bound
    else:
        raise ValueError(f"unknown direction {direction!r}")
    return BoundCheck(
        name, value, bound, direction, holds, value == bound,
        hypothesis_met, p, q, condition_met, informational,
    )


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
    return _check(
        "monotonicity",
        pr_definition(H, A),
        index * pr_definition(K, A),
        "upper",
        condition_met=H.members == K.members,
    )


def bound_upper_main(H: SubgroupSet, A: AutGroup) -> BoundCheck:
    """Upper bound from splitting H into the autocentre, the free part, and the rest.

    p is the smallest prime dividing |A|; members outside the autocentre L
    and the only-identity-stabilizer set X have stabilizers of size at most
    |A|/p, which gives
    Pr <= ((p-1)|L| + |H|) / (p|H|) - |X| (|A| - p) / (p |H| |A|).
    """
    core, p, _ = _standing_assumptions(H, A)
    x = len(trivial_stabilizer_set(H, A))
    bound = Fraction((p - 1) * core.size + H.size, p * H.size) - Fraction(
        x * (A.size - p), p * H.size * A.size
    )
    return _check("upper_main", pr_definition(H, A), bound, "upper", p=p)


def bound_upper_pq(H: SubgroupSet, A: AutGroup) -> list[BoundCheck]:
    """Pr <= (p + q - 1)/(pq), and the 3/4 cap whenever q >= p."""
    _, p, q = _standing_assumptions(H, A)
    value = pr_definition(H, A)
    return [
        _check("upper_pq", value, Fraction(p + q - 1, p * q), "upper", p=p, q=q),
        _check("upper_cap_3_4", value, Fraction(3, 4), "upper",
               hypothesis_met=q >= p, p=p, q=q),
    ]


def bound_upper_nonabelian(H: SubgroupSet, A: AutGroup) -> list[BoundCheck]:
    """For non-abelian H: Pr <= (q^2 + p - 1)/(p q^2), and 5/8 when q >= p."""
    if H.is_abelian:
        raise HypothesisError("this bound applies only to non-abelian subgroups")
    _, p, q = _standing_assumptions(H, A)
    value = pr_definition(H, A)
    return [
        _check("upper_nonabelian_pq2", value, Fraction(q * q + p - 1, p * q * q),
               "upper", p=p, q=q),
        _check("upper_cap_5_8", value, Fraction(5, 8), "upper",
               hypothesis_met=q >= p, p=p, q=q),
    ]


def pr_le_commuting(H: SubgroupSet, A: AutGroup) -> BoundCheck:
    """The automorphism degree never exceeds the commuting probability.

    Holds because each conjugacy class sits inside the corresponding orbit.
    No standing assumptions: valid for every (H, A).
    """
    return _check("pr_le_commuting", pr_definition(H, A), pr_commuting(H), "upper")


def bound_lower_main(H: SubgroupSet, A: AutGroup) -> BoundCheck:
    """Lower bound: elements outside L and X still have at least p fixing maps.

    Pr >= |L|/|H| + (p(|H| - |X| - |L|) + |X|) / (|H| |A|).
    """
    if A.size == 1:
        raise HypothesisError("the automorphism group is trivial")
    core = autocentre(H, A)
    p = smallest_prime_divisor(A.size)
    x = len(trivial_stabilizer_set(H, A))
    bound = Fraction(core.size, H.size) + Fraction(
        p * (H.size - x - core.size) + x, H.size * A.size
    )
    return _check("lower_main", pr_definition(H, A), bound, "lower", p=p)


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
    s = len(sset)
    index = H.size // core.size
    bound = Fraction(1, s) * (1 + Fraction(s - 1, index))
    cond = all(
        frozenset(orbit(A, x).members) == _coset_times_set(H, x, sset)
        for x in H.members
        if x not in core.member_set
    )
    return _check(
        "lower_autocommutator_set", pr_definition(H, A), bound, "lower",
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
    s = len(autocommutator_set(H, A))
    k = autocommutator_subgroup(H, A).size
    index = H.size // core.size

    def family(m: int) -> Fraction:
        return Fraction(1, m) * (1 + Fraction(m - 1, index))

    plain = Fraction(core.size, H.size) + Fraction(
        p * (H.size - core.size), H.size * A.size
    )
    return [
        _check("lower_commutator_subgroup", pr_definition(H, A), family(k), "lower"),
        _check("lower_monotone_family", family(s), family(k), "lower"),
        _check("lower_commutator_vs_plain", family(k), plain, "lower",
               p=p, informational=True),
    ]


@dataclass(frozen=True)
class EqualityReport:
    """Structural conclusions drawn from a degree attaining a sharp bound."""

    name: str
    p: int
    q: int
    pr: Fraction
    divisibility_holds: bool
    quotient_order: int
    structure_holds: bool
    expected_structure: str
    special_case_5_8: bool = False

    def passed(self) -> bool:
        return self.divisibility_holds and self.structure_holds


def _classify_sharp(H: SubgroupSet, A: AutGroup, name: str, k: int) -> Optional[EqualityReport]:
    """When Pr = (q^k + p - 1)/(p q^k): check pq | |H||A| and H/L = C(q)^k.

    k = 1 is the pq bound and k = 2 the pq^2 bound; only k = 2 can reach the
    5/8 special case, since k = 1 gives 3/4 at p = q = 2. Returns None when
    the instance does not attain the bound (including the degenerate cases
    where the bound does not apply).
    """
    try:
        core, p, q = _standing_assumptions(H, A)
    except HypothesisError:
        return None
    pr = pr_definition(H, A)
    if pr != Fraction(q**k + p - 1, p * q**k):
        return None
    quot = quotient_group(H.parent, H, core)
    expected = cyclic(q) if k == 1 else direct_product(cyclic(q), cyclic(q))
    return EqualityReport(
        name=name,
        p=p,
        q=q,
        pr=pr,
        divisibility_holds=(H.size * A.size) % (p * q) == 0,
        quotient_order=quot.group.order,
        structure_holds=find_isomorphism(quot.group, expected) is not None,
        expected_structure="×".join([f"C({q})"] * k),
        special_case_5_8=(p == 2 and q == 2 and pr == Fraction(5, 8)),
    )


def classify_equality_pq(H: SubgroupSet, A: AutGroup) -> Optional[EqualityReport]:
    """When Pr = (p + q - 1)/(pq): check pq | |H||A| and H/L cyclic of order q.

    Returns None when the instance does not attain the bound (including the
    degenerate cases where the bound does not apply).
    """
    return _classify_sharp(H, A, "equality_pq", 1)


def classify_equality_pq2(H: SubgroupSet, A: AutGroup) -> Optional[EqualityReport]:
    """For non-abelian H with Pr = (q^2 + p - 1)/(p q^2): H/L = C(q) x C(q).

    Also flags the even-order special case: p = q = 2 with Pr = 5/8 forces
    the Klein four quotient.
    """
    if H.is_abelian:
        return None
    return _classify_sharp(H, A, "equality_pq2", 2)


def converse_check(H: SubgroupSet, A: AutGroup) -> list[BoundCheck]:
    """Partial converse: if every orbit outside L has size exactly p, the
    degree takes the closed form (1/p)((p - 1)/|H : L| + 1), and the shape
    of H/L pins it to the sharp pq or pq^2 value.

    Returns an empty list when the orbit-size hypothesis fails (an
    inapplicable instance, not an error).
    """
    try:
        core, p, q = _standing_assumptions(H, A)
    except HypothesisError:
        return []
    outside = [x for x in H.members if x not in core.member_set]
    if any(orbit(A, x).size != p for x in outside):
        return []
    index = H.size // core.size
    predicted = Fraction(1, p) * (Fraction(p - 1, index) + 1)
    pr = pr_definition(H, A)
    checks = [_check("converse_degree", pr, predicted, "equal", p=p, q=q)]
    quot = quotient_group(H.parent, H, core)
    for k, name in ((1, "converse_cyclic_quotient"), (2, "converse_bicyclic_quotient")):
        expected = cyclic(q) if k == 1 else direct_product(cyclic(q), cyclic(q))
        if find_isomorphism(quot.group, expected) is not None:
            checks.append(_check(name, pr, Fraction(q**k + p - 1, p * q**k), "equal", p=p, q=q))
            break
    return checks


@dataclass(frozen=True)
class EquivalenceReport:
    """The five equivalent descriptions of equality in the commutator bound."""

    bound_attained: bool
    orbit_sizes_match: bool
    orbit_cosets_match: bool
    stabilizer_quotients_match: bool
    commutators_from_each_element: bool

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
    points = sorted({a.image[x] for a in A.members})
    if any(a.image[y] != y for a in A.members if a.image[x] == x for y in points):
        return None
    pos = {y: i for i, y in enumerate(points)}
    # The identity restriction is the least, so it lands at index 0.
    induced = sorted({tuple(pos[a.image[y]] for y in points) for a in A.members})
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
    the members rather than ``A.orbit_of``, so it shares no route with (b)
    and (c). Stab(alpha(x)) = alpha Stab(x) alpha^-1, so Stab(x) is normal
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
    g = H.parent
    t = g.table
    invs = g.inverses
    ksub = autocommutator_subgroup(H, A)
    kset = ksub.member_set
    outside = [x for x in H.members if x not in core.member_set]
    index = H.size // core.size
    family_bound = Fraction(1, ksub.size) * (1 + Fraction(ksub.size - 1, index))

    a_flag = pr_definition(H, A) == family_bound
    orbs = A.orbit_of
    b_flag = all(orbs[x].size == ksub.size for x in outside)
    c_flag = (
        all(
            frozenset(orbs[x].members) == _coset_times_set(H, x, ksub.members)
            for x in outside
        )
        and kset <= core.member_set
    )
    k_group, _ = subgroup_as_group(g, ksub)
    reps = sorted({min(a.image[x] for a in A.members) for x in outside})
    quotients = (_induced_on_orbit(A, r) for r in reps)
    d_flag = all(q is not None and find_isomorphism(q, k_group) is not None for q in quotients)
    e_flag = all(
        {t[invs[x]][a.image[x]] for a in A.members} == kset for x in outside
    )
    return EquivalenceReport(a_flag, b_flag, c_flag, d_flag, e_flag)
