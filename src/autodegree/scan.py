"""Catalog-wide verification scans that exercise every theorem check.

The default catalog mixes abelian and non-abelian groups, p-groups,
complete groups and groups with outer automorphisms, at sizes where every
computation is exhaustive. Scans are deterministic: entries in catalog
order, subgroups in (size, members) order, checks in a fixed sequence.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import automorphisms as am
from . import degree as deg
from .catalog import catalog_build
from .degree import BoundCheck, HypothesisError
from .groups import GroupTable, SizeCapError, SubgroupSet, enumerate_subgroups
from .isoclinism import decide_autoisoclinism, make_pair
from .reporting import describe_check, describe_equality, describe_equivalence

DEFAULT_CATALOG_NAMES: tuple[str, ...] = tuple(
    [f"C({n})" for n in range(1, 17)]
    + ["C(2)×C(2)", "C(2)×C(4)", "C(2)×C(2)×C(2)", "C(3)×C(3)"]
    + [f"D({n})" for n in range(3, 9)]
    + ["Q8", "Dic(3)", "S(3)", "S(4)", "A(4)", "M16"]
)

SUITES = ("formulas", "upper", "lower", "equalities", "equivalence", "isoclinism")


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    group: GroupTable


def default_catalog() -> tuple[CatalogEntry, ...]:
    return tuple(CatalogEntry(name, catalog_build(name)) for name in DEFAULT_CATALOG_NAMES)


@dataclass
class CheckRecord:
    suite: str
    group: str
    subgroup: str
    name: str
    status: str  # pass | fail | inapplicable | finding
    value: Optional[Fraction] = None
    bound: Optional[Fraction] = None
    detail: str = ""


@dataclass
class ScanReport:
    suite: str
    max_order: int
    records: list[CheckRecord] = field(default_factory=list)
    findings: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    vacuous: list[str] = field(default_factory=list)

    def count(self, status: str) -> int:
        return sum(1 for r in self.records if r.status == status)

    @property
    def failures(self) -> int:
        return self.count("fail")

    def summary(self) -> dict[str, int]:
        return {
            "pass": self.count("pass"),
            "fail": self.count("fail"),
            "inapplicable": self.count("inapplicable"),
            "vacuous": len(self.vacuous),
            "findings": len(self.findings),
        }


def _subgroup_label(H: SubgroupSet) -> str:
    if H.is_whole():
        return "whole"
    return ",".join(str(m) for m in H.members)


class _Scan:
    def __init__(self, report: ScanReport, aut_cap: int, quotient_cap: int):
        self.report = report
        self.aut_cap = aut_cap
        self.quotient_cap = quotient_cap
        self.applicable: dict[str, int] = {
            "equality_pq": 0,
            "equality_pq2": 0,
            "converse": 0,
        }

    def add(self, suite: str, group: str, sub: str, name: str, status: str,
            value=None, bound=None, detail: str = "") -> None:
        self.report.records.append(
            CheckRecord(suite, group, sub, name, status, value, bound, detail)
        )

    def add_check(self, suite: str, group: str, sub: str, check: BoundCheck) -> None:
        if not check.hypothesis_met:
            status = "inapplicable"
        elif check.holds:
            status = "pass"
        elif check.informational:
            status = "finding"
            self.report.findings.append(
                f"{group} [{sub}] {check.name}: informational comparison fails "
                f"({describe_check(check)})"
            )
        else:
            status = "fail"
        self.add(suite, group, sub, check.name, status,
                 check.value, check.bound, describe_check(check))

    # ----- suites ---------------------------------------------------------

    def formulas(self, entry: CatalogEntry, A, subs) -> None:
        inn = am.compute_inn(entry.group)
        for h in subs:
            sub = _subgroup_label(h)
            rep = deg.degree_report(h, A)
            self.add(
                "formulas", entry.name, sub, "formula_agreement",
                "pass" if rep.formulas_agree() else "fail",
                rep.pr_definition, None,
                f"def={rep.pr_definition} stab={rep.pr_stab_sum} "
                f"fixed={rep.pr_fixed_sum} orbit={rep.pr_orbit}",
            )
            integer_ok = (rep.pr_definition * h.size * A.size).denominator == 1
            self.add("formulas", entry.name, sub, "pair_count_integral",
                     "pass" if integer_ok else "fail", rep.pr_definition)
            one_iff = (rep.pr_definition == 1) == rep.h_equals_autocentre
            self.add("formulas", entry.name, sub, "degree_one_iff_fixed",
                     "pass" if one_iff else "fail", rep.pr_definition)
            commuting = deg.pr_commuting(h)
            inner = deg.pr_definition(h, inn)
            inner_orbit = deg.pr_via_orbits(h, inn)
            bridge_ok = commuting == inner == inner_orbit
            self.add("formulas", entry.name, sub, "inner_degree_is_commuting",
                     "pass" if bridge_ok else "fail", inner, commuting,
                     f"commuting={commuting} inner={inner} class-average={inner_orbit}")
            for finding in rep.findings:
                self.report.findings.append(f"{entry.name} [{sub}]: {finding}")

    def upper(self, entry: CatalogEntry, A, subs) -> None:
        labels = [_subgroup_label(h) for h in subs]
        for h, sub in zip(subs, labels):
            self.add_check("upper", entry.name, sub, deg.pr_le_commuting(h, A))
            try:
                checks = [deg.bound_upper_main(h, A)]
                checks += deg.bound_upper_pq(h, A)
                if not h.is_abelian:
                    checks += deg.bound_upper_nonabelian(h, A)
            except HypothesisError as exc:
                self.add("upper", entry.name, sub, "upper_bounds", "inapplicable",
                         detail=str(exc))
                continue
            for c in checks:
                self.add_check("upper", entry.name, sub, c)
        for h, h_label in zip(subs, labels):
            for k, k_label in zip(subs, labels):
                if h.member_set <= k.member_set:
                    c = deg.check_monotonicity(h, k, A)
                    ok = c.holds and (c.is_equality == c.condition_met)
                    self.add(
                        "upper", entry.name, f"{h_label}<={k_label}",
                        "monotonicity", "pass" if ok else "fail",
                        c.value, c.bound, describe_check(c),
                    )

    def lower(self, entry: CatalogEntry, A, subs) -> None:
        for h in subs:
            sub = _subgroup_label(h)
            try:
                main = deg.bound_lower_main(h, A)
                sset = deg.bound_lower_S(h, A)
                commutator = deg.bound_lower_commutator(h, A)
            except HypothesisError as exc:
                self.add("lower", entry.name, sub, "lower_bounds", "inapplicable",
                         detail=str(exc))
                continue
            self.add_check("lower", entry.name, sub, main)
            self.add_check("lower", entry.name, sub, sset)
            characterized = sset.is_equality == sset.condition_met
            self.add("lower", entry.name, sub, "lower_S_equality_characterization",
                     "pass" if characterized else "fail", sset.value, sset.bound,
                     describe_check(sset))
            for c in commutator:
                self.add_check("lower", entry.name, sub, c)

    def equalities(self, entry: CatalogEntry, A, subs) -> None:
        for h in subs:
            sub = _subgroup_label(h)
            try:
                deg._standing_assumptions(h, A)
            except HypothesisError:
                self.add("equalities", entry.name, sub, "equality_checks",
                         "inapplicable", detail="degree is 1")
                continue
            rep = deg.classify_equality_pq(h, A)
            if rep is None:
                self.add("equalities", entry.name, sub, "equality_pq", "inapplicable",
                         detail="degree differs from (p+q-1)/pq")
            else:
                self.applicable["equality_pq"] += 1
                self.add("equalities", entry.name, sub, "equality_pq",
                         "pass" if rep.passed() else "fail", rep.pr,
                         detail=describe_equality(rep))
            rep2 = deg.classify_equality_pq2(h, A)
            if rep2 is None:
                self.add("equalities", entry.name, sub, "equality_pq2", "inapplicable",
                         detail="not a non-abelian instance of (q^2+p-1)/pq^2")
            else:
                self.applicable["equality_pq2"] += 1
                self.add("equalities", entry.name, sub, "equality_pq2",
                         "pass" if rep2.passed() else "fail", rep2.pr,
                         detail=describe_equality(rep2))
            converse = deg.converse_check(h, A)
            if not converse:
                self.add("equalities", entry.name, sub, "converse", "inapplicable",
                         detail="orbit sizes outside the autocentre are not all p")
            else:
                self.applicable["converse"] += 1
                for c in converse:
                    self.add_check("equalities", entry.name, sub, c)

    def equivalence(self, entry: CatalogEntry, A, subs) -> None:
        for h in subs:
            sub = _subgroup_label(h)
            try:
                rep = deg.equivalent_conditions(h, A)
            except HypothesisError as exc:
                self.add("equivalence", entry.name, sub, "equivalent_conditions",
                         "inapplicable", detail=str(exc))
                continue
            self.add("equivalence", entry.name, sub, "equivalent_conditions",
                     "pass" if rep.consistent else "fail",
                     detail=describe_equivalence(rep))

    def isoclinism(self, entries: list[tuple[CatalogEntry, object]]) -> None:
        pairs = []
        for entry, A in entries:
            if A.size > self.aut_cap:
                self.report.warnings.append(
                    f"{entry.name}: skipped in isoclinism suite "
                    f"(|Aut| = {A.size} over cap {self.aut_cap})"
                )
                continue
            pair = make_pair(entry.group, auts=A)
            if pair.quotient.group.order > self.quotient_cap:
                self.report.warnings.append(
                    f"{entry.name}: skipped in isoclinism suite "
                    f"(quotient order {pair.quotient.group.order} over cap {self.quotient_cap})"
                )
                continue
            pairs.append((entry, pair))
        for entry, pair in pairs:
            w, why, c = decide_autoisoclinism(pair, pair, self.aut_cap, self.quotient_cap)
            if w is None:
                self.add("isoclinism", entry.name, "whole", "reflexive_witness", "fail",
                         detail="no witness found for the pair with itself")
                continue
            self.add("isoclinism", entry.name, "whole", "reflexive_witness",
                     "fail" if c is None else "pass", detail=why or "witness verified")
            if c is not None:
                self.add_check("isoclinism", entry.name, "whole", c)
        for i, (e1, p1) in enumerate(pairs):
            for e2, p2 in pairs[i + 1:]:
                label = f"{e1.name}~{e2.name}"
                w, why, c = decide_autoisoclinism(p1, p2, self.aut_cap, self.quotient_cap)
                if w is None:
                    self.add("isoclinism", label, "whole", "pair_witness",
                             "inapplicable", detail="no witness")
                    continue
                if c is None:
                    self.add("isoclinism", label, "whole", "pair_witness", "fail",
                             detail=why)
                    continue
                self.add("isoclinism", label, "whole", "pair_equal_degree",
                         "pass" if c.holds else "fail", c.value, c.bound,
                         describe_check(c))


def run_scan(
    suite: str = "all",
    max_order: int = 12,
    aut_cap: int = 48,
    quotient_cap: int = 16,
    catalog: Optional[tuple[CatalogEntry, ...]] = None,
    group_cap: int = 24,
) -> ScanReport:
    """Run the selected suite over every catalog (G, H) with |G| <= max_order."""
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    selected = SUITES if suite == "all" else (suite,)
    report = ScanReport(suite=suite, max_order=max_order)
    scan = _Scan(report, aut_cap, quotient_cap)
    entries = [
        e for e in (catalog if catalog is not None else default_catalog())
        if e.group.order <= max_order
    ]
    prepared: list[tuple[CatalogEntry, object, list[SubgroupSet]]] = []
    for entry in entries:
        try:
            A = am.compute_aut(entry.group, cap=group_cap)
            subs = enumerate_subgroups(entry.group, cap=group_cap)
        except SizeCapError as exc:
            report.warnings.append(f"{entry.name}: skipped ({exc})")
            continue
        prepared.append((entry, A, subs))
    for name in selected:
        if name == "isoclinism":
            scan.isoclinism([(entry, A) for entry, A, _ in prepared])
            continue
        runner: Callable = getattr(scan, name)
        for entry, A, subs in prepared:
            runner(entry, A, subs)
    if suite in ("equalities", "all"):
        for kind, count in sorted(scan.applicable.items()):
            if count == 0:
                report.vacuous.append(
                    f"{kind}: no applicable instance with |G| <= {max_order} "
                    f"(vacuously true)"
                )
    return report


def render_scan_human(report: ScanReport) -> list[str]:
    lines = [f"suite: {report.suite}", f"max order: {report.max_order}"]
    for r in report.records:
        bits = [f"[{r.status}]", r.group, r.subgroup, r.name]
        if r.value is not None:
            bits.append(f"value={r.value}")
        if r.bound is not None:
            bits.append(f"bound={r.bound}")
        if r.detail:
            bits.append(f"({r.detail})")
        lines.append(" ".join(bits))
    for w in report.warnings:
        lines.append(f"warning: {w}")
    for f in report.findings:
        lines.append(f"finding: {f}")
    for v in report.vacuous:
        lines.append(f"vacuous: {v}")
    s = report.summary()
    lines.append(
        "summary: pass={pass} fail={fail} inapplicable={inapplicable} "
        "vacuous={vacuous} findings={findings}".format(**s)
    )
    return lines


def render_scan_kv(report: ScanReport) -> list[str]:
    from .reporting import kv_line

    lines = [
        kv_line("scan.suite", report.suite),
        kv_line("scan.max_order", report.max_order),
    ]
    for i, r in enumerate(report.records):
        prefix = f"record.{i}"
        lines.append(kv_line(f"{prefix}.suite", r.suite))
        lines.append(kv_line(f"{prefix}.group", r.group))
        lines.append(kv_line(f"{prefix}.subgroup", r.subgroup))
        lines.append(kv_line(f"{prefix}.name", r.name))
        lines.append(kv_line(f"{prefix}.status", r.status))
        if r.value is not None:
            lines.append(kv_line(f"{prefix}.value", r.value))
        if r.bound is not None:
            lines.append(kv_line(f"{prefix}.bound", r.bound))
        if r.detail:
            lines.append(kv_line(f"{prefix}.detail", r.detail))
    for i, w in enumerate(report.warnings):
        lines.append(kv_line(f"warning.{i}", w))
    for i, f in enumerate(report.findings):
        lines.append(kv_line(f"finding.{i}", f))
    for i, v in enumerate(report.vacuous):
        lines.append(kv_line(f"vacuous.{i}", v))
    for key, value in report.summary().items():
        lines.append(kv_line(f"summary.{key}", value))
    return lines
