"""Catalog-wide verification scans that exercise every theorem check.

The default catalog mixes abelian and non-abelian groups, p-groups,
complete groups and groups with outer automorphisms, at sizes where every
computation is exhaustive. Scans are deterministic: entries in catalog
order, subgroups in (size, members) order, checks in a fixed sequence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterator, Optional

from . import automorphisms as am
from . import degree as deg
from .catalog import catalog_build
from .degree import BoundCheck, HypothesisError
from .groups import ORDER_CAP, GroupTable, SizeCapError, SubgroupSet, _Frozen, enumerate_subgroups
from .isoclinism import AUT_CAP, QUOTIENT_CAP, cap_refusal, decide_autoisoclinism, make_pair
from .reporting import (describe_check, describe_equality, describe_equivalence, format_members,
                        kv_line)

DEFAULT_CATALOG_NAMES: tuple[str, ...] = tuple(
    [f"C({n})" for n in range(1, 17)]
    + ["C(2)×C(2)", "C(2)×C(4)", "C(2)×C(2)×C(2)", "C(3)×C(3)"]
    + [f"D({n})" for n in range(3, 9)]
    + ["Q8", "Dic(3)", "S(3)", "S(4)", "A(4)", "M16"]
)

SUITES = ("formulas", "upper", "lower", "equalities", "equivalence", "isoclinism")


class CatalogEntry(_Frozen):
    def __init__(self, name: str, group: GroupTable):
        vars(self).update(name=name, group=group)


def default_catalog() -> tuple[CatalogEntry, ...]:
    return tuple(CatalogEntry(name, catalog_build(name)) for name in DEFAULT_CATALOG_NAMES)


class CheckRecord:
    def __init__(self, suite: str, group: str, subgroup: str, name: str,
                 status: str,  # pass | fail | inapplicable | finding
                 value: Optional[Fraction] = None, bound: Optional[Fraction] = None,
                 detail: str = ""):
        self.suite, self.group, self.subgroup, self.name = suite, group, subgroup, name
        self.status, self.value, self.bound, self.detail = status, value, bound, detail


class ScanReport:
    def __init__(self, suite: str, max_order: int, records: Optional[list[CheckRecord]] = None,
                 findings: Optional[list[str]] = None, warnings: Optional[list[str]] = None,
                 vacuous: Optional[list[str]] = None):
        """Each list left out starts empty and belongs to this report alone."""
        self.suite, self.max_order = suite, max_order
        self.records = [] if records is None else records
        self.findings = [] if findings is None else findings
        self.warnings = [] if warnings is None else warnings
        self.vacuous = [] if vacuous is None else vacuous

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
    return "whole" if H.is_whole() else format_members(H.members)


class _Scan:
    def __init__(self, report: ScanReport, aut_cap: int, quotient_cap: int):
        self.report = report
        self.aut_cap = aut_cap
        self.quotient_cap = quotient_cap

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

    def formulas(self, entry: CatalogEntry, A, subs, labels) -> None:
        inn = am.compute_inn(entry.group)
        for h, sub in zip(subs, labels):
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

    def upper(self, entry: CatalogEntry, A, subs, labels) -> None:
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
        # subs is sorted by size, so no subgroup before H contains it but H itself.
        for i, (h, h_label) in enumerate(zip(subs, labels)):
            for k, k_label in zip(subs[i:], labels[i:]):
                if h.member_set <= k.member_set:
                    c = deg.check_monotonicity(h, k, A)
                    ok = c.holds and (c.is_equality == c.condition_met)
                    self.add(
                        "upper", entry.name, f"{h_label}<={k_label}",
                        "monotonicity", "pass" if ok else "fail",
                        c.value, c.bound, describe_check(c),
                    )

    def lower(self, entry: CatalogEntry, A, subs, labels) -> None:
        for h, sub in zip(subs, labels):
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

    def equalities(self, entry: CatalogEntry, A, subs, labels) -> None:
        for h, sub in zip(subs, labels):
            # Read from deg at each call, so wrappers installed on the module are seen.
            try:
                pq = deg.classify_equality_pq(h, A)
                pq2 = deg.classify_equality_pq2(h, A)
                converse = deg.converse_check(h, A)
            except HypothesisError:
                self.add("equalities", entry.name, sub, "equality_checks",
                         "inapplicable", detail="degree is 1")
                continue
            for name, rep, inapplicable in (
                ("equality_pq", pq, "degree differs from (p+q-1)/pq"),
                ("equality_pq2", pq2, "not a non-abelian instance of (q^2+p-1)/pq^2"),
            ):
                if rep is None:
                    self.add("equalities", entry.name, sub, name, "inapplicable",
                             detail=inapplicable)
                else:
                    self.add("equalities", entry.name, sub, name,
                             "pass" if rep.passed() else "fail", rep.pr,
                             detail=describe_equality(rep))
            if not converse:
                self.add("equalities", entry.name, sub, "converse", "inapplicable",
                         detail="orbit sizes outside the autocentre are not all p")
            for c in converse:
                self.add_check("equalities", entry.name, sub, c)

    def equivalence(self, entry: CatalogEntry, A, subs, labels) -> None:
        for h, sub in zip(subs, labels):
            try:
                rep = deg.equivalent_conditions(h, A)
            except HypothesisError as exc:
                self.add("equivalence", entry.name, sub, "equivalent_conditions",
                         "inapplicable", detail=str(exc))
                continue
            self.add("equivalence", entry.name, sub, "equivalent_conditions",
                     "pass" if rep.consistent else "fail",
                     detail=describe_equivalence(rep))

    def isoclinism(self, entries: list[tuple[CatalogEntry, object, SubgroupSet]]) -> None:
        pairs = []
        for entry, A, whole in entries:
            pair = make_pair(entry.group, whole, auts=A)
            refusal = cap_refusal(pair, self.aut_cap, self.quotient_cap)
            if refusal is not None:
                self.report.warnings.append(
                    f"{entry.name}: skipped in isoclinism suite ({refusal})"
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
    aut_cap: int = AUT_CAP,
    quotient_cap: int = QUOTIENT_CAP,
    catalog: Optional[tuple[CatalogEntry, ...]] = None,
    group_cap: int = ORDER_CAP,
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
    prepared: list[tuple[CatalogEntry, object, list[SubgroupSet], list[str]]] = []
    for entry in entries:
        try:
            A = am.compute_aut(entry.group, cap=group_cap)
            subs = enumerate_subgroups(entry.group, cap=group_cap)
        except SizeCapError as exc:
            report.warnings.append(f"{entry.name}: skipped ({exc})")
            continue
        # Record the lattice first, so no L or [H, A] is certified a second time.
        for h in subs:
            A.action_on(h)
        prepared.append((entry, A, subs, [_subgroup_label(h) for h in subs]))
    for name in selected:
        if name == "isoclinism":
            # subs is sorted by order, so its last member is the whole group.
            scan.isoclinism([(entry, A, subs[-1]) for entry, A, subs, _ in prepared])
            continue
        runner: Callable = getattr(scan, name)
        for entry, A, subs, labels in prepared:
            runner(entry, A, subs, labels)
    if suite in ("equalities", "all"):
        found = {r.name for r in report.records
                 if r.suite == "equalities" and r.status != "inapplicable"}
        for kind, name in (("converse", "converse_degree"), ("equality_pq", "equality_pq"),
                           ("equality_pq2", "equality_pq2")):
            if name not in found:
                report.vacuous.append(
                    f"{kind}: no applicable instance with |G| <= {max_order} "
                    f"(vacuously true)"
                )
    return report


def render_scan_human(report: ScanReport) -> Iterator[str]:
    """The report as text, one line at a time."""
    yield f"suite: {report.suite}"
    yield f"max order: {report.max_order}"
    for r in report.records:
        bits = [f"[{r.status}]", r.group, r.subgroup, r.name]
        if r.value is not None:
            bits.append(f"value={r.value}")
        if r.bound is not None:
            bits.append(f"bound={r.bound}")
        if r.detail:
            bits.append(f"({r.detail})")
        yield " ".join(bits)
    for w in report.warnings:
        yield f"warning: {w}"
    for f in report.findings:
        yield f"finding: {f}"
    for v in report.vacuous:
        yield f"vacuous: {v}"
    yield (
        "summary: pass={pass} fail={fail} inapplicable={inapplicable} "
        "vacuous={vacuous} findings={findings}".format(**report.summary())
    )


def render_scan_kv(report: ScanReport) -> Iterator[str]:
    """The report as kv lines, one at a time.

    Each record's text fields are checked for a newline once, together; a
    hit raises the :func:`kv_line` error of the first field that holds one.
    """
    yield kv_line("scan.suite", report.suite)
    yield kv_line("scan.max_order", report.max_order)
    for i, r in enumerate(report.records):
        p = f"record.{i}"
        if "\n" in f"{r.suite}{r.group}{r.subgroup}{r.name}{r.status}{r.detail}":
            for field in ("suite", "group", "subgroup", "name", "status", "detail"):
                kv_line(f"{p}.{field}", getattr(r, field))
        yield f"{p}.suite={r.suite}"
        yield f"{p}.group={r.group}"
        yield f"{p}.subgroup={r.subgroup}"
        yield f"{p}.name={r.name}"
        yield f"{p}.status={r.status}"
        if r.value is not None:
            yield f"{p}.value={r.value}"
        if r.bound is not None:
            yield f"{p}.bound={r.bound}"
        if r.detail:
            yield f"{p}.detail={r.detail}"
    for i, w in enumerate(report.warnings):
        yield kv_line(f"warning.{i}", w)
    for i, f in enumerate(report.findings):
        yield kv_line(f"finding.{i}", f)
    for i, v in enumerate(report.vacuous):
        yield kv_line(f"vacuous.{i}", v)
    for key, value in report.summary().items():
        yield kv_line(f"summary.{key}", value)
