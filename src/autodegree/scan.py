"""Catalog-wide verification scans that exercise every theorem check.

The default catalog mixes abelian and non-abelian groups, p-groups,
complete groups and groups with outer automorphisms, at sizes where every
computation is exhaustive. Scans are deterministic: entries in catalog
order, subgroups in (size, members) order, checks in a fixed sequence.

:func:`scan_records` yields the records as they leave the scan, one
(suite, group) batch at a time, and the isoclinism suite's one pair check
at a time, so memory is bounded by the largest batch;
:func:`run_scan` keeps them all in its report. There is no per-record
callback: :func:`scan_kv` and :func:`scan_human` render a report line by
line from any iterable of its records, the generator included; a finished
report renders as the CLI chunker's whole-line pieces (:func:`render_scan_kv`).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, Optional

from . import automorphisms as am
from . import degree as deg
from .catalog import catalog_build
from .degree import BoundCheck, HypothesisError
from .groups import ORDER_CAP, GroupTable, SizeCapError, SubgroupSet, _Frozen, enumerate_subgroups
from .isoclinism import AUT_CAP, QUOTIENT_CAP, cap_refusal, decide_autoisoclinism, make_pair
from .reporting import (chunks, describe_check, describe_equality, describe_equivalence,
                        format_members, kv_line)

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
    """One check's outcome.

    ``value`` and ``bound`` are kept as the text the output shows, formatted
    once when the record is made: either may be given as a ``Fraction`` or
    as that text, and reading it back parses the text into the same exact
    ``Fraction``.
    """

    __slots__ = ("suite", "group", "subgroup", "name", "status", "value_text", "bound_text",
                 "detail", "__weakref__")

    def __init__(self, suite: str, group: str, subgroup: str, name: str,
                 status: str,  # pass | fail | inapplicable | finding
                 value: Optional[Fraction | str] = None, bound: Optional[Fraction | str] = None,
                 detail: str = ""):
        self.suite, self.group, self.subgroup, self.name = suite, group, subgroup, name
        self.status, self.detail = status, detail
        self.value_text = None if value is None else str(value)
        self.bound_text = None if bound is None else str(bound)

    @property
    def value(self) -> Optional[Fraction]:
        return None if self.value_text is None else Fraction(self.value_text)

    @property
    def bound(self) -> Optional[Fraction]:
        return None if self.bound_text is None else Fraction(self.bound_text)


class ScanReport:
    """A scan's per-status counts, findings, warnings and vacuous kinds.

    ``run_scan`` keeps its records in ``records``; :func:`scan_records`
    yields them instead and leaves ``records`` empty.
    """

    def __init__(self, suite: str, max_order: int):
        self.suite, self.max_order = suite, max_order
        self.records: list[CheckRecord] = []
        self.findings: list[str] = []
        self.warnings: list[str] = []
        self.vacuous: list[str] = []
        self.counts: Counter[str] = Counter()
        # The equalities-suite record names with an applicable instance.
        self.applicable_equalities: set[str] = set()

    def count(self, status: str) -> int:
        return self.counts[status]

    @property
    def failures(self) -> int:
        return self.counts["fail"]

    def summary(self) -> dict[str, int]:
        return {
            "pass": self.counts["pass"],
            "fail": self.counts["fail"],
            "inapplicable": self.counts["inapplicable"],
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
        self.made: list[CheckRecord] = []  # the records not yet yielded

    def add(self, suite: str, group: str, sub: str, name: str, status: str,
            value=None, bound=None, detail: str = "") -> CheckRecord:
        """A new record, counted into the report and kept in ``made``."""
        record = CheckRecord(suite, group, sub, name, status, value, bound, detail)
        self.report.counts[status] += 1
        if suite == "equalities" and status != "inapplicable":
            self.report.applicable_equalities.add(name)
        self.made.append(record)
        return record

    def add_check(self, suite: str, group: str, sub: str, check: BoundCheck,
                  name: Optional[str] = None, status: Optional[str] = None) -> CheckRecord:
        """A record of ``check`` under ``name`` (default its own), its value and bound formatted once.

        Without ``status`` the check decides it, and an informational
        comparison that fails is also a finding.
        """
        value, bound = str(check.value), str(check.bound)
        detail = describe_check(check, value, bound)
        if status is None:
            if not check.hypothesis_met:
                status = "inapplicable"
            elif check.holds:
                status = "pass"
            elif check.informational:
                status = "finding"
                self.report.findings.append(
                    f"{group} [{sub}] {check.name}: informational comparison fails ({detail})"
                )
            else:
                status = "fail"
        return self.add(suite, group, sub, name or check.name, status, value, bound, detail)

    # ----- suites ---------------------------------------------------------

    def formulas(self, entry: CatalogEntry, A, subs, labels) -> None:
        inn = am.compute_inn(entry.group)
        for h, sub in zip(subs, labels):
            rep = deg.degree_report(h, A)
            pr = str(rep.pr_definition)
            self.add(
                "formulas", entry.name, sub, "formula_agreement",
                "pass" if rep.formulas_agree() else "fail", pr, None,
                f"def={pr} stab={rep.pr_stab_sum} fixed={rep.pr_fixed_sum} orbit={rep.pr_orbit}",
            )
            integer_ok = (h.size * A.size) % rep.pr_definition.denominator == 0
            self.add("formulas", entry.name, sub, "pair_count_integral",
                     "pass" if integer_ok else "fail", pr)
            one_iff = (rep.pr_definition == 1) == rep.h_equals_autocentre
            self.add("formulas", entry.name, sub, "degree_one_iff_fixed",
                     "pass" if one_iff else "fail", pr)
            commuting = deg.pr_commuting(h)
            inner = deg.pr_definition(h, inn)
            inner_orbit = deg.pr_via_orbits(h, inn)
            bridge_ok = commuting == inner == inner_orbit
            commuting_text, inner_text = str(commuting), str(inner)
            self.add("formulas", entry.name, sub, "inner_degree_is_commuting",
                     "pass" if bridge_ok else "fail", inner_text, commuting_text,
                     f"commuting={commuting_text} inner={inner_text} class-average={inner_orbit}")
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
                    self.add_check("upper", entry.name, f"{h_label}<={k_label}", c,
                                   "monotonicity", "pass" if ok else "fail")

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
            recorded = self.add_check("lower", entry.name, sub, sset)
            characterized = sset.is_equality == sset.condition_met
            self.add("lower", entry.name, sub, "lower_S_equality_characterization",
                     "pass" if characterized else "fail", recorded.value_text,
                     recorded.bound_text, recorded.detail)
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
                    pr = str(rep.pr)
                    self.add("equalities", entry.name, sub, name,
                             "pass" if rep.passed() else "fail", pr,
                             detail=describe_equality(rep, pr))
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

    def isoclinism_calls(self, prepared) -> list[tuple[tuple, tuple]]:
        """The isoclinism suite's calls, each an (entry, pair) twice or two of them.

        Each group's whole pair first meets itself, in catalog order, then
        each two pairs meet once, in catalog order. A pair that the
        witness-search caps refuse is skipped with a warning.
        """
        pairs = []
        for entry, A, subs, _ in prepared:
            # subs is sorted by order, so its last member is the whole group.
            pair = make_pair(entry.group, subs[-1], auts=A)
            refusal = cap_refusal(pair, self.aut_cap, self.quotient_cap)
            if refusal is not None:
                self.report.warnings.append(
                    f"{entry.name}: skipped in isoclinism suite ({refusal})"
                )
                continue
            pairs.append((entry, pair))
        return [(p, p) for p in pairs] + list(combinations(pairs, 2))

    def isoclinism(self, first, second) -> None:
        """The witness check of two (entry, pair)s; the reflexive one when they are the same."""
        (e1, p1), (e2, p2) = first, second
        w, why, c = decide_autoisoclinism(p1, p2, self.aut_cap, self.quotient_cap)
        if first is second:
            if w is None:
                self.add("isoclinism", e1.name, "whole", "reflexive_witness", "fail",
                         detail="no witness found for the pair with itself")
                return
            self.add("isoclinism", e1.name, "whole", "reflexive_witness",
                     "fail" if c is None else "pass", detail=why or "witness verified")
            if c is not None:
                self.add_check("isoclinism", e1.name, "whole", c)
            return
        label = f"{e1.name}~{e2.name}"
        if w is None:
            self.add("isoclinism", label, "whole", "pair_witness", "inapplicable",
                     detail="no witness")
        elif c is None:
            self.add("isoclinism", label, "whole", "pair_witness", "fail", detail=why)
        else:
            self.add_check("isoclinism", label, "whole", c, "pair_equal_degree")


def scan_records(
    report: ScanReport,
    aut_cap: int = AUT_CAP,
    quotient_cap: int = QUOTIENT_CAP,
    catalog: Optional[tuple[CatalogEntry, ...]] = None,
    group_cap: int = ORDER_CAP,
) -> Iterator[CheckRecord]:
    """The records of ``report``'s suite over every catalog (G, H) with |G| <= its max order.

    Records leave one (suite, group) batch at a time, each as soon as its
    suite call for that group returns (the isoclinism suite makes one call
    per reflexive pair and one per two pairs), so memory is bounded by the
    largest batch, not the record count. Each is counted into ``report``
    and none is kept there; its warnings and findings grow as the scan
    runs, and its vacuous kinds are filled once the last record is out.
    """
    suite, max_order = report.suite, report.max_order
    if suite != "all" and suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
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
        prepared.append((entry, A, subs, [_subgroup_label(h) for h in subs]))
    for name in SUITES if suite == "all" else (suite,):
        # The other suites make one call per group.
        for args in scan.isoclinism_calls(prepared) if name == "isoclinism" else prepared:
            getattr(scan, name)(*args)
            yield from scan.made
            scan.made.clear()
    if suite in ("equalities", "all"):
        for kind, name in (("converse", "converse_degree"), ("equality_pq", "equality_pq"),
                           ("equality_pq2", "equality_pq2")):
            if name not in report.applicable_equalities:
                report.vacuous.append(
                    f"{kind}: no applicable instance with |G| <= {max_order} "
                    f"(vacuously true)"
                )


def run_scan(
    suite: str = "all",
    max_order: int = 12,
    aut_cap: int = AUT_CAP,
    quotient_cap: int = QUOTIENT_CAP,
    catalog: Optional[tuple[CatalogEntry, ...]] = None,
    group_cap: int = ORDER_CAP,
) -> ScanReport:
    """Run the selected suite over every catalog (G, H) with |G| <= max_order.

    The report keeps every record in ``records``; :func:`scan_records` makes
    the same records one batch at a time and keeps none.
    """
    report = ScanReport(suite, max_order)
    report.records.extend(scan_records(report, aut_cap, quotient_cap, catalog, group_cap))
    return report


def scan_human(report: ScanReport, records: Iterable[CheckRecord]) -> Iterator[str]:
    """``report`` with ``records`` as text, one line at a time; its tail is read after the last record."""
    yield f"suite: {report.suite}"
    yield f"max order: {report.max_order}"
    for r in records:
        bits = [f"[{r.status}]", r.group, r.subgroup, r.name]
        if r.value_text is not None:
            bits.append(f"value={r.value_text}")
        if r.bound_text is not None:
            bits.append(f"bound={r.bound_text}")
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


def scan_kv(report: ScanReport, records: Iterable[CheckRecord]) -> Iterator[str]:
    """``report`` with ``records`` as kv lines, one at a time; its tail is read after the last record.

    Each record's text fields are checked for a newline once, together; a
    hit raises the :func:`kv_line` error of the first field that holds one.
    """
    yield kv_line("scan.suite", report.suite)
    yield kv_line("scan.max_order", report.max_order)
    for i, r in enumerate(records):
        p = f"record.{i}"
        if "\n" in f"{r.suite}{r.group}{r.subgroup}{r.name}{r.status}{r.detail}":
            for field in ("suite", "group", "subgroup", "name", "status", "detail"):
                kv_line(f"{p}.{field}", getattr(r, field))
        yield f"{p}.suite={r.suite}"
        yield f"{p}.group={r.group}"
        yield f"{p}.subgroup={r.subgroup}"
        yield f"{p}.name={r.name}"
        yield f"{p}.status={r.status}"
        if r.value_text is not None:
            yield f"{p}.value={r.value_text}"
        if r.bound_text is not None:
            yield f"{p}.bound={r.bound_text}"
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


def render_scan_human(report: ScanReport) -> Iterator[str]:
    """The finished report as text, in whole-line :func:`chunks` pieces; :func:`scan_human` gives lines."""
    return chunks(scan_human(report, report.records))


def render_scan_kv(report: ScanReport) -> Iterator[str]:
    """The finished report as kv text, in whole-line :func:`chunks` pieces; :func:`scan_kv` gives lines."""
    return chunks(scan_kv(report, report.records))
