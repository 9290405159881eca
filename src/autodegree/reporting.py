"""Human-readable and key-value rendering of reports, plus the kv parser.

The key-value format is line oriented: one ``key=value`` pair per line,
keys are dotted paths, list entries carry a numeric path segment, and
exact rationals are written as Fraction strings ("3/4", "1"), which
``fractions.Fraction`` parses back without loss. Lines end at "\\n" alone,
which no value may contain, and nothing is stripped, so a value keeps any
other line-break character and its edge whitespace. Keys with no value are
omitted. :func:`chunks` joins lines into the whole-line pieces that the CLI
writes and that a finished scan report renders as.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator

from .degree import BoundCheck, DegreeReport, EqualityReport, EquivalenceReport


def approx(value: Fraction) -> str:
    """Six significant digits, for human-readable columns only."""
    return f"{float(value):.6g}"


def format_members(members: tuple[int, ...]) -> str:
    return ",".join(str(m) for m in members)


def kv_line(key: str, value) -> str:
    text = str(value)
    if "\n" in text or "=" in key:
        raise ValueError(f"unserializable kv pair: {key!r}={text!r}")
    return f"{key}={text}"


def parse_kv(text: str) -> dict[str, str]:
    """Parse a key-value report back into a dict: the exact inverse of :func:`kv_line`.

    Empty lines and lines starting with "#" are skipped.
    """
    out: dict[str, str] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: not a key=value pair: {line!r}")
        key, _, value = line.partition("=")
        out[key] = value
    return out


CHUNK_CHARS = 64 * 1024  # one write per piece keeps the cost per line off the system call


def chunks(lines: Iterable[str]) -> Iterator[str]:
    """``lines`` joined by "\\n" into pieces, each ended once it and a newline per
    line reach ``CHUNK_CHARS``, so none is longer than that plus its last line."""
    chunk, size = [], 0
    for line in lines:
        chunk.append(line)
        size += len(line) + 1
        if size >= CHUNK_CHARS:
            yield "\n".join(chunk)
            chunk, size = [], 0
    if chunk:
        yield "\n".join(chunk)


def render_degree_kv(report: DegreeReport, prefix: str = "report") -> list[str]:
    lines = [
        kv_line(f"{prefix}.group", report.group),
        kv_line(f"{prefix}.subgroup", format_members(report.subgroup)),
        kv_line(f"{prefix}.pr_definition", report.pr_definition),
        kv_line(f"{prefix}.pr_stab_sum", report.pr_stab_sum),
        kv_line(f"{prefix}.pr_fixed_sum", report.pr_fixed_sum),
        kv_line(f"{prefix}.pr_orbit", report.pr_orbit),
        kv_line(f"{prefix}.pr_orbit_count", report.pr_orbit_count),
        kv_line(f"{prefix}.size_h", report.size_h),
        kv_line(f"{prefix}.size_aut", report.size_aut),
        kv_line(f"{prefix}.size_autocentre", report.size_autocentre),
        kv_line(f"{prefix}.size_commutator_set", report.size_commutator_set),
        kv_line(f"{prefix}.size_commutator_subgroup", report.size_commutator_subgroup),
        kv_line(f"{prefix}.size_trivial_stabilizer", report.size_trivial_stabilizer),
        kv_line(f"{prefix}.orbit_count", report.orbit_count),
        kv_line(f"{prefix}.h_equals_autocentre", str(report.h_equals_autocentre).lower()),
    ]
    for i, orb in enumerate(report.orbits):
        lines.append(kv_line(f"{prefix}.orbit.{i}", format_members(orb)))
    for i, finding in enumerate(report.findings):
        lines.append(kv_line(f"{prefix}.finding.{i}", finding))
    return lines


def render_degree_human(report: DegreeReport, cycles: list[str]) -> list[str]:
    """The report as text; ``cycles`` lists the automorphisms in cycle notation."""
    lines = [
        f"group: {report.group}",
        f"subgroup: [{format_members(report.subgroup)}] (order {report.size_h})",
        f"automorphism group order: {report.size_aut}",
        "automorphisms: " + ", ".join(cycles),
        f"Pr by definition:         {report.pr_definition} (~{approx(report.pr_definition)})",
        f"Pr by stabilizer sum:     {report.pr_stab_sum}",
        f"Pr by fixed-subgroup sum: {report.pr_fixed_sum}",
        f"Pr by orbit average:      {report.pr_orbit}",
        f"orbit-count form:         {report.pr_orbit_count}",
        "sizes: autocentre={0} commutator-set={1} commutator-subgroup={2} "
        "only-identity-stabilizer={3} orbits={4}".format(
            report.size_autocentre,
            report.size_commutator_set,
            report.size_commutator_subgroup,
            report.size_trivial_stabilizer,
            report.orbit_count,
        ),
        "orbits: " + " ".join("{" + format_members(o) + "}" for o in report.orbits),
        f"subgroup equals autocentre: {'yes' if report.h_equals_autocentre else 'no'}",
    ]
    for finding in report.findings:
        lines.append(f"finding: {finding}")
    return lines


_SYMBOLS = {"upper": "<=", "lower": ">=", "equal": "=="}


def describe_check(check: BoundCheck, value: str, bound: str) -> str:
    """The detail of ``check``, whose value and bound are already formatted as ``value`` and ``bound``."""
    sym = _SYMBOLS[check.direction]
    met = check.condition_met
    return (
        f"{value} {sym} {bound}"
        f"{' equality' if check.is_equality and check.direction != 'equal' else ''}"
        f"{'' if check.p is None else f' p={check.p}'}"
        f"{'' if check.q is None else f' q={check.q}'}"
        f"{'' if met is None else ' condition=met' if met else ' condition=unmet'}"
        f"{'' if check.hypothesis_met else ' hypothesis-unmet'}"
    )


def describe_equality(report: EqualityReport, pr: str) -> str:
    """The detail of ``report``, whose degree is already formatted as ``pr``."""
    parts = [
        f"pr={pr}",
        f"p={report.p}",
        f"q={report.q}",
        f"divisibility={'ok' if report.divisibility_holds else 'violated'}",
        f"quotient-order={report.quotient_order}",
        f"structure={report.expected_structure}:{'ok' if report.structure_holds else 'violated'}",
    ]
    if report.special_case_5_8:
        parts.append("special-case-5/8")
    return " ".join(parts)


def describe_equivalence(report: EquivalenceReport) -> str:
    letters = "abcde"
    flags = report.flags()
    return " ".join(f"{letters[i]}={'T' if flags[i] else 'F'}" for i in range(5))
