"""A scan report's counts against a recount of its records, and the record stream.

The scan counts each record into its ``ScanReport`` as it is made and keeps
the names behind the vacuous kinds, so a scan whose records are rendered as
they leave it (``verify``, through ``scan_records``) still has its summary,
failures and vacuous kinds. Here the library scan keeps every record, and
each count must equal the one recounted from them: on the default catalog,
and past the CLI's order cap on the six groups of
``tests/golden/digests.json``'s ``scans``. The stream must render to the
same bytes as the kept report, keep no record in its report, and fill the
vacuous kinds only once its last record is out. A kept report renders as
whole-line pieces whose join is its lines' join, without one string per line.
"""

import functools
import json
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest

from autodegree import CatalogEntry, catalog_build, run_scan
from autodegree.reporting import parse_kv
from autodegree.scan import (SUITES, ScanReport, render_scan_human, render_scan_kv, scan_human,
                             scan_kv, scan_records)

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
PAST_THE_CAP = tuple(
    case["group"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))["scans"]
)

# (vacuous kind, the equalities-suite record name whose applicable instance rules it out)
VACUOUS_KINDS = (("converse", "converse_degree"), ("equality_pq", "equality_pq"),
                 ("equality_pq2", "equality_pq2"))


@functools.lru_cache(maxsize=None)
def default_scan(suite):
    """``run_scan(suite, max_order=24)``, made once per suite; no test changes it."""
    return run_scan(suite, max_order=24)


def recount(report):
    """(status counts, vacuous kinds) recounted from ``report.records``."""
    statuses = Counter(r.status for r in report.records)
    applicable = {r.name for r in report.records
                  if r.suite == "equalities" and r.status != "inapplicable"}
    vacuous = [] if report.suite not in ("equalities", "all") else [
        f"{kind}: no applicable instance with |G| <= {report.max_order} (vacuously true)"
        for kind, name in VACUOUS_KINDS if name not in applicable
    ]
    return statuses, vacuous


@pytest.mark.parametrize("suite", ("all",) + SUITES)
@pytest.mark.parametrize("catalog", ["default", "past the cap"])
def test_counts_agree_with_a_recount_of_the_records(catalog, suite):
    if catalog == "default":
        report = default_scan(suite)
    else:
        entries = tuple(CatalogEntry(name, catalog_build(name)) for name in PAST_THE_CAP)
        report = run_scan(suite, max_order=48, catalog=entries, group_cap=48)
    # Past the cap, the isoclinism suite refuses every group: warnings, no records.
    assert report.records or report.warnings
    statuses, vacuous = recount(report)
    assert report.vacuous == vacuous
    assert report.failures == statuses["fail"]
    assert {s: report.count(s) for s in ("pass", "fail", "inapplicable", "finding")} == {
        s: statuses[s] for s in ("pass", "fail", "inapplicable", "finding")
    }
    assert report.summary() == {
        "pass": statuses["pass"], "fail": statuses["fail"],
        "inapplicable": statuses["inapplicable"], "vacuous": len(vacuous),
        "findings": len(report.findings),
    }


@pytest.mark.parametrize("suite", ("all",) + SUITES)
def test_the_record_stream_renders_as_the_kept_report(suite):
    report = ScanReport(suite, 24)
    vacuous_while_streaming = []

    def watched():
        for record in scan_records(report):
            vacuous_while_streaming.append(list(report.vacuous))
            yield record

    streamed = "\n".join(scan_kv(report, watched())) + "\n"
    kept = default_scan(suite)
    assert streamed == "\n".join(render_scan_kv(kept)) + "\n"
    assert report.records == []
    assert vacuous_while_streaming and all(v == [] for v in vacuous_while_streaming)
    assert report.vacuous == kept.vacuous
    assert (suite in ("equalities", "all")) == bool(kept.vacuous)


@pytest.mark.parametrize("suite", ("all",) + SUITES)
@pytest.mark.parametrize("fmt", ["kv", "human"])
def test_a_kept_report_renders_as_pieces_of_its_lines(fmt, suite):
    report = default_scan(suite)
    render, lines = (render_scan_kv, scan_kv) if fmt == "kv" else (render_scan_human, scan_human)
    assert "\n".join(render(report)) == "\n".join(lines(report, report.records))


def test_joining_a_kept_report_holds_pieces_not_lines():
    entry = CatalogEntry("D(4)×D(4)", catalog_build("D(4)×D(4)"))
    report = run_scan("all", max_order=64, catalog=(entry,), group_cap=64)
    assert len(report.records) == 13901
    tracemalloc.start()
    try:
        text = "\n".join(render_scan_kv(report))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # One string per line peaks at 3.8 times the 3.6 MB text; pieces at 2.0 times.
    assert peak < 2.5 * len(text)


def test_a_group_over_the_order_cap_is_skipped_with_a_warning():
    # At the default group_cap the Aut search refuses order 48 with SizeCapError;
    # the scan turns that into one warning and makes no record for the group.
    entry = CatalogEntry("D(4)×S(3)", catalog_build("D(4)×S(3)"))
    report = run_scan("formulas", max_order=48, catalog=(entry,))
    warning = ("D(4)×S(3): skipped (automorphism search is capped at group order 24; "
               "this group has order 48)")
    assert report.records == []
    assert report.warnings == [warning]
    kv = parse_kv("\n".join(render_scan_kv(report)))
    assert kv["warning.0"] == warning
