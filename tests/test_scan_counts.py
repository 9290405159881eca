"""A scan report's counts against a recount of its records.

``ScanReport`` counts each record as it is added and keeps the names behind
the vacuous kinds, so a scan whose records are written as they are made
(``verify``) still has its summary, failures and vacuous kinds. Here the
library scan keeps every record, and each count must equal the one
recounted from them: on the default catalog, and past the CLI's order cap
on the six groups of ``tests/golden/digests.json``'s ``scans``.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from autodegree import CatalogEntry, catalog_build, run_scan
from autodegree.scan import SUITES

GOLDEN = Path(__file__).resolve().parent / "golden" / "digests.json"
PAST_THE_CAP = tuple(
    case["group"] for case in json.loads(GOLDEN.read_text(encoding="utf-8"))["scans"]
)

# (vacuous kind, the equalities-suite record name whose applicable instance rules it out)
VACUOUS_KINDS = (("converse", "converse_degree"), ("equality_pq", "equality_pq"),
                 ("equality_pq2", "equality_pq2"))


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
        report = run_scan(suite, max_order=24)
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
