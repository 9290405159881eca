"""The CLI against golden digests, and a wall-clock bound in a fresh interpreter.

``golden/digests.json`` holds the sha256 of the stdout and the exit code of
each command. Its ``commands`` run in a fresh interpreter and its
``in_process`` cases through ``cli.main`` with stdout captured, which keeps
the many small cases cheap. The ``in_process`` cases cover both the kv and
the human output format. Its ``scans`` pin the kv rendering of a
single-group ``run_scan`` past the CLI's order cap, where the subgroup
lattices are deepest. A change that alters any of these bytes must
re-record the digest and say why.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from autodegree import CatalogEntry, catalog_build, cli, run_scan
from autodegree.scan import render_scan_kv

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text(encoding="utf-8"))


def case_id(case):
    """The first three arguments, and "human" for a case run without --format."""
    argv = case["argv"]
    return " ".join(argv[:3]) + ("" if "--format" in argv else " human")


def run_cli(argv, timeout):
    """``python -m autodegree *argv`` in a fresh interpreter: (exit code, stdout bytes)."""
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "autodegree", *argv],
        capture_output=True, env=env, timeout=timeout, check=False,
    )
    return done.returncode, done.stdout


@pytest.mark.parametrize("case", GOLDEN["commands"], ids=case_id)
def test_cli_output_matches_golden_digest(case):
    code, out = run_cli(case["argv"], timeout=120)
    assert code == case["exit"]
    if "summary" in case:
        summary = " ".join(
            line.decode().removeprefix("summary.")
            for line in out.splitlines() if line.startswith(b"summary.")
        )
        assert summary == case["summary"]
    assert hashlib.sha256(out).hexdigest() == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["in_process"], ids=case_id)
def test_cli_main_matches_golden_digest(case):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(case["argv"])
    assert code == case["exit"]
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == case["sha256"]


@pytest.mark.parametrize("case", GOLDEN["scans"], ids=lambda case: case["group"])
def test_scan_past_the_cli_cap_matches_golden_digest(case):
    entry = CatalogEntry(case["group"], catalog_build(case["group"]))
    report = run_scan("all", max_order=48, catalog=(entry,), group_cap=48)
    text = "\n".join(render_scan_kv(report)) + "\n"
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == case["sha256"]


# E(2,4) has order 16 and |Aut| = |GL(4,2)| = 20160. Certifying the closure of
# Aut from a generating set makes it finish in about 1.5 s on a 2-vCPU VM;
# the pairwise recheck it replaced ran for more than 300 s.
E24_BOUND_S = 30


def test_e24_compute_finishes_within_bound():
    start = time.monotonic()
    code, out = run_cli(["compute", "--group", "E(2,4)", "--format", "kv"], timeout=E24_BOUND_S)
    elapsed = time.monotonic() - start
    assert code == 0
    assert b"report.0.size_aut=20160\n" in out
    assert elapsed < E24_BOUND_S
