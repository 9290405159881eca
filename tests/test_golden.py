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
import re
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


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONIOENCODING="utf-8")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(argv, timeout):
    """``python -m autodegree *argv`` in a fresh interpreter: (exit code, stdout bytes)."""
    done = subprocess.run(
        [sys.executable, "-m", "autodegree", *argv],
        capture_output=True, env=child_env(), timeout=timeout, check=False,
    )
    return done.returncode, done.stdout


def golden_case(argv) -> dict:
    return next(c for c in GOLDEN["commands"] + GOLDEN["in_process"] if c["argv"] == argv)


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


class RecordingStdout:
    """A stdout that keeps each ``write`` call's text apart."""

    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)

    def flush(self) -> None:
        pass


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--max-order", "24", "--format", "kv"],
    ["compute", "--group", "C(2)×C(2)×C(4)", "--subgroup", "all"],
], ids=lambda argv: case_id({"argv": argv}))
def test_output_is_written_in_bounded_chunks(monkeypatch, argv):
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    code = cli.main(argv)
    case = golden_case(argv)
    text = "".join(out.writes)
    assert code == case["exit"]
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == case["sha256"]
    lines = text.split("\n")[:-1]
    assert 1 < len(out.writes) < len(lines) / 100
    assert max(map(len, out.writes)) <= cli.CHUNK_CHARS + max(map(len, lines))


# Run in a fresh interpreter, the CLI reports its own peak resident set on
# stderr. E(2,4) has 67 subgroups and |Aut| = 20160, so ``compute --subgroup
# all`` prints 77 MB. Held whole before writing, it peaked at 328 MB; written
# as it is produced, it peaks at about 30 MB (2-vCPU x86_64 VM, Python 3.11).
PEAK_RSS_BOUND_MB = 100
PEAK_RSS_CHILD = """
import sys
from autodegree.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
if sys.platform.startswith("linux"):
    with open("/proc/self/status", encoding="ascii") as status:
        sys.stderr.write(next(line for line in status if line.startswith("VmHWM:")))
sys.exit(code)
"""


def test_e24_compute_all_streams_within_memory_bound(tmp_path):
    argv = ["compute", "--group", "E(2,4)", "--subgroup", "all", "--format", "kv"]
    out_path = tmp_path / "stdout"
    with out_path.open("wb") as out:
        done = subprocess.run(
            [sys.executable, "-c", PEAK_RSS_CHILD, *argv],
            stdout=out, stderr=subprocess.PIPE, env=child_env(), timeout=120, check=False,
        )
    digest = hashlib.sha256()
    with out_path.open("rb") as out:
        for block in iter(lambda: out.read(1 << 20), b""):
            digest.update(block)
    out_path.unlink()
    case = golden_case(argv)
    assert done.returncode == case["exit"]
    assert digest.hexdigest() == case["sha256"]
    if sys.platform.startswith("linux"):
        peak_kib = int(re.search(rb"VmHWM:\s*(\d+) kB", done.stderr).group(1))
        assert peak_kib / 1024 < PEAK_RSS_BOUND_MB
