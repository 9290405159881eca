"""The CLI against golden digests, and a wall-clock bound in a fresh interpreter.

``golden/digests.json`` holds the sha256 of the stdout and the exit code of
each command. Its ``commands`` run in a fresh interpreter, once with hash
randomisation off (``PYTHONHASHSEED=0``) and once with seed 1, and its
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
import weakref
from pathlib import Path

import pytest

from autodegree import CatalogEntry, catalog_build, cli, run_scan
from autodegree.scan import CheckRecord, ScanReport, _Scan, render_scan_kv, scan_records

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "golden" / "digests.json").read_text(encoding="utf-8"))


def case_id(case):
    """The first three arguments, and "human" for a case run without --format."""
    argv = case["argv"]
    return " ".join(argv[:3]) + ("" if "--format" in argv else " human")


def child_env(**extra: str) -> dict[str, str]:
    env = dict(os.environ, PYTHONIOENCODING="utf-8", **extra)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_cli(argv, timeout, **extra_env):
    """``python -m autodegree *argv`` in a fresh interpreter: (exit code, stdout bytes)."""
    done = subprocess.run(
        [sys.executable, "-m", "autodegree", *argv],
        capture_output=True, env=child_env(**extra_env), timeout=timeout, check=False,
    )
    return done.returncode, done.stdout


def golden_case(argv) -> dict:
    return next(c for c in GOLDEN["commands"] + GOLDEN["in_process"] if c["argv"] == argv)


# The same bytes under two hash seeds: no output may follow the iteration order of a
# set or dict of strings. The seed-0 run keeps the plain case id.
@pytest.mark.parametrize("case, hash_seed", [
    pytest.param(case, seed, id=case_id(case) + ("" if seed == "0" else f" PYTHONHASHSEED={seed}"))
    for case in GOLDEN["commands"] for seed in ("0", "1")
])
def test_cli_output_matches_golden_digest(case, hash_seed):
    code, out = run_cli(case["argv"], timeout=120, PYTHONHASHSEED=hash_seed)
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


@pytest.mark.parametrize("argv", [
    ["verify", "--suite", "all", "--max-order", "24", "--format", "kv"],
    ["verify", "--suite", "all", "--max-order", "24"],
], ids=lambda argv: case_id({"argv": argv}))
def test_verify_writes_records_while_the_scan_runs(monkeypatch, argv):
    """By the time the isoclinism suite starts, the earlier suites' records are written and freed.

    The scan has made 4,458 records by then; fewer than 1,000 may still be
    alive. Each output format renders the stream by its own line generator.
    """
    out = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", out)
    alive = weakref.WeakSet()
    make_record = CheckRecord.__init__

    def tracked(self, *args, **kwargs):
        make_record(self, *args, **kwargs)
        alive.add(self)

    monkeypatch.setattr(CheckRecord, "__init__", tracked)
    at_isoclinism = []
    isoclinism = _Scan.isoclinism

    def noted(self, *args):
        at_isoclinism.append((len(out.writes), len(alive)))
        return isoclinism(self, *args)

    monkeypatch.setattr(_Scan, "isoclinism", noted)
    code = cli.main(argv)
    case = golden_case(argv)
    assert code == case["exit"]
    assert hashlib.sha256("".join(out.writes).encode("utf-8")).hexdigest() == case["sha256"]
    # The suite's first call; it makes one per reflexive pair and one per two pairs.
    chunks, records = at_isoclinism[0]
    assert chunks >= 1
    assert records < 1000


def test_isoclinism_records_leave_the_scan_one_pair_at_a_time(monkeypatch):
    """Each isoclinism check's records are yielded, and freed, before the next check runs.

    At max order 24 the suite makes 495 records: a pair with itself makes
    at most two, two pairs one. None is kept but the one being read.
    """
    alive = weakref.WeakSet()
    make_record = CheckRecord.__init__

    def tracked(self, *args, **kwargs):
        make_record(self, *args, **kwargs)
        alive.add(self)

    monkeypatch.setattr(CheckRecord, "__init__", tracked)
    counts = [len(alive) for _ in scan_records(ScanReport("isoclinism", 24))]
    assert len(counts) == 495
    assert max(counts) <= 2


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


# S(4)'s kv listing is 70,497 bytes: more than a 64 KiB pipe holds. Read one
# line a byte at a time and close the pipe, and the child still has output to
# write, whether stdout is block-buffered (its tail waits in the buffer) or
# not; that write must fail into the one error line, not into a traceback.
# The headline verify writes about 1 MB while its scan runs, so there the
# failing write is made inside the scan.
COMPUTE_S4 = (["compute", "--group", "S(4)", "--subgroup", "all", "--format", "kv"],
              "compute.group=S(4)")
VERIFY_24 = (["verify", "--suite", "all", "--max-order", "24", "--format", "kv"],
             "scan.suite=all")


@pytest.mark.parametrize("argv, first, unbuffered", [
    pytest.param(*COMPUTE_S4, False, id="buffered"),
    pytest.param(*COMPUTE_S4, True, id="unbuffered"),
    pytest.param(*VERIFY_24, False, id="verify-buffered"),
    pytest.param(*VERIFY_24, True, id="verify-unbuffered"),
])
def test_closed_pipe_gives_one_error_line(argv, first, unbuffered):
    env = child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    child = subprocess.Popen([sys.executable, "-m", "autodegree", *argv],
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    got = b""
    while not got.endswith(b"\n"):
        got += os.read(child.stdout.fileno(), 1)
    child.stdout.close()
    _, err = child.communicate(timeout=60)
    assert got == f"{first}\n".encode("utf-8")
    assert err.decode("utf-8").splitlines() == ["error: [Errno 32] Broken pipe"]
    assert child.returncode == 2
