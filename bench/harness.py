"""Closed-loop fresh-process runs and the end-to-end metrics they give.

One client runs one op at a time, each in a fresh interpreter, so no cache
carries over between ops. Wall time is taken around the child's whole life;
CPU time comes from the child's own ``os.wait4`` rusage and peak RSS from
the child's own report (see ``child.py``). An op
fails when it times out, exits with an unexpected code, or prints output
whose sha256 differs from the frozen one in ``expected.json``.

On a shared virtual machine the host changes the speed by up to 50%
within seconds, in a fast and a slow state, and long runs drift between
them. Medians of raw times then spread by 10-30% from run to run. Times are
therefore taken in the machine's fast state and scaled to a fixed reference
speed: a pass time is the sum over ops of each op's fastest wall time in
the run, multiplied by ``REFERENCE_S`` over the low decile of the
reference-kernel samples taken between the ops. The kernel computes
subgroup closures over the Cayley table of S(4), the program's own mix of
tuple indexing and set and dict traffic, and lives here so that no change
to the program moves it. A set-up probe is scaled by the mean of the two
kernel samples around it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import re
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, replace
from itertools import permutations
from pathlib import Path

from workloads import Op, Workload, pass_order

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"
SETUP_REPEATS = 15
OP_TIMEOUT_S = 40.0  # 20 times the slowest op; a hang is recorded, not waited out
REFERENCE_ROUNDS = 6
REFERENCE_S = 0.012


def _s4_table() -> tuple[tuple[int, ...], ...]:
    perms = list(permutations(range(4)))
    pos = {p: i for i, p in enumerate(perms)}
    return tuple(tuple(pos[tuple(a[b[x]] for x in range(4))] for b in perms) for a in perms)


_S4 = _s4_table()


def reference_s() -> float:
    """Wall time of one sample of the reference kernel."""
    table = _S4
    start = time.perf_counter()
    for _ in range(REFERENCE_ROUNDS):
        found = {}
        for g in range(24):
            for h in range(24):
                seen, queue = {0}, [0]
                while queue:
                    row = table[queue.pop()]
                    for s in (g, h):
                        y = row[s]
                        if y not in seen:
                            seen.add(y)
                            queue.append(y)
                found[tuple(sorted(seen))] = g
    return time.perf_counter() - start


@dataclass(frozen=True)
class OpResult:
    op_id: str
    wall_s: float
    cpu_s: float
    peak_rss_kib: int
    exit_code: int
    timed_out: bool
    sha256: str
    ok: bool
    reason: str
    ref_s: float = REFERENCE_S  # mean of the reference samples just before and after


@dataclass(frozen=True)
class PassResult:
    ops: tuple[OpResult, ...]

    @property
    def wall_s(self) -> float:
        return sum(r.wall_s for r in self.ops)


class SpeedProbe:
    """Reference-kernel samples: one at the start and one after every op."""

    def __init__(self) -> None:
        self.samples = [reference_s()]

    def after(self, result: OpResult) -> OpResult:
        self.samples.append(reference_s())
        return replace(result, ref_s=(self.samples[-2] + self.samples[-1]) / 2)


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text(encoding="utf-8"))["ops"]


def child_env(root: Path) -> dict[str, str]:
    """The caller's environment, with the checkout's sources first on the path.

    Bytecode caching is always on, as for an installed package: the set-up
    warm-up compiles once and every later interpreter loads the cache.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    paths = [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def op_argv(op: Op) -> list[str]:
    return [sys.executable, str(BENCH_DIR / "child.py"), op.kind, *op.args]


def spawn(argv: list[str], root: Path, timeout_s: float):
    """Run a child to completion or until killed at ``timeout_s``.

    Returns (stdout bytes, exit code, rusage, peak RSS in KiB or 0 when the
    child reported none, wall seconds, timed out). The child gets its own
    session so a kill reaches anything it started.
    """
    killed = threading.Event()
    rss_read, rss_write = os.pipe()
    env = child_env(root)
    env["PEAK_RSS_FD"] = str(rss_write)
    start = time.perf_counter()
    try:
        proc = subprocess.Popen(
            argv, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, start_new_session=True, pass_fds=(rss_write,),
        )
    finally:
        os.close(rss_write)

    def kill() -> None:
        killed.set()
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass

    timer = threading.Timer(max(timeout_s, 0.0), kill)
    timer.start()
    status = None
    try:
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        peak_kib = int(os.read(rss_read, 64) or 0)
    finally:
        timer.cancel()
        os.close(rss_read)
        if status is None:
            kill()
            os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return out, proc.returncode, usage, peak_kib, wall, killed.is_set()


def run_op(op_id: str, argv: list[str], root: Path, expected: dict, timeout_s: float) -> OpResult:
    out, code, usage, peak_kib, wall, timed_out = spawn(argv, root, timeout_s)
    digest = hashlib.sha256(out).hexdigest()
    if timed_out:
        reason = f"timed out after {timeout_s:.1f} s"
    elif code != expected["exit_code"]:
        reason = f"exit code {code}, expected {expected['exit_code']}"
    elif digest != expected["sha256"]:
        reason = f"stdout sha256 {digest[:12]} differs from the frozen {expected['sha256'][:12]}"
    else:
        reason = ""
    return OpResult(op_id, wall, usage.ru_utime + usage.ru_stime, peak_kib,
                    code, timed_out, digest, not reason, reason)


def run_passes(workload: Workload, seed: int, seconds: float, root: Path,
               expected: dict, deadline: float) -> tuple[list[PassResult], list[float]]:
    """Whole passes until ``seconds`` have elapsed (at least one), and the
    reference samples taken between their ops.

    No child outlives ``deadline`` (a perf_counter value): a hang costs at
    most one op timeout and is recorded as a failed op.
    """
    probe = SpeedProbe()
    rng = random.Random(seed)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        if time.perf_counter() >= deadline:
            break
        results = []
        for op in pass_order(workload.ops, rng):
            timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
            r = run_op(op.id, op_argv(op), root, expected[op.id], timeout)
            results.append(probe.after(r))
        passes.append(PassResult(tuple(results)))
    return passes, probe.samples


def measure_setup(workload: Workload, root: Path, deadline: float) -> list[OpResult]:
    """Fresh interpreters that import autodegree and build the workload's groups.

    One untimed warm-up first writes the bytecode cache, which users also
    pay only once.
    """
    argv = [sys.executable, str(BENCH_DIR / "child.py"), "setup", *workload.groups]
    expected = {"exit_code": 0, "sha256": hashlib.sha256(b"").hexdigest()}
    probe = SpeedProbe()
    results = []
    for _ in range(SETUP_REPEATS + 1):
        timeout = min(OP_TIMEOUT_S, deadline - time.perf_counter())
        results.append(probe.after(run_op("setup", argv, root, expected, timeout)))
        if not results[-1].ok:
            break
    return results[1:] if results[0].ok else results


def tail(values: list[float]) -> float | None:
    """The highest percentile with at least ten samples beyond it, or None."""
    if len(values) < 11:
        return None
    return sorted(values)[len(values) - 11]


def fastest(passes: list[PassResult], field: str) -> float:
    """Sum over ops of each op's smallest ``field`` across the passes."""
    best: dict[str, float] = {}
    for p in passes:
        for r in p.ops:
            v = getattr(r, field)
            best[r.op_id] = min(best.get(r.op_id, v), v)
    return sum(best.values())


def end_to_end(passes: list[PassResult], references: list[float],
               setups: list[OpResult], expected: dict) -> dict[str, float]:
    """The metrics BENCHMARK.json declares as end-to-end, from one run.

    Times are at the reference speed (see the module docstring); peak RSS
    is as measured.
    """
    scale = REFERENCE_S / sorted(references)[len(references) // 10]
    pass_s = fastest(passes, "wall_s") * scale
    work = statistics.mean(
        sum(expected[r.op_id]["work"] for r in p.ops if r.ok) for p in passes
    )
    return {
        "setup_s": statistics.median(r.wall_s * REFERENCE_S / r.ref_s for r in setups),
        "pass_s": pass_s,
        "pass_cpu_s": fastest(passes, "cpu_s") * scale,
        "work_per_s": work / pass_s,
        "peak_rss_mb": max(r.peak_rss_kib for p in passes for r in p.ops) / 1024,
    }


def summarize_output(out: bytes) -> tuple[int, str]:
    """(work units, summary) read from one op's stdout.

    Work is check records for verify and scans, degree reports for compute.
    """
    text = out.decode("utf-8")
    records = len(re.findall(r"^record\.\d+\.suite=", text, re.M))
    if records:
        summary = " ".join(re.findall(r"^summary\.(\w+=\d+)$", text, re.M))
        return records, summary
    reports = len(re.findall(r"^report\.\d+\.group=", text, re.M))
    auts = len(re.findall(r"^report\.0\.aut\.\d+=", text, re.M))
    return reports, f"reports={reports} automorphisms={auts}"
