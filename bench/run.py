"""The autodegree benchmark: fresh-process end-to-end runs and a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all ...     every workload in turn
    python3 bench/run.py --steadiness K ...     two sets of K runs, checked against the bounds
    python3 bench/run.py --freeze               record the expected outputs

With ``--trace 0`` one client runs whole passes of the workload's ops, one
op at a time, each in a fresh interpreter, for ``--seconds``; the
end-to-end metrics of BENCHMARK.json come from those passes. With
``--trace 1`` the same ops run in this process, alternating an untraced
and a traced pass, and the per-layer metrics come from the traced spans.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics. Every run also writes its full record (seed, environment stamp,
extra figures) under ``.bench_out/`` at the root of the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import harness
from tracer import Tracer, layer_metrics
from workloads import WORKLOADS, Workload, pass_order, run_in_process

ROOT = harness.BENCH_DIR.parent
OUT_DIR = ROOT / ".bench_out"
RUN_BUDGET_S = 150.0  # no child outlives this, so a run ends well within 180 s


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def stamp(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "seed": seed,
        "git_commit": commit,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }


# ----- end-to-end (fresh processes, tracing off) ---------------------------

def run_end_to_end(workload: Workload, seed: int, seconds: float) -> dict:
    expected = harness.load_expected()
    deadline = time.perf_counter() + RUN_BUDGET_S
    setups = harness.measure_setup(workload, ROOT, deadline)
    passes, references = harness.run_passes(workload, seed, seconds, ROOT, expected, deadline)
    ops = setups + [r for p in passes for r in p.ops]
    failures = [f"{r.op_id}: {r.reason}" for r in ops if not r.ok]
    walls = [p.wall_s for p in passes]
    tail = harness.tail(walls)
    return {
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": harness.end_to_end(passes, references, setups, expected),
        "extra": {
            "passes": len(passes),
            "pass_s.raw_median": statistics.median(walls),
            "pass_s.raw_tail": tail,
            "pass_s.raw_tail_percentile": None if tail is None else 100 * (len(walls) - 10) / len(walls),
            "setup_s.raw_median": statistics.median(r.wall_s for r in setups),
            "reference_s.median": statistics.median(references),
            "ops_failed_ratio": len(failures) / len(ops),
            "setup_samples": len(setups),
            "frozen_summaries": {op.id: expected[op.id]["summary"] for op in workload.ops},
            "failures": failures[:20],
        },
    }


# ----- traced run (in process) --------------------------------------------

class OpTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise OpTimeout()


def _in_process(op, expected: dict, timeout_s: float) -> tuple[bytes, str]:
    """(stdout, failure reason or ""); a hang is cut off at ``timeout_s``."""
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.001))
    try:
        code, out = run_in_process(op)
    except OpTimeout:
        return b"", f"timed out after {timeout_s:.1f} s"
    except Exception as exc:  # the benchmark must report a crashing op and go on
        return b"", f"raised {exc!r}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if code != expected["exit_code"]:
        return out, f"exit code {code}, expected {expected['exit_code']}"
    if hashlib.sha256(out).hexdigest() != expected["sha256"]:
        return out, "stdout differs from the frozen digest"
    return out, ""


def in_process_pass(ops, expected: dict, deadline: float,
                    tracer: Tracer | None = None) -> tuple[float, list[str]]:
    """One pass in this process; with a tracer, each op is a root span."""
    failures = []
    t0 = time.perf_counter()
    for op in ops:
        if tracer is None:
            out, reason = _in_process(op, expected[op.id], deadline - time.perf_counter())
        else:
            tracer.op = op.id
            idx = tracer.open("op")
            try:
                out, reason = _in_process(op, expected[op.id], deadline - time.perf_counter())
            finally:
                tracer.close(idx)
            if op.kind == "cli":
                tracer.counters["cli.output_bytes"] += len(out)
        if reason:
            failures.append(f"{op.id} ({'traced' if tracer else 'untraced'}): {reason}")
    return time.perf_counter() - t0, failures


def run_traced(workload: Workload, seed: int, seconds: float) -> dict:
    """Alternate untraced and traced in-process passes for ``seconds``."""
    sys.path.insert(0, str(ROOT / "src"))
    import autodegree.cli  # noqa: F401  (imported before any pass is timed)

    expected = harness.load_expected()
    deadline = time.perf_counter() + RUN_BUDGET_S
    rng = random.Random(seed)
    plain, traced, layers, failures = [], [], [], []
    attempted = 0
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        if time.perf_counter() >= deadline:
            break
        order = pass_order(workload.ops, rng)
        wall, bad = in_process_pass(order, expected, deadline)
        plain.append(wall)
        failures += bad
        tracer = Tracer()
        tracer.install()
        try:
            wall, bad = in_process_pass(order, expected, deadline, tracer)
        finally:
            tracer.uninstall()
        traced.append(wall)
        failures += bad
        attempted += 2 * len(order)
        layers.append(layer_metrics(tracer.spans, tracer.counters))
        if len(layers) == 1:
            tracer.write(OUT_DIR / f"spans-{workload.name}-seed{seed}.json")
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.untraced_pass_s"] = statistics.median(plain)
    metrics["trace.overhead_ratio"] = metrics["trace.pass_s"] / metrics["trace.untraced_pass_s"]
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "extra": {"traced_passes": len(traced), "failures": failures[:20]},
    }


# ----- reporting ----------------------------------------------------------

def emit(workload: str, result: dict, declared: list[dict], seed: int, trace: int) -> dict:
    """Print one line per metric, write the full record, return the JSON result."""
    units = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(units):
        raise SystemExit(
            f"benchmark defect: metrics {sorted(set(result['metrics']) ^ set(units))} "
            "do not match BENCHMARK.json"
        )
    for name in units:
        print(f"{workload:18} {name:40} {result['metrics'][name]:.6g} {units[name]}")
    for key, value in result["extra"].items():
        if key != "failures":
            print(f"{workload:18} {key:40} {value}")
    for failure in result["extra"]["failures"]:
        print(f"{workload:18} FAILED {failure}")
    OUT_DIR.mkdir(exist_ok=True)
    record = {"workload": workload, "trace": trace, "stamp": stamp(seed), **result}
    (OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1, ensure_ascii=False), encoding="utf-8")
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": result["metrics"][k], "unit": units[k]} for k in units},
    }


CONTRASTS = (
    # (what, numerator metrics, workload that should show the larger share, the other)
    ("aut_closure_s + abstract_group_s share",
     ("automorphisms.aut_closure_s", "automorphisms.abstract_group_s"),
     "wide_aut_scan", "catalog_verify"),
    ("enumerate_subgroups_s + subgroupset.self_s share",
     ("groups.enumerate_subgroups_s", "groups.subgroupset.self_s"),
     "deep_lattice_scan", "wide_aut_scan"),
)


def contrast_report(results: dict[str, dict]) -> None:
    """Print whether the traced shares show what each workload was chosen for."""
    def share(workload, names):
        m = results[workload]["metrics"]
        return sum(m[n] for n in names) / m["trace.pass_s"]

    for what, names, high, low in CONTRASTS:
        if high in results and low in results:
            a, b = share(high, names), share(low, names)
            verdict = "holds" if a > b else "FAILS"
            print(f"prediction {verdict}: {what} {high}={a:.3f} > {low}={b:.3f}")
    shares = {w: share(w, ("automorphisms.cycle_notation_s",)) for w in results}
    if "aut_heavy_compute" in shares:
        others = max((v for w, v in shares.items() if w != "aut_heavy_compute"), default=0.0)
        verdict = "holds" if shares["aut_heavy_compute"] > 0.05 and others < 0.01 else "FAILS"
        print(f"prediction {verdict}: cycle_notation_s share "
              + " ".join(f"{w}={v:.3f}" for w, v in shares.items()))


# ----- steadiness and freezing --------------------------------------------

def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def steadiness(names: list[str], runs: int, seconds: float) -> int:
    """Two sets of ``runs`` runs per workload, each run on its own seed.

    Fails if a set's spread (distance between quartiles over the median)
    exceeds a metric's bound, setup_s excepted, or if the second median is
    worse than the first by more than the bound.
    """
    declared = load_spec()["end_to_end"]
    bad = 0
    OUT_DIR.mkdir(exist_ok=True)
    for name in names:
        sets: list[list[dict]] = [[], []]
        for k in range(2):
            for j in range(runs):
                seed = k * runs + j + 1
                proc = subprocess.run(
                    [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                    cwd=ROOT, capture_output=True, text=True, timeout=600,
                )
                if proc.returncode != 0:
                    print(proc.stdout + proc.stderr)
                    return 1
                sets[k].append(json.loads(proc.stdout.strip().splitlines()[-1]))
        (OUT_DIR / f"steadiness-{name}.json").write_text(json.dumps(sets, indent=1))
        for m in declared:
            v1 = [r["metrics"][m["name"]]["value"] for r in sets[0]]
            v2 = [r["metrics"][m["name"]]["value"] for r in sets[1]]
            m1, m2 = statistics.median(v1), statistics.median(v2)
            drift = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            s1, s2, s_all = spread(v1), spread(v2), spread(v1 + v2)
            ok = drift <= m["bound"] and (
                m["name"] == "setup_s" or max(s1, s2) <= m["bound"])
            bad += not ok
            print(f"{name:18} {m['name']:12} median1={m1:.6g} median2={m2:.6g} "
                  f"drift={drift:+.4f} spread1={s1:.4f} spread2={s2:.4f} "
                  f"spread_all={s_all:.4f} bound={m['bound']} {'ok' if ok else 'OUTSIDE'}")
        failed = sum(r["failed"] for s in sets for r in s)
        print(f"{name:18} runs={2 * runs} failed_ops={failed}")
        bad += failed > 0
    return 1 if bad else 0


def freeze() -> int:
    """Record each op's exit code, stdout sha256, work and summary counts."""
    sys.path.insert(0, str(ROOT / "src"))
    ops = {op.id: op for w in WORKLOADS.values() for op in w.ops}
    frozen = {}
    for op_id, op in ops.items():
        out, code, _, _, wall, timed_out = harness.spawn(harness.op_argv(op), ROOT, 600)
        in_code, in_out = run_in_process(op)
        if timed_out or (in_code, in_out) != (code, out):
            print(f"{op_id}: fresh-process and in-process outputs differ", file=sys.stderr)
            return 1
        work, summary = harness.summarize_output(out)
        frozen[op_id] = {"exit_code": code, "sha256": hashlib.sha256(out).hexdigest(),
                         "work": work, "summary": summary}
        print(f"{op_id}: exit {code} work {work} {summary} ({wall:.2f} s)")
    doc = {"frozen_at": stamp(0)["git_commit"], "ops": frozen}
    harness.EXPECTED_PATH.write_text(json.dumps(doc, indent=1, ensure_ascii=False) + "\n",
                                     encoding="utf-8")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, metavar="K", default=0,
                        help="run two sets of K runs per workload and check the bounds")
    parser.add_argument("--freeze", action="store_true",
                        help="record the expected outputs of every op")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "autodegree" / "__init__.py").is_file():
        print(f"error: no autodegree sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.freeze:
        return freeze()
    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.steadiness:
        return steadiness(names, args.steadiness, seconds)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    results, emitted = {}, {}
    for name in names:
        run = run_traced if args.trace else run_end_to_end
        results[name] = run(WORKLOADS[name], args.seed, seconds)
        emitted[name] = emit(name, results[name], declared, args.seed, args.trace)
    if args.trace:
        contrast_report(results)
    if len(names) == 1:
        print(json.dumps(emitted[names[0]]))
    else:
        print(json.dumps({
            "correct": all(e["correct"] for e in emitted.values()),
            "attempted": sum(e["attempted"] for e in emitted.values()),
            "failed": sum(e["failed"] for e in emitted.values()),
            "metrics": {f"{w}.{k}": v for w, e in emitted.items() for k, v in e["metrics"].items()},
        }, ensure_ascii=False))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
