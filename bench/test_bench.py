"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
from tracer import LAYER_METRICS, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def _span(name, start, end, parent, op="op0"):
    return [name, start, end, parent, op]


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        _span("op", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("b", 30, 60, 0),     # overlaps a: together they cover 10..60
        _span("c", 15, 25, 1),
        _span("d", 90, 130, 0),    # runs past its parent: only 90..100 counts
    ]
    assert self_times(spans) == [100 - 50 - 10, 30 - 10, 30, 10, 40]


def test_layer_totals_count_nested_spans_of_one_layer_once():
    spans = [
        _span("op", 0, 1000, -1),
        _span("degree.bound_lower_S", 100, 400, 0),
        _span("degree.pr_definition", 150, 250, 1),
        _span("degree.check_monotonicity", 500, 600, 0),
        _span("degree.bound_upper_main", 520, 540, 3),
        _span("scan.run_scan", 600, 1000, 0),
    ]
    m = layer_metrics(spans, Counter())
    assert m["degree.bounds_s"] == (300 + 100) / 1e9
    assert m["degree.formulas.self_s"] == 100 / 1e9
    assert m["degree.pr_definition.calls"] == 1
    # glue: op self (1000 - 300 - 100 - 400) + run_scan self (400)
    assert m["trace.coverage"] == 1 - (200 + 400) / 1000


def test_tampered_stdout_is_a_failed_op():
    expected = harness.load_expected()["verify"]
    args = list(WORKLOADS["catalog_verify"].ops[0].args)
    tampered = [
        sys.executable, "-c",
        "import contextlib, io, sys\n"
        "from autodegree.cli import main\n"
        "buf = io.StringIO()\n"
        f"with contextlib.redirect_stdout(buf): code = main({args!r})\n"
        "sys.stdout.write(buf.getvalue().replace('pass=3775', 'pass=3776'))\n"
        "sys.exit(code)\n",
    ]
    bad = harness.run_op("verify", tampered, ROOT, expected, 60)
    assert not bad.ok and bad.exit_code == expected["exit_code"]
    assert "sha256" in bad.reason
    good = harness.run_op("verify", harness.op_argv(WORKLOADS["catalog_verify"].ops[0]),
                          ROOT, expected, 60)
    assert good.ok, good.reason


def test_timed_out_child_is_killed_and_a_failed_op():
    expected = {"exit_code": 0, "sha256": ""}
    start = time.perf_counter()
    r = harness.run_op("sleep", [sys.executable, "-c", "import time; time.sleep(60)"],
                       ROOT, expected, 0.5)
    assert time.perf_counter() - start < 10
    assert r.timed_out and not r.ok and "timed out" in r.reason


def test_tracing_leaves_every_digest_unchanged_and_uninstalls():
    import autodegree.degree as degree
    import autodegree.groups as groups

    originals = (degree.degree_report, groups.SubgroupSet.__post_init__)
    ops = [WORKLOADS["catalog_verify"].ops[0], WORKLOADS["aut_heavy_compute"].ops[1],
           WORKLOADS["deep_lattice_scan"].ops[0]]
    expected = harness.load_expected()
    tracer = Tracer()
    tracer.install()
    try:
        assert degree.degree_report is not originals[0]
        _, failures = run.in_process_pass(ops, expected, time.perf_counter() + 120, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    assert (degree.degree_report, groups.SubgroupSet.__post_init__) == originals
    m = layer_metrics(tracer.spans, tracer.counters)
    assert m["automorphisms.cycle_notation.calls"] > 0
    assert m["groups.aut_search_s"] > 0 and m["scan.records"] > 0
    assert sum(1 for s in tracer.spans if s[0] == "op") == len(ops)


def test_pass_time_sums_each_ops_fastest_run_at_reference_speed():
    half = 2 * harness.REFERENCE_S   # a reference time at which the scale is 1/2

    def op(op_id, wall, cpu, ref_s=half):
        return harness.OpResult(op_id, wall, cpu, 2048, 0, False, "", True, "", ref_s)

    passes = [harness.PassResult((op("a", 1.0, 0.9), op("b", 2.0, 1.8))),
              harness.PassResult((op("b", 1.5, 1.6), op("a", 1.2, 1.1)))]
    references = [half / 3] + [half] * 9 + [2 * half] * 10   # low decile: half
    setups = [op("setup", 0.1, 0.1), op("setup", 0.3, 0.3), op("setup", 0.2, 0.2, half / 3)]
    m = harness.end_to_end(passes, references, setups, {"a": {"work": 10}, "b": {"work": 30}})
    assert m == pytest.approx({
        "pass_s": (1.0 + 1.5) * 0.5,
        "pass_cpu_s": (0.9 + 1.6) * 0.5,
        "work_per_s": 40 / 1.25,
        "setup_s": 0.3 * 0.5,   # median of 0.05, 0.15 and 0.3
        "peak_rss_mb": 2.0,
    })


def test_emitted_metrics_are_the_declared_ones():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = set(LAYER_METRICS) | {"trace.coverage", "trace.pass_s",
                                   "trace.untraced_pass_s", "trace.overhead_ratio"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    op = harness.OpResult("verify", 1.0, 0.9, 20000, 1, False, "", True, "")
    e2e = harness.end_to_end([harness.PassResult((op,))], [0.015], [op], harness.load_expected())
    assert {m["name"] for m in spec["end_to_end"]} == set(e2e)
    assert set(spec["workloads"][i]["name"] for i in range(len(spec["workloads"]))) == set(WORKLOADS)
