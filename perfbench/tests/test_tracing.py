import json
import shutil
import subprocess
import sys

import pytest

import run
from conftest import BENCH, ROOT
from jobs import compute_job, verify_job
from tracing import PER_LAYER, layer_metrics, self_times, span_stats


def test_self_time_subtracts_the_union_of_child_intervals():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 4.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
        ["b", 5.0, 7.0, 0, 0],
        ["c", 6.0, 8.0, 0, 0],  # overlaps b: 5..8 is covered once
        ["late", 9.5, 11.0, 0, 0],  # runs past its parent: only 9.5..10 counts
    ]
    assert self_times(spans) == pytest.approx([10 - 3 - 3 - 0.5, 2.0, 1.0, 2.0, 2.0, 1.5])


def test_total_counts_only_the_outermost_span_of_a_name():
    spans = [
        ["f", 0.0, 4.0, -1, 0],
        ["g", 0.5, 3.5, 0, 0],
        ["f", 1.0, 3.0, 1, 0],
        ["f", 5.0, 6.0, -1, 1],
    ]
    stats = span_stats(spans)
    assert stats["f"] == pytest.approx({"calls": 3, "total_s": 5.0, "self_s": 1.0 + 2.0 + 1.0})
    assert stats["g"] == pytest.approx({"calls": 1, "total_s": 3.0, "self_s": 1.0})


def test_layer_metrics_name_every_per_layer_metric_and_guard_empty_ratios():
    values = layer_metrics([], {}, 7)
    assert set(values) == {name for name, _, _ in PER_LAYER} - {"trace.overhead_ratio"}
    assert values["laurent.mul.fill"] == 0 and values["repcheck.pass_ratio"] == 0
    assert values["cli.stdout_bytes"] == 7


def test_benchmark_json_lists_the_metrics_the_harness_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_a_traced_pass_records_every_layer_it_crosses():
    jobs = [compute_job(1, "text"), verify_job(1, 3)]
    report = run.run_pass(jobs, True, run.child_env(), timeout=120)
    assert [record["rc"] for record in report["jobs"]] == [0, 0]
    assert {span[4] for span in report["spans"]} == {0, 1}
    values = layer_metrics(report["spans"], report["counters"],
                           sum(record["bytes"] for record in report["jobs"]))
    for name in ("laurent.mul.calls", "laurent.pow.calls", "laurent.coeff.calls",
                 "laurent.eval_numeric.calls", "laurent.render.bytes", "rmpoly.rm_closed.calls",
                 "apoly.apoly_theorem.calls", "apoly.apoly_substitution.calls",
                 "repcheck.roots", "repcheck.polyval_calls", "repcheck.words.calls",
                 "repcheck.verify_point.calls", "cli.main.calls"):
        assert values[name] > 0, name
    assert values["cli.main.calls"] == 2
    assert values["repcheck.pass_ratio"] == 1.0
    assert 0 < values["laurent.mul.fill"] <= 1
    for name, value in values.items():
        if name.endswith("_s"):
            assert value >= 0, name


def test_without_the_program_the_benchmark_exits_non_zero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "rm_deep",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_job_times_are_scaled_by_the_probes_around_each_job_and_take_the_median():
    ref = run.REFERENCE_S
    fast = {"probes": [ref, ref, ref], "jobs": [{"s": 1.0}, {"s": 2.0}], "setup_s": 0.1}
    slow = {"probes": [2 * ref, 2 * ref, 4 * ref], "jobs": [{"s": 2.0}, {"s": 6.0}], "setup_s": 0.2}
    assert run.scaled_job_times(slow) == pytest.approx([1.0, 2.0])
    assert run.scaled_setup(slow) == pytest.approx(0.1)
    odd = {"probes": [ref, ref, ref], "jobs": [{"s": 3.0}, {"s": 0.5}], "setup_s": 0.1}
    assert run.job_times([fast, slow, odd]) == pytest.approx([1.0, 2.0])


def test_span_times_are_scaled_by_the_factor_of_their_job():
    ref = run.REFERENCE_S
    report = {"probes": [ref, ref, 3 * ref],
              "spans": [["cli.main", 0.0, 1.0, -1, 0], ["laurent.mul", 0.2, 0.6, 0, 0],
                        ["cli.main", 2.0, 4.0, -1, 1], ["laurent.mul", 2.5, 3.5, 2, 1]]}
    stats = span_stats(run.scaled_spans(report))
    assert stats["cli.main"] == pytest.approx({"calls": 2, "total_s": 1.0 + 1.0, "self_s": 0.6 + 0.5})
    assert stats["laurent.mul"] == pytest.approx({"calls": 2, "total_s": 0.4 + 0.5, "self_s": 0.9})
