"""Benchmark of the c2n3 command-line tool, run from the root of a checkout:

    python3 perfbench/run.py --workload apoly_exact --seed 1 --seconds 40 --trace 0

A closed loop with one client: each pass runs the workload's whole job list,
one job after another, in a fresh interpreter (perfbench/child.py) that
calls ``c2n3.cli.main`` in-process, so no polynomial is requested twice in
one process and no cross-call cache gets credit a one-process-per-call user
would not get.  Passes repeat until ``--seconds`` is used up, and every job
of every pass goes through the answer gate (gate.py).  Times are scaled to
an idle host by the host-speed probe (calibrate.py) and reported as medians
over the passes.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics
(tracing.py) with the tracing overhead.  The last line of stdout is one
JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S
from gate import Gate
from jobs import WORKLOADS, make_jobs
from tracing import PER_LAYER, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TRACE_DIR = HERE / "out"

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("gate_pass_ratio", "1"),
)
# Every run ends within this many seconds, whatever --seconds asks.
HARD_LIMIT_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # np.roots calls LAPACK; one thread keeps a pass single-threaded like the loop around it.
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONHASHSEED="0")
    return env


def run_pass(jobs: list[dict], trace: bool, env: dict, timeout: float) -> dict | None:
    """One pass in a fresh interpreter; its report with setup_s added, or None."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py")], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(json.dumps({"jobs": jobs, "trace": trace}),
                                          timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        print("perfbench: pass timed out", file=sys.stderr)
        return None
    if proc.returncode != 0 or not stdout.strip():
        print(f"perfbench: pass exited {proc.returncode}\n{stderr[-3000:]}", file=sys.stderr)
        return None
    report = json.loads(stdout.splitlines()[-1])
    report["setup_s"] = report["ready"] - spawned
    return report


def job_factors(report: dict) -> list[float]:
    """Per job, the factor that scales its times to an idle host, from the probes around it."""
    probes = report["probes"]
    return [2 * REFERENCE_S / (before + after) for before, after in zip(probes, probes[1:])]


def scaled_job_times(report: dict) -> list[float]:
    return [record["s"] * factor for record, factor in zip(report["jobs"], job_factors(report))]


def scaled_spans(report: dict) -> list[list]:
    """The pass's spans with each job's clock scaled by that job's factor."""
    factors = job_factors(report)
    return [[name, start * factors[job], end * factors[job], parent, job]
            for name, start, end, parent, job in report["spans"]]


def scaled_setup(report: dict) -> float:
    return report["setup_s"] * REFERENCE_S / report["probes"][0]


def job_times(reports) -> list[float]:
    """Each job's median scaled time over the passes."""
    return [statistics.median(times) for times in zip(*map(scaled_job_times, reports))]


def end_to_end_metrics(reports, attempted, failed) -> dict[str, float]:
    return {
        "wall_s": sum(job_times(reports)),
        "setup_s": statistics.median(map(scaled_setup, reports)),
        "peak_rss_mib": statistics.median(report["rss_kib"] / 1024 for report in reports),
        "gate_pass_ratio": (attempted - failed) / attempted,
    }


def per_layer_metrics(untraced, traced) -> dict[str, float]:
    per_pass = [layer_metrics(scaled_spans(report), report["counters"],
                              sum(record["bytes"] for record in report["jobs"]))
                for report in traced]
    values = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    values["trace.overhead_ratio"] = sum(job_times(traced)) / sum(job_times(untraced))
    return values


def write_spans(workload: str, seed: int, jobs, traced) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-{seed}.json"
    doc = {"fields": ["name", "start", "end", "parent", "job"],
           "jobs": [job["argv"] for job in jobs],
           "passes": [report["spans"] for report in traced],
           "job_factors": [job_factors(report) for report in traced]}
    path.write_text(json.dumps(doc))
    return path


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    started = time.monotonic()
    if not (ROOT / "src" / "c2n3" / "cli.py").is_file():
        sys.exit(f"perfbench: no c2n3 sources under {ROOT / 'src'}")
    compileall.compile_dir(str(ROOT / "src"), quiet=1)
    env = child_env()
    jobs = make_jobs(workload, seed)
    gate = Gate()

    def time_left() -> float:
        return HARD_LIMIT_S - (time.monotonic() - started)

    modes = (False, True) if trace else (False,)
    reports: dict[bool, list[dict]] = {False: [], True: []}
    attempted = failed = 0
    durations = []
    deadline = started + seconds
    while True:
        began = time.monotonic()
        mode = modes[len(durations) % len(modes)]
        report = run_pass(jobs, mode, env, time_left())
        attempted += len(jobs)
        if report is None:
            failed += len(jobs)
            break
        reports[mode].append(report)
        for job, record in zip(jobs, report["jobs"]):
            reason = gate.check(job, record)
            if reason is not None:
                failed += 1
                print(f"perfbench: gate failed {' '.join(job['argv'])}: {reason}", file=sys.stderr)
        durations.append(time.monotonic() - began)
        print(f"perfbench: pass {len(durations)} {'traced' if mode else 'untraced'}: "
              f"{sum(record['s'] for record in report['jobs']):.3f} s as measured, "
              f"{sum(scaled_job_times(report)):.3f} s scaled, median probe "
              f"{statistics.median(report['probes']) * 1e3:.1f} ms", file=sys.stderr)
        # no pass starts that is expected to end after the deadline
        estimate = statistics.median(durations)
        if len(durations) >= len(modes) and time.monotonic() + estimate > min(
                deadline, started + HARD_LIMIT_S):
            break
    if not all(reports[mode] for mode in modes):
        sys.exit("perfbench: no pass completed")

    if trace:
        values = per_layer_metrics(reports[False], reports[True])
        units = {name: unit for name, unit, _ in PER_LAYER}
        print(f"perfbench: spans in {write_spans(workload, seed, jobs, reports[True])}",
              file=sys.stderr)
    else:
        values = end_to_end_metrics(reports[False], attempted, failed)
        units = dict(END_TO_END)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, metric in result["metrics"].items():
        print(f"{args.workload} {name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
