"""One benchmark pass, run in a fresh interpreter by run.py.

Reads ``{"jobs": [...], "trace": bool}`` as JSON on stdin, runs each job
through ``c2n3.cli.main(argv, out=buffer)`` in this one process, and writes
one JSON line to stdout: the moment c2n3 was imported and ready (on the
system-wide monotonic clock), the host-speed probe times taken after set-up
and after each job (calibrate.py), each job's exit code, wall time and
output summary, the peak resident set size, and, when tracing, the spans.
An empty job list measures set-up alone.
"""

import io
import json
import resource
import sys
import time

import c2n3.cli

READY = time.monotonic()


def run(request: dict) -> dict:
    import calibrate
    import gate

    tracer = None
    if request["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    records = []
    probes = [calibrate.probe()]
    for index, job in enumerate(request["jobs"]):
        if tracer is not None:
            tracer.job = index
        buf = io.StringIO()
        record = {}
        start = time.perf_counter()
        try:
            record["rc"] = c2n3.cli.main(job["argv"], out=buf)
        except SystemExit as exc:
            record["rc"] = exc.code
        except Exception as exc:  # a job that raises is a failed job, not a failed pass
            record["rc"] = None
            record["error"] = f"{type(exc).__name__}: {exc}"
        record["s"] = time.perf_counter() - start
        probes.append(calibrate.probe())
        record.update(gate.summarize(job, buf.getvalue()))
        records.append(record)
    out = {
        "ready": READY,
        "probes": probes,
        "jobs": records,
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        out["spans"] = tracer.spans
        out["counters"] = tracer.counters
    return out


if __name__ == "__main__":
    sys.stdout.write(json.dumps(run(json.load(sys.stdin))) + "\n")
