"""Seeded job lists for the three benchmark workloads.

A job is one ``c2n3`` command line.  The seed picks the job order, the sign
of each |n| where only one sign is drawn, which n values go to ``newton``
and the ``verify --seed``.  The multiset of |n| values and subcommands is
fixed, and so is the output format of each n: the format of the largest
jobs moves their time and the peak memory of a pass, so drawing it would
make passes of different seeds cost different amounts.  No polynomial is
requested by two jobs of one list.
"""

from __future__ import annotations

import random

WORKLOADS = ("apoly_exact", "rm_deep", "verify_grid")

APOLY_N = tuple(n for n in range(-14, 15) if n != 0)
APOLY_FORMATS = ("json", "text", "latex")  # n % 3 picks one; n = 14 is latex, -14 text
# One newton job per block of |n| values (about a quarter of the 28 n values);
# |n| = 14 is never drawn, so the two largest jobs are the same for every seed.
NEWTON_BLOCKS = ((1, 2), (3, 4), (5, 6), (7, 8), (9, 10), (11, 12), (13,))

RM_FORMATS = {24: "json", 28: "text", 32: "json", 36: "text", 40: "json"}

VERIFY_N = tuple(n for n in range(-6, 7) if n != 0)
VERIFY_SAMPLES = 20


def compute_job(n: int, fmt: str) -> dict:
    return {"kind": "compute", "n": n, "fmt": fmt,
            "argv": ["compute", "--path", "both", "--n", str(n), "--format", fmt]}


def newton_job(n: int) -> dict:
    return {"kind": "newton", "n": n, "fmt": None, "argv": ["newton", "--n", str(n)]}


def rm_job(n: int, fmt: str) -> dict:
    return {"kind": "rm", "n": n, "fmt": fmt,
            "argv": ["rm", "--path", "both", "--n", str(n), "--format", fmt]}


def verify_job(n: int, seed: int) -> dict:
    return {"kind": "verify", "n": n, "fmt": "json", "samples": VERIFY_SAMPLES,
            "argv": ["verify", "--n", str(n), "--samples", str(VERIFY_SAMPLES),
                     "--seed", str(seed)]}


def make_jobs(workload: str, seed: int) -> list[dict]:
    """The job list of one pass; the same (workload, seed) gives the same list."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "apoly_exact":
        newton_n = {rng.choice([s * a for a in block for s in (1, -1)])
                    for block in NEWTON_BLOCKS}
        jobs = [newton_job(n) if n in newton_n else compute_job(n, APOLY_FORMATS[n % 3])
                for n in APOLY_N]
    elif workload == "rm_deep":
        jobs = [rm_job(a * rng.choice((1, -1)), fmt) for a, fmt in RM_FORMATS.items()]
    elif workload == "verify_grid":
        jobs = [verify_job(n, seed) for n in VERIFY_N]
    else:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng.shuffle(jobs)
    return jobs


def drawable_jobs() -> list[dict]:
    """Every job with pinned stdout that some seed can draw (all but verify)."""
    jobs = [compute_job(n, APOLY_FORMATS[n % 3]) for n in APOLY_N]
    jobs += [newton_job(s * a) for block in NEWTON_BLOCKS for a in block for s in (1, -1)]
    jobs += [rm_job(s * a, fmt) for a, fmt in RM_FORMATS.items() for s in (1, -1)]
    return jobs


def job_key(job: dict) -> str:
    return " ".join(job["argv"])
