import json
from collections import Counter

import pytest

from conftest import BENCH
from jobs import (APOLY_N, NEWTON_BLOCKS, RM_FORMATS, VERIFY_N, WORKLOADS, drawable_jobs,
                  job_key, make_jobs)

SEEDS = range(60)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_is_a_function_of_the_seed(workload):
    for seed in SEEDS:
        assert make_jobs(workload, seed) == make_jobs(workload, seed)
    assert len({json.dumps(make_jobs(workload, seed)) for seed in SEEDS}) > 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_polynomial_is_requested_twice_in_one_pass(workload):
    for seed in SEEDS:
        ns = [job["n"] for job in make_jobs(workload, seed)]
        assert len(ns) == len(set(ns))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_size_mix_is_the_same_for_every_seed(workload):
    mixes = set()
    for seed in SEEDS:
        jobs = make_jobs(workload, seed)
        mixes.add(tuple(sorted(Counter((job["kind"], abs(job["n"]) if job["kind"] == "rm" else None)
                                       for job in jobs).items())))
        largest = max(abs(job["n"]) for job in jobs)
        assert largest == {"apoly_exact": 14, "rm_deep": 40, "verify_grid": 6}[workload]
    assert len(mixes) == 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_the_output_format_of_each_n_does_not_depend_on_the_seed(workload):
    formats = {(job["kind"], job["n"], job["fmt"]) for seed in SEEDS for job in make_jobs(workload, seed)}
    assert len(formats) == len({(kind, n) for kind, n, _ in formats})


def test_apoly_exact_draws_one_newton_job_per_block_and_keeps_both_largest_jobs():
    for seed in SEEDS:
        jobs = make_jobs("apoly_exact", seed)
        assert sorted(job["n"] for job in jobs) == sorted(APOLY_N)
        newton = sorted(abs(job["n"]) for job in jobs if job["kind"] == "newton")
        assert len(newton) == len(NEWTON_BLOCKS)
        assert all(any(a in block for a in newton) for block in NEWTON_BLOCKS)
        assert {job["kind"] for job in jobs if abs(job["n"]) == 14} == {"compute"}


def test_rm_deep_and_verify_grid_cover_their_n_sets():
    for seed in SEEDS:
        assert sorted(abs(job["n"]) for job in make_jobs("rm_deep", seed)) == sorted(RM_FORMATS)
        verify = make_jobs("verify_grid", seed)
        assert sorted(job["n"] for job in verify) == list(VERIFY_N)
        assert all(job["argv"][-1] == str(seed) for job in verify)


def test_every_drawable_job_has_a_pinned_digest():
    digests = json.loads((BENCH / "data" / "digests.json").read_text())
    drawable = {job_key(job) for job in drawable_jobs()}
    assert drawable == set(digests)
    for workload in ("apoly_exact", "rm_deep"):
        for seed in SEEDS:
            assert {job_key(job) for job in make_jobs(workload, seed)} <= drawable
