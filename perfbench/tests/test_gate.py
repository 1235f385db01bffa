import dataclasses
import json

import c2n3.cli
import c2n3.repcheck
import pytest
from c2n3.apoly import APolyResult
from c2n3.rmpoly import RMResult

import child
from gate import Gate
from jobs import compute_job, newton_job, rm_job, verify_job


@pytest.fixture(scope="module")
def gate():
    return Gate()


def run_one(job):
    (record,) = child.run({"jobs": [job], "trace": False})["jobs"]
    return record


@pytest.mark.parametrize("job", [compute_job(-2, "text"), compute_job(3, "json"),
                                 compute_job(5, "latex"), newton_job(-5), rm_job(24, "json"),
                                 verify_job(2, 9)],
                         ids=lambda job: " ".join(job["argv"]))
def test_right_answers_pass(gate, job):
    assert gate.check(job, run_one(job)) is None


def test_one_wrong_route_fails(gate, monkeypatch):
    true_route = c2n3.cli.apoly_theorem

    def perturbed(n):
        result = true_route(n)
        return APolyResult(n, result.poly + 1, result.path)

    monkeypatch.setattr(c2n3.cli, "apoly_theorem", perturbed)
    job = compute_job(2, "latex")
    record = run_one(job)
    assert record["rc"] == 1 and not record["agree"]
    assert gate.check(job, record) is not None


def test_two_routes_wrong_the_same_way_fail(gate, monkeypatch):
    for name in ("rm_closed", "rm_recursive"):
        route = getattr(c2n3.cli, name)
        monkeypatch.setattr(c2n3.cli, name,
                            lambda n, route=route: RMResult(n, route(n).poly * 2, "perturbed"))
    job = rm_job(24, "json")
    record = run_one(job)
    assert record["rc"] == 0 and record["agree"]
    assert gate.check(job, record) == "stdout differs from the pinned digest"


def test_repeated_root_fails_although_every_point_passes(gate, monkeypatch):
    true_roots = c2n3.repcheck.roots_of_rm
    monkeypatch.setattr(c2n3.repcheck, "roots_of_rm",
                        lambda n, M0: (lambda r: r[:-1] + r[:1])(true_roots(n, M0)))
    job = verify_job(3, 4)
    record = run_one(job)
    assert record["rc"] == 0 and '"status":"passed"' in record["stdout"]
    assert "sum" in gate.check(job, record)


def test_missing_roots_fail(gate, monkeypatch):
    true_roots = c2n3.repcheck.roots_of_rm
    monkeypatch.setattr(c2n3.repcheck, "roots_of_rm", lambda n, M0: true_roots(n, M0)[1:])
    job = verify_job(-2, 4)
    assert "reports, expected" in gate.check(job, run_one(job))


def test_nan_root_reported_as_passed_fails(gate, monkeypatch):
    true_roots, true_point = c2n3.repcheck.roots_of_rm, c2n3.repcheck.verify_point
    monkeypatch.setattr(c2n3.repcheck, "roots_of_rm",
                        lambda n, M0: [complex("nan")] + true_roots(n, M0)[1:])
    monkeypatch.setattr(c2n3.repcheck, "verify_point", lambda *args, **kwargs: dataclasses.replace(
        true_point(*args, **kwargs), passed=True))
    job = verify_job(2, 4)
    record = run_one(job)
    assert record["rc"] == 0 and '"status":"passed"' in record["stdout"]
    assert "not a finite complex number" in gate.check(job, record)


def edited_verify_record(job, edit):
    """A right verify record whose first report went through edit(report)."""
    record = run_one(job)
    doc = json.loads(record["stdout"])
    edit(doc["results"][0]["reports"][0])
    return dict(record, stdout=json.dumps(doc), sha256="edited")


@pytest.mark.parametrize("edit", [
    lambda r: r.update(relation_residual=1e-3),
    lambda r: r.update(longitude_mismatch=float("inf")),
    lambda r: r.update(offdiag_residual=float("nan")),
    lambda r: r.update(cond_relator=float("inf"), relation_residual=1.0),
    lambda r: r.update(root=[r["root"][0] + 1e-6, r["root"][1]]),
    lambda r: r.update(root="x"),
    lambda r: r.pop("cond_longitude"),
], ids=["residual above tol x cond", "infinite residual", "nan residual", "infinite cond",
        "root off by 1e-6", "root not a pair", "missing cond"])
def test_reports_the_program_marks_passed_are_checked_again(gate, edit):
    job = verify_job(-3, 4)
    assert gate.check(job, edited_verify_record(job, edit)) is not None


def test_a_point_off_the_pinned_apoly_fails():
    job = verify_job(3, 4)
    record = run_one(job)
    gate = Gate()
    assert gate.check(job, record) is None
    gate = Gate()
    gate.apoly[3][0][0] += 1
    assert "off A_2n" in gate.check(job, record)


def test_bad_exits_and_unknown_jobs_fail(gate):
    job = compute_job(1, "text")
    record = run_one(job)
    assert gate.check(job, dict(record, rc=2)) == "exit code 2"
    assert gate.check(job, dict(record, error="ValueError: boom")) == "ValueError: boom"
    odd = compute_job(99, "text")
    assert gate.check(odd, record) == "no pinned digest for this job"


def test_malformed_verify_output_fails_without_raising(gate):
    job = verify_job(1, 4)
    record = run_one(job)
    for stdout in ("not json", "[]", '{"results": [1]}', '{"results": [{"n": 1, "status": "passed"}]}'):
        assert gate.check(job, dict(record, stdout=stdout, sha256=stdout)) is not None
