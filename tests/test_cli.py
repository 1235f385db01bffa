"""End-to-end tests of the command-line interface through main(argv, out)."""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import c2n3
from c2n3 import cli, repcheck
from c2n3.apoly import APolyResult, apoly_theorem
from c2n3.laurent import LaurentPoly
from c2n3.repcheck import sample_unit_modulus, verify_family
from c2n3.rmpoly import RMResult, rm_closed
from test_apoly import A2_JSON, A2_TEXT

P2_TEXT = (
    "-M^8*x - 2*M^6*x^2 + M^6*x - M^4*x^3 + M^4*x^2 - 2*M^4*x + M^4"
    " - 2*M^2*x^2 + M^2*x - x"
)


def run(argv):
    buf = io.StringIO()
    code = cli.main(argv, out=buf)
    return code, buf.getvalue()


def test_compute_json_single_n_emits_bare_polynomial():
    code, out = run(["compute", "--n", "0", "--format", "json"])
    assert code == 0
    assert out == '{"terms":[{"l":0,"m":0,"x":0,"c":"1"}]}\n'

    code, out = run(["compute", "--n", "1", "--format", "json"])
    assert code == 0
    assert out == A2_JSON + "\n"


def test_compute_text_and_latex_parse_back():
    code, out = run(["compute", "--n", "-2", "--format", "text"])
    assert code == 0
    assert LaurentPoly.from_text(out.strip()) == apoly_theorem(-2).poly

    code, out = run(["compute", "--n", "-2", "--format", "latex"])
    assert code == 0
    assert LaurentPoly.from_latex(out.strip()) == apoly_theorem(-2).poly


def test_compute_multi_n_text_labels():
    code, out = run(["compute", "--n", "0..1"])
    assert code == 0
    assert out.splitlines() == ["n=0: 1", f"n=1: {A2_TEXT}"]


def test_compute_substitution_path_matches_theorem():
    _, theorem_out = run(["compute", "--n", "3", "--format", "json"])
    code, subst_out = run(["compute", "--n", "3", "--path", "substitution",
                           "--format", "json"])
    assert code == 0
    assert subst_out == theorem_out


def test_compute_both_paths_agree():
    code, out = run(["compute", "--n", "1", "--path", "both", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "theorem", "substitution", "paths_agree"}
    assert doc["n"] == 1 and doc["paths_agree"] is True
    assert doc["theorem"] == apoly_theorem(1).poly.to_json_obj()
    assert doc["theorem"] == doc["substitution"]


def test_compute_both_paths_text_output():
    code, out = run(["compute", "--n", "-1..0", "--path", "both"])
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6
    assert lines[0].startswith("n=-1 theorem: ")
    assert lines[1].startswith("n=-1 substitution: ")
    assert lines[2] == "n=-1 paths_agree: true"
    assert lines[5] == "n=0 paths_agree: true"


def test_rm_text_fixture_and_paths():
    code, out = run(["rm", "--n", "1"])
    assert code == 0
    assert out == P2_TEXT + "\n"

    code, out = run(["rm", "--n", "-1", "--path", "recursive", "--format", "json"])
    assert code == 0
    assert LaurentPoly.from_json(out.strip()) == rm_closed(-1).poly

    code, out = run(["rm", "--n", "5", "--path", "both", "--format", "json"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"n", "closed", "recursive", "paths_agree"}
    assert doc["paths_agree"] is True


def test_compute_path_disagreement_exits_nonzero(monkeypatch, capsys):
    def broken(n):
        return APolyResult(n, apoly_theorem(n).poly + 1, "substitution")

    monkeypatch.setattr(cli, "apoly_substitution", broken)
    code, out = run(["compute", "--n", "1", "--path", "both", "--format", "json"])
    assert code == 1
    assert json.loads(out)["paths_agree"] is False
    assert "paths disagree for n=1" in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["json", "text", "latex"])
def test_a_disagreeing_pair_renders_each_route_on_its_own(monkeypatch, fmt):
    # an agreeing pair is rendered once; a disagreeing one must not reuse that text
    def broken(n):
        return APolyResult(n, apoly_theorem(n).poly + 1, "substitution")

    monkeypatch.setattr(cli, "apoly_substitution", broken)
    code, out = run(["compute", "--n", "2", "--path", "both", "--format", fmt])
    assert code == 1
    good, bad = apoly_theorem(2).poly, broken(2).poly
    if fmt == "json":
        doc = json.loads(out)
        assert LaurentPoly.from_json_obj(doc["theorem"]) == good
        assert LaurentPoly.from_json_obj(doc["substitution"]) == bad
    else:
        render = LaurentPoly.to_text if fmt == "text" else LaurentPoly.to_latex
        assert out.splitlines()[:2] == [f"theorem: {render(good)}", f"substitution: {render(bad)}"]


def test_rm_path_disagreement_exits_nonzero(monkeypatch, capsys):
    def broken(n):
        return RMResult(n, rm_closed(n).poly + 1, "recursive")

    monkeypatch.setattr(cli, "rm_recursive", broken)
    code, out = run(["rm", "--n", "2", "--path", "both"])
    assert code == 1
    assert out.splitlines()[-1] == "paths_agree: false"
    assert "paths disagree for n=2" in capsys.readouterr().err


def test_verify_grid_passes_and_reports_degenerate_zero():
    code, out = run(["verify", "--n", "-1..1", "--samples", "2", "--seed", "0"])
    assert code == 0
    doc = json.loads(out)
    assert (doc["seed"], doc["samples"], doc["tol"]) == (0, 2, 1e-8)
    statuses = {entry["n"]: entry["status"] for entry in doc["results"]}
    assert statuses == {-1: "passed", 0: "degenerate", 1: "passed"}
    by_n = {entry["n"]: entry for entry in doc["results"]}
    assert by_n[0]["reports"] == []
    assert len(by_n[-1]["reports"]) == 4  # 2 samples x 2 roots
    assert len(by_n[1]["reports"]) == 6  # 2 samples x 3 roots
    assert all(r["passed"] for r in by_n[1]["reports"])


def test_verify_unreachable_tolerance_exits_nonzero():
    code, out = run(["verify", "--n", "2", "--samples", "1", "--tol", "1e-30"])
    assert code == 1
    doc = json.loads(out)
    assert doc["results"][0]["status"] == "failed"


@pytest.mark.parametrize("tol", ["nan", "inf", "1e400"])
def test_verify_rejects_non_finite_tolerance(tol, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--n", "1", "--samples", "1", "--tol", tol], out=io.StringIO())
    assert excinfo.value.code == 2
    assert "--tol must be a finite positive number" in capsys.readouterr().err


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_verify_output_is_strict_json(monkeypatch):
    code, out = run(["verify", "--n", "1", "--samples", "1", "--tol", "1e-8"])
    assert code == 0
    json.loads(out, parse_constant=_reject_constant)

    # a non-finite residual must never reach stdout as NaN: the longitude's
    # (1, 1) entry complex("nan") at every root
    real_word_lanes = repcheck._word_lanes

    def nan_words(*args):
        rel, cond_rel, lon_a, lon_c, cond_lon = real_word_lanes(*args)
        return rel, cond_rel, lon_a + math.nan, lon_c, cond_lon

    monkeypatch.setattr(repcheck, "_word_lanes", nan_words)
    code, out = run(["verify", "--n", "1", "--samples", "1"])
    assert code == 1
    (result,) = json.loads(out, parse_constant=_reject_constant)["results"]
    assert result["status"] == "failed"
    assert len(result["reports"]) == 3
    for entry in result["reports"]:
        assert set(entry) == {"n", "M_sample", "status", "reason"}
        assert entry["status"] == "error"
        assert entry["reason"].startswith("out of double range (longitude_mismatch) at x0 = ")


def _whole_document(argv):
    # the verify document built in one piece and dumped by one json.dumps
    args = cli.build_parser().parse_args(cli._merge_n_flag(argv))
    samples = sample_unit_modulus(args.samples, args.seed)
    results, all_passed = [], True
    for n in args.n:
        if n == 0:
            results.append({"n": 0, "status": "degenerate", "reports": []})
            continue
        reports = verify_family(n, samples, args.tol)
        ok = all(r.passed for r in reports)
        all_passed = all_passed and ok
        results.append({"n": n, "status": "passed" if ok else "failed",
                        "reports": [r.to_json_obj() for r in reports]})
    doc = {"seed": args.seed, "samples": args.samples, "tol": args.tol, "results": results}
    return 0 if all_passed else 1, json.dumps(doc, separators=(",", ":"), allow_nan=False) + "\n"


@pytest.mark.parametrize("command, code", [
    ("verify --n -3..3 --samples 5 --seed 1", 0),  # n = 0 included
    ("verify --n 1..2 --samples 2 --tol 1e-30", 1),  # failed families
])
def test_verify_writes_the_bytes_of_the_whole_document(command, code):
    want = _whole_document(command.split())
    assert want[0] == code
    assert run(command.split()) == want


def test_verify_holds_one_family_at_a_time():
    # every n's entry is written as soon as it is checked, into a sink that
    # keeps nothing; building the whole document first peaks at 12.7 MiB
    with open(os.devnull, "w") as sink:
        tracemalloc.start()
        try:
            code = cli.main(["verify", "--n", "-12..12", "--samples", "20", "--seed", "0"], out=sink)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 8 * 2**20


def test_verify_at_n_8_gives_every_root():
    # every one of the 24 roots of P_16 at each of the 20 seed-0 meridians is
    # found and verified, those near +-i included
    code, out = run(["verify", "--n", "8", "--samples", "20", "--seed", "0"])
    assert code == 0
    (result,) = json.loads(out, parse_constant=_reject_constant)["results"]
    assert result["status"] == "passed"
    assert len(result["reports"]) == 20 * 24
    assert all(entry["passed"] for entry in result["reports"])
    samples = sample_unit_modulus(20, seed=0)
    assert [complex(*entry["M_sample"]) for entry in result["reports"][::24]] == samples


def test_newton_lines():
    code, out = run(["newton", "--n", "-1..1"])
    assert code == 0
    assert out.splitlines() == [
        '{"vertices":[[0,4],[1,0],[2,4],[1,8]],"slopes":["-4","4","-4","4"]}',
        '{"vertices":[[0,0]],"slopes":[]}',
        '{"vertices":[[0,0],[1,0],[2,4],[3,14],[2,14],[1,10]],'
        '"slopes":["0","4","10","0","4","10"]}',
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n", "x"],
        ["compute", "--n", "3..1"],
        ["compute", "--n", "1", "--format", "bogus"],
        ["rm", "--n", "1", "--path", "sideways"],
        ["verify", "--n", "1", "--samples", "0"],
        ["verify", "--n", "1", "--tol", "-2"],
        ["frobnicate"],
        [],
        ["compute", "--n", "0..1000000000000"],
        ["rm", "--n", "101"],
        ["newton", "--n", "-101..0"],
        ["verify", "--n", "1", "--samples", "1001"],
    ],
)
def test_malformed_usage_exits_2(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv, out=io.StringIO())
    assert excinfo.value.code == 2
    assert "error: " in capsys.readouterr().err


def test_n_and_samples_limits(capsys):
    assert cli._n_values("-100..100") == list(range(-100, 101))  # 201 values
    for text in ("101", "-101", "-3..101", "-101..0", "0..1000000000000"):
        with pytest.raises(argparse.ArgumentTypeError, match=r"\|n\| must be at most 100"):
            cli._n_values(text)
    with pytest.raises(SystemExit):
        cli.main(["verify", "--n", "1", "--samples", "1001"], out=io.StringIO())
    assert "--samples must be between 1 and 1000" in capsys.readouterr().err


def test_entry_point_wrapper(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["c2n3", "compute", "--n", "0"])
    with pytest.raises(SystemExit) as excinfo:
        cli.entry()
    assert excinfo.value.code == 0
    assert capsys.readouterr().out == "1\n"


def readme_example(command):
    """The output line printed under `c2n3 <command>` in the README's CLI usage block."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text().splitlines()
    at = lines.index(f"c2n3 {command}")
    assert lines[at + 1].startswith("# ")
    return lines[at + 1][2:]


def module_env():
    """The environment with this checkout's src first on PYTHONPATH, for python -m c2n3.cli."""
    path = [str(Path(c2n3.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))


@pytest.mark.parametrize("command", ["compute --n -1", "newton --n -1"])
def test_readme_examples_run_as_a_module(command):
    done = subprocess.run([sys.executable, "-m", "c2n3.cli", *command.split()],
                          capture_output=True, text=True, env=module_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == readme_example(command) + "\n"


def test_a_closed_stdout_exits_1_without_a_traceback():
    # c2n3 compute --n -30..30 | head -n 1 and c2n3 verify --n 10..20 | head -c 8:
    # megabytes, far past any pipe buffer
    for command, start in [("compute --n -30..30", b"n=-30: "),
                           ("verify --n 10..20 --samples 20 --seed 0", b'{"seed":')]:
        with subprocess.Popen([sys.executable, "-m", "c2n3.cli", *command.split()],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=module_env()) as child:
            assert child.stdout.read(len(start)) == start
            child.stdout.close()
            stderr = child.stderr.read()
            assert child.wait(timeout=120) == 1
        assert stderr == b"", command


@pytest.mark.parametrize(
    "argv",
    [
        ["compute", "--n", "-2..2", "--path", "both", "--format", "json"],
        ["rm", "--n", "-3..3", "--path", "both", "--format", "json"],
        ["verify", "--n", "-2..2", "--samples", "2", "--seed", "42"],
        ["newton", "--n", "-3..3"],
    ],
)
def test_output_is_byte_deterministic(argv):
    first = run(argv)
    second = run(argv)
    assert first == second


# SHA-256 of the exact stdout bytes; any change to the printed polynomials,
# their term order or their formatting changes these.
STDOUT_SHA256 = {
    "compute --path both --n -6..6 --format json":
        "9b82492d29236f036ec16ca4589fc679fa48f6b21b624a868ea68e58dba5dada",
    "compute --path both --n -6..6 --format text":
        "3a7aee83d568a536761a3146f94fab53f5e456f135b3ffc59da05a3f0e101f88",
    "compute --path both --n -6..6 --format latex":
        "ec97e17fa4d9bd83a097eb4aa38b0fc1e4a5ef73513297283490c8182b36adbb",
    "rm --path both --n -8..8 --format json":
        "67c2b7fab2e07566049cf310cc6aa2ee26ac4cd7694e46b5a8014675bcbbe250",
    "rm --path both --n -8..8 --format text":
        "812005a4088d8a876ad4b6455b300b93107e2d24afbcb1d958d435ef657adea8",
    "rm --path both --n -8..8 --format latex":
        "99b0c32e306a77ca0edfa2c6fb2b380ff7e2b50c8f6ff2a337bd97011123f12a",
    "newton --n -8..8":
        "0c9f9d0ed78402adb3c2b94cf2582c31d76b4cdda71713a4886f833213c6c13f",
}


@pytest.mark.parametrize("command", STDOUT_SHA256)
def test_stdout_bytes_are_pinned(command):
    code, out = run(command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[command]


def _fresh(argv):
    # one new interpreter per call, whose parser nothing has used before
    done = subprocess.run([sys.executable, "-m", "c2n3.cli", *argv],
                          capture_output=True, text=True, env=module_env(), timeout=120)
    return done.returncode, done.stdout, done.stderr


def _in_process(argv, capsys):
    buf = io.StringIO()
    try:
        code = cli.main(argv, out=buf)
    except SystemExit as exc:
        code = exc.code
    return code, buf.getvalue(), capsys.readouterr().err


@pytest.mark.parametrize("first, second", [
    ("verify --n 1 --samples 0", "verify --n 1 --samples 2"),  # a usage error, exit 2
    ("compute --n 5", "compute --n 0..1000000000000"),
    ("compute --n -2..2 --path both --format json", "compute --n -2..2 --format json"),
    ("verify --n -1..1 --samples 2 --tol 1e-6", "verify --n -1..1 --samples 2"),
])
def test_the_parser_kept_by_main_parses_each_call_as_a_fresh_one(first, second, capsys):
    # main builds its parser once per process; a call after another prints
    # what the same call prints in a new process
    assert _in_process(first.split(), capsys) == _fresh(first.split())
    assert _in_process(second.split(), capsys) == _fresh(second.split())


def test_main_builds_one_parser_per_process():
    # on its first call, not at import, so importing c2n3.cli stays as cheap as before
    probe = ("import io, c2n3.cli as cli; cache = cli._shared_parser; print(cache.cache_info().misses); "
             "cli.main(['compute', '--n', '1'], out=io.StringIO()); "
             "cli.main(['newton', '--n', '-1'], out=io.StringIO()); print(cache.cache_info().misses)")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=module_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]
