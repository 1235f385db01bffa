"""Answer gate: a job counts only if its output is right.

``compute``, ``rm`` and ``newton`` stdout must match, byte for byte, a digest
pinned from the seed commit (``data/digests.json``), and both routes must
report ``paths_agree``.  ``verify`` output is checked by meaning, since the
last digits of its floats may change: every point passed with finite
residuals within tol x cond, the report count is samples times the x-degree
of P_2n, and, by this module's own evaluator, every returned root is a root
of the pinned exact P_2n (``data/rm_small.json``), the roots at each
meridian sum to -a_(d-1)/a_d, and the point (L, M) the root gives lies on
the pinned exact A_2n (``data/apoly_small.json``).
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

from jobs import job_key

DATA = Path(__file__).resolve().parent / "data"

# Relative residual |P(x0, M0)| / sum_k |a_k(M0)| |x0|^k of a returned root,
# and the relative error allowed in the sum of the roots at one meridian.
# At the seed commit, |n| <= 6 roots stay below 1e-12 and 1e-15.
ROOT_TOL = 1e-9
VIETA_TOL = 1e-9
# The verify jobs run with the CLI's default tol.  Each report's word residuals
# must be within TOL times its conditioning estimate, which must stay below
# COND_MAX (below 200 at the seed commit), and the gate's own relative
# A_2n residual must be within TOL (below 1e-13 at the seed commit).
TOL = 1e-8
COND_MAX = 1e6
_RESIDUALS = (("relation_residual", "cond_relator"), ("longitude_mismatch", "cond_longitude"),
              ("offdiag_residual", "cond_longitude"))

_AGREE = re.compile(r'"?paths_agree"?: ?(true|false)')


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def summarize(job: dict, text: str) -> dict:
    """What the gate needs from one job's stdout, cheap enough to take in the pass."""
    out = {"bytes": len(text.encode()), "sha256": digest(text)}
    if job["kind"] in ("compute", "rm"):
        flags = _AGREE.findall(text)
        out["agree"] = len(flags) == 1 and flags[0] == "true"
    if job["kind"] == "verify":
        out["stdout"] = text
    return out


def _load(obj: dict, var: str) -> dict[int, dict[int, int]]:
    """JSON terms in var and M as {var-exponent: {M-exponent: coefficient}}."""
    other = "l" if var == "x" else "x"
    columns: dict[int, dict[int, int]] = {}
    for term in obj["terms"]:
        if term[other] != 0:
            raise ValueError(f"unexpected {other} term")
        columns.setdefault(term[var], {})[term["m"]] = int(term["c"])
    return columns


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def _complex(pair) -> complex | None:
    """A JSON [re, im] pair as a complex number, or None unless it is two finite floats."""
    if isinstance(pair, list) and len(pair) == 2 and _finite(*pair):
        return complex(*pair)
    return None


def _at_meridian(columns, M0: complex) -> tuple[list[complex], list[float]]:
    """Coefficients of the polynomial at M = M0, and the sums |c| |M0|^m of their terms."""
    top = max(columns)
    values = [sum(c * M0**m for m, c in columns.get(k, {}).items()) for k in range(top + 1)]
    bounds = [sum(abs(c) * abs(M0) ** m for m, c in columns.get(k, {}).items())
              for k in range(top + 1)]
    return values, bounds


def _relative_value(values, bounds, z: complex) -> float:
    """|p(z)| / sum_k bounds_k |z|^k, with p(z) by Horner's rule."""
    value = 0j
    for a in reversed(values):
        value = value * z + a
    scale = sum(b * abs(z) ** k for k, b in enumerate(bounds))
    return abs(value) / scale if scale else math.inf


def longitude(n: int, M0: complex, x0: complex) -> complex:
    """The longitude eigenvalue at the root x0: -M^(-4n-2) (M^-2 + x) / (M^2 + x)."""
    return -(M0 ** (-4 * n - 2)) * (M0**-2 + x0) / (M0 * M0 + x0)


class Gate:
    """Checks job records against the pinned answers; verdicts are None or a reason."""

    def __init__(self):
        self.digests = json.loads((DATA / "digests.json").read_text())
        rm = json.loads((DATA / "rm_small.json").read_text())
        self.rm = {int(n): _load(obj, "x") for n, obj in rm.items()}
        apoly = json.loads((DATA / "apoly_small.json").read_text())
        self.apoly = {int(n): _load(obj, "l") for n, obj in apoly.items()}
        self._verify_verdicts: dict[str, str | None] = {}

    def check(self, job: dict, record: dict) -> str | None:
        if "error" in record:
            return record["error"]
        if record["rc"] != 0:
            return f"exit code {record['rc']}"
        if job["kind"] == "verify":
            # identical stdout gets the identical verdict, so repeat passes are cheap
            key = record["sha256"]
            if key not in self._verify_verdicts:
                try:
                    verdict = self.check_verify(job, record["stdout"])
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    verdict = f"malformed verify output: {exc!r}"
                self._verify_verdicts[key] = verdict
            return self._verify_verdicts[key]
        pinned = self.digests.get(job_key(job))
        if pinned is None:
            return "no pinned digest for this job"
        if record["sha256"] != pinned:
            return "stdout differs from the pinned digest"
        if job["kind"] in ("compute", "rm") and not record["agree"]:
            return "paths_agree is not true"
        return None

    def check_verify(self, job: dict, text: str) -> str | None:
        n, samples = job["n"], job["samples"]
        if n not in self.rm or n not in self.apoly:
            return f"no pinned P_2n and A_2n for n={n}"
        results = json.loads(text)["results"]
        if len(results) != 1 or results[0].get("n") != n:
            return "verify output is not one result for the requested n"
        if results[0].get("status") != "passed":
            return f"status {results[0].get('status')!r}"
        degree = max(self.rm[n])
        reports = results[0]["reports"]
        if len(reports) != samples * degree:
            return f"{len(reports)} reports, expected {samples} x {degree}"
        by_meridian: dict[complex, list[complex]] = {}
        for report in reports:
            reason = self._check_report(n, report)
            if reason:
                return reason
            by_meridian.setdefault(_complex(report["M_sample"]), []).append(
                _complex(report["root"]))
        if len(by_meridian) != samples:
            return f"{len(by_meridian)} distinct meridian samples, expected {samples}"
        for M0, roots in by_meridian.items():
            reason = self._check_roots(n, degree, M0, roots)
            if reason:
                return f"M={M0}: {reason}"
        return None

    @staticmethod
    def _check_report(n: int, report: dict) -> str | None:
        if report.get("passed") is not True or report.get("n") != n:
            return "a report did not pass"
        M0, x0 = _complex(report.get("M_sample")), _complex(report.get("root"))
        if M0 is None or x0 is None:
            return "a meridian or root is not a finite complex number"
        for residual, cond in _RESIDUALS:
            value, bound = report.get(residual), report.get(cond)
            if not (_finite(value, bound) and 0 <= value <= TOL * bound and bound <= COND_MAX):
                return f"{residual} {value!r} is not within tol x {cond} {bound!r}"
        return None

    def _check_roots(self, n: int, degree: int, M0: complex, roots) -> str | None:
        if not abs(abs(M0) - 1) <= 1e-12:
            return "meridian sample is off the unit circle"
        if len(roots) != degree:
            return f"{len(roots)} roots, expected {degree}"
        p_values, _ = _at_meridian(self.rm[n], M0)
        a_values, a_bounds = _at_meridian(self.apoly[n], M0)
        for x0 in roots:
            try:
                residual = _relative_value(p_values, [abs(a) for a in p_values], x0)
                if not residual <= ROOT_TOL:
                    return f"x={x0} is not a root of P_2n (residual {residual:.3g})"
                residual = _relative_value(a_values, a_bounds, longitude(n, M0, x0))
            except (ZeroDivisionError, OverflowError) as exc:
                return f"x={x0}: {exc}"
            if not residual <= TOL:
                return f"x={x0} gives a point off A_2n (residual {residual:.3g})"
        expected = -p_values[degree - 1] / p_values[degree]
        if not abs(sum(roots) - expected) <= VIETA_TOL * max(1.0, sum(abs(x) for x in roots)):
            return "the roots do not sum to -a_(d-1)/a_d"
        return None
