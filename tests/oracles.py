"""Independent brute-force reference arithmetic used as test oracles.

Polynomials here are plain dicts mapping (expL, expM, expX) to int.
Nothing is shared with the LaurentPoly internals: products and sums are
accumulated pairwise so the library results can be checked against a
second, deliberately naive implementation.  The numeric-layer oracles at
the end keep the earlier numpy, mpmath and scalar kernels of c2n3.repcheck;
mpmath is a test-only dependency.  The scalar check runs in Python's own
complex arithmetic, which rounds apart from numpy's, so c2n3.repcheck's
lanes agree with it in every verdict and within rounding in every residual,
not bit for bit.
"""

import cmath
import math

import mpmath as mp
import numpy as np

from c2n3.repcheck import (
    BadPoint,
    SingularPointError,
    VerificationReport,
    _word_lanes,
    longitude_eigen,
)


def naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def naive_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (l1, m1, x1), c1 in a.items():
        for (l2, m2, x2), c2 in b.items():
            key = (l1 + l2, m1 + m2, x1 + x2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def naive_pow(a: dict, k: int) -> dict:
    out = {(0, 0, 0): 1}
    for _ in range(k):
        out = naive_mul(out, a)
    return out


def as_dict(poly) -> dict:
    """Plain-dict view of a LaurentPoly, for comparison with naive results."""
    return dict(poly.terms())


# -- numeric layer ------------------------------------------------------------


def _inv2(mat: np.ndarray) -> np.ndarray:
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if det == 0:
        raise ValueError("singular matrix")
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]], dtype=complex) / det


def numpy_word_product(word, s_mat, t_mat) -> tuple[np.ndarray, float]:
    """A word's image by one numpy 2x2 matmul per letter, and the peak entry-magnitude sum."""
    steps = {
        ("s", 1): np.asarray(s_mat, dtype=complex),
        ("t", 1): np.asarray(t_mat, dtype=complex),
    }
    steps[("s", -1)] = _inv2(steps[("s", 1)])
    steps[("t", -1)] = _inv2(steps[("t", 1)])
    acc = np.eye(2, dtype=complex)
    cond = 2.0
    for gen, exp in word:
        step = steps[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            acc = acc @ step
            cond = max(cond, float(np.abs(acc).sum()))
    return acc, cond


def mpmath_polish_root(z, exact_coeffs) -> complex:
    """Newton's method by mpmath polyval, highest power first; stops at |step| < 1e-30."""
    current = mp.mpc(complex(z))
    for _ in range(50):
        value, slope = mp.polyval(exact_coeffs, current, derivative=True)
        if slope == 0:
            break
        step = value / slope
        current = current - step
        if abs(step) < mp.mpf("1e-30"):
            break
    return complex(current)


def _horner(coeffs, z):
    """sum_k coeffs[k] * z**k by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def scalar_report(n, M0, x0, tol, words, apoly_lists) -> VerificationReport:
    """The check at (M0, x0) in Python's scalar arithmetic.

    words are the two words there, apoly_lists A_2n's at_meridian(M0).
    """
    (a, b, c, d), cond_rel, lon_a, lon_c, cond_lon = words
    relation_residual = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
    L0 = longitude_eigen(n, M0, x0)
    longitude_mismatch = abs(lon_a - L0)
    offdiag_residual = abs(lon_c)
    values, bounds = apoly_lists
    size = _horner(bounds, abs(L0))
    if math.isinf(size):
        values, bounds, L0 = values[::-1], bounds[::-1], 1 / L0
        size = _horner(bounds, abs(L0))
    apoly_residual = float(abs(_horner(values, L0)) / size)
    passed = (
        relation_residual <= tol * cond_rel
        and longitude_mismatch <= tol * cond_lon
        and offdiag_residual <= tol * cond_lon
        and apoly_residual <= tol
    )
    return VerificationReport(n, M0, x0, relation_residual, longitude_mismatch, offdiag_residual,
                              apoly_residual, cond_rel, cond_lon, passed)


def scalar_verify_family(n, M_samples, tol, poly, found) -> list:
    """verify_family with at_meridian once per meridian and scalar_report once per root.

    poly is A_2n, and found what c2n3.repcheck._roots_batch gives at
    M_samples; the words come from its lanes, read back as Python numbers.
    """
    found = list(zip(map(complex, M_samples), found))
    points = [(M0, x0) for M0, roots in found
              if not isinstance(roots, ArithmeticError) for x0 in roots]
    M0s = np.array([M0 for M0, _ in points], dtype=complex)
    x0s = np.array([x0 for _, x0 in points], dtype=complex)
    rel, cond_rel, lon_a, lon_c, cond_lon = _word_lanes(n, M0s, x0s)
    words = dict(zip(points, zip(zip(*(v.tolist() for v in rel)), cond_rel.tolist(),
                                 lon_a.tolist(), lon_c.tolist(), cond_lon.tolist())))
    reports = []
    for M0, roots in found:
        if isinstance(roots, ArithmeticError):
            reports.append(BadPoint(n, M0, str(roots)))
            continue
        lists = None
        for x0 in roots:
            try:
                lists = lists or poly.at_meridian(M0)
                report = scalar_report(n, M0, x0, tol, words[M0, x0], lists)
            except SingularPointError as exc:
                reports.append(BadPoint(n, M0, f"{exc} at x0 = {x0!r}"))
                continue
            except (OverflowError, ZeroDivisionError) as exc:
                reports.append(BadPoint(n, M0, f"out of double range ({exc}) at x0 = {x0!r}"))
                continue
            reports.append(scan_report(n, M0, x0, report))
    return reports


def scan_report(n, M0, x0, report):
    """report, or the BadPoint naming its fields that are inf or NaN, found by a scan of every field."""
    wide = [k for k, v in vars(report).items() if not cmath.isfinite(v)]
    if wide:
        return BadPoint(n, M0, f"out of double range ({', '.join(wide)}) at x0 = {x0!r}")
    return report
