"""Independent brute-force reference arithmetic used as test oracles.

Polynomials here are plain dicts mapping (expL, expM, expX) to int.
Nothing is shared with the LaurentPoly internals: products and sums are
accumulated pairwise so the library results can be checked against a
second, deliberately naive implementation.  The numeric-layer oracles at
the end keep the earlier numpy, mpmath and scalar kernels of c2n3.repcheck,
the scalar specialization at_meridian, which works in complex or in
mpmath's mpc, and one-lane views of the lane kernels; mpmath is a
test-only dependency.  The scalar check runs in Python's own complex
arithmetic, its longitude eigenvalue included, which rounds apart from
numpy's, so c2n3.repcheck's lanes agree with it in every verdict and
within rounding in every residual, not bit for bit.
"""

import cmath
import math

import mpmath as mp
import numpy as np

from c2n3.laurent import VARIABLES
from c2n3.repcheck import (
    _SINGULAR,
    BadPoint,
    SingularPointError,
    VerificationReport,
    _product,
    _rho_lanes,
    _steps,
    _word_lanes,
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


def rm_closed_summand_by_summand(n: int) -> dict:
    """P_2n as the closed-form sum of C * M^p * base^i * (-x)^j, one summand at a time.

    base = M^2 + M^-2 + x - 1 and p = 4n for n >= 0; for n < 0 the base is
    negated and p = -4n - 2.  The indices are re-derived here: j =
    floor((1 + i) / 2), C = C(n + floor(i/2), i) over 0 <= i <= 2n, or
    C(-n + floor((i-1)/2), i) over 0 <= i < -2n.  Each summand multiplies
    the running power of the base once more, all in naive dict arithmetic.
    """
    sign, prefactor = (1, 4 * n) if n >= 0 else (-1, -4 * n - 2)
    base = {(0, 2, 0): sign, (0, -2, 0): sign, (0, 0, 1): sign, (0, 0, 0): -sign}
    if n >= 0:
        indices = [(i, math.comb(n + i // 2, i)) for i in range(2 * n + 1)]
    else:
        indices = [(i, math.comb(-n + (i - 1) // 2, i)) for i in range(-2 * n)]
    total: dict = {}
    power = {(0, 0, 0): 1}
    for i, c in indices:
        if i:
            power = naive_mul(power, base)
        x_part = naive_pow({(0, 0, 1): -1}, (1 + i) // 2)
        total = naive_add(total, naive_mul(naive_mul(power, x_part), {(0, prefactor, 0): c}))
    return total


def three_term_schoolbook(q: dict, p0: dict, p1: dict, k: int) -> dict:
    """p_k of p_(j+1) = q * p_j - M^8 * p_(j-1) from p_0 = p0 and p_1 = p1, in naive dict arithmetic.

    Each step takes the whole product q * p_j term by term, so nothing of
    the row-by-row form of c2n3.rmpoly's recursion is shared.
    """
    if k == 0:
        return p0
    prev, cur = p0, p1
    for _ in range(k - 1):
        prev, cur = cur, naive_add(naive_mul(q, cur), naive_neg(naive_mul({(0, 8, 0): 1}, prev)))
    return cur


# -- numeric layer ------------------------------------------------------------


def at_meridian(poly, M0) -> tuple[list, list]:
    """Set M to the number M0 in poly: coefficients and term-magnitude sums per power of L or x.

    poly may use M and one other variable, L or x, with nonnegative
    exponents.  Entry k of the first list is sum c * M0**e and entry k of
    the second is sum |c| * |M0|**e, both over the terms c * M^e * var^k;
    the lists are empty for the zero polynomial.  M0 may be a complex or an
    mpmath mpc, which keeps its working precision throughout.
    """
    terms = poly.terms()
    axis = 0 if any(m[0] for m, _ in terms) else 2
    if axis == 0 and any(m[2] for m, _ in terms):
        raise ValueError("at_meridian needs a polynomial in M and one of L, x")
    if any(m[axis] < 0 for m, _ in terms):
        raise ValueError(f"cannot specialize negative exponents of {VARIABLES[axis]}")
    if M0 == 0 and any(m[1] < 0 for m, _ in terms):
        raise ZeroDivisionError("M = 0 but M occurs with negative exponents")
    size = max((m[axis] for m, _ in terms), default=-1) + 1
    zero = 0 * M0
    values = [zero] * size
    bounds = [abs(zero)] * size
    modulus = abs(M0)
    powers = {}
    for m, c in terms:
        power = powers.get(m[1])
        if power is None:
            power = powers[m[1]] = (M0 ** m[1], modulus ** m[1])
        values[m[axis]] += c * power[0]
        bounds[m[axis]] += abs(c) * power[1]
    return values, bounds


def one_lane_rho(M0, x0) -> tuple[np.ndarray, np.ndarray]:
    """The generator images s, t at the one point (M0, x0), as 2x2 arrays from c2n3.repcheck's lanes."""
    s_mat, t_mat = _rho_lanes(np.array([complex(M0)]), np.array([complex(x0)]))
    return np.array(s_mat).reshape(2, 2), np.array(t_mat).reshape(2, 2)


def one_lane_word(word, s_mat, t_mat) -> tuple[np.ndarray, float]:
    """A word's image and peak entry-magnitude sum by c2n3.repcheck's lane product, on one lane."""
    lanes = (tuple(np.asarray(m, dtype=complex).reshape(4, 1)) for m in (s_mat, t_mat))
    entries, cond = _product(word, _steps(*lanes))
    return np.array(entries).reshape(2, 2), float(cond[0])


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


def scalar_longitude(n, M0, x0) -> complex:
    """-M0^(-4n-2) (M0^-2 + x0) / (M0^2 + x0) in Python's complex arithmetic.

    Raises SingularPointError where M0^2 + x0 = 0 there, and OverflowError
    where Python's ** leaves the double range.
    """
    denom = M0 * M0 + x0
    if denom == 0:
        raise SingularPointError(_SINGULAR)
    return -(M0 ** (-4 * n - 2)) * (M0**-2 + x0) / denom


def scalar_report(n, M0, x0, tol, words, apoly_lists) -> VerificationReport:
    """The check at (M0, x0) in Python's scalar arithmetic.

    words are the two words there, apoly_lists A_2n's at_meridian(M0).
    """
    (a, b, c, d), cond_rel, lon_a, lon_c, cond_lon = words
    relation_residual = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
    L0 = scalar_longitude(n, M0, x0)
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
                lists = lists or at_meridian(poly, M0)
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
