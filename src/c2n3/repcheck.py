"""Numeric verification of the SL(2, C) representations behind the A-polynomials.

For a sampled meridian eigenvalue M0 and a root x0 of the Riley-Mednykh
polynomial, the two-generator representation must satisfy the knot-group
relation, the longitude word must evaluate upper triangular with the
predicted eigenvalue, and the A-polynomial must vanish at the induced
(L, M) point.  Word products carry a conditioning estimate (the peak
entry-magnitude sum along the accumulated product) so tolerances scale
with the numeric difficulty of large |n|.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from dataclasses import astuple, dataclass
from typing import Iterable, Sequence

import mpmath as mp
import numpy as np

from .apoly import APolyResult, apoly_theorem
from .rmpoly import rm_closed


class SingularPointError(ValueError):
    """The longitude eigenvalue formula was evaluated at its pole M0^2 + x0 = 0."""


class DegreeCollapseError(ArithmeticError):
    """Specializing M collapsed the x-degree: the leading coefficient vanished."""


class RepeatedRootError(ArithmeticError):
    """Two polished roots of P_2n at one meridian came out equal, so another root went unchecked."""


# A word in the generators s and t: a tuple of (generator, exponent) letters.
Letters = tuple[tuple[str, int], ...]

_TWIST_BLOCK = (("t", 1), ("s", -1), ("t", 1), ("s", 1), ("t", -1), ("s", 1))


def _reduced(letters: Iterable[tuple[str, int]]) -> Letters:
    """Free reduction: merge adjacent letters of one generator and drop zero exponents."""
    stack: list[tuple[str, int]] = []
    for gen, exp in letters:
        if stack and stack[-1][0] == gen:
            exp += stack.pop()[1]
        if exp:
            stack.append((gen, exp))
    return tuple(stack)


def build_w(n: int) -> Letters:
    """The conjugating word (t s^-1 t s t^-1 s)^n; formal inverse blocks for n < 0."""
    block = _TWIST_BLOCK if n >= 0 else tuple((g, -e) for g, e in reversed(_TWIST_BLOCK))
    return _reduced(block * abs(n))


def build_longitude(n: int) -> Letters:
    """The null-homologous longitude w * reverse(w) * s^(-4n); empty for n = 0."""
    w = build_w(n)
    return _reduced(w + w[::-1] + (("s", -4 * n),))


def relator_word(n: int) -> Letters:
    """The group relation s w t^-1 w^-1, trivial exactly on representation points."""
    return _reduced((("s", 1),) + build_w(n) + (("t", -1),) + build_w(-n))


def rho_matrices(M0: complex, x0: complex) -> tuple[np.ndarray, np.ndarray]:
    """Generator images: s -> [[M0, 1], [0, 1/M0]], t -> [[M0, 0], [2 - M0^2 - M0^-2 - x0, 1/M0]]."""
    M0 = complex(M0)
    x0 = complex(x0)
    if M0 == 0:
        raise ValueError("the meridian eigenvalue must be nonzero")
    minv = 1 / M0
    s_mat = np.array([[M0, 1.0], [0.0, minv]], dtype=complex)
    t_mat = np.array([[M0, 0.0], [2 - M0 * M0 - minv * minv - x0, minv]], dtype=complex)
    return s_mat, t_mat


def _inv2(mat: np.ndarray) -> np.ndarray:
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if det == 0:
        raise ValueError("singular matrix")
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]], dtype=complex) / det


def eval_word(word: Letters, s_mat: np.ndarray, t_mat: np.ndarray) -> np.ndarray:
    """Image of a word under the homomorphism sending s, t to the given matrices."""
    return _eval_word_tracked(word, s_mat, t_mat)[0]


def _eval_word_tracked(word: Letters, s_mat, t_mat) -> tuple[np.ndarray, float]:
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


def roots_of_rm(n: int, M0: complex) -> list[complex]:
    """All roots of x -> P_2n(x, M0), by companion-matrix eigenvalues plus Newton polishing.

    P_2n is specialized at M0 once, to 40 decimal digits.  The eigenvalue
    step runs on those coefficients rounded to doubles; each root is then
    polished by Newton iteration on the 40-digit coefficients, so the
    returned doubles are accurate to full precision even where the
    specialized polynomial is badly scaled.  Roots come sorted by (real,
    imaginary).  Raises DegreeCollapseError when the leading coefficient
    vanishes at M0 rather than silently solving a lower-degree polynomial,
    and RepeatedRootError when two starting points polish to one root, so
    that no root goes unchecked without notice.
    """
    poly = rm_closed(n).poly
    with mp.workdps(40):
        exact, _ = poly.at_meridian(mp.mpc(complex(M0)))
        exact.reverse()
        coeffs = np.array([complex(c) for c in exact])
        scale = float(np.abs(coeffs).max())
        if scale == 0.0:
            raise ValueError("P specialized to the zero polynomial")
        if len(coeffs) == 1:
            return []
        if abs(coeffs[0]) <= 1e-12 * scale:
            raise DegreeCollapseError(f"leading x-coefficient vanishes at M0 = {M0!r}")
        polished = [_polish_root(z, exact) for z in np.roots(coeffs)]
    for a, b in itertools.combinations(polished, 2):
        if abs(a - b) < 1e-12 * max(1.0, abs(a)):
            raise RepeatedRootError(
                f"two roots of P_2n for n = {n} polished to the same value {a!r} at M0 = {M0!r}"
            )
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished


def _polish_root(z, exact_coeffs) -> complex:
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


def longitude_eigen(n: int, M0: complex, x0: complex) -> complex:
    """Predicted longitude eigenvalue  -M0^(-4n-2) * (M0^-2 + x0) / (M0^2 + x0)."""
    M0 = complex(M0)
    x0 = complex(x0)
    if M0 == 0:
        raise ValueError("the meridian eigenvalue must be nonzero")
    denom = M0 * M0 + x0
    if denom == 0:
        raise SingularPointError("longitude eigenvalue undefined: M0^2 + x0 = 0")
    return -(M0 ** (-4 * n - 2)) * (M0**-2 + x0) / denom


@dataclass(frozen=True)
class VerificationReport:
    """Residuals for one (n, meridian sample, root) triple.

    The two word-evaluation residuals come with conditioning estimates;
    passed compares each residual against tol scaled by its conditioning
    (the A-polynomial residual is already scale-normalized).
    """

    n: int
    M_sample: complex
    root: complex
    relation_residual: float
    longitude_mismatch: float
    offdiag_residual: float
    apoly_residual: float
    cond_relator: float
    cond_longitude: float
    passed: bool

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "M_sample": [self.M_sample.real, self.M_sample.imag],
            "root": [self.root.real, self.root.imag],
            "relation_residual": self.relation_residual,
            "longitude_mismatch": self.longitude_mismatch,
            "offdiag_residual": self.offdiag_residual,
            "apoly_residual": self.apoly_residual,
            "cond_relator": self.cond_relator,
            "cond_longitude": self.cond_longitude,
            "passed": self.passed,
        }


def _horner(coeffs: Sequence, z):
    """sum_k coeffs[k] * z**k by Horner's rule."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def verify_point(n: int, M0: complex, x0: complex, tol: float, apoly=None) -> VerificationReport:
    """Check the relation, longitude, and A-polynomial residuals at one point.

    x0 should be a root of P_2n(., M0).  n = 0 is rejected as degenerate:
    the conjugating word is empty and the constant P_0 has no roots.  A
    precomputed A-polynomial may be passed to avoid recomputation in grids.
    """
    if n == 0:
        raise ValueError("n = 0 is degenerate: empty conjugating word and constant P_0")
    if tol <= 0:
        raise ValueError("tol must be positive")
    M0 = complex(M0)
    x0 = complex(x0)
    s_mat, t_mat = rho_matrices(M0, x0)
    rel_mat, cond_rel = _eval_word_tracked(relator_word(n), s_mat, t_mat)
    relation_residual = float(np.abs(rel_mat - np.eye(2)).max())
    lon_mat, cond_lon = _eval_word_tracked(build_longitude(n), s_mat, t_mat)
    L0 = longitude_eigen(n, M0, x0)
    longitude_mismatch = float(abs(lon_mat[0, 0] - L0))
    offdiag_residual = float(abs(lon_mat[1, 0]))
    if apoly is None:
        apoly = apoly_theorem(n)
    poly = apoly.poly if isinstance(apoly, APolyResult) else apoly
    values, bounds = poly.at_meridian(M0)
    apoly_residual = float(abs(_horner(values, L0)) / _horner(bounds, abs(L0)))
    passed = (
        relation_residual <= tol * cond_rel
        and longitude_mismatch <= tol * cond_lon
        and offdiag_residual <= tol * cond_lon
        and apoly_residual <= tol
    )
    return VerificationReport(
        n=n,
        M_sample=M0,
        root=x0,
        relation_residual=relation_residual,
        longitude_mismatch=longitude_mismatch,
        offdiag_residual=offdiag_residual,
        apoly_residual=apoly_residual,
        cond_relator=cond_rel,
        cond_longitude=cond_lon,
        passed=passed,
    )


_EXCLUDED_ROOT_ORDERS = range(1, 13)


def sample_unit_modulus(count: int, seed: int, margin: float = 0.05) -> list[complex]:
    """Seeded unit-circle meridian samples kept margin away from low-order roots of unity."""
    if count < 1:
        raise ValueError("count must be at least 1")
    special = sorted(
        {2 * math.pi * k / q for q in _EXCLUDED_ROOT_ORDERS for k in range(q + 1)}
    )
    rng = random.Random(seed)
    samples: list[complex] = []
    while len(samples) < count:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if any(abs(theta - a) < margin for a in special):
            continue
        samples.append(cmath.exp(1j * theta))
    return samples


@dataclass(frozen=True)
class BadPoint:
    """A meridian sample, or one root at it, that could not be verified, with the reason."""

    n: int
    M_sample: complex
    reason: str
    passed = False

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "M_sample": [self.M_sample.real, self.M_sample.imag],
            "status": "error",
            "reason": self.reason,
        }


def verify_family(
    n: int, M_samples: Sequence[complex], tol: float
) -> list[VerificationReport | BadPoint]:
    """verify_point over every root of P_2n at every provided meridian sample.

    A sample whose roots cannot be trusted (DegreeCollapseError,
    RepeatedRootError) gives one BadPoint in place of its reports, and a
    root where the longitude eigenvalue is undefined (SingularPointError)
    or whose report holds a non-finite number gives one in place of its
    report, so every report serializes as strict JSON.
    """
    apoly = apoly_theorem(n)
    reports: list[VerificationReport | BadPoint] = []
    for M0 in M_samples:
        try:
            roots = roots_of_rm(n, M0)
        except (DegreeCollapseError, RepeatedRootError) as exc:
            reports.append(BadPoint(n, complex(M0), str(exc)))
            continue
        for x0 in roots:
            try:
                report = verify_point(n, M0, x0, tol, apoly=apoly)
            except SingularPointError as exc:
                reports.append(BadPoint(n, complex(M0), f"{exc} at x0 = {x0!r}"))
                continue
            if not all(map(cmath.isfinite, astuple(report))):
                reason = f"non-finite value in the report at x0 = {report.root!r}"
                report = BadPoint(n, complex(M0), reason)
            reports.append(report)
    return reports
