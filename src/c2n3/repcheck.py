"""Numeric verification of the SL(2, C) representations behind the A-polynomials.

For a sampled meridian eigenvalue M0 and a root x0 of the Riley-Mednykh
polynomial, the two-generator representation must satisfy the knot-group
relation, the longitude word must evaluate upper triangular with the
predicted eigenvalue, and the A-polynomial must vanish at the induced
(L, M) point.  Word products carry a conditioning estimate (the peak
entry-magnitude sum along the accumulated product) so tolerances scale
with the numeric difficulty of large |n|.  verify_family builds what
depends on n alone (P_2n, A_2n, the two words) once per family, and
specializes A_2n once per meridian.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Sequence

import mpmath as mp
import numpy as np

from .apoly import APolyResult, apoly_theorem
from .laurent import LaurentPoly
from .rmpoly import rm_closed


class SingularPointError(ValueError):
    """The longitude eigenvalue formula was evaluated at its pole M0^2 + x0 = 0."""


class DegreeCollapseError(ArithmeticError):
    """Specializing M collapsed the x-degree: the leading coefficient vanished."""


class RepeatedRootError(ArithmeticError):
    """Two polished roots of P_2n at one meridian came out equal, so another root went unchecked."""


class NonConvergenceError(ArithmeticError):
    """Newton polishing of a root of P_2n met a zero slope, or no stopping rule within 50 steps."""


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


# A 2x2 matrix as its entries (a, b, c, d) in row order, in plain complex numbers.
Entries = tuple[complex, complex, complex, complex]


def _entries(mat) -> Entries:
    a, b, c, d = (complex(v) for v in np.asarray(mat, dtype=complex).ravel())
    return a, b, c, d


def _inv2(mat: Entries) -> Entries:
    a, b, c, d = mat
    det = a * d - b * c
    if det == 0:
        raise ValueError("singular matrix")
    return d / det, -b / det, -c / det, a / det


def eval_word(word: Letters, s_mat: np.ndarray, t_mat: np.ndarray) -> np.ndarray:
    """Image of a word under the homomorphism sending s, t to the given matrices."""
    return _eval_word_tracked(word, s_mat, t_mat)[0]


def _eval_word_tracked(word: Letters, s_mat, t_mat) -> tuple[np.ndarray, float]:
    (a, b, c, d), cond = _product(word, _steps(s_mat, t_mat))
    return np.array([[a, b], [c, d]]), cond


def _steps(s_mat, t_mat) -> dict[tuple[str, int], Entries]:
    """The generator images and their inverses, keyed by (generator, sign of exponent)."""
    s_step, t_step = _entries(s_mat), _entries(t_mat)
    return {("s", 1): s_step, ("s", -1): _inv2(s_step), ("t", 1): t_step, ("t", -1): _inv2(t_step)}


def _product(word: Letters, steps) -> tuple[Entries, float]:
    """The product over the letters of a word, and the peak entry-magnitude sum along it."""
    a, b, c, d = 1 + 0j, 0j, 0j, 1 + 0j
    cond = 2.0
    for gen, exp in word:
        p, q, r, u = steps[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            a, b, c, d = a * p + b * r, a * q + b * u, c * p + d * r, c * q + d * u
            size = abs(a) + abs(b) + abs(c) + abs(d)
            if size > cond:
                cond = size
    return (a, b, c, d), cond


class _Family:
    """What depends on n alone in a check.

    The two words always; P_2n, its leading x-coefficient and A_2n where given.
    """

    def __init__(self, n: int, rm_poly: LaurentPoly | None = None,
                 apoly: LaurentPoly | None = None):
        self.n = n
        self.rm_poly = rm_poly
        self.rm_lead = None if rm_poly is None else _leading_x_coeff(rm_poly)
        self.apoly = apoly
        self.relator = relator_word(n)
        self.longitude = build_longitude(n)
        self._meridian = None
        self._apoly_lists = None

    def apoly_at(self, M0: complex) -> tuple[list, list]:
        """A_2n specialized at M0, computed again only when M0 differs from the last one asked."""
        if M0 != self._meridian:
            self._meridian, self._apoly_lists = M0, self.apoly.at_meridian(M0)
        return self._apoly_lists


def _leading_x_coeff(poly: LaurentPoly) -> LaurentPoly:
    return poly.coeff("x", poly.degree("x"))


# The family that verify_family is checking in this context, if any.
_FAMILY: ContextVar[_Family | None] = ContextVar("c2n3_repcheck_family", default=None)


def _family(n: int) -> _Family | None:
    family = _FAMILY.get()
    return family if family is not None and family.n == n else None


def roots_of_rm(n: int, M0: complex) -> list[complex]:
    """All roots of x -> P_2n(x, M0), by companion-matrix eigenvalues plus Newton polishing.

    P_2n is specialized at M0 once, to 40 decimal digits; inside
    verify_family it is built once for the whole family.  The eigenvalue
    step runs on those coefficients rounded to doubles.  Each root is then
    polished by Newton's method on the 40-digit coefficients, held as
    pairs of integers (real and imaginary parts) scaled by 2^160, until a
    step is at most 2^-70 |x|, so the returned doubles are accurate to full
    precision even where the specialized polynomial is badly scaled.  Roots
    come sorted by (real, imaginary).  Raises DegreeCollapseError when the
    exact leading x-coefficient, a polynomial in M, vanishes at M0 (relative
    to its own term magnitudes) rather than silently solving a lower-degree
    polynomial; the other coefficients play no part, since for P_2n that
    coefficient is a monomial that only M0 = 0 can annihilate.  Raises
    NonConvergenceError (naming n, M0 and the start) when a polishing meets
    a zero slope or takes 50 steps without meeting the stopping rule, and
    RepeatedRootError when two starting points polish to one root, so that
    no root goes unchecked without notice.
    """
    family = _family(n)
    if family is not None:
        poly, lead = family.rm_poly, family.rm_lead
    else:
        poly = rm_closed(n).poly
        lead = _leading_x_coeff(poly)
    with mp.workdps(40):
        exact, _ = poly.at_meridian(mp.mpc(complex(M0)))
        exact.reverse()
        coeffs = np.array([complex(c) for c in exact])
        scale = float(np.abs(coeffs).max())
        if scale == 0.0:
            raise ValueError("P specialized to the zero polynomial")
        if len(coeffs) == 1:
            return []
        (value,), (size,) = lead.at_meridian(complex(M0))
        if abs(value) <= 1e-12 * size:
            raise DegreeCollapseError(f"leading x-coefficient vanishes at M0 = {M0!r}")
        fixed = _fixed_point(exact)
    polished = []
    for z in np.roots(coeffs):
        try:
            polished.append(_polish_root(complex(z), fixed))
        except NonConvergenceError as exc:
            raise NonConvergenceError(f"{exc}, for P_2n with n = {n} at M0 = {M0!r}") from None
    for a, b in itertools.combinations(polished, 2):
        if abs(a - b) < 1e-12 * max(1.0, abs(a)):
            raise RepeatedRootError(
                f"two roots of P_2n for n = {n} polished to the same value {a!r} at M0 = {M0!r}"
            )
    polished.sort(key=lambda z: (z.real, z.imag))
    return polished


# Newton polishing runs on integers scaled by 2^_FRACTION_BITS; 40 digits need 133 bits.
_FRACTION_BITS = 160
_NEWTON_STEPS = 50
# A step of at most 2^-_STOP_BITS |x| ends the polishing.
_STOP_BITS = 70


def _fixed_point(coeffs) -> list[tuple[int, int]]:
    """mpmath complex coefficients as (real, imaginary) integers scaled by 2^_FRACTION_BITS."""
    return [(int(mp.ldexp(c.real, _FRACTION_BITS)), int(mp.ldexp(c.imag, _FRACTION_BITS)))
            for c in coeffs]


def _polish_root(z: complex, coeffs: Sequence[tuple[int, int]]) -> complex:
    """Newton's method from z on fixed-point Gaussian-integer coefficients, highest power first.

    P and P' come from one Horner pass; the step P / P' is taken as
    P * conj(P') / |P'|^2 by integer division.  Raises NonConvergenceError,
    naming the start, on a zero slope or when no step within _NEWTON_STEPS
    falls to 2^-_STOP_BITS |x|.
    """
    bits = _FRACTION_BITS
    xr, xi = int(z.real * 2.0**bits), int(z.imag * 2.0**bits)
    for _ in range(_NEWTON_STEPS):
        pr, pi = coeffs[0]
        dr = di = 0
        for cr, ci in coeffs[1:]:
            dr, di = ((dr * xr - di * xi) >> bits) + pr, ((dr * xi + di * xr) >> bits) + pi
            pr, pi = ((pr * xr - pi * xi) >> bits) + cr, ((pr * xi + pi * xr) >> bits) + ci
        slope = dr * dr + di * di
        if not slope:
            raise NonConvergenceError(f"Newton polishing from x = {z!r} met a zero slope")
        sr = ((pr * dr + pi * di) << bits) // slope
        si = ((pi * dr - pr * di) << bits) // slope
        xr -= sr
        xi -= si
        if (sr * sr + si * si) << (2 * _STOP_BITS) <= xr * xr + xi * xi:
            return complex(xr / (1 << bits), xi / (1 << bits))
    raise NonConvergenceError(
        f"Newton polishing from x = {z!r} met no stopping rule in {_NEWTON_STEPS} steps"
    )


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
    family = _family(n) or _Family(n)
    steps = _steps(*rho_matrices(M0, x0))
    (a, b, c, d), cond_rel = _product(family.relator, steps)
    relation_residual = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
    (a, _, c, _), cond_lon = _product(family.longitude, steps)
    L0 = longitude_eigen(n, M0, x0)
    longitude_mismatch = abs(a - L0)
    offdiag_residual = abs(c)
    if apoly is None:
        apoly = family.apoly if family.apoly is not None else apoly_theorem(n)
    poly = apoly.poly if isinstance(apoly, APolyResult) else apoly
    values, bounds = family.apoly_at(M0) if poly is family.apoly else poly.at_meridian(M0)
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

    P_2n, A_2n and the two words are built once for the whole family, and
    A_2n is specialized once per meridian.  A sample whose roots cannot be
    trusted (DegreeCollapseError, NonConvergenceError, RepeatedRootError)
    gives one BadPoint in place of its reports, and a root where the
    longitude eigenvalue is undefined (SingularPointError) or whose report
    holds a non-finite number gives one in place of its report, so every
    report serializes as strict JSON.
    """
    apoly = apoly_theorem(n)
    token = _FAMILY.set(_Family(n, rm_closed(n).poly, apoly.poly))
    reports: list[VerificationReport | BadPoint] = []
    try:
        for M0 in M_samples:
            try:
                roots = roots_of_rm(n, M0)
            except (DegreeCollapseError, NonConvergenceError, RepeatedRootError) as exc:
                reports.append(BadPoint(n, complex(M0), str(exc)))
                continue
            for x0 in roots:
                try:
                    report = verify_point(n, M0, x0, tol, apoly=apoly)
                except SingularPointError as exc:
                    reports.append(BadPoint(n, complex(M0), f"{exc} at x0 = {x0!r}"))
                    continue
                if not all(map(cmath.isfinite, vars(report).values())):
                    reason = f"non-finite value in the report at x0 = {report.root!r}"
                    report = BadPoint(n, complex(M0), reason)
                reports.append(report)
    finally:
        _FAMILY.reset(token)
    return reports
