"""Numeric verification of the SL(2, C) representations behind the A-polynomials.

For a sampled meridian eigenvalue M0 and a root x0 of the Riley-Mednykh
polynomial, the two-generator representation must satisfy the knot-group
relation, the longitude word must evaluate upper triangular with the
predicted eigenvalue, and the A-polynomial must vanish at the induced
(L, M) point.  Word products carry a conditioning estimate (the peak
entry-magnitude sum along the accumulated product) so tolerances scale
with the numeric difficulty of large |n|.  verify_family builds what
depends on n alone (P_2n, A_2n, the two words) once per family, evaluates
the words once over all of its points with one numpy lane per point, and
specializes A_2n once per meridian.  The numeric layer needs numpy alone:
P_2n is specialized from its exact integer coefficients straight into
fixed point.
"""

from __future__ import annotations

import cmath
import itertools
import math
import random
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterable, Sequence

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


def _finite_meridian(M0) -> complex:
    M0 = complex(M0)
    if not cmath.isfinite(M0):
        raise ValueError(f"the meridian eigenvalue must be finite, got M0 = {M0!r}")
    return M0


def rho_matrices(M0: complex, x0: complex) -> tuple[np.ndarray, np.ndarray]:
    """Generator images: s -> [[M0, 1], [0, 1/M0]], t -> [[M0, 0], [2 - M0^2 - M0^-2 - x0, 1/M0]]."""
    s_mat, t_mat = _rho_lanes(np.array([_finite_meridian(M0)]), np.array([complex(x0)]))
    return np.array(s_mat).reshape(2, 2), np.array(t_mat).reshape(2, 2)


# A 2x2 matrix as its entries (a, b, c, d) in row order, each an array with
# one lane per point, so that one pass over a word serves many points.
Lanes = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _rho_lanes(M0: np.ndarray, x0: np.ndarray) -> tuple[Lanes, Lanes]:
    """The generator images of rho_matrices at arrays of meridians and roots."""
    if not M0.all():
        raise ValueError("the meridian eigenvalue must be nonzero")
    minv = 1 / M0
    one, zero = np.ones_like(M0), np.zeros_like(M0)
    return (M0, one, zero, minv), (M0, zero, 2 - M0 * M0 - minv * minv - x0, minv)


def _inv2(mat: Lanes) -> Lanes:
    a, b, c, d = mat
    with np.errstate(invalid="ignore"):
        det = a * d - b * c
        if not det.all():
            raise ValueError("singular matrix")
        return d / det, -b / det, -c / det, a / det


def eval_word(word: Letters, s_mat: np.ndarray, t_mat: np.ndarray) -> np.ndarray:
    """Image of a word under the homomorphism sending s, t to the given matrices."""
    return _eval_word_tracked(word, s_mat, t_mat)[0]


def _eval_word_tracked(word: Letters, s_mat, t_mat) -> tuple[np.ndarray, float]:
    lanes = (tuple(np.asarray(m, dtype=complex).reshape(4, 1)) for m in (s_mat, t_mat))
    entries, cond = _product(word, _steps(*lanes))
    return np.array(entries).reshape(2, 2), float(cond[0])


def _steps(s_mat: Lanes, t_mat: Lanes) -> dict[tuple[str, int], Lanes]:
    """The generator images and their inverses, keyed by (generator, sign of exponent)."""
    return {("s", 1): s_mat, ("s", -1): _inv2(s_mat), ("t", 1): t_mat, ("t", -1): _inv2(t_mat)}


def _product(word: Letters, steps) -> tuple[Lanes, np.ndarray]:
    """The product over the letters of a word, and the peak entry-magnitude sum along it, per lane.

    The peak starts at 2 (the identity) and is taken after every letter
    step; a NaN entry leaves it as it was.
    """
    lanes = steps[("s", 1)][0].shape
    a, b, c, d = (np.full(lanes, v, dtype=complex) for v in (1, 0, 0, 1))
    cond = np.full(lanes, 2.0)
    with np.errstate(over="ignore", invalid="ignore"):
        for gen, exp in word:
            p, q, r, u = steps[(gen, 1 if exp > 0 else -1)]
            for _ in range(abs(exp)):
                a, b, c, d = a * p + b * r, a * q + b * u, c * p + d * r, c * q + d * u
                np.fmax(cond, abs(a) + abs(b) + abs(c) + abs(d), out=cond)
    return (a, b, c, d), cond


# What verify_point reads of the two words at one point (M0, x0): the
# relator's four entries and peak, then the longitude's a and c and peak.
Words = tuple[tuple[complex, complex, complex, complex], float, complex, complex, float]


def _word_lanes(relator: Letters, longitude: Letters,
                points: Sequence[tuple[complex, complex]]) -> list[Words]:
    """The relator and the longitude at every (M0, x0) of points, in one pass over each word."""
    if not points:
        return []
    M0, x0 = (np.array(v, dtype=complex) for v in zip(*points))
    steps = _steps(*_rho_lanes(M0, x0))
    rel, cond_rel = _product(relator, steps)
    (a, _, c, _), cond_lon = _product(longitude, steps)
    return list(zip(zip(*(v.tolist() for v in rel)), cond_rel.tolist(),
                    a.tolist(), c.tolist(), cond_lon.tolist()))


class _Family:
    """What depends on n alone in a check.

    The two words always; P_2n by powers of x and A_2n where given; the
    two words at the points given to evaluate_words.
    """

    def __init__(self, n: int, rm_poly: LaurentPoly | None = None,
                 apoly: LaurentPoly | None = None):
        self.n = n
        self.rm_columns = None if rm_poly is None else _columns(rm_poly)
        self.apoly = apoly
        self.relator = relator_word(n)
        self.longitude = build_longitude(n)
        self._words: dict[tuple[complex, complex], Words] = {}
        self._meridian = None
        self._apoly_lists = None

    def evaluate_words(self, points: Sequence[tuple[complex, complex]]) -> None:
        """Both words at every point, in one lane pass, kept for words_at."""
        self._words = dict(zip(points, _word_lanes(self.relator, self.longitude, points)))

    def words_at(self, M0: complex, x0: complex) -> Words:
        """Both words at (M0, x0): the kept lane, or a pass over this one point."""
        found = self._words.get((M0, x0))
        if found is None:
            (found,) = _word_lanes(self.relator, self.longitude, [(M0, x0)])
        return found

    def apoly_at(self, M0: complex) -> tuple[list, list]:
        """A_2n specialized at M0, computed again only when M0 differs from the last one asked."""
        if M0 != self._meridian:
            self._meridian, self._apoly_lists = M0, self.apoly.at_meridian(M0)
        return self._apoly_lists


def _columns(poly: LaurentPoly) -> list[list[tuple[int, int]]]:
    """A polynomial in M and x as its (M-exponent, coefficient) pairs per power of x, lowest first."""
    columns: list[list[tuple[int, int]]] = [[] for _ in range(poly.degree("x") + 1)]
    for (_, e, k), c in poly.terms():
        columns[k].append((e, c))
    return columns


# The family that verify_family is checking in this context, if any.
_FAMILY: ContextVar[_Family | None] = ContextVar("c2n3_repcheck_family", default=None)


def _family(n: int) -> _Family | None:
    family = _FAMILY.get()
    return family if family is not None and family.n == n else None


def roots_of_rm(n: int, M0: complex) -> list[complex]:
    """All roots of x -> P_2n(x, M0), by companion-matrix eigenvalues plus Newton polishing.

    The exact integer coefficients of P_2n are specialized at M0 once,
    straight into fixed point (see _specialized); inside verify_family P_2n
    is built once for the whole family.  The eigenvalue step runs on those
    values correctly rounded to doubles.  Each root is then polished by
    Newton's method on the same values cut to 2^-160, held as pairs of
    integers (real and imaginary parts), until a step is at most 2^-70 |x|,
    so the returned doubles are accurate to full precision even where the
    specialized polynomial is badly scaled.  Roots come sorted by (real,
    imaginary).  Raises ValueError, naming M0, when M0 is not finite or
    the specialized coefficients do not fit in doubles.  Raises
    DegreeCollapseError when the leading double handed to the eigenvalue
    step is zero, the case where np.roots would silently solve a
    lower-degree polynomial; for P_2n that coefficient is the monomial
    +-M^(4n) or +-M^(-4n-2) at M0, so only M0 = 0, or underflow, makes it
    vanish.  Raises NonConvergenceError (naming n, M0 and the start) when
    a polishing meets a zero slope or takes 50 steps without meeting the
    stopping rule, and RepeatedRootError when two starting points polish
    to one root, so that no root goes unchecked without notice.
    """
    M0 = _finite_meridian(M0)
    family = _family(n)
    columns = family.rm_columns if family is not None else _columns(rm_closed(n).poly)
    if len(columns) == 1:
        return []
    values, bits = _specialized(columns, M0)
    one = 1 << bits
    try:
        coeffs = np.array([complex(re / one, im / one) for re, im in reversed(values)])
    except OverflowError:
        raise ValueError(f"P_2n at M0 = {M0!r} does not fit in double precision") from None
    if coeffs[0] == 0:
        raise DegreeCollapseError(f"leading x-coefficient vanishes at M0 = {M0!r}")
    cut = bits - _FRACTION_BITS
    fixed = [(re >> cut, im >> cut) for re, im in reversed(values)]
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


def _specialized(columns, M0: complex) -> tuple[list[tuple[int, int]], int]:
    """Each column's sum c * M0^e, as (real, imaginary) integers scaled by 2^bits, and bits.

    The powers of M0 (an exact double) are built by fixed-point Gaussian
    products, each cut toward minus infinity.  Past _FRACTION_BITS, bits
    holds guard bits for the shrinking of M0^e when |M0| < 1 and for the
    cuts along the powers, so every value is within
    2^-_FRACTION_BITS * sum |c| |M0|^e of the exact one.
    """
    top = max(e for column in columns for e, _ in column)
    modulus = abs(M0)
    shrink = math.ceil(-top * math.log2(modulus)) if 0 < modulus < 1 else 0
    bits = _FRACTION_BITS + shrink + top.bit_length() + 4
    mr, mi = (_scaled(v, bits) for v in (M0.real, M0.imag))
    powers = [(1 << bits, 0)]
    for _ in range(top):
        pr, pi = powers[-1]
        powers.append(((pr * mr - pi * mi) >> bits, (pr * mi + pi * mr) >> bits))
    values = []
    for column in columns:
        re = im = 0
        for e, c in column:
            pr, pi = powers[e]
            re += c * pr
            im += c * pi
        values.append((re, im))
    return values, bits


def _scaled(v: float, bits: int) -> int:
    """floor(v * 2^bits), exactly."""
    num, den = v.as_integer_ratio()
    return (num << bits) // den


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


def _check_point_args(n: int, tol: float) -> None:
    if n == 0:
        raise ValueError("n = 0 is degenerate: empty conjugating word and constant P_0")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


def verify_point(n: int, M0: complex, x0: complex, tol: float, apoly=None) -> VerificationReport:
    """Check the relation, longitude, and A-polynomial residuals at one point.

    x0 should be a root of P_2n(., M0).  n = 0 is rejected as degenerate:
    the conjugating word is empty and the constant P_0 has no roots.  So is
    a tol that is not finite and positive: an infinite one would pass any
    point, and NaN would fail every one without saying why.  A precomputed
    A-polynomial may be passed to avoid recomputation in grids.
    """
    _check_point_args(n, tol)
    M0 = complex(M0)
    x0 = complex(x0)
    family = _family(n) or _Family(n)
    (a, b, c, d), cond_rel, lon_a, lon_c, cond_lon = family.words_at(M0, x0)
    relation_residual = max(abs(a - 1), abs(b), abs(c), abs(d - 1))
    L0 = longitude_eigen(n, M0, x0)
    longitude_mismatch = abs(lon_a - L0)
    offdiag_residual = abs(lon_c)
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
    # an angle can keep margin away from every special one only below half the widest gap
    reach = max(b - a for a, b in zip(special, special[1:])) / 2
    if not 0 <= margin < reach:
        raise ValueError(f"margin must be in [0, {reach!r}), got {margin!r}")
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

    P_2n, A_2n and the two words are built once for the whole family.  The
    roots come first for every sample; then both words are evaluated once
    over all (sample, root) lanes, and each verify_point reads its lane;
    A_2n is specialized once per meridian.  A sample whose roots cannot be
    trusted (DegreeCollapseError, NonConvergenceError, RepeatedRootError)
    gives one BadPoint in place of its reports, and a root where the
    longitude eigenvalue is undefined (SingularPointError) or whose report
    holds a non-finite number gives one in place of its report, so every
    report serializes as strict JSON.  n = 0, a tol that is not finite and
    positive, and an empty sample list (whose empty report list would read
    as a passed family) raise ValueError before anything is built.
    """
    _check_point_args(n, tol)
    if len(M_samples) == 0:
        raise ValueError("verify_family needs at least one meridian sample")
    apoly = apoly_theorem(n)
    family = _Family(n, rm_closed(n).poly, apoly.poly)
    token = _FAMILY.set(family)
    reports: list[VerificationReport | BadPoint] = []
    try:
        found = []
        for M0 in M_samples:
            try:
                found.append((M0, roots_of_rm(n, M0), None))
            except (DegreeCollapseError, NonConvergenceError, RepeatedRootError) as exc:
                found.append((M0, (), exc))
        family.evaluate_words([(complex(M0), complex(x0)) for M0, roots, _ in found for x0 in roots])
        for M0, roots, error in found:
            if error is not None:
                reports.append(BadPoint(n, complex(M0), str(error)))
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
