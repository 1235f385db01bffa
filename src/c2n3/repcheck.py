"""Numeric verification of the SL(2, C) representations behind the A-polynomials.

For a sampled meridian eigenvalue M0 and a root x0 of the Riley-Mednykh
polynomial, the two-generator representation must satisfy the knot-group
relation, the longitude word must evaluate upper triangular with the
predicted eigenvalue, and the A-polynomial must vanish at the induced
(L, M) point.  Word products carry a conditioning estimate (the peak
entry-magnitude sum along the accumulated product) so tolerances scale
with the numeric difficulty of large |n|.  The roots of P_2n come from
Aberth-Ehrlich sweeps on the three-term recursion P_2n obeys, evaluated
in doubles at every iterate at once (see roots_of_rm); verify_family
sweeps all of its meridians together, one numpy lane per (meridian,
root) pair, and each lane gives the roots its meridian gets alone (see
_roots_batch).  The check of those points runs on lanes too (see
_check): both words once over every lane, A_2n specialized at every
meridian in one pass over its terms, and the residuals of every point
in numpy's own complex arithmetic.  verify_point is a family of one.
The numeric layer needs numpy alone.
"""

from __future__ import annotations

import bisect
import cmath
import json
import math
import random
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .apoly import apoly_theorem
from .laurent import LaurentPoly


class SingularPointError(ValueError):
    """The longitude eigenvalue formula was evaluated at its pole M0^2 + x0 = 0."""


_SINGULAR = "longitude eigenvalue undefined: M0^2 + x0 = 0"


class DegreeCollapseError(ArithmeticError):
    """M0^4 is zero in doubles, so the leading x-coefficient of P_2n, a power of M0, vanished."""


class RepeatedRootError(ArithmeticError):
    """Two roots of P_2n at one meridian converged to one value, so another root went unchecked."""


class NonConvergenceError(ArithmeticError):
    """A root of P_2n still moved after _SWEEPS Aberth sweeps: no stopping rule was met."""


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


def _finite_root(x0) -> complex:
    x0 = complex(x0)
    if not cmath.isfinite(x0):
        raise ValueError(f"the root must be finite, got x0 = {x0!r}")
    return x0


# A 2x2 matrix as its entries (a, b, c, d) in row order, each an array with
# one lane per point, so that one pass over a word serves many points.
Lanes = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def _rho_lanes(M0: np.ndarray, x0: np.ndarray) -> tuple[Lanes, Lanes]:
    """The generator images s -> [[M0, 1], [0, 1/M0]], t -> [[M0, 0], [2 - M0^2 - M0^-2 - x0, 1/M0]].

    M0 and x0 are arrays of meridians and roots, one lane per point.
    """
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


def _word_lanes(n: int, M0: np.ndarray, x0: np.ndarray) -> tuple[Lanes, np.ndarray, np.ndarray,
                                                                 np.ndarray, np.ndarray]:
    """The relator and the longitude of n at every lane (M0[i], x0[i]), in one pass over each word.

    Gives the relator's four entries and peak, then the longitude's a and c
    and peak, each an array with one lane per point.
    """
    steps = _steps(*_rho_lanes(M0, x0))
    rel, cond_rel = _product(relator_word(n), steps)
    (a, _, c, _), cond_lon = _product(build_longitude(n), steps)
    return rel, cond_rel, a, c, cond_lon


# What roots_of_rm gives at one meridian: its roots, or the error it raises there.
Found = list[complex] | ArithmeticError


def roots_of_rm(n: int, M0: complex) -> list[complex]:
    """All roots of x -> P_2n(x, M0), by Aberth-Ehrlich sweeps on the recursion P_2n obeys.

    At M0 the recursion depends on M0 through s = M0^2 + M0^-2 - 1 alone,
    computed once per M0: _recurrence gives R_|n| and R_|n|', with
    P_2n(x, M0) a power of M0 times R_|n|(x), at every iterate at once
    with no expanded coefficients.  The sweeps start from _starts.  A
    root stops once its step is at most 1e-14 max(1, |x|), or at most
    1e-10 max(1, |x|) and more than half the step before it: there
    rounding, not distance, sets the step.  Roots come sorted by (real,
    imaginary).  Raises ValueError, naming M0, when M0 is not finite;
    DegreeCollapseError when M0^4 is zero in doubles, so that the leading
    x-coefficient of P_2n, a power of M0, vanishes; OverflowError, naming
    M0, when s^2 does not fit in doubles (M0 = 1e80 or 1e-80);
    NonConvergenceError, naming n and M0, when a root still moves after
    _SWEEPS sweeps; and RepeatedRootError when two roots converge to one
    value, so that no root goes unchecked without notice.  It is
    _roots_batch on the one meridian M0.
    """
    (roots,) = _roots_batch(n, [M0])
    if isinstance(roots, ArithmeticError):
        raise roots
    return roots


# A root still moving after this many Aberth sweeps raises NonConvergenceError.
_SWEEPS = 100
# One batch of meridians holds at most this many cells (but at least one
# meridian), so each of its temporary arrays stays near 1 MiB: d^2 iterate
# gaps per meridian for d roots in a batch of sweeps, one product per term
# of A_2n in a batch of its specializations.
_BATCH_CELLS = 2**16


def _roots_batch(n: int, M_samples: Sequence[complex]) -> list[Found]:
    """What roots_of_rm gives at each meridian of M_samples: its roots, or the error it raises.

    A non-finite meridian raises ValueError before any sweep.  Every other
    meridian first gets the checks of roots_of_rm; those that pass them
    are swept together by _sweeps, in groups of _BATCH_CELLS // d^2 meridians.
    """
    meridians = [_finite_meridian(M0) for M0 in M_samples]
    if n == 0:
        return [[] for _ in meridians]
    found: list[Found] = []
    swept: list[tuple[int, complex, complex]] = []  # (index in found, M0, s)
    for M0 in meridians:
        try:
            s = _recursion_number(M0)
        except (DegreeCollapseError, OverflowError) as exc:
            found.append(exc)
            continue
        swept.append((len(found), M0, s))
        found.append([])
    d = 3 * abs(n) - (n < 0)
    size = max(1, _BATCH_CELLS // (d * d))
    for k in range(0, len(swept), size):
        index, group, s_values = zip(*swept[k : k + size])
        for i, roots in zip(index, _sweeps(n, group, s_values)):
            found[i] = roots
    return found


def _recursion_number(M0: complex) -> complex:
    """s = M0^2 + M0^-2 - 1, the one number P_2n's recursion at M0 depends on."""
    sq = M0 * M0
    if sq * sq == 0:
        raise DegreeCollapseError(f"M0^4, so the leading x-coefficient, is 0 at M0 = {M0!r}")
    s = sq + 1 / sq - 1
    if not cmath.isfinite(s * s):
        raise OverflowError(f"P_2n at M0 = {M0!r} does not fit in double precision")
    return s


def _sweeps(n: int, group: Sequence[complex], s_values: Sequence[complex]) -> list[Found]:
    """The sweeps of roots_of_rm at every meridian of group, with its s in s_values, at once.

    Each (meridian, root) pair is one lane of a flat array, with the s of
    its meridian; its repulsion sums over its own meridian's iterates
    alone, and it stops by itself.  So every lane does the arithmetic that
    a group of one meridian would.  Gives each meridian's roots,
    NonConvergenceError with its own count of moving roots, or
    RepeatedRootError for the first close pair in combinations order.
    """
    rows = _starts(n, s_values)
    m, d = rows.shape
    z = rows.reshape(-1)  # a view: each update of z moves the rows that the repulsion reads
    s = np.repeat(s_values, d)
    moving = np.ones(m * d, dtype=bool)
    last = np.full(m * d, math.inf)
    with np.errstate(all="ignore"):
        for _ in range(_SWEEPS):
            at = np.flatnonzero(moving)
            x = z[at]
            value, slope = _recurrence(n, s[at], x)
            gaps = x[:, None] - rows[at // d]
            repulsion = np.divide(1, gaps, out=np.zeros_like(gaps), where=gaps != 0).sum(axis=1)
            step = value / (slope - value * repulsion)
            z[at] = x - step
            size = abs(step) / np.maximum(1, abs(z[at]))
            moving[at] = ~((size <= 1e-14) | ((size <= 1e-10) & (size > last[at] / 2)))
            last[at] = size
            if not moving.any():
                break
    # each row sorted by (real, imaginary), in the order Python's sorted gives
    rows = np.take_along_axis(rows, np.lexsort((rows.imag, rows.real)), axis=1)
    found: list[Found] = []
    for M0, row, still, repeat in zip(group, rows, moving.reshape(m, d), _first_repeat(rows)):
        if still.any():
            found.append(NonConvergenceError(
                f"Aberth sweeps met no stopping rule for {still.sum()} of {d} roots in "
                f"{_SWEEPS} sweeps, for P_2n with n = {n} at M0 = {M0!r}"
            ))
        elif repeat < 0:
            found.append(row.tolist())
        else:
            found.append(RepeatedRootError(f"two roots of P_2n for n = {n} converged to the same "
                                           f"value {complex(row[repeat])!r} at M0 = {M0!r}"))
    return found


def _first_repeat(rows: np.ndarray) -> np.ndarray:
    """Per row of sorted roots, the index of a in the first close pair (a, b) in combinations order.

    A pair is close within 1e-12 max(1, |a|); -1 for a row with no close
    pair.  One pass serves every row of a group.
    """
    d = rows.shape[1]
    with np.errstate(invalid="ignore"):
        gaps = abs(rows[:, :, None] - rows[:, None])
        close = np.triu(gaps < 1e-12 * np.maximum(1, abs(rows))[:, :, None], 1)
    close = close.reshape(len(rows), d * d)
    return np.where(close.any(axis=1), close.argmax(axis=1) // d, -1)


def _recurrence(n: int, s: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(R_|n|(x), R_|n|'(x)) at each x[i] with s = s[i], both divided by one factor per x.

    With u = s + x, 2c = 2 - x u^2 = Q / M^4 and t = x u + 1 = P_-2 / M^2.
    R_k = 2c R_(k-1) - R_(k-2) runs from R_0 = 1 and R_1 = 2c - t =
    P_2 / M^4 for n > 0, or R_1 = t for n < 0, so that P_2n is
    M^(4|n|) R_|n| for n > 0 and M^(4|n| - 2) R_|n| for n < 0.  Whenever
    R_j or R_j' passes 1e100 at some x, the four values carried there are
    divided by the larger: only the ratio is used, and R_100 itself would
    overflow.  A NaN at one x leaves the rescaling at the others as it is.
    """
    u = s + x
    qx, dqx = 2 - x * u * u, -u * (u + 2 * x)
    t, dt = x * u + 1, u + x
    prev, dprev = 1, 0
    cur, dcur = (qx - t, dqx - dt) if n > 0 else (t, dt)
    for _ in range(abs(n) - 1):
        prev, dprev, cur, dcur = cur, dcur, qx * cur - prev, dqx * cur + qx * dcur - dprev
        size = np.maximum(abs(cur), abs(dcur))
        big = size > 1e100
        if big.any():
            scale = np.where(big, 1 / size, 1)
            prev, dprev, cur, dcur = prev * scale, dprev * scale, cur * scale, dcur * scale
    return cur, dcur


def _starts(n: int, s_values: Sequence[complex]) -> np.ndarray:
    """Starts for roots_of_rm, a row per s of s_values: where c(x) = cos((j - 1/2) pi / |n|).

    At s = M0^2 + M0^-2 - 1 these are the roots of x (s + x)^2 =
    2 - 2 cos(...), one cubic per j = 1..|n|; the first 3|n| - (n < 0)
    are kept, turned by (1 + 1e-3 i) off any line of symmetry.  One
    eigvals call serves every row.  2s and s^2 come from Python's complex
    arithmetic: numpy's rounds differently, which changes the roots found
    at meridians off the unit circle.
    """
    k = abs(n)
    # the companion matrix of x^3 + 2s x^2 + s^2 x + 2 cos(...) - 2, one per (s, j)
    companion = np.zeros((len(s_values), k, 3, 3), dtype=complex)
    companion[:, :, 0, :2] = [[(-2 * s, -s * s)] for s in s_values]
    companion[:, :, 0, 2] = 2 - 2 * np.cos((np.arange(1, k + 1) - 0.5) * math.pi / k)
    companion[:, :, 1, 0] = companion[:, :, 2, 1] = 1
    roots = np.linalg.eigvals(companion).reshape(len(s_values), 3 * k)
    return roots[:, : 3 * k - (n < 0)] * (1 + 1e-3j)


def longitude_eigen(n: int, M0: complex, x0: complex) -> complex:
    """Predicted longitude eigenvalue  -M0^(-4n-2) * (M0^-2 + x0) / (M0^2 + x0).

    _longitude on the one lane (M0, x0), so it rounds as _check does.
    Raises ValueError, naming the value, where M0 or x0 is not finite, as
    verify_point does, and at M0 = 0; raises SingularPointError where
    M0^2 + x0 = 0 in that arithmetic.  Where M0^(-4n-2) leaves the double
    range, it returns inf or NaN, as the lane does, and raises nothing.
    """
    M0, x0 = _finite_meridian(M0), _finite_root(x0)
    if M0 == 0:
        raise ValueError("the meridian eigenvalue must be nonzero")
    (L0,), (pole,) = _longitude(n, np.array([M0]), np.array([x0]))
    if pole:
        raise SingularPointError(_SINGULAR)
    return complex(L0)


def _longitude(n: int, M0: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """L0 = -M0^(-4n-2) (M0^-2 + x0) / (M0^2 + x0) per lane, and whether the lane is at the pole.

    The pole is M0^2 + x0 = 0, where L0 is undefined.  A value out of the
    double range is inf or NaN, without a warning.
    """
    with np.errstate(all="ignore"):
        denom = M0 * M0 + x0
        return -(M0 ** (-4 * n - 2)) * (M0**-2 + x0) / denom, denom == 0


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

    def to_json(self) -> str:
        """The compact json.dumps text of to_json_obj() with allow_nan=False, each float as its repr.

        Raises ValueError where a field is inf or NaN, as json.dumps does.
        """
        M0, x0 = self.M_sample, self.root
        text = (f'{{"n":{self.n},"M_sample":[{M0.real!r},{M0.imag!r}],'
                f'"root":[{x0.real!r},{x0.imag!r}],'
                f'"relation_residual":{self.relation_residual!r},'
                f'"longitude_mismatch":{self.longitude_mismatch!r},'
                f'"offdiag_residual":{self.offdiag_residual!r},'
                f'"apoly_residual":{self.apoly_residual!r},'
                f'"cond_relator":{self.cond_relator!r},"cond_longitude":{self.cond_longitude!r},'
                f'"passed":{"true" if self.passed else "false"}}}')
        # a float's repr holds "inf" or "nan" exactly when it is not finite, and no key does
        if "inf" in text or "nan" in text:
            raise ValueError(f"Out of range float values are not JSON compliant: {self!r}")
        return text


def _check_point_args(n: int, tol: float) -> None:
    if n == 0:
        raise ValueError("n = 0 is degenerate: empty conjugating word and constant P_0")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol!r}")


def verify_point(n: int, M0: complex, x0: complex, tol: float) -> VerificationReport:
    """Check the relation, longitude, and A-polynomial residuals at one point.

    x0 should be a root of P_2n(., M0).  n = 0 is rejected as degenerate:
    the conjugating word is empty and the constant P_0 has no roots.  So is
    a tol that is not finite and positive: an infinite one would pass any
    point, and NaN would fail every one without saying why.  A non-finite
    M0 or x0, or M0 = 0, raises ValueError too, naming it, before anything
    is built.  The point is checked by _check as a family of one meridian
    and one root, on A_2n from apoly_theorem.  It raises SingularPointError
    where M0^2 + x0 = 0, and otherwise gives the report of its lane, which
    holds inf or NaN where a value leaves the double range.
    """
    _check_point_args(n, tol)
    M0, x0 = _finite_meridian(M0), _finite_root(x0)
    if M0 == 0:
        raise ValueError("the meridian eigenvalue must be nonzero")
    (report,), _ = _check(n, [(M0, [x0])], tol, apoly_theorem(n).poly)
    if isinstance(report, SingularPointError):
        raise report
    return report


def _check(n: int, family: Sequence[tuple[complex, Sequence[complex]]], tol: float,
           poly: LaurentPoly) -> tuple[list[VerificationReport | SingularPointError], list[bool]]:
    """The check of every root x0 of every meridian M0 of family, one lane per (M0, x0) pair.

    Gives per root, in family order, its report, or SingularPointError
    where M0^2 + x0 = 0 and the longitude eigenvalue is undefined; and per
    root whether every float of its report is finite, from one np.isfinite
    per column.  Every value comes from numpy's complex arithmetic on the
    lanes.  A value that leaves the double range is inf or NaN, and so is
    every residual computed from it (np.maximum passes a NaN on), so the
    report shows it.
    """
    at = np.repeat(np.arange(len(family)), [len(roots) for _, roots in family])
    meridians = [M0 for M0, _ in family]
    x0 = np.array([x for _, roots in family for x in roots], dtype=complex)
    M0 = np.array(meridians, dtype=complex)[at]
    (a, b, c, d), cond_rel, lon_a, lon_c, cond_lon = _word_lanes(n, M0, x0)
    L0, at_pole = _longitude(n, M0, x0)
    with np.errstate(all="ignore"):
        relation = np.maximum.reduce([abs(a - 1), abs(b), abs(c), abs(d - 1)])
        mismatch, offdiag = abs(lon_a - L0), abs(lon_c)
        residual = _apoly_residual(*_apoly_at(poly, meridians), at, L0)
        passed = ((relation <= tol * cond_rel) & (mismatch <= tol * cond_lon)
                  & (offdiag <= tol * cond_lon) & (residual <= tol))
    floats = (M0, x0, relation, mismatch, offdiag, residual, cond_rel, cond_lon)
    finite = np.logical_and.reduce([np.isfinite(v) for v in floats])
    columns = (x0, at, at_pole, relation, mismatch, offdiag, residual, cond_rel, cond_lon, passed)
    reports = [SingularPointError(_SINGULAR) if pole else VerificationReport(n, meridians[k], x, *fields)
               for x, k, pole, *fields in zip(*(v.tolist() for v in columns))]
    return reports, finite.tolist()


def _apoly_at(poly: LaurentPoly, meridians: Sequence[complex]) -> tuple[np.ndarray, np.ndarray]:
    """poly with M set to each meridian M0: one row per meridian, one column per power of L.

    poly is A_2n as apoly_theorem gives it, a polynomial in L and M.  Gives
    the coefficients, sum c M0^e over the terms c L^k M^e in column k, and
    the term-magnitude sums, sum |c| |M0|^e.  Every power of M0 that
    a batch of meridians needs comes from one numpy ** over the sorted
    distinct powers of M, and np.add.reduceat sums the terms of each power
    of L.  Meridians go in batches of _BATCH_CELLS terms.
    """
    terms = poly.terms()  # sorted, so the terms of each power of L are adjacent
    power_of_l, power_of_m, _ = np.array([key for key, _ in terms]).T
    coeff = np.array([float(c) for _, c in terms])
    exps, column = np.unique(power_of_m, return_inverse=True)
    present, starts = np.unique(power_of_l, return_index=True)
    values = np.zeros((len(meridians), power_of_l[-1] + 1), dtype=complex)
    bounds = np.zeros(values.shape)
    batch = max(1, _BATCH_CELLS // len(terms))
    for first in range(0, len(meridians), batch):
        rows = slice(first, first + batch)
        M0 = np.array(meridians[rows], dtype=complex)[:, None]
        values[rows, present] = np.add.reduceat(coeff * (M0**exps)[:, column], starts, axis=1)
        bounds[rows, present] = np.add.reduceat(abs(coeff) * (abs(M0) ** exps)[:, column], starts,
                                                axis=1)
    return values, bounds


def _apoly_residual(values: np.ndarray, bounds: np.ndarray, at: np.ndarray,
                    L0: np.ndarray) -> np.ndarray:
    """|A_2n(L0, M0)| over its term-magnitude sum at |L0| per lane.

    Lane i reads the rows of its meridian, at[i].  Where the magnitude sum
    overflows, both sums run on the reversed rows at 1/L0, which gives the
    same ratio without the powers of L0.  Not for every |L0| > 1: where
    |M0|^e underflows, that form can sum to 0.  NaN where the magnitude
    sum is infinite in both forms, since no ratio is known there.
    """
    flip = np.zeros(len(at), dtype=bool)
    size = _horner(bounds, at, abs(L0), flip)
    flip = np.isinf(size)
    if flip.any():
        L0 = np.where(flip, 1 / L0, L0)
        size = _horner(bounds, at, abs(L0), flip)
    return np.where(np.isinf(size), math.nan, abs(_horner(values, at, L0, flip)) / size)


def _horner(rows: np.ndarray, at: np.ndarray, z: np.ndarray, flip: np.ndarray) -> np.ndarray:
    """Sum over k of rows[at, k] z^k per lane by Horner's rule, with the row reversed where flip."""
    top = rows.shape[1] - 1
    acc = np.zeros(len(at), dtype=rows.dtype)
    for j in range(top + 1):
        acc = acc * z + rows[at, np.where(flip, j, top - j)]
    return acc


_EXCLUDED_ROOT_ORDERS = range(1, 13)
# The angles in [0, 2 pi] of the roots of unity sample_unit_modulus keeps away from, sorted.
_SPECIAL_ANGLES = sorted({2 * math.pi * k / q for q in _EXCLUDED_ROOT_ORDERS for k in range(q + 1)})
# How far, in angle, every sample keeps from each special angle.
_MARGIN = 0.05


def sample_unit_modulus(count: int, seed: int) -> list[complex]:
    """Seeded unit-circle meridian samples kept _MARGIN away from low-order roots of unity."""
    if count < 1:
        raise ValueError("count must be at least 1")
    rng = random.Random(seed)
    samples: list[complex] = []
    while len(samples) < count:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        # the special angle nearest theta is one of the two around it (0.0 is the first)
        i = bisect.bisect(_SPECIAL_ANGLES, theta)
        if any(abs(theta - a) < _MARGIN for a in _SPECIAL_ANGLES[i - 1 : i + 1]):
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

    def to_json(self) -> str:
        """The compact json.dumps text of to_json_obj(), which escapes the reason."""
        return json.dumps(self.to_json_obj(), separators=(",", ":"), allow_nan=False)


def verify_family(
    n: int, M_samples: Sequence[complex], tol: float
) -> list[VerificationReport | BadPoint]:
    """The check of verify_point at every root of P_2n at every provided meridian sample.

    A non-finite sample raises ValueError, naming it, before anything is
    built.  Then A_2n is built once, the roots at every sample come from
    one batch of sweeps (_roots_batch, which gives at each sample what
    roots_of_rm gives there), and _check checks every (sample, root) pair
    at once, one lane each.  A sample whose roots cannot be trusted
    (DegreeCollapseError, NonConvergenceError, RepeatedRootError, or an
    OverflowError where P_2n at M0 leaves the double range) gives one
    BadPoint in place of its reports.  A root where the longitude
    eigenvalue is undefined (SingularPointError) gives one in place of its
    report, and so does a root whose report holds inf or NaN, where a value
    left the double range (off the unit circle, A_2n at M0 can): _check
    flags its lane, and the reason names the fields that are not finite.
    So every report serializes as strict JSON.  n = 0, a tol that is not
    finite and positive, and an empty sample list (whose empty report list
    would read as a passed family) raise ValueError before anything is
    built.
    """
    _check_point_args(n, tol)
    if len(M_samples) == 0:
        raise ValueError("verify_family needs at least one meridian sample")
    meridians = [_finite_meridian(M0) for M0 in M_samples]
    apoly = apoly_theorem(n).poly
    found = list(zip(meridians, _roots_batch(n, meridians)))
    family = [(M0, roots) for M0, roots in found if not isinstance(roots, ArithmeticError)]
    checked = zip(*_check(n, family, tol, apoly))
    reports: list[VerificationReport | BadPoint] = []
    for M0, roots in found:
        if isinstance(roots, ArithmeticError):
            reports.append(BadPoint(n, M0, str(roots)))
            continue
        for x0, (report, finite) in zip(roots, checked):
            if isinstance(report, SingularPointError):
                report = BadPoint(n, M0, f"{report} at x0 = {x0!r}")
            elif not finite:
                wide = [k for k, v in vars(report).items() if not cmath.isfinite(v)]
                report = BadPoint(n, M0, f"out of double range ({', '.join(wide)}) at x0 = {x0!r}")
            reports.append(report)
    return reports
