"""A-polynomials A_2n(L, M) of the two-bridge knots C(2n,3).

Two independent constructions are provided.  The closed-form route expands
an explicit sum in L and M directly; the substitution route replaces x in
the Riley-Mednykh polynomial by the rational expression tied to the
longitude eigenvalue and clears denominators.  Both unit-normalize to the
same polynomial, and that agreement is a first-class test target.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .laurent import (LaurentPoly, ONE, UNIT_MONOMIAL, ZERO, _add_binomial_power, _fits,
                      _read_slots, _Rows, _slot_digits, _times_binomial, _width, _write_slots,
                      mono)
from .rmpoly import _recursive_rows, summation_indices


@dataclass(frozen=True)
class APolyResult:
    """An A-polynomial together with the route that produced it."""

    n: int
    poly: LaurentPoly
    path: str


def substitution_x(n: int) -> tuple[LaurentPoly, LaurentPoly]:
    """(num, den) of the value substituted for x:  -(1 + L*M^(6+4n)) / (M^2 * (1 + L*M^(2+4n)))."""
    num = -(ONE + mono(1, l=1, m=6 + 4 * n))
    den = mono(1, m=2) + mono(1, l=1, m=4 + 4 * n)
    return num, den


def _l_binomial(poly: LaurentPoly) -> tuple[int, int, int]:
    """(e, f, s) for poly = s * (M^e + L*M^f) with s = +-1, the shape of num and den."""
    ((l0, e, x0), s), ((l1, f, x1), t) = poly.terms()
    assert (l0, x0, l1, x1) == (0, 0, 1, 0) and s == t in (1, -1), "not +-(M^e + L*M^f)"
    assert e % 2 == f % 2 == 0, "M^e + L*M^f is off the M^2 grid of packed rows"
    return e, f, s


def apoly_theorem(n: int) -> APolyResult:
    """A_2n by the closed-form sum, expanded without rational intermediates.

    Each summand carries an aggregate power of 1 + L*M^(2+4n) (for n >= 0;
    L*M^2 + M^(-4n) for n < 0) that stays nonnegative across the summation
    range, so denominators never actually appear.  The sum runs by Horner's
    rule on a list of rows, (lowest expM, packed int) indexed by the power
    of L, at the slot width _width(room), with nothing packed to start:
    base_num = +-(1 - M^2) * (M^a - L*M^b), x_num * M^-2 and the den are
    +-1 binomials in L, so each step applies its factors by shifts and adds
    (_times_binomial, _add_binomial_power) and forms no big-int product and
    no packed-rows value.  The loop carries the 1-norm bound of the sum so
    far and raises OverflowError at the first step it would not fit the
    width.  The result of the sum is already unit-normal; both facts are
    asserted, the second on the rows before the one unpack.
    """
    if n >= 0:
        # base_num = (L*M^4n - 1) * (1 - M^2) = (M^2 - 1) * (1 - L*M^4n), x_num = 1 + L*M^(6+4n)
        # and den = 1 + L*M^(2+4n); a binomial is the M-exponents (e, f) of M^e and +-L*M^f
        quad, base, x_step, den = -1, (0, 4 * n), (-2, 4 + 4 * n), (0, 2 + 4 * n)
        top_agg, m_top = 3 * n, -2 * n
    else:
        # base_num = (1 - M^2) * (M^-4n - L), x_num = L*M^6 + M^-4n and den = L*M^2 + M^-4n
        quad, base, x_step, den = 1, (-4 * n, 0), (-4 * n - 2, 4), (-4 * n, 2)
        top_agg, m_top = -3 * n - 1, 8 * n + 6
    indices = summation_indices(n)
    # the sum run on 1-norms bounds every value it takes; |base_num|_1 = 4 and
    # |x_num|_1 = |den|_1 = 2, so the summand of i is bounded by |c| * 2^(2i + j + agg)
    room = sum(abs(c) << (i + top_agg) for i, _, c in indices)
    width = _width(room)
    acc, bound = [], 0
    # Horner's rule from the top index down: i + j at the top is top_agg, so
    # the top summand takes den^0 and no den power is left over at the end;
    # x_step is x_num * M^-2, applied where j changes
    for i, j, c in reversed(indices):
        agg = top_agg - i - j
        assert agg >= 0, "aggregate denominator exponent went negative"
        bound = (bound * 8 if (i + 1) % 2 else bound * 4) + (abs(c) << agg)
        _fits(bound, width)
        acc = _times_binomial(acc, base[0], -1, base[1], width)
        acc = [(lo, v - (v << width) if quad > 0 else (v << width) - v) for lo, v in acc]
        if (i + 1) % 2:
            acc = _times_binomial(acc, x_step[0], 1, x_step[1], width)
        _add_binomial_power(acc, c, (0, 1), *den, agg, width)
    rows = {(l, 0): (lo + m_top, v) for l, (lo, v) in enumerate(acc) if v}
    normalized, unit, sign = _Rows(rows, width, bound).normalize_unit()
    assert unit == UNIT_MONOMIAL and sign == 1, "closed-form A-polynomial was not unit-normal"
    return APolyResult(n, normalized.unpack(), "theorem")


def apoly_substitution(n: int) -> APolyResult:
    """A_2n by substituting the longitude relation into P_2n and clearing denominators.

    P_2n comes from the recursion, so this route shares no code with
    apoly_theorem beyond the exact kernel of laurent.py.  The x-degree D of
    P_2n is used as the clearing degree, so the result is a Laurent
    polynomial in L and M, which is then unit-normalized.  The whole route
    runs on packed rows: the slots of the recursion's rows of P_2n, keyed
    by their power of x, are read in one numpy pass (_read_slots), which
    gives their 1-norms and so the width _width(room), and each row is
    moved to that width by sign-extending its slots' bytes, one
    int.from_bytes per row (_write_slots).  The sum, sum_k P[x^k] * num^k
    * den^(D - k), runs by Horner's rule in num on a list of rows indexed
    by the power of L: num = -(1 + L*M^(6+4n)) is applied by
    _times_binomial, its sign going into the summands as (-1)^k, and each
    P[x^k] * den^(D - k) is added by _add_binomial_power, so no big-int
    product by a factor and no packed-rows value is formed per step.  The
    loop carries the 1-norm bound of the sum so far and raises
    OverflowError at the first step it would not fit the width.  One _Rows
    is unit-normalized at the end, and the result is unpacked once.
    """
    p = _recursive_rows(n)
    num, den = substitution_x(n)
    slots, counts = _read_slots([value for _, value in p.rows.values()], p.width)
    digits, norms, at = _slot_digits(slots), {}, 0
    for (_, k), count in zip(p.rows, counts):
        norms[k] = sum(map(abs, digits[at:at + count]))
        at += count
    deg = max(norms)
    # the bound of the whole sum bounds every Horner intermediate; |num|_1 = |den|_1 = 2,
    # so the summand of k is bounded by |P[x^k]|_1 * 2^D
    room = sum(norms.values()) << deg
    width = _width(room)
    # the rows of P_2n, their slots sign-extended from the recursion's width to this one; a
    # row's 1-norm is in the bound of its step, so the loop's _fits raises before it is added
    # if its digits outgrow the width
    parts = {k: (lo, value) for ((_, k), (lo, _)), value
             in zip(p.rows.items(), _write_slots(slots, counts, width))}
    # num's sign enters the summands as num_sign^k; den's is +1
    (num_e, num_f, num_sign), (den_e, den_f, den_sign) = map(_l_binomial, (num, den))
    assert den_sign == 1, "den is not M^e + L*M^f"
    rows, bound = [], 0
    for k in range(deg, -1, -1):
        bound = 2 * bound + (norms[k] << (deg - k) if k in parts else 0)
        _fits(bound, width)
        rows = _times_binomial(rows, num_e, 1, num_f, width)
        if k in parts:
            _add_binomial_power(rows, num_sign**k, parts[k], den_e, den_f, deg - k, width)
    rows = {(l, 0): row for l, row in enumerate(rows) if row[1]}
    normalized, _, _ = _Rows(rows, width, bound).normalize_unit()
    return APolyResult(n, normalized.unpack(), "substitution")


def c_sum(n: int) -> LaurentPoly:
    """Column sum pinning the extreme L-coefficient of A_2n.

    Equals the coefficient of L^0 for n >= 0 (identically 1) and the
    coefficient of L^(-3n-1) for n < 0 (identically M^4).
    """
    growth = mono(1, m=2) - 1
    acc = ZERO
    power = ONE
    for i, j, c in summation_indices(n):
        if i:
            power = power * growth
        m = -2 * n - 2 * j if n >= 0 else 2 * n + 4 - 2 * i + 2 * j
        acc = acc + mono(c, m=m) * power
    return acc


@dataclass(frozen=True)
class NewtonPolygon:
    """Convex hull of the (expL, expM) exponent points of a polynomial.

    vertices are the hull corners in counterclockwise order starting at the
    lexicographically smallest; slopes hold one value per edge, a Fraction
    for the rise over run or the string "inf" for vertical edges.  A single
    point has no edges and a degenerate segment has exactly one.
    """

    vertices: tuple[tuple[int, int], ...]
    slopes: tuple

    def to_json_obj(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "slopes": [s if isinstance(s, str) else str(s) for s in self.slopes],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def newton_polygon(source) -> NewtonPolygon:
    """Newton polygon of an A-polynomial result or any nonzero polynomial in L and M, not x."""
    poly = source.poly if isinstance(source, APolyResult) else source
    if poly.is_zero():
        raise ValueError("the zero polynomial has no Newton polygon")
    if poly.degree("x") or poly.min_exp("x"):
        raise ValueError("newton_polygon needs a polynomial in L and M only, without x")
    # the hull of all terms is that of each power of L's lowest and highest power of M
    low: dict[int, int] = {}
    high: dict[int, int] = {}
    for l, m, _ in poly._terms:
        least = low.get(l)
        if least is None:
            low[l] = high[l] = m
        elif m < least:
            low[l] = m
        elif m > high[l]:
            high[l] = m
    points = sorted({*low.items(), *high.items()})
    if len(points) == 1:
        return NewtonPolygon((points[0],), ())
    lower = []
    for p in points:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(points):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    vertices = tuple(lower[:-1] + upper[:-1])
    if len(vertices) == 2:
        edges = [(vertices[0], vertices[1])]
    else:
        edges = [(vertices[i], vertices[(i + 1) % len(vertices)]) for i in range(len(vertices))]
    slopes = []
    for (l0, m0), (l1, m1) in edges:
        if l1 == l0:
            slopes.append("inf")
        else:
            slopes.append(Fraction(m1 - m0, l1 - l0))
    return NewtonPolygon(vertices, tuple(slopes))
