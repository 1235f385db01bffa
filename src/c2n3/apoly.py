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

from .laurent import (LaurentPoly, ONE, UNIT_MONOMIAL, ZERO, _digits, _horner, _joined, _Rows,
                      mono, packed)
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


def apoly_theorem(n: int) -> APolyResult:
    """A_2n by the closed-form sum, expanded without rational intermediates.

    Each summand carries an aggregate power of 1 + L*M^(2+4n) (for n >= 0;
    L*M^2 + M^(-4n) for n < 0) that stays nonnegative across the summation
    range, so denominators never actually appear.  The result of the sum is
    already unit-normal; both facts are asserted, the second on the rows
    before the one unpack.
    """
    if n >= 0:
        base_num = (mono(1, l=1, m=4 * n) - 1) * (1 - mono(1, m=2))
        x_num = ONE + mono(1, l=1, m=6 + 4 * n)
        den_base = ONE + mono(1, l=1, m=2 + 4 * n)
        top_agg, m_top = 3 * n, -2 * n
    else:
        base_num = (1 - mono(1, m=2)) * (mono(1, m=-4 * n) - mono(1, l=1))
        x_num = mono(1, l=1, m=6) + mono(1, m=-4 * n)
        den_base = mono(1, l=1, m=2) + mono(1, m=-4 * n)
        top_agg, m_top = -3 * n - 1, 8 * n + 6
    # the sum run on 1-norms bounds every value it takes
    room = sum(abs(c) * base_num.norm1() ** i * x_num.norm1() ** j
               * den_base.norm1() ** (top_agg - i - j) for i, j, c in summation_indices(n))
    base_num, den_base, x_step, acc = packed(room, base_num, den_base, x_num, ZERO)
    # x_num and the M^-2 of each step up in j; the common M^m_top comes at the end
    x_step = x_step.shift(m=-2)
    # agg falls as i grows, so its value at i = 0 bounds every power needed.
    den_pow = den_base.powers(top_agg)
    # Horner's rule from the top index down: i + j at the top is top_agg, so
    # the top summand takes den^0 and no den power is left over at the end.
    for i, j, c in reversed(summation_indices(n)):
        acc = acc * base_num
        if (i + 1) % 2:
            acc = acc * x_step
        agg = top_agg - i - j
        assert agg >= 0, "aggregate denominator exponent went negative"
        acc = acc + den_pow[agg] * c
    normalized, unit, sign = acc.shift(m=m_top).normalize_unit()
    assert unit == UNIT_MONOMIAL and sign == 1, "closed-form A-polynomial was not unit-normal"
    return APolyResult(n, normalized.unpack(), "theorem")


def apoly_substitution(n: int) -> APolyResult:
    """A_2n by substituting the longitude relation into P_2n and clearing denominators.

    P_2n comes from the recursion, so this route shares no code with
    apoly_theorem beyond the exact kernel of laurent.py.  The x-degree of P_2n is
    used as the clearing degree, so the result is a Laurent polynomial in L
    and M, which is then unit-normalized.  The whole route runs on packed
    rows: the recursion's rows of P_2n, keyed by their power of x, are read
    slot by slot once and written at the width the substitution needs; the
    sum (the Horner loop of LaurentPoly.substitute) and the unit
    normalization run on rows, and the result is unpacked once.
    """
    p = _recursive_rows(n)
    num, den = substitution_x(n)
    parts: dict[int, dict] = {}  # x-exponent k: {(expL, 0): (lowest expM, digits)}
    for (l, k), (lo, value) in p.rows.items():
        parts.setdefault(k, {})[(l, 0)] = (lo, _digits(value, p.width))
    deg = max(parts)
    norms = {k: sum(sum(map(abs, digits)) for _, digits in rows.values())
             for k, rows in parts.items()}
    # the bound of the whole sum bounds every Horner intermediate and power of den
    room = sum(norm * num.norm1() ** k * den.norm1() ** (deg - k) for k, norm in norms.items())
    num, den = packed(room, num, den)
    # the parts keep the recursion's stride: the products below check it against num's and den's
    parts = {k: _Rows({key: (lo, _joined(digits, num.width)) for key, (lo, digits) in rows.items()},
                      p.stride, num.width, norms[k])
             for k, rows in parts.items()}
    normalized, _, _ = _horner(parts, num, den, deg).normalize_unit()
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
