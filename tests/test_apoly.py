"""Tests for the A-polynomial builders, the column sums, and Newton polygons."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from c2n3 import apoly
from c2n3.apoly import (
    APolyResult,
    NewtonPolygon,
    apoly_substitution,
    apoly_theorem,
    c_sum,
    newton_polygon,
    substitution_x,
)
from c2n3.laurent import LaurentPoly, ONE, UNIT_MONOMIAL, ZERO, mono
from c2n3.rmpoly import rm_closed, rm_recursive, summation_indices
from oracles import as_dict, naive_add, naive_mul, naive_pow

# A_-2, derived by hand: the n = -1 knot is the figure-eight knot, whose
# A-polynomial is the classical -M^4 + L(1 - M^2 - 2M^4 - M^6 + M^8) - L^2 M^4
# up to unit normalization.
A_MINUS2 = (
    mono(1, l=2, m=4)
    + mono(-1, l=1, m=8) + mono(1, l=1, m=6) + mono(2, l=1, m=4)
    + mono(1, l=1, m=2) + mono(-1, l=1)
    + mono(1, m=4)
)

A2_TEXT = (
    "L^3*M^14 - L^2*M^14 + 2*L^2*M^12 + 2*L^2*M^10 - L^2*M^6 + L^2*M^4"
    " + L*M^10 - L*M^8 + 2*L*M^4 + 2*L*M^2 - L + 1"
)
A2_JSON = (
    '{"terms":[{"l":0,"m":0,"x":0,"c":"1"},{"l":1,"m":0,"x":0,"c":"-1"},'
    '{"l":1,"m":2,"x":0,"c":"2"},{"l":1,"m":4,"x":0,"c":"2"},'
    '{"l":1,"m":8,"x":0,"c":"-1"},{"l":1,"m":10,"x":0,"c":"1"},'
    '{"l":2,"m":4,"x":0,"c":"1"},{"l":2,"m":6,"x":0,"c":"-1"},'
    '{"l":2,"m":10,"x":0,"c":"2"},{"l":2,"m":12,"x":0,"c":"2"},'
    '{"l":2,"m":14,"x":0,"c":"-1"},{"l":3,"m":14,"x":0,"c":"1"}]}'
)


def test_substitution_x_fixtures():
    assert substitution_x(0) == (-(ONE + mono(1, l=1, m=6)), mono(1, m=2) + mono(1, l=1, m=4))
    assert substitution_x(-1) == (-(ONE + mono(1, l=1, m=2)), mono(1, m=2) + mono(1, l=1))


def test_a0_is_one_on_both_paths():
    t = apoly_theorem(0)
    s = apoly_substitution(0)
    assert t.poly == ONE and s.poly == ONE
    assert (t.n, t.path) == (0, "theorem")
    assert (s.n, s.path) == (0, "substitution")


@pytest.mark.parametrize("n", [*range(-20, 21), -40, 40])
def test_substitution_route_is_substitute_then_normalize_unit_on_the_recursions_p2n(n):
    # the route stays on packed rows from P_2n to A_2n; this takes the long way, through the
    # schoolbook products of LaurentPoly.substitute and normalize_unit, which share no packing
    # code with it; at n = 0, P_0 = 1 runs no loop on either
    p = rm_recursive(n).poly
    cleared = p.substitute("x", *substitution_x(n), p.degree("x"))
    assert apoly_substitution(n).poly == cleared.normalize_unit()[0]
    if n == 0:
        assert p == ONE and cleared == ONE


def test_a_minus2_matches_hand_fixture():
    assert apoly_theorem(-1).poly == A_MINUS2
    assert apoly_substitution(-1).poly == A_MINUS2
    assert A_MINUS2.coeff("L", 2) == mono(1, m=4)
    assert A_MINUS2.coeff("L", 0) == mono(1, m=4)


def test_a2_matches_frozen_fixture():
    poly = apoly_theorem(1).poly
    assert poly.to_text() == A2_TEXT
    assert poly.to_json() == A2_JSON
    assert poly == LaurentPoly.from_json(A2_JSON)
    assert len(poly) == 12


def test_term_counts():
    assert len(apoly_theorem(2).poly) == 49
    assert len(apoly_theorem(-2).poly) == 36


def test_substitution_route_recomputed_naively_for_n_minus1():
    # P_-2 = M^2 x^2 + (M^4 - M^2 + 1) x + M^2, substituted at
    # x = -(1 + L M^2) / (M^2 + L) with the denominator cleared to power 2,
    # done entirely in naive dict arithmetic.
    coeffs = {
        0: {(0, 2, 0): 1},
        1: {(0, 4, 0): 1, (0, 2, 0): -1, (0, 0, 0): 1},
        2: {(0, 2, 0): 1},
    }
    num = {(0, 0, 0): -1, (1, 2, 0): -1}
    den = {(0, 2, 0): 1, (1, 0, 0): 1}
    cleared: dict = {}
    for k, ck in coeffs.items():
        part = naive_mul(ck, naive_mul(naive_pow(num, k), naive_pow(den, 2 - k)))
        cleared = naive_add(cleared, part)
    rebuilt = LaurentPoly(cleared)
    normalized, _, _ = rebuilt.normalize_unit()
    assert normalized == A_MINUS2


@pytest.mark.parametrize("n", range(-3, 4))
def test_theorem_and_substitution_paths_agree(n):
    t = apoly_theorem(n)
    s = apoly_substitution(n)
    assert isinstance(t, APolyResult) and isinstance(s, APolyResult)
    assert t.poly == s.poly
    assert (t.path, s.path) == ("theorem", "substitution")


def test_c_sum_is_constant():
    for n in range(0, 11):
        assert c_sum(n) == ONE
    for n in range(-10, 0):
        assert c_sum(n) == mono(1, m=4)


def test_c_sum_satisfies_cleared_recursion():
    m4 = mono(1, m=4)
    kernel = (mono(1, m=2) - 1) ** 2 + mono(2, m=2)
    for n in range(2, 9):
        assert m4 * c_sum(n) == kernel * c_sum(n - 1) - c_sum(n - 2)
    for n in range(-8, -2):
        assert m4 * c_sum(n) == kernel * c_sum(n + 1) - c_sum(n + 2)


@pytest.mark.parametrize("n", range(-4, 5))
def test_base_identity_behind_the_expansion(n):
    # B * M^2 * den - x_num telescopes to the base numerator on both branches,
    # where B = M^2 + M^-2 + x - 1 restricted to its M-part here.
    b_m2 = mono(1, m=4) + 1 - mono(1, m=2)  # (M^2 + M^-2 - 1) * M^2
    if n >= 0:
        den_base = ONE + mono(1, l=1, m=2 + 4 * n)
        x_num = ONE + mono(1, l=1, m=6 + 4 * n)
        base_num = (mono(1, l=1, m=4 * n) - 1) * (1 - mono(1, m=2))
        assert b_m2 * den_base - x_num == base_num * mono(1, m=2)
    else:
        den_base = mono(1, l=1, m=2) + mono(1, m=-4 * n)
        x_num = mono(1, l=1, m=6) + mono(1, m=-4 * n)
        base_num = (1 - mono(1, m=2)) * (mono(1, m=-4 * n) - mono(1, l=1))
        assert b_m2 * den_base - x_num == -base_num * mono(1, m=2)


def closed_form_summand_by_summand(n):
    """A_2n by its closed-form sum, each summand built from scratch by plain products and powers."""
    if n >= 0:
        base_num = (mono(1, l=1, m=4 * n) - 1) * (1 - mono(1, m=2))
        x_num = ONE + mono(1, l=1, m=6 + 4 * n)
        den_base = ONE + mono(1, l=1, m=2 + 4 * n)
        top_agg, m_top = 3 * n, -2 * n
        indices = [(i, math.comb(n + i // 2, i)) for i in range(2 * n + 1)]
    else:
        base_num = (1 - mono(1, m=2)) * (mono(1, m=-4 * n) - mono(1, l=1))
        x_num = mono(1, l=1, m=6) + mono(1, m=-4 * n)
        den_base = mono(1, l=1, m=2) + mono(1, m=-4 * n)
        top_agg, m_top = -3 * n - 1, 8 * n + 6
        indices = [(i, math.comb(-n + (i - 1) // 2, i)) for i in range(-2 * n)]
    total = ZERO
    for i, c in indices:
        j = (1 + i) // 2
        total = total + (c * mono(1, m=m_top - 2 * j) * base_num**i * x_num**j
                         * den_base ** (top_agg - i - j))
    return total


@pytest.mark.parametrize("n", range(-8, 9))
def test_a_routes_match_the_theorem_sum_taken_summand_by_summand(n):
    # both routes run a Horner loop on lists of L-rows; the plain sum is already unit-normal
    expected = closed_form_summand_by_summand(n)
    assert apoly_theorem(n).poly == expected
    assert apoly_substitution(n).poly == expected


@pytest.mark.parametrize("route, per_n", [
    # M^2 packed for the grid, the L-rows made into one value, and its unit-normal form
    (apoly_theorem, lambda n: 3),
    # the recursion's values (see test_rmpoly), num and den packed for the grid, the L-rows
    # made into one value, and its unit-normal form
    (apoly_substitution, lambda n: (3 if n else 1) + 4),
])
def test_a_routes_pack_a_fixed_number_of_values_and_unpack_once(rows_events, route, per_n):
    # every Horner step works on the ints of a list of rows, so no packed-rows value is made per step
    expected = {n: closed_form_summand_by_summand(n) for n in range(-8, 9)}
    for n, poly in expected.items():
        rows_events.clear()
        assert route(n).poly == poly
        assert rows_events == ["built"] * per_n(n) + ["unpack"], n


def theorem_bounds(n):
    """The 1-norm bound of apoly_theorem's sum after each Horner step, from the top index down.

    A step multiplies by base_num (1-norm 4), by x_num (2) when j steps down, and adds
    |c| * |den|_1^agg = |c| * 2^agg.
    """
    top_agg = 3 * n if n >= 0 else -3 * n - 1
    bound = 0
    for i, j, c in reversed(summation_indices(n)):
        bound = bound * 4 * (2 if (i + 1) % 2 else 1) + abs(c) * 2 ** (top_agg - i - j)
        yield bound


def substitution_bounds(n):
    """The same for apoly_substitution: times |num|_1 = 2, plus |P[x^k]|_1 * 2^(D - k)."""
    p = rm_closed(n).poly
    deg = p.degree("x")
    bound = 0
    for k in range(deg, -1, -1):
        bound = 2 * bound + p.coeff("x", k).norm1() * 2 ** (deg - k)
        yield bound


@pytest.mark.parametrize("route, bounds", [(apoly_theorem, theorem_bounds),
                                           (apoly_substitution, substitution_bounds)])
@pytest.mark.parametrize("n", [3, -3, 12, -12])
def test_a_routes_raise_at_the_first_step_that_outgrows_their_slots(monkeypatch, route, bounds, n):
    # with room 1 the width holds only the packed factors' 1-norms, so some step's bound
    # outgrows it; P_2n's recursion keeps its own packing and width
    real_packed = apoly.packed
    widths = []

    def narrow(room, *polys):
        rows = real_packed(1, *polys)
        widths.append(rows[0].width)
        return rows

    monkeypatch.setattr(apoly, "packed", narrow)
    with pytest.raises(OverflowError, match="outgrows") as raised:
        route(n)
    steps = list(bounds(n))
    first = next(b for b in steps if b.bit_length() >= widths[0])
    # the last bound, which the one packed value at the end checks, is longer: only a check
    # inside the loop raises with this one
    assert first.bit_length() < steps[-1].bit_length()
    assert f"bound of {first.bit_length()} bits" in str(raised.value)


@pytest.mark.parametrize("n", [k for k in range(-6, 7) if k != 0])
def test_result_is_a_unit_normal_polynomial(n):
    poly = apoly_theorem(n).poly
    assert poly.min_exp("L") == 0 and poly.min_exp("M") == 0
    assert poly.min_exp("x") == 0 and poly.degree("x") == 0
    q, unit, sign = poly.normalize_unit()
    assert (q, unit, sign) == (poly, UNIT_MONOMIAL, 1)
    assert poly.degree("L") == (3 * n if n > 0 else -3 * n - 1)


def order_at_parabolic_point(poly, top):
    """(d, lowest part) of poly(-(1 + v), 1 + u), for the least d <= top it has a term of.

    The lowest part is {(a, b): coefficient of u^a v^b} over its nonzero
    terms with a + b = d.  That coefficient is sum c_lm (-1)^l C(l, b) C(m, a)
    over the terms c_lm L^l M^m of poly, whose exponents must be
    nonnegative; (None, {}) if every coefficient up to degree top vanishes.
    """
    by_l = {}  # l: [sum_m c_lm C(m, a) for a = 0..top]
    for (l, m, _), c in poly.terms():
        row = by_l.setdefault(l, [0] * (top + 1))
        for a in range(top + 1):
            row[a] += c * math.comb(m, a)
    for degree in range(top + 1):
        part = {}
        for a in range(degree + 1):
            c = sum((-1) ** l * math.comb(l, degree - a) * row[a] for l, row in by_l.items())
            if c:
                part[(a, degree - a)] = c
        if part:
            return degree, part
    return None, {}


@pytest.mark.parametrize("n", [1, -1, 2, -2, 3, -3, 5, -6])
def test_a_2n_vanishes_to_the_order_of_the_parabolic_representations_at_minus_one_one(n):
    # At M = 1 each of the d = deg_x P_2n roots of P_2n(x, 1) is a parabolic representation
    # with longitude eigenvalue -1, and the A-curve passes through (L, M) = (-1, 1) on a
    # smooth branch for each, with slope its cusp shape (Cooper, Culler, Gillet, Long and
    # Shalen 1994; Cooper and Long 1996): the lowest part there has degree exactly d.
    d = 3 * abs(n) - (n < 0)
    assert order_at_parabolic_point(apoly_theorem(n).poly, d)[0] == d


def test_the_lowest_part_at_the_parabolic_point_gives_the_cusp_shapes():
    # The roots t = v/u of the lowest part are the slopes dv/du of the branches through
    # (-1, 1), the cusp shapes of the parabolic representations (same references as above).
    # n = -1 is the figure-eight knot, with the classical cusp shape 2*sqrt(3)*i up to sign.
    assert order_at_parabolic_point(apoly_theorem(-1).poly, 2) == (2, {(0, 2): 1, (2, 0): 12})
    # n = 1: the complex pair is the cusp shape of 5_2 and its conjugate
    degree, part = order_at_parabolic_point(apoly_theorem(1).poly, 3)
    assert (degree, part) == (3, {(0, 3): -1, (1, 2): -14, (2, 1): -60, (3, 0): -136})
    slopes = sorted(np.roots([part[(a, 3 - a)] for a in range(4)]), key=lambda t: (t.real, t.imag))
    expected = [-9.01951066, -2.49024467 - 2.97944707j, -2.49024467 + 2.97944707j]
    assert all(abs(t - e) < 1e-8 for t, e in zip(slopes, expected))


@pytest.mark.parametrize("n", [2, -3])
def test_the_parabolic_order_check_fails_with_one_coefficient_changed(n):
    poly = apoly_theorem(n).poly
    (l, m, _), _ = poly.terms()[len(poly) // 2]
    d = 3 * abs(n) - (n < 0)
    assert order_at_parabolic_point(poly + mono(1, l=l, m=m), d)[0] < d


@pytest.mark.parametrize("n", range(1, 7))
def test_extreme_columns_for_positive_n(n):
    poly = apoly_theorem(n).poly
    assert poly.coeff("L", 0) == ONE


@pytest.mark.parametrize("n", range(-6, 0))
def test_extreme_columns_for_negative_n(n):
    poly = apoly_theorem(n).poly
    assert poly.coeff("L", -3 * n - 1) == mono(1, m=4)


def test_frozen_columns_for_n_minus2_and_minus3():
    a4 = apoly_theorem(-2).poly
    assert a4.degree("L") == 5
    assert a4.coeff("L", 0) == mono(1, m=26)
    assert a4.coeff("L", 4) == LaurentPoly.from_text(
        "-3*M^12 + 5*M^10 + 5*M^8 - 2*M^6 - M^4 + 2*M^2 - 1"
    )
    assert a4.coeff("L", 4).coeff("M", 0) == mono(-1)

    a6 = apoly_theorem(-3).poly
    assert a6.degree("L") == 8
    assert a6.coeff("L", 0) == mono(1, m=72)
    assert a6.coeff("L", 7) == LaurentPoly.from_text(
        "-5*M^16 + 9*M^14 + 7*M^12 - 3*M^10 - M^4 + 2*M^2 - 1"
    )
    assert a6.coeff("L", 7).coeff("M", 0) == mono(-1)

    # the lone L^0 term follows M^(12n^2 + 14n + 6) on the frozen cases
    for n, a in ((-1, apoly_theorem(-1).poly), (-2, a4), (-3, a6)):
        assert a.coeff("L", 0) == mono(1, m=12 * n * n + 14 * n + 6)


def test_newton_polygon_simple_shapes():
    point = newton_polygon(mono(5, l=2, m=-3))
    assert point == NewtonPolygon(((2, -3),), ())

    segment = newton_polygon(ONE + mono(1, l=1, m=4))
    assert segment.vertices == ((0, 0), (1, 4))
    assert segment.slopes == (Fraction(4),)

    vertical = newton_polygon(ONE + mono(1, m=4))
    assert vertical.vertices == ((0, 0), (0, 4))
    assert vertical.slopes == ("inf",)

    with pytest.raises(ValueError):
        newton_polygon(ZERO)


def test_newton_polygon_refuses_a_polynomial_in_x():
    # P_2n is a polynomial in x and M: its Newton polygon in (L, M) would drop x unseen
    for poly in (rm_closed(1).poly, mono(1, x=1), ONE + mono(2, l=1, m=3, x=-1)):
        with pytest.raises(ValueError, match="without x"):
            newton_polygon(poly)


def test_newton_polygon_frozen_fixtures():
    a2 = newton_polygon(apoly_theorem(1))
    assert a2.to_json() == (
        '{"vertices":[[0,0],[1,0],[2,4],[3,14],[2,14],[1,10]],'
        '"slopes":["0","4","10","0","4","10"]}'
    )
    am2 = newton_polygon(apoly_theorem(-1))
    assert am2.to_json() == '{"vertices":[[0,4],[1,0],[2,4],[1,8]],"slopes":["-4","4","-4","4"]}'
    # result objects and bare polynomials give the same polygon
    assert newton_polygon(apoly_theorem(1).poly) == a2
    # the n = -1 knot's boundary slopes +-4 appear as the edge slopes
    assert set(am2.slopes) == {Fraction(4), Fraction(-4)}


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


points_lm = st.tuples(st.integers(-5, 5), st.integers(-5, 5))


@given(pts=st.sets(points_lm, min_size=1, max_size=12), xexp=st.integers(0, 2))
def test_newton_polygon_hull_properties(pts, xexp):
    poly = tagged = ZERO
    for i, (l, m) in enumerate(sorted(pts)):
        poly = poly + mono(1, l=l, m=m)
        tagged = tagged + mono(1, l=l, m=m, x=xexp if i % 2 else 0)
    if tagged != poly:
        with pytest.raises(ValueError, match="without x"):
            newton_polygon(tagged)
    polygon = newton_polygon(poly)
    vertices = polygon.vertices

    assert set(vertices) <= pts
    assert vertices[0] == min(pts)
    if len(vertices) == 1:
        assert polygon.slopes == ()
        assert len(pts) == 1
        return
    if len(vertices) == 2:
        assert len(polygon.slopes) == 1
        a, b = vertices
        assert all(_cross(a, b, p) == 0 for p in pts)
        assert b == max(pts)
        return
    assert len(polygon.slopes) == len(vertices)
    k = len(vertices)
    for i in range(k):
        assert _cross(vertices[i], vertices[(i + 1) % k], vertices[(i + 2) % k]) > 0
    for i in range(k):
        a, b = vertices[i], vertices[(i + 1) % k]
        assert all(_cross(a, b, p) >= 0 for p in pts)


@given(pts=st.sets(points_lm, min_size=1, max_size=12))
def test_newton_polygon_is_idempotent(pts):
    poly = ZERO
    for l, m in sorted(pts):
        poly = poly + mono(1, l=l, m=m)
    polygon = newton_polygon(poly)
    hull_only = ZERO
    for l, m in polygon.vertices:
        hull_only = hull_only + mono(1, l=l, m=m)
    assert newton_polygon(hull_only) == polygon


def _hull_of_every_term(poly):
    # Andrew's monotone chain over every exponent point of poly, none left out
    points = sorted({(l, m) for (l, m, _), _ in poly.terms()})
    chains = []
    for run in (points, points[::-1]):
        chain = []
        for p in run:
            while len(chain) >= 2 and _cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        chains.append(chain[:-1])
    return tuple(chains[0] + chains[1])


@pytest.mark.parametrize("n", [k for k in range(-12, 13) if k])
def test_newton_polygon_is_the_hull_of_every_term_of_a_2n(n):
    # newton_polygon keeps only each power of L's lowest and highest power of M
    poly = apoly_theorem(n).poly
    vertices = _hull_of_every_term(poly)
    polygon = newton_polygon(poly)
    assert polygon.vertices == vertices
    k = len(vertices)
    edges = [(vertices[i], vertices[(i + 1) % k]) for i in range(k)]
    assert polygon.slopes == tuple("inf" if a[0] == b[0] else Fraction(b[1] - a[1], b[0] - a[0])
                                   for a, b in edges)
