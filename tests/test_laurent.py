"""Unit and property tests for the exact Laurent-polynomial kernel."""

import json
import math
import random
import tracemalloc
from collections import namedtuple

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from c2n3 import apoly, laurent, rmpoly
from c2n3.apoly import apoly_substitution, apoly_theorem
from c2n3.laurent import (
    ONE,
    UNIT_MONOMIAL,
    ZERO,
    LaurentPoly,
    mono,
    packed,
)
from c2n3.rmpoly import rm_closed, rm_recursive
from oracles import as_dict, at_meridian, naive_add, naive_mul, naive_neg, naive_pow

exponents = st.integers(min_value=-3, max_value=3)
monomials = st.tuples(exponents, exponents, exponents)
coefficients = st.integers(min_value=-9, max_value=9)
polys = st.dictionaries(monomials, coefficients, max_size=5).map(LaurentPoly)

# terms polynomial in x with nonnegative x-exponents, for substitution tests
monomials_x_nonneg = st.tuples(
    st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 2)
)
polys_x_nonneg = st.dictionaries(monomials_x_nonneg, coefficients, max_size=4).map(
    LaurentPoly
)

# Coefficients of about 3, 70 and 130 bits, mixed within one operand.
wide_coefficients = st.sampled_from([3, 70, 130]).flatmap(
    lambda bits: st.integers(-(2**bits), 2**bits)
)


@st.composite
def row_dense_polys(draw):
    """Polynomials whose (expL, expX) rows hold several terms each.

    Each row starts at its own M-offset with its own step, so rows of one
    operand may differ in parity, and every exponent may be negative.
    """
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        l = draw(st.integers(-3, 3))
        x = draw(st.integers(-2, 2))
        start = draw(st.integers(-6, 6))
        step = draw(st.sampled_from([1, 2, 4]))
        for k in range(draw(st.integers(4, 9))):
            terms[(l, start + step * k, x)] = draw(wide_coefficients)
    return LaurentPoly(terms)


moduli = st.floats(min_value=0.5, max_value=2.0, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
unit_band_complex = st.builds(
    lambda r, t: complex(r * math.cos(t), r * math.sin(t)), moduli, angles
)
polys_in_m_and_x = st.dictionaries(
    st.tuples(st.just(0), exponents, st.integers(0, 3)), coefficients, max_size=5
).map(LaurentPoly)

# fixed cubics shared by several tests, written out term by term
P_PLUS2 = (
    mono(-1, m=4, x=3)
    + mono(-2, m=6, x=2) + mono(1, m=4, x=2) + mono(-2, m=2, x=2)
    + mono(-1, m=8, x=1) + mono(1, m=6, x=1) + mono(-2, m=4, x=1)
    + mono(1, m=2, x=1) + mono(-1, x=1)
    + mono(1, m=4)
)
Q_CUBIC = (
    mono(-1, m=4, x=3)
    + mono(-2, m=6, x=2) + mono(2, m=4, x=2) + mono(-2, m=2, x=2)
    + mono(-1, m=8, x=1) + mono(2, m=6, x=1) + mono(-3, m=4, x=1)
    + mono(2, m=2, x=1) + mono(-1, x=1)
    + mono(2, m=4)
)
P_MINUS2 = (
    mono(1, m=2, x=2)
    + mono(1, m=4, x=1) + mono(-1, m=2, x=1) + mono(1, x=1)
    + mono(1, m=2)
)


def test_monomial_order_is_lexicographic():
    p = mono(1, l=1) + mono(1, m=2) + mono(1, x=3) + mono(1, m=2, x=-1)
    assert [m for m, _ in p.terms()] == [(0, 0, 3), (0, 2, -1), (0, 2, 0), (1, 0, 0)]


def test_constructor_canonicalizes():
    assert LaurentPoly({(0, 0, 0): 0}) == ZERO
    assert LaurentPoly([((1, 0, 0), 2), ((1, 0, 0), -2)]) == ZERO
    assert LaurentPoly({(0, 1, 0): 3}) == mono(3, m=1)


def test_constructor_rejects_non_integers():
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0, 0): 1.5})
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0.5, 0): 1})
    with pytest.raises(TypeError):
        LaurentPoly({(0, 0, 0): True})
    with pytest.raises(TypeError, match="monomial key must be a 3-tuple"):
        LaurentPoly({(1, 2): 3})


def test_the_zero_polynomial_has_no_degree_and_no_least_exponent():
    with pytest.raises(ValueError, match="no degree"):
        ZERO.degree("L")
    with pytest.raises(ValueError, match="no exponents"):
        ZERO.min_exp("M")


def test_add_examples():
    assert mono(1, m=2) + mono(1, x=1) + mono(-1, x=1) == mono(1, m=2)
    p = mono(3, l=1, m=-2) + mono(1, x=2)
    assert p + ZERO == p
    assert ONE + ONE == mono(2)


def test_mul_examples():
    lhs = (ONE + mono(1, l=1, m=1)) * (ONE - mono(1, l=1, m=1))
    assert lhs == ONE - mono(1, l=2, m=2)
    assert mono(1, m=-2) * mono(1, m=2) == ONE


def test_mul_matches_oracle_on_recursion_step():
    lhs = as_dict(Q_CUBIC * P_PLUS2 - mono(1, m=8))
    rhs = naive_add(naive_mul(as_dict(Q_CUBIC), as_dict(P_PLUS2)),
                    naive_neg({(0, 8, 0): 1}))
    assert lhs == rhs


def test_square_of_base_matches_hand_expansion():
    base = mono(1, m=2) + mono(1, m=-2) + mono(1, x=1) - 1
    expected = {
        (0, 4, 0): 1,
        (0, -4, 0): 1,
        (0, 0, 2): 1,
        (0, 0, 0): 3,
        (0, 2, 1): 2,
        (0, 2, 0): -2,
        (0, -2, 1): 2,
        (0, -2, 0): -2,
        (0, 0, 1): -2,
    }
    assert as_dict(base**2) == expected
    assert as_dict(base**2) == naive_pow(as_dict(base), 2)
    assert len(base**2) == 9


def test_pow_examples():
    x = mono(1, x=1)
    assert x**2 == mono(1, x=2)
    p = mono(2, l=1) + mono(-1, m=-1)
    assert p**0 == ONE
    assert p**3 == p * p * p


def test_pow_rejects_negative():
    with pytest.raises(ValueError):
        (ONE + mono(1, x=1)) ** -1


@given(p=st.one_of(polys, row_dense_polys()), q=st.one_of(polys, row_dense_polys()))
def test_add_and_mul_match_naive_oracle(p, q):
    # sparse operands and operands with several terms per row
    assert as_dict(p + q) == naive_add(as_dict(p), as_dict(q))
    assert as_dict(p * q) == naive_mul(as_dict(p), as_dict(q))


def test_every_key_is_a_plain_int_tuple():
    rows = LaurentPoly({(l, m, 0): m + 1 for l in range(3) for m in range(6)})
    point = namedtuple("point", "l m x")
    normalized, unit, _ = (mono(-1, m=-2, x=1) + mono(1, l=1)).normalize_unit()
    built = {
        "constructor": LaurentPoly({point(1, -2, 0): 3, (0, 1, 2): -1}),
        "schoolbook mul": P_MINUS2 * P_MINUS2,
        "packed round trip": packed(0, rows)[0].unpack(),
        "substitute": Q_CUBIC.substitute("x", ONE + mono(1, l=1, m=6), mono(1, l=1), 3),
        "normalize_unit": normalized,
        "from_json": LaurentPoly.from_json(P_PLUS2.to_json()),
        "from_text": LaurentPoly.from_text(P_PLUS2.to_text()),
        "from_latex": LaurentPoly.from_latex(P_PLUS2.to_latex()),
    }
    assert type(unit) is tuple
    for route, poly in built.items():
        assert poly, route
        for m, _ in poly.terms():
            assert type(m) is tuple and all(type(e) is int for e in m), route


def test_sparse_products_stay_sparse():
    # one row of 8 terms spanning 10^5 M-exponents: neither a product nor a substitution may
    # cost a slot per exponent; the substitution of sparse for x in x^2 is the square of sparse
    sparse = LaurentPoly({(0, e, 0): e + 1 for e in [*range(7), 10**5]})
    factor = ONE + mono(1, m=1)
    cases = [(lambda: sparse * factor, naive_mul(as_dict(sparse), as_dict(factor))),
             (lambda: mono(1, x=2).substitute("x", sparse, ONE, 2),
              naive_mul(as_dict(sparse), as_dict(sparse)))]
    for build, expected in cases:
        tracemalloc.start()
        try:
            built = build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert as_dict(built) == expected
        assert peak < 2**20


# substitute forms its sum from schoolbook products: x * den^2 with x := num / den is num * den,
# and (x^2 - 1) * den^2 is num^2 - den^2
def _substituted_product(num, den):
    return mono(1, x=1).substitute("x", num, den, 2)


def _substituted_difference_of_squares(num, den):
    return (mono(1, x=2) - ONE).substitute("x", num, den, 2)


@given(p=row_dense_polys(), q=row_dense_polys())
def test_substituted_products_of_row_dense_values_match_naive_oracle(p, q):
    assume(q)
    a, b = as_dict(p), as_dict(q)
    assert as_dict(_substituted_product(p, q)) == naive_mul(a, b)
    squares = naive_add(naive_mul(a, a), naive_neg(naive_mul(b, b)))
    assert as_dict(_substituted_difference_of_squares(p, q)) == squares


def test_products_mix_rows_whose_m_offsets_differ_in_parity():
    # rows of a start at M-offsets of both parities, so the two operands share no M-step of 2
    a = LaurentPoly({(l, 2 * k + l, 0): 1 for l in range(3) for k in range(4)})
    b = LaurentPoly({(l, 2 * k, 0): k + 1 for l in range(4) for k in range(5)})
    expected = naive_mul(as_dict(a), as_dict(b))
    assert as_dict(a * b) == as_dict(b * a) == expected
    assert as_dict(_substituted_product(a, b)) == expected
    aa, bb = packed(0, a, b)
    assert (aa.stride, bb.stride) == (1, 1) and (aa.unpack(), bb.unpack()) == (a, b)


def test_products_hold_the_largest_possible_coefficient():
    # the M^0 coefficient is 8 * 2^30 * 2^30 = 2^63, one product per term of either side, all alike
    ramp = LaurentPoly({(0, k, 0): 2**30 for k in range(8)})
    mirror = LaurentPoly({(0, -k, 0): 2**30 for k in range(8)})
    for a, b in ((ramp, mirror), (-ramp, mirror)):
        expected = naive_mul(as_dict(a), as_dict(b))
        assert abs(expected[(0, 0, 0)]) == 2**63
        assert as_dict(a * b) == as_dict(_substituted_product(a, b)) == expected
        # packed at its own 1-norm of 2^66, the product reads back from 72-bit slots
        (rows,) = packed(0, a * b)
        assert rows.width == 72 and as_dict(rows.unpack()) == expected


def test_products_drop_cancelled_terms():
    geometric = LaurentPoly({(-1, k - 3, 2): 1 for k in range(8)})
    factor = ONE - mono(1, m=1)
    telescoped = mono(1, l=-1, m=-3, x=2) - mono(1, l=-1, m=5, x=2)
    assert geometric * factor == _substituted_product(geometric, factor) == telescoped
    big = 2**130 + 1
    lhs = mono(big, m=-2) + mono(-big, x=-1)
    expected = (mono(big, l=-1, m=-5, x=2) - mono(big, l=-1, m=3, x=2)
                - mono(big, l=-1, m=-3, x=1) + mono(big, l=-1, m=5, x=1))
    for product in (lhs * telescoped, _substituted_product(lhs, geometric * factor)):
        assert product == expected
        assert all(product._terms.values())


def test_products_and_sums_cancel_to_zero():
    p = LaurentPoly({(0, k, 0): (-1) ** (k % 2) * (2**64 - 1) for k in range(-5, 6)})
    q = mono(2**64 - 1, l=1, m=3, x=-1) + mono(5, m=-1)
    assert (p * q - q * p).is_zero() and not (p + p * -1)._terms
    assert _substituted_difference_of_squares(p, p).is_zero()
    low_half = LaurentPoly({m: c for m, c in p.terms() if m[1] < 0})
    kept = p - low_half
    assert kept.min_exp("M") == 0
    # packed, the row of what is left starts at its lowest remaining term
    assert packed(0, kept)[0].rows[(0, 0)][0] == 0


def test_differences_match_naive_oracle_row_by_row():
    a = LaurentPoly({(0, k, 0): 2**70 + k for k in range(4, 10)}) + mono(5, l=1, m=2, x=1)
    lower = LaurentPoly({(0, k, 0): k - 9 for k in range(6)})  # its row starts below a's
    cancel = mono(5, l=1, m=2, x=1)  # the whole row (1, 1) of a
    lacking = mono(-7, l=-2, m=-4, x=3)  # a row that a lacks
    for b in (lower, cancel, lacking, lower + cancel + lacking, a):
        assert as_dict(a - b) == naive_add(as_dict(a), naive_neg(as_dict(b)))
        assert as_dict(b - a) == naive_add(as_dict(b), naive_neg(as_dict(a)))
        assert packed(0, a - b)[0].unpack() == a - b
    assert (1, 1) not in packed(0, a - cancel)[0].rows and (1, 1) in packed(0, a + cancel)[0].rows
    assert not packed(0, a - a)[0].rows


def test_times_one_is_the_polynomial_and_times_minus_one_its_negation():
    p = LaurentPoly({(0, 2 * k, 0): 2**40 - k for k in range(5)}) + mono(-3, l=1, m=-2, x=2)
    assert p * 1 == 1 * p == p and p * -1 == -1 * p == -p
    assert (p * -1) * -1 == p and (p * 0).is_zero()
    # packed, p and -p normalize to the same rows with opposite signs
    (q, unit, sign), (nq, nunit, nsign) = (packed(0, v)[0].normalize_unit() for v in (p, -p))
    assert (q.unpack(), unit) == (nq.unpack(), nunit) and sign == -nsign
    assert (q.unpack(), unit, sign) == p.normalize_unit()


def test_substituted_products_take_rows_on_different_m_steps():
    # rows on M-steps 2 and 3 at offsets of both parities, all on the grid of stride 1
    a = LaurentPoly({(0, 2 * k, 0): k + 1 for k in range(10)}) + LaurentPoly(
        {(1, 3 * k + 1, 0): -(k + 2) for k in range(10)})
    b = LaurentPoly({(1, 2 * k + 1, 0): 2**40 + k for k in range(10)}) + mono(7, m=5)
    assert packed(0, a)[0].stride == packed(0, b)[0].stride == 1
    for lhs, rhs in ((a, b), (b, a), (a, a), (b, b)):
        assert as_dict(_substituted_product(lhs, rhs)) == naive_mul(as_dict(lhs), as_dict(rhs))
        assert (mono(1, x=1) + ONE).substitute("x", lhs, rhs, 1) == lhs + rhs
    even = LaurentPoly({(0, 2 * k, 0): k + 1 for k in range(10)}) + mono(-3, l=1, m=-6, x=2)
    # packed alone even lands on M-steps of 2, and beside an odd exponent on steps of 1
    (on_two,), (on_one, _) = packed(0, even), packed(0, even, mono(1, m=1))
    assert (on_two.stride, on_one.stride) == (2, 1)
    assert on_two.unpack() == on_one.unpack() == even


# The thick operand of the +-1 products below: two rows of 2^130-sized coefficients, (0, 0)
# from M^10 and (1, 0) from M^-6.  Each product runs both ways round, as a product and as
# the num * den that substitute forms.
THICK = LaurentPoly({(0, 10 + 2 * k, 0): 2**130 + k for k in range(6)}) + LaurentPoly(
    {(1, 2 * k - 6, 0): -(2**129) - 3 * k for k in range(6)})


def _assert_thick_products(thick, thin):
    expected = naive_mul(as_dict(thick), as_dict(thin))
    assert as_dict(thick * thin) == as_dict(thin * thick) == expected
    assert as_dict(_substituted_product(thick, thin)) == expected
    assert as_dict(_substituted_product(thin, thick)) == expected


@pytest.mark.parametrize("thin", [
    # whole one-term rows, entering below and above the rows of THICK they meet
    -ONE - mono(1, l=1, m=2),
    ONE + mono(1, l=1, m=-30),
    mono(1, m=2) - mono(1, l=1, m=-30),
    # rows of two to eight terms with +-1 coefficients, entering first, above and below
    ONE - mono(1, m=2) + mono(1, m=6),
    (ONE - mono(1, m=2)) * (ONE + mono(1, l=1)),
    (mono(1, m=2) - ONE) * (ONE + mono(1, l=1)),
    LaurentPoly({(0, 2 * k, 0): (-1) ** k for k in range(8)}) - mono(1, l=1, m=-40, x=1),
    # +-1 coefficients beside others, and a row of nine terms
    ONE - mono(3, m=2) + mono(1, l=1, m=4),
    LaurentPoly({(0, 2 * k, 0): 1 for k in range(9)}) - mono(1, l=1),
])
def test_products_with_unit_digits_match_naive_oracle(thin):
    _assert_thick_products(THICK, thin)


@st.composite
def unit_thin_polys(draw):
    """One to three rows of one to eight M-steps, every coefficient +-1, at offsets in [-20, 20]."""
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        l, x, start = draw(st.integers(-2, 2)), draw(st.integers(-1, 1)), draw(st.integers(-20, 20))
        for k in range(draw(st.integers(1, 8))):
            terms[(l, start + k, x)] = draw(st.sampled_from([1, -1]))
    return LaurentPoly(terms)


@given(thick=row_dense_polys(), thin=unit_thin_polys())
def test_products_with_unit_digits_match_naive_oracle_by_hypothesis(thick, thin):
    assume(thick)
    _assert_thick_products(thick, thin)


# two +-1 monomials: each sign of each term, terms keyed by L and by x, negative M-exponents
BINOMIALS = [sa * mono(1, m=2) + sb * mono(1, l=1, m=-6) for sa in (1, -1) for sb in (1, -1)] + [
    mono(1, x=1, m=-4) - mono(1, m=10),
    mono(-1, l=-1, m=-2) + mono(1, x=2, m=-8),
    mono(1, l=1, m=3) - mono(1, x=1),
]
NOT_BINOMIALS = [
    ONE + mono(1, l=1) - mono(1, x=1),  # three terms
    mono(2, m=2) - mono(1, l=1, m=-4),  # a coefficient of 2
    mono(-2, m=2) + mono(1, x=1),  # a coefficient of -2
    ONE - mono(1, m=2),  # one row of two terms
]


@pytest.mark.parametrize("top", [0, 1, 5])
@pytest.mark.parametrize("poly", BINOMIALS + NOT_BINOMIALS)
def test_substitute_takes_powers_of_num_and_den_as_repeated_products(poly, top):
    # num's powers come from Horner's rule and den's from one product each; both are poly^top
    expected = naive_pow(as_dict(poly), top)
    assert as_dict(poly**top) == expected
    assert as_dict(mono(1, x=top).substitute("x", poly, ONE, top)) == expected
    assert as_dict(ONE.substitute("x", mono(1, l=7), poly, top)) == expected
    # every power of x in (x + 1)^top: the sum is (poly + 1)^top
    shifted = (mono(1, x=1) + ONE) ** top
    assert as_dict(shifted.substitute("x", poly, ONE, top)) == naive_pow(
        naive_add(as_dict(poly), {(0, 0, 0): 1}), top)


@pytest.mark.parametrize("poly", BINOMIALS + NOT_BINOMIALS)
def test_row_normalize_unit_matches_normalize_unit_on_powers(poly):
    # content in L, M and x, and either sign of the least term, at growing widths
    for j in range(1, 5):
        for power in (poly**j, -(poly**j)):
            (rows,) = packed(0, power)
            q, unit, sign = rows.normalize_unit()
            assert (q.unpack(), unit, sign) == power.normalize_unit()


# Magnitudes at the edges of whole-byte slot widths, mixed with arbitrary ones.
limit_coefficients = st.one_of(
    st.sampled_from([7, 8, 15, 16, 31, 32, 63, 64, 65, 130]).flatmap(
        lambda bits: st.sampled_from([2**bits - 1, 1 - 2**bits, 2 ** (bits - 1), -(2 ** (bits - 1))])
    ),
    wide_coefficients,
)


@st.composite
def packable_polys(draw, stride=1):
    """Rows of one to twelve terms, each row on its own M-offset and step, every exponent signed.

    Every M-exponent is a multiple of stride.
    """
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        l = draw(st.integers(-3, 3))
        x = draw(st.integers(-2, 2))
        start = draw(st.integers(-6, 6))
        step = draw(st.sampled_from([1, 2, 3, 4]))
        for k in range(draw(st.integers(1, 12))):
            terms[(l, stride * (start + step * k), x)] = draw(limit_coefficients)
    return LaurentPoly(terms)


@given(stride=st.sampled_from([1, 2, 3]), data=st.data(), c=limit_coefficients)
def test_packed_rows_read_back_on_the_drawn_stride_and_substitute_matches_naive_oracle(
        stride, data, c):
    # every M-exponent on multiples of the drawn stride; the values packed together share a grid
    p, q, r = (data.draw(packable_polys(stride)) for _ in range(3))
    a, b, d = as_dict(p), as_dict(q), as_dict(r)
    pp, qq, rr = packed(0, p, q, r)
    if any(e[1] for e in (*a, *b, *d)):
        assert pp.stride % stride == 0
    else:
        assert pp.stride == 1
    assert (pp.stride, pp.width) == (qq.stride, qq.width) == (rr.stride, rr.width)
    assert (as_dict(pp.unpack()), as_dict(qq.unpack()), as_dict(rr.unpack())) == (a, b, d)
    # x^2 + c x + r0, r0 being r with its x-exponents set to 0, with x := p / q, cleared by
    # q^2: p^2 + c p q + r0 q^2
    assume(q)
    r0 = LaurentPoly([((l, m, 0), v) for (l, m, _), v in r.terms()])
    got = (mono(1, x=2) + mono(c, x=1) + r0).substitute("x", p, q, 2)
    expected = naive_add(naive_add(naive_mul(a, a), naive_mul({(0, 0, 0): c}, naive_mul(a, b))),
                         naive_mul(as_dict(r0), naive_mul(b, b)))
    assert as_dict(got) == expected


@pytest.mark.parametrize("bits", [7, 8, 15, 16, 31, 32, 63, 64, 127, 128])
def test_packed_slots_hold_a_coefficient_equal_to_the_bound(bits):
    # each value's bound and room are exact here, so a slot one bit narrower than the rule fails
    top, low = 2**bits - 1, -(2 ** (bits - 1))
    for c in (top, low, -top):
        row = LaurentPoly({(0, 2 * k, 0): c if k == 3 else 0 for k in range(5)})
        assert packed(0, row)[0].unpack() == row


def test_packed_rows_hold_what_their_room_allows_and_refuse_the_rest():
    p = LaurentPoly({(0, k, 0): k + 1 for k in range(12)}) + mono(-3, l=1, m=5)
    norm = p.norm1()
    assert norm == 81
    # the width holds the room, and the rows read back at every width
    for room, width in ((norm**7, 48), (71 * norm, 16), (norm * 3**90, 152), (0, 8)):
        (pp,) = packed(room, p)
        assert pp.width == width and pp.unpack() == p
    # packed at its own 1-norm only, p has 8-bit slots: a bound of 2^7 - 1 is the most they hold
    assert laurent._Rows(pp.rows, pp.stride, 8, 2**7 - 1).unpack() == p
    with pytest.raises(OverflowError, match="outgrows 8-bit slots"):
        laurent._Rows(pp.rows, pp.stride, 8, 2**7)


def test_packed_derives_the_stride_and_width_from_its_operands():
    cases = [
        ((mono(1, m=-6), mono(1, m=9)), 3),
        ((mono(1, m=3) + mono(1, m=5),), 1),  # the grid is anchored at M^0
        ((ZERO, ONE), 1),
        ((mono(-2, l=1, m=-4, x=3), mono(5, m=6) - mono(1, m=10)), 2),
    ]
    for polys, stride in cases:
        rows = packed(0, *polys)
        assert [(r.stride, r.width) for r in rows] == [(stride, 8)] * len(polys)
        assert [r.unpack() for r in rows] == list(polys)
    # the width holds the largest of the room and every operand's 1-norm, in whole bytes
    small, big = mono(3, m=2), mono(200, m=4) - mono(55, x=1)
    for room, width in ((0, 16), (255, 16), (2**15 - 1, 16), (2**15, 24), (2**40, 48)):
        assert [r.width for r in packed(room, small, big)] == [width, width]
    assert [r.bound for r in packed(2**40, small, big)] == [3, 255]


@st.composite
def normalizable_rows(draw):
    """(rows, polynomial): content in L, M and x, a sign, and maybe a row whose lowest slot is zero.

    The rows are packable_polys times a drawn signed monomial; when drawn, the
    lowest term of a row of two or more terms is dropped, and that row is
    written from its old lowest M-exponent, so it holds a zero in its lowest slot.
    """
    stride = draw(st.sampled_from([1, 2, 3]))
    poly = draw(packable_polys(stride))
    l, m, x = draw(st.tuples(exponents, exponents, exponents))
    poly = poly * mono(draw(st.sampled_from([1, -1])), l, stride * m, x)
    rows_of: dict = {}
    for (el, em, ex), c in poly.terms():
        rows_of.setdefault((el, ex), []).append((em, c))
    long_rows = sorted(key for key, row in rows_of.items() if len(row) > 1)
    cut = ZERO
    if long_rows and draw(st.booleans()):
        (el, ex) = draw(st.sampled_from(long_rows))
        em, c = rows_of[(el, ex)][0]
        cut = mono(c, el, em, ex)
    # cut is packed too, so that its M-exponent stays on the grid
    pp, _ = packed(0, poly - cut, cut)
    rows = dict(pp.rows)
    if cut:
        lo, value = rows[(el, ex)]
        rows[(el, ex)] = (em, value << (lo - em) // pp.stride * pp.width)
    return laurent._Rows(rows, pp.stride, pp.width, pp.bound), poly - cut


@given(drawn=normalizable_rows())
def test_row_normalize_unit_matches_normalize_unit(drawn):
    rows, poly = drawn
    assume(poly)
    assert rows.unpack() == poly
    q, unit, sign = rows.normalize_unit()
    assert (q.unpack(), unit, sign) == poly.normalize_unit()
    assert (q.stride, q.width) == (rows.stride, rows.width)


def test_row_normalize_unit_examples():
    # -L^2 M^-4 x^-1 (1 - 2M + M^3 x): content in all three variables, a negative least term,
    # and a row written from M^-5, one zero slot below its lowest term
    poly = mono(-1, l=2, m=-4, x=-1) * (1 - mono(2, m=1) + mono(1, m=3, x=1))
    (pp,) = packed(0, poly)
    lo, value = pp.rows[(2, -1)]
    assert lo == -4
    rows = laurent._Rows({**pp.rows, (2, -1): (-5, value << pp.width)}, 1, pp.width, pp.bound)
    assert rows.unpack() == poly
    q, unit, sign = rows.normalize_unit()
    assert (unit, sign) == ((2, -4, -1), -1)
    assert q.unpack() == ONE - mono(2, m=1) + mono(1, m=3, x=1)
    assert (q.unpack(), unit, sign) == poly.normalize_unit()
    # unit-normal already: the same polynomial, unit and sign
    q, unit, sign = packed(0, ONE - mono(1, l=1))[0].normalize_unit()
    assert (q.unpack(), unit, sign) == (ONE - mono(1, l=1), UNIT_MONOMIAL, 1)
    with pytest.raises(ValueError, match="zero polynomial"):
        packed(0, ZERO)[0].normalize_unit()


# polynomials in L >= 0 and even powers of M, the shape of the A_2n routes' sums
polys_lm = st.dictionaries(st.tuples(st.integers(0, 3), st.integers(-3, 3).map(lambda m: 2 * m),
                                     st.just(0)), coefficients, max_size=6).map(LaurentPoly)
even = st.integers(-4, 4).map(lambda e: 2 * e)


def _l_rows(poly, room, empty_lo):
    """poly as the list of rows by power of L that the helpers take, on the stride-2 grid.

    M^2 rides along to fix the stride; a power of L with no terms is the zero int at empty_lo.
    """
    value, _ = packed(room, poly, mono(1, m=2))
    top = poly.degree("L") if poly else -1
    return [value.rows.get((l, 0), (empty_lo, 0)) for l in range(top + 1)], value.width


def _from_l_rows(rows, width):
    return laurent._Rows({(l, 0): row for l, row in enumerate(rows) if row[1]}, 2, width, 0).unpack()


@given(poly=polys_lm, e0=even, s1=st.sampled_from([1, -1]), e1=even, empty_lo=even)
def test_times_binomial_is_the_product_with_the_binomial(poly, e0, s1, e1, empty_lo):
    rows, width = _l_rows(poly, 2 * poly.norm1(), empty_lo)
    out = laurent._times_binomial(rows, e0, s1, e1, 2, width)
    assert len(out) == len(rows) + 1
    assert _from_l_rows(out, width) == poly * (mono(1, m=e0) + mono(s1, l=1, m=e1))


@given(poly=polys_lm, part=polys_lm.map(lambda p: p.coeff("L", 0)), c=st.integers(-5, 5),
       e=even, f=even, j=st.integers(0, 5), empty_lo=even)
def test_add_binomial_power_adds_the_multiple_of_the_power(poly, part, c, e, f, j, empty_lo):
    room = poly.norm1() + abs(c) * part.norm1() * 2**j
    rows, width = _l_rows(poly, room, empty_lo)
    part_rows, _ = _l_rows(part, room, 0)
    part_row = part_rows[0] if part_rows else (empty_lo, 0)
    laurent._add_binomial_power(rows, c, part_row, e, f, j, 2, width)
    assert len(rows) == max(len(_l_rows(poly, room, 0)[0]), j + 1)
    assert _from_l_rows(rows, width) == poly + c * part * (mono(1, m=e) + mono(1, l=1, m=f)) ** j


def test_route_builders_pack_every_operand_at_stride_two(monkeypatch):
    # every M-exponent the four routes meet is even, so every packed() call lands on M-steps of 2
    grids = []

    def recorded(room, *polys):
        rows = packed(room, *polys)  # this module's own name for it is left unpatched
        grids.append({(r.stride, r.width) for r in rows})
        return rows

    for module in (laurent, rmpoly, apoly):
        monkeypatch.setattr(module, "packed", recorded)
    for n in range(-12, 13):
        for route in (rm_closed, rm_recursive, apoly_theorem, apoly_substitution):
            route(n)
    # one call per loop: apoly_substitution runs two (rm_recursive's and its own sum's), and
    # rm_recursive(0) runs none, as P_0 needs no loop
    assert len(grids) == 24 * 5 + 3
    assert all(len(grid) == 1 and next(iter(grid))[0] == 2 for grid in grids)


@given(p=polys, q=polys, r=polys)
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(p=polys, q=polys)
def test_canonical_form_has_no_zero_terms_and_is_sorted(p, q):
    product = p * q
    assert all(c != 0 for _, c in product.terms())
    keys = [m for m, _ in product.terms()]
    assert keys == sorted(keys)


def test_int_coercion():
    p = mono(1, m=2)
    assert p - 1 == mono(1, m=2) + mono(-1)
    assert 1 - p == mono(1) + mono(-1, m=2)
    assert 2 * p == mono(2, m=2)
    assert p * 0 == ZERO


def test_other_operand_types_are_left_to_python():
    # floats, strings and bools are not coerced: each operator gives
    # NotImplemented, so Python raises TypeError, or == falls back to identity
    p = LaurentPoly.from_text("L*M^2 - 3*x + 1")
    for operation in (lambda: p + 1.5, lambda: p - 1.5, lambda: 1.5 - p, lambda: p * "x",
                      lambda: p ** 1.5, lambda: p ** True):
        with pytest.raises(TypeError):
            operation()
    assert (p == "x") is False
    assert repr(p) == f"LaurentPoly({p.to_text()!r})"


def test_coeff_examples():
    p = ONE + mono(1, l=1, m=4)
    assert p.coeff("L", 1) == mono(1, m=4)
    assert p.coeff("L", 0) == ONE
    assert p.coeff("L", 2) == ZERO
    assert P_PLUS2.coeff("x", 3) == mono(-1, m=4)


@given(p=polys)
def test_coeff_reconstructs_polynomial(p):
    assume(not p.is_zero())
    for var, kw in (("L", "l"), ("M", "m"), ("x", "x")):
        total = ZERO
        for k in range(p.min_exp(var), p.degree(var) + 1):
            total = total + p.coeff(var, k) * mono(1, **{kw: k})
        assert total == p


def test_substitute_examples():
    num = ONE + mono(1, l=1, m=6)
    den = mono(1, m=2) + mono(1, l=1)
    assert mono(1, x=1).substitute("x", num, den, 1) == num
    assert ONE.substitute("x", num, den, 3) == den**3
    assert ZERO.substitute("x", num, den, 2) == ZERO


def test_substitute_takes_a_numerator_wider_than_the_sum():
    # with no power of var, num never reaches the sum, however large its coefficients
    big = mono(1000, m=2)
    assert ONE.substitute("x", big, ONE, 0) == ONE
    assert mono(1, l=1).substitute("x", big, ONE, 0) == mono(1, l=1)
    assert mono(3, l=1).substitute("x", big, mono(1, m=2), 1) == mono(3, l=1, m=2)


def test_substitute_rejects_bad_inputs():
    den = mono(1, m=2)
    with pytest.raises(ValueError):
        mono(1, x=-1).substitute("x", ONE, den, 2)
    with pytest.raises(ValueError):
        mono(1, x=3).substitute("x", ONE, den, 2)
    with pytest.raises(ValueError):
        mono(1, x=1).substitute("x", ONE, den, -1)
    with pytest.raises(ValueError):
        mono(1, x=1).substitute("y", ONE, den, 1)


def test_substitute_rejects_zero_denominator():
    for p in (mono(1, x=1), ONE, ZERO):
        with pytest.raises(ValueError, match="denominator"):
            p.substitute("x", ONE, ZERO, 1)


def naive_substitute(p: dict, var: str, num: dict, den: dict, clear_deg: int) -> dict:
    """sum_k coeff(var, k) * num**k * den**(clear_deg - k), one summand at a time."""
    idx = "LMx".index(var)
    parts: dict = {}
    for m, c in p.items():
        rest = tuple(0 if i == idx else e for i, e in enumerate(m))
        parts.setdefault(m[idx], {})[rest] = c
    out: dict = {}
    for k, part in parts.items():
        summand = naive_mul(naive_mul(part, naive_pow(num, k)), naive_pow(den, clear_deg - k))
        out = naive_add(out, summand)
    return out


def seeded_poly(rng, var_exps, var="x", terms=6):
    """Up to terms terms with var-exponents drawn from var_exps and other exponents in [-2, 2]."""
    idx = "LMx".index(var)
    out = {}
    for _ in range(terms):
        m = [rng.randint(-2, 2) for _ in range(3)]
        m[idx] = rng.choice(var_exps)
        out[tuple(m)] = rng.choice([-1, 1]) * rng.randint(1, 9)
    return out


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("var, var_exps, extra", [
    ("x", [0, 1, 2, 3], 0),  # every power of x
    ("x", [0, 1, 2, 3], 3),  # clear_deg above the degree
    ("x", [0, 4], 1),  # missing powers of x
    ("x", [2, 3, 5], 0),  # no x^0 term
    ("x", [1], 2),  # no x^0 term and clear_deg above the degree
    ("L", [0, 2, 3], 1),  # substituting for L
])
def test_substitute_matches_the_naive_power_sum(seed, var, var_exps, extra):
    # substitute evaluates the sum by Horner's rule in num; the oracle takes it summand by summand
    rng = random.Random(seed)
    p = seeded_poly(rng, var_exps, var)
    num = seeded_poly(rng, [0], var, terms=rng.randint(1, 4))
    den = seeded_poly(rng, [0], var, terms=rng.randint(1, 4))
    clear = max(m["LMx".index(var)] for m in p) + extra
    expected = naive_substitute(p, var, num, den, clear)
    got = LaurentPoly(p).substitute(var, LaurentPoly(num), LaurentPoly(den), clear)
    assert as_dict(got) == expected
    # num = 0 leaves the var^0 part times den^clear_deg
    got = LaurentPoly(p).substitute(var, ZERO, LaurentPoly(den), clear)
    assert as_dict(got) == naive_substitute(p, var, {}, den, clear)


@given(p=polys_x_nonneg, num=polys, den=polys, extra=st.integers(0, 2))
def test_substitute_matches_brute_force(p, num, den, extra):
    assume(not den.is_zero())
    degree = 0 if p.is_zero() else p.degree("x")
    clear = degree + extra
    lhs = as_dict(p.substitute("x", num, den, clear))
    rhs: dict = {}
    for k in range(degree + 1):
        part = naive_mul(as_dict(p.coeff("x", k)), naive_pow(as_dict(num), k))
        part = naive_mul(part, naive_pow(as_dict(den), clear - k))
        rhs = naive_add(rhs, part)
    assert lhs == rhs


def test_normalize_unit_examples():
    p = mono(1, m=-2) + mono(1, l=1)  # M^-2 * (1 + L*M^2)
    q, unit, sign = p.normalize_unit()
    assert (q, unit, sign) == (ONE + mono(1, l=1, m=2), (0, -2, 0), 1)

    q, unit, sign = mono(-1, m=4, x=1).normalize_unit()
    assert (q, unit, sign) == (ONE, (0, 4, 1), -1)

    # no monomial to factor out, but a negative least term: only the sign changes
    q, unit, sign = (mono(-1, m=1) + mono(1, l=1)).normalize_unit()
    assert (q, unit, sign) == (mono(1, m=1) - mono(1, l=1), UNIT_MONOMIAL, -1)

    with pytest.raises(ValueError):
        ZERO.normalize_unit()


@given(p=polys)
def test_normalize_unit_reconstructs_and_is_idempotent(p):
    assume(not p.is_zero())
    q, unit, sign = p.normalize_unit()
    assert mono(sign, *unit) * q == p
    assert q.min_exp("L") == 0 and q.min_exp("M") == 0 and q.min_exp("x") == 0
    again, unit2, sign2 = q.normalize_unit()
    assert (again, unit2, sign2) == (q, UNIT_MONOMIAL, 1)
    assert again is q  # a unit-normal polynomial is its own normal form, not a copy


# The scalar specialization at_meridian of tests/oracles.py, the reference that
# the numeric layer's tests compare against.


def _value(p, M0, z):
    values, _ = at_meridian(p, M0)
    return np.polyval(values[::-1], z) if values else 0


def test_eval_examples():
    assert _value(P_MINUS2, 1, 1) == pytest.approx(3)
    assert _value(Q_CUBIC, 1, 0) == pytest.approx(2)
    assert at_meridian(ONE, 2) == ([1], [1])
    assert at_meridian(ZERO, 2) == ([], [])
    values, bounds = at_meridian(mono(3, l=2, m=-1) - mono(4, l=2, m=1) + mono(1, m=2), 2j)
    assert values == [-4, 0j, -1.5j - 8j]
    assert bounds == [4, 0, 3 / 2 + 8]
    # the remaining variable keeps its gaps and starts at power 0
    lengths = [len(at_meridian(p, 1)[0]) for p in (mono(1, x=3), mono(1, l=2), mono(7, m=-3))]
    assert lengths == [4, 3, 1]


def test_eval_keeps_mpmath_precision():
    with mp.workdps(40):
        M0 = mp.mpc(1, 3) / 7
        values, bounds = at_meridian(Q_CUBIC, M0)
        assert all(type(v) is mp.mpc for v in values)
        assert all(type(b) is mp.mpf for b in bounds)
        expected = -(M0**8) + 2 * M0**6 - 3 * M0**4 + 2 * M0**2 - 1
        assert abs(values[1] - expected) < mp.mpf(10) ** -38
    plain, _ = at_meridian(Q_CUBIC, complex(1, 3) / 7)
    assert all(abs(complex(v) - w) < 1e-15 for v, w in zip(values, plain))


def test_eval_error_cases():
    with pytest.raises(ZeroDivisionError):
        at_meridian(mono(1, m=-2) + mono(1, x=1), 0)
    assert at_meridian(mono(1, m=2) + mono(1, x=1), 0) == ([0, 1], [0, 1])
    with pytest.raises(ValueError, match="one of L, x"):
        at_meridian(mono(1, l=1) + mono(1, x=1), 2)
    with pytest.raises(ValueError, match="negative exponents of x"):
        at_meridian(ONE + mono(1, x=-1), 2)
    with pytest.raises(ValueError, match="negative exponents of L"):
        at_meridian(mono(1, l=-1, m=2), 2)


@given(p=polys_in_m_and_x, q=polys_in_m_and_x, M0=unit_band_complex, z=unit_band_complex)
def test_eval_is_multiplicative(p, q, M0, z):
    lhs = _value(p * q, M0, z)
    rhs = _value(p, M0, z) * _value(q, M0, z)
    scale = max(1.0, _magnitude(p, M0, z) * _magnitude(q, M0, z))
    assert abs(lhs - rhs) <= 1e-10 * scale


def _magnitude(p, M0, z):
    _, bounds = at_meridian(p, M0)
    return sum(b * abs(z) ** k for k, b in enumerate(bounds))


@given(p=polys_in_m_and_x, M0=unit_band_complex)
def test_eval_magnitude_sums_bound_their_coefficients(p, M0):
    values, bounds = at_meridian(p, M0)
    assert len(values) == len(bounds)
    for value, bound in zip(values, bounds):
        assert abs(value) <= bound * (1 + 1e-12)


def test_json_fixed_strings():
    assert ONE.to_json() == '{"terms":[{"l":0,"m":0,"x":0,"c":"1"}]}'
    assert mono(1, m=-2).to_json() == '{"terms":[{"l":0,"m":-2,"x":0,"c":"1"}]}'
    assert ZERO.to_json() == '{"terms":[]}'


@given(p=st.dictionaries(monomials, wide_coefficients, max_size=8).map(LaurentPoly))
def test_json_text_is_the_compact_dump_of_the_json_object(p):
    assert p.to_json() == json.dumps(p.to_json_obj(), separators=(",", ":"))


@given(p=polys)
def test_json_round_trip(p):
    text = p.to_json()
    back = LaurentPoly.from_json(text)
    assert back == p
    assert back.to_json() == text


@pytest.mark.parametrize(
    "payload",
    [
        '{"terms":[{"l":0,"m":0,"x":0,"c":"1"},{"l":0,"m":0,"x":0,"c":"2"}]}',
        '{"terms":[{"l":0,"m":0,"x":0,"c":"0"}]}',
        '{"terms":[{"l":0.5,"m":0,"x":0,"c":"1"}]}',
        '{"terms":[{"l":true,"m":0,"x":0,"c":"1"}]}',
        '{"terms":[{"l":0,"m":0,"x":0,"c":"1.5"}]}',
        '{"terms":[{"l":0,"m":0,"x":0,"c":1}]}',
        '{"terms":[{"l":0,"m":0,"c":"1"}]}',
        '{"terms":[{"l":0,"m":0,"x":0,"c":"1","extra":0}]}',
        '{"terms":{}}',
        '{"poly":[]}',
        '[1,2]',
        'not json',
    ],
)
def test_json_parse_rejects_malformed(payload):
    with pytest.raises(ValueError):
        LaurentPoly.from_json(payload)


def test_text_and_latex_fixed_strings():
    p = (
        mono(1, l=2, m=4) + mono(-1, l=1, m=8) + mono(1, l=1, m=6)
        + mono(2, l=1, m=4) + mono(1, l=1, m=2) + mono(-1, l=1) + mono(1, m=4)
    )
    assert p.to_text() == "L^2*M^4 - L*M^8 + L*M^6 + 2*L*M^4 + L*M^2 - L + M^4"
    assert p.to_latex() == "L^{2} M^{4} - L M^{8} + L M^{6} + 2 L M^{4} + L M^{2} - L + M^{4}"
    assert ZERO.to_text() == "0"
    assert LaurentPoly.from_text("0") == ZERO
    assert mono(-3, m=-2).to_text() == "-3*M^-2"
    assert mono(-3, m=-2).to_latex() == "-3 M^{-2}"


@given(p=polys)
def test_text_and_latex_round_trip(p):
    assert LaurentPoly.from_text(p.to_text()) == p
    assert LaurentPoly.from_latex(p.to_latex()) == p


@pytest.mark.parametrize("text", ["", "L +", "2**L", "L^", "y^2", "3*L 4", "1..2", "x + -", "x*3"])
def test_text_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        LaurentPoly.from_text(text)
