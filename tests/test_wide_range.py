"""A_2n and numeric checks over a wider n range than the pinned acceptance criteria."""

import math
from functools import cache

import pytest

from c2n3.apoly import apoly_substitution, apoly_theorem, newton_polygon
from c2n3.laurent import LaurentPoly, mono
from c2n3.repcheck import (
    BadPoint,
    NonConvergenceError,
    RepeatedRootError,
    VerificationReport,
    roots_of_rm,
    sample_unit_modulus,
    verify_family,
)
from c2n3.rmpoly import rm_closed, rm_recursive

NONZERO_N = [n for n in range(-20, 21) if n]


@cache
def theorem_poly(n):
    return apoly_theorem(n).poly


@pytest.mark.parametrize("n", [15, 16, 17, 18, -15, -16, -17, -18])
def test_theorem_and_substitution_routes_agree(n):
    assert theorem_poly(n) == apoly_substitution(n).poly


@pytest.mark.parametrize("n", range(-20, 21))
def test_only_even_powers_of_m(n):
    assert all(expM % 2 == 0 for (_, expM, _), _ in theorem_poly(n).terms())


@pytest.mark.parametrize("n", range(-20, 21))
def test_reciprocity(n):
    # A(1/L, 1/M) equals A(L, M) up to a monomial, and with the same sign
    poly = theorem_poly(n)
    flipped = LaurentPoly({(-l, -m, -x): c for (l, m, x), c in poly.terms()})
    normalized, _, sign = flipped.normalize_unit()
    assert normalized == poly and sign == 1


@pytest.mark.parametrize("n", [7, -7, 8, -8])
def test_verify_family_beyond_the_acceptance_grid(n):
    # every point verifies, and the only unverifiable samples are repeated roots
    reports = verify_family(n, sample_unit_modulus(20, 0), 1e-8)
    assert all(r.passed for r in reports if isinstance(r, VerificationReport))
    assert all("polished to the same value" in r.reason for r in reports if isinstance(r, BadPoint))
    assert sum(isinstance(r, VerificationReport) for r in reports) > 0


@pytest.mark.parametrize("n", [50, 60, -50, -60])
def test_closed_and_recursive_p_agree_beyond_the_acceptance_range(n):
    assert rm_closed(n).poly == rm_recursive(n).poly


@pytest.mark.parametrize("n", [19, 20, -19, -20])
def test_theorem_and_substitution_routes_agree_at_the_edge_of_the_range(n):
    assert theorem_poly(n) == apoly_substitution(n).poly


@pytest.mark.parametrize("n", [30, 40, -30, -40])
def test_theorem_and_substitution_routes_agree_far_beyond_the_acceptance_range(n):
    # both A_2n power sums run by Horner's rule, which keeps n = +-40 cheap enough for tier-1
    assert apoly_theorem(n).poly == apoly_substitution(n).poly


def alexander_in_m(n):
    """Delta_K(M^2) for K = C(2n, 3) = b(6n+1, 3), by the Hartley-Minkus sum, unit-normalized.

    Delta(t) = sum_{k<p} (-1)^k t^(e_1 + ... + e_k) with e_i = (-1)^floor(3i/p)
    and p = |6n+1|.
    """
    p = abs(6 * n + 1)
    terms = {}
    height = 0
    for k in range(p):
        if k:
            height += (-1) ** (3 * k // p)
        terms[(0, 2 * height, 0)] = terms.get((0, 2 * height, 0), 0) + (-1) ** k
    return LaurentPoly(terms).normalize_unit()[0]


def test_alexander_polynomials_of_the_first_knots():
    assert alexander_in_m(1) == mono(2, m=4) - mono(3, m=2) + 2  # 5_2
    assert alexander_in_m(-1) == mono(1, m=4) - mono(3, m=2) + 1  # 4_1


@pytest.mark.parametrize("n", NONZERO_N)
def test_riley_p_is_the_alexander_polynomial_on_the_reducible_locus(n):
    # at x = 2 - M^2 - M^-2 the representation is reducible, and P_2n is Delta_K(M^2) up to a unit
    p = rm_closed(n).poly
    num = mono(2, m=2) - mono(1, m=4) - 1
    on_locus = p.substitute("x", num, mono(1, m=2), p.degree("x"))
    assert on_locus.normalize_unit()[0] == alexander_in_m(n)


def exact_quotient(divisor, dividend):
    """dividend / divisor for integer polynomials, or None when that leaves a remainder.

    Coefficient lists, lowest power first, with a nonzero last entry in divisor.
    """
    rest = list(dividend)
    lead = divisor[-1]
    out = [0] * max(len(rest) - len(divisor) + 1, 0)
    for top in range(len(rest) - 1, len(divisor) - 2, -1):
        quotient, remainder = divmod(rest[top], lead)
        if remainder:
            return None
        out[top - len(divisor) + 1] = quotient
        for i, d in enumerate(divisor):
            rest[top - len(divisor) + 1 + i] -= quotient * d
    return None if any(rest) else out


def divides(divisor, dividend):
    """Whether one integer polynomial divides another; coefficient lists, lowest power first."""
    return exact_quotient(divisor, dividend) is not None


def coefficient_list_in_m(poly):
    out = [0] * (poly.degree("M") + 1)
    for (_, m, _), c in poly.terms():
        out[m] += c
    return out


def test_divides_is_exact_division():
    assert divides([1, 1], [1, 2, 1]) and divides([2, -3, 2], [2, -3, 2])
    assert not divides([1, 1], [1, 2, 2]) and not divides([2, 1], [1, 1])
    assert exact_quotient([1, 1], [-1, 0, 1]) == [-1, 1] and exact_quotient([2], [4, 6]) == [2, 3]


@pytest.mark.parametrize("n", NONZERO_N)
def test_alexander_polynomial_divides_a_at_trivial_longitude(n):
    # the nonabelian reducible representations, at the roots of Delta(M^2), have L = 1
    at_one = coefficient_list_in_m(theorem_poly(n))
    assert any(at_one)
    assert divides(coefficient_list_in_m(alexander_in_m(n)), at_one)


@pytest.mark.parametrize("n", [14, 16, -16])
def test_unit_meridians_never_collapse_the_x_degree(n):
    # the leading x-coefficient of P_2n is a monomial in M, so a sample that fails
    # must fail for its true reason
    for M0 in sample_unit_modulus(20, 0):
        try:
            roots_of_rm(n, M0)
        except (NonConvergenceError, RepeatedRootError):
            pass


@cache
def cyclotomic(d):
    """Phi_d as a coefficient list, lowest power first: x^d - 1 over Phi_e for every proper divisor e."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = exact_quotient(cyclotomic(e), poly)
    return poly


def is_cyclotomic_product(poly):
    """Whether an integer polynomial is +-1 times a product of cyclotomic polynomials.

    Divides by Phi_1, Phi_2, ... for as long as each one goes.  Every d with
    phi(d) <= deg has d <= 2 deg^2, because phi(d) >= sqrt(d / 2).
    """
    rest, d = list(poly), 1
    while len(rest) > 1 and d <= 2 * (len(rest) - 1) ** 2:
        quotient = exact_quotient(cyclotomic(d), rest)
        if quotient is None:
            d += 1
        else:
            rest = quotient
    return rest in ([1], [-1])


def edge_polynomials(poly):
    """The coefficients along each Newton-polygon edge of a polynomial in L and M, one list per edge."""
    coeffs = {(l, m): c for (l, m, _), c in poly.terms()}
    vertices = newton_polygon(poly).vertices
    out = []
    for (l0, m0), (l1, m1) in zip(vertices, vertices[1:] + vertices[:1]):
        length = math.gcd(l1 - l0, m1 - m0)
        dl, dm = (l1 - l0) // length, (m1 - m0) // length
        out.append([coeffs.get((l0 + k * dl, m0 + k * dm), 0) for k in range(length + 1)])
    return out


def test_cyclotomic_polynomials_and_products():
    assert [cyclotomic(d) for d in (1, 2, 3, 4, 6)] == [
        [-1, 1], [1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]]
    assert cyclotomic(12) == [1, 0, -1, 0, 1] and len(cyclotomic(105)) == 49
    assert is_cyclotomic_product([-1, 0, 0, 0, 0, 0, 1]) and is_cyclotomic_product([-1, 2, -1])
    assert not is_cyclotomic_product([2, -3, 2]) and not is_cyclotomic_product([1, 3, 1])
    assert not is_cyclotomic_product([2, 2])


@pytest.mark.parametrize("n", NONZERO_N)
def test_newton_edge_polynomials_are_products_of_cyclotomics(n):
    # Cooper-Culler-Gillet-Long-Shalen 1994: every edge polynomial of an A-polynomial is cyclotomic
    edges = edge_polynomials(theorem_poly(n))
    assert len(edges) >= 4
    for edge in edges:
        assert edge[0] and edge[-1] and is_cyclotomic_product(edge), edge
