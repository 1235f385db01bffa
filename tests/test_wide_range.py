"""A_2n and numeric checks over a wider n range than the pinned acceptance criteria."""

from functools import cache

import pytest

from c2n3.apoly import apoly_substitution, apoly_theorem
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


def divides(divisor, dividend):
    """Whether one integer polynomial divides another; coefficient lists, lowest power first."""
    rest = list(dividend)
    lead = divisor[-1]
    for top in range(len(rest) - 1, len(divisor) - 2, -1):
        quotient, remainder = divmod(rest[top], lead)
        if remainder:
            return False
        for i, d in enumerate(divisor):
            rest[top - len(divisor) + 1 + i] -= quotient * d
    return not any(rest)


def coefficient_list_in_m(poly):
    out = [0] * (poly.degree("M") + 1)
    for (_, m, _), c in poly.terms():
        out[m] += c
    return out


def test_divides_is_exact_division():
    assert divides([1, 1], [1, 2, 1]) and divides([2, -3, 2], [2, -3, 2])
    assert not divides([1, 1], [1, 2, 2]) and not divides([2, 1], [1, 1])


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
