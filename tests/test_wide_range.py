"""A_2n and numeric checks over a wider n range than the pinned acceptance criteria."""

from functools import cache

import pytest

from c2n3.apoly import apoly_substitution, apoly_theorem
from c2n3.laurent import LaurentPoly
from c2n3.repcheck import BadPoint, VerificationReport, sample_unit_modulus, verify_family


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
