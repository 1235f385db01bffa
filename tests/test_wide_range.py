"""A_2n and numeric checks over a wider n range than the pinned acceptance criteria."""

import hashlib
import math
from fractions import Fraction
from functools import cache

import pytest

from c2n3 import repcheck
from c2n3.apoly import APolyResult, apoly_substitution, apoly_theorem, newton_polygon
from c2n3.laurent import LaurentPoly, mono
from c2n3.repcheck import (
    BadPoint,
    NonConvergenceError,
    RepeatedRootError,
    VerificationReport,
    longitude_eigen,
    roots_of_rm,
    sample_unit_modulus,
    verify_family,
    verify_point,
)
from c2n3.rmpoly import rm_closed, rm_recursive

NONZERO_N = [n for n in range(-20, 21) if n]


@cache
def theorem_poly(n):
    return apoly_theorem(n).poly


# SHA-256 of the to_json() lines of each route for n in [-20, 20], one per line.  Route
# agreement cannot see a kernel fault that both routes of a family share; these pins can.
FAMILY_SHA256 = {
    rm_closed: "873c9382b126c6723b226e6904b3557252aa7ee28678a457d29621f489e8da38",
    rm_recursive: "873c9382b126c6723b226e6904b3557252aa7ee28678a457d29621f489e8da38",
    apoly_theorem: "cc0a93f257551a01f5dc4573fc8a1e8d7359fe670388c7c8292cf0920006b64b",
    apoly_substitution: "cc0a93f257551a01f5dc4573fc8a1e8d7359fe670388c7c8292cf0920006b64b",
}


@pytest.mark.parametrize("route", FAMILY_SHA256, ids=lambda route: route.__name__)
def test_every_route_is_pinned_from_minus_20_to_20(route):
    lines = "".join(route(n).poly.to_json() + "\n" for n in range(-20, 21))
    assert hashlib.sha256(lines.encode()).hexdigest() == FAMILY_SHA256[route]


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
    # every sample gives a root for every x-degree of P_2n, and every point verifies
    reports = verify_family(n, sample_unit_modulus(20, 0), 1e-8)
    assert not any(isinstance(r, BadPoint) for r in reports)
    assert len(reports) == 20 * (3 * abs(n) - (n < 0))
    assert all(r.passed for r in reports)


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


@pytest.mark.parametrize("n", [16, -16, 24, -24, 32, -32])
def test_verify_family_checks_every_root_far_beyond_the_acceptance_grid(n):
    reports = verify_family(n, sample_unit_modulus(20, 0), 1e-8)
    assert not any(isinstance(r, BadPoint) for r in reports)
    assert len(reports) == 20 * (3 * abs(n) - (n < 0))
    assert all(r.passed for r in reports)


def _cached_theorem(monkeypatch):
    # verify_point builds A_2n by apoly_theorem; hand it the cached one
    monkeypatch.setattr(repcheck, "apoly_theorem",
                        lambda n: APolyResult(n, theorem_poly(n), "theorem"))


def test_apoly_residual_stays_finite_where_powers_of_l0_overflow(monkeypatch):
    # at n = 64 A_2n has L-degree 192, and |L0| reaches 134 at this meridian,
    # so |L0|^192 is far past the largest double
    n, M0 = 64, sample_unit_modulus(20, 0)[0]
    apoly = theorem_poly(n)
    x0 = max(roots_of_rm(n, M0), key=lambda x: abs(longitude_eigen(n, M0, x)))
    assert apoly.degree("L") * math.log2(abs(longitude_eigen(n, M0, x0))) > 1024
    _cached_theorem(monkeypatch)
    report = verify_point(n, M0, x0, 1e-8)
    assert math.isfinite(report.apoly_residual) and report.apoly_residual <= 1e-8
    assert report.passed


def test_apoly_residual_keeps_its_direct_form_where_that_does_not_overflow(monkeypatch):
    # at M0 = 0.5 the terms of A_24 at high powers of L underflow to 0, so the form
    # in 1/L0 would sum to 0 at roots with |L0| > 1
    n, M0 = 12, 0.5
    roots = roots_of_rm(n, M0)
    assert max(abs(longitude_eigen(n, M0, x)) for x in roots) > 1e10
    _cached_theorem(monkeypatch)
    for x0 in roots:
        assert math.isfinite(verify_point(n, M0, x0, 1e-8).apoly_residual)


@pytest.mark.parametrize("n, M0", [(12, 2.0), (-12, 0.5)])
def test_verify_family_off_the_unit_circle_reports_out_of_range_values_as_bad_points(n, M0):
    # the roots are found there, but A_2n at M0 leaves the double range
    reports = verify_family(n, [M0], 1e-8)
    assert len(reports) == 3 * abs(n) - (n < 0)
    bad = [r for r in reports if isinstance(r, BadPoint)]
    assert bad and all("out of double range" in r.reason for r in bad)
    assert not any(r.passed for r in reports)


def squarefree_mod(coeffs, p):
    """Whether gcd(f, f') = 1 over GF(p).

    f is an integer coefficient list, lowest power first, whose last entry is nonzero mod p.
    """

    def trimmed(f):
        while f and f[-1] % p == 0:
            f.pop()
        return f

    def remainder(a, b):
        inverse = pow(b[-1], -1, p)
        while len(a) >= len(b):
            quotient, shift = a[-1] * inverse % p, len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - quotient * c) % p
            trimmed(a)
        return a

    f = trimmed([c % p for c in coeffs])
    g = trimmed([k * c % p for k, c in enumerate(coeffs)][1:])
    while g:
        f, g = g, remainder(f, g)
    return len(f) == 1


PRIME = 2**31 - 1


def test_squarefree_mod_finds_repeated_factors():
    assert squarefree_mod([1, 0, 1], PRIME) and squarefree_mod([-2, 1, 1], PRIME)
    assert not squarefree_mod([2, -3, 0, 1], PRIME)  # (x - 1)^2 (x + 2)
    assert not squarefree_mod([1, 2, 1], PRIME) and not squarefree_mod([0, 0, 5], PRIME)
    assert not squarefree_mod([1, 0, 1], 2)  # x^2 + 1 = (x + 1)^2 over GF(2)


@pytest.mark.parametrize("n", NONZERO_N)
def test_riley_polynomial_at_the_parabolic_meridian_is_squarefree(n):
    # Riley 1972: the nonabelian parabolic representations are simple, so P_2n(x, 1)
    # has no repeated root; squarefree with its full degree mod p gives that over Q
    poly = rm_closed(n).poly
    at_one = [0] * (poly.degree("x") + 1)
    for (_, _, k), c in poly.terms():
        at_one[k] += c
    assert at_one[-1] % PRIME and len(at_one) == 3 * abs(n) - (n < 0) + 1
    assert squarefree_mod(at_one, PRIME)


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


def continued_fractions(x):
    """Every expansion x = 1/(b1 - 1/(b2 - ...)) with every |b_i| >= 2, for a Fraction 0 < |x| < 1."""
    y = 1 / x
    for b in {math.floor(y), math.ceil(y)}:
        tail = b - y  # the next 1/(b2 - ...), which is 0 or below 1 in size
        if abs(b) >= 2 and abs(tail) < 1:
            if tail:
                yield from ((b, *rest) for rest in continued_fractions(tail))
            else:
                yield (b,)


def boundary_slopes(n):
    """The boundary slopes of C(2n, 3), by Hatcher-Thurston 1985, from the fraction 2n/(6n + 1).

    Each expansion r - k = 1/(b1 - 1/(b2 - ...)) of r = 2n/(6n + 1) over the
    integers k with |r - k| < 1 gives one slope -2[(n+ - n-) - (n0+ - n0-)],
    where n+ and n- count its positive and negative b_i, and n0+ and n0- those
    of the unique expansion whose b_i are all even.  The sign in front is
    the orientation of newton_polygon's (L, M) plane, pinned by 5_2 and 4_1.
    """
    r = Fraction(2 * n, 6 * n + 1)
    expansions = [bs for k in (math.floor(r), math.ceil(r)) if 0 < abs(r - k) < 1
                  for bs in continued_fractions(r - k)]
    (all_even,) = [bs for bs in expansions if all(b % 2 == 0 for b in bs)]

    def signs(bs):
        return sum(b > 0 for b in bs) - sum(b < 0 for b in bs)

    return {-2 * (signs(bs) - signs(all_even)) for bs in expansions}


def test_boundary_slopes_of_the_first_knots():
    # 5_2 = C(2, 3) and 4_1 = C(-2, 3) pin the orientation of the slopes
    assert boundary_slopes(1) == {0, 4, 10}
    assert boundary_slopes(-1) == {-4, 0, 4}
    assert boundary_slopes(-2) == {-8, -2, 0, 4}


@pytest.mark.parametrize("n", NONZERO_N)
def test_newton_slopes_are_boundary_slopes(n):
    # Cooper-Culler-Gillet-Long-Shalen 1994: the slopes of the Newton polygon are boundary slopes
    slopes = set(newton_polygon(theorem_poly(n)).slopes)
    assert slopes <= boundary_slopes(n), (slopes, boundary_slopes(n))
