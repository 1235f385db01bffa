"""Tests for the trace polynomials: closed form, recursion, and their laws."""

import pytest

from c2n3.laurent import ONE, _Rows, mono
from c2n3.rmpoly import RMResult, binom_z, q_poly, rm_closed, rm_recursive
from oracles import (as_dict, at_meridian, naive_add, naive_mul, naive_neg,
                     rm_closed_summand_by_summand)


# the three literals the recursion is seeded with, re-entered independently
P2 = (
    mono(-1, m=4, x=3)
    + mono(-2, m=6, x=2) + mono(1, m=4, x=2) + mono(-2, m=2, x=2)
    + mono(-1, m=8, x=1) + mono(1, m=6, x=1) + mono(-2, m=4, x=1)
    + mono(1, m=2, x=1) + mono(-1, x=1)
    + mono(1, m=4)
)
PM2 = (
    mono(1, m=2, x=2)
    + mono(1, m=4, x=1) + mono(-1, m=2, x=1) + mono(1, x=1)
    + mono(1, m=2)
)
Q = (
    mono(-1, m=4, x=3)
    + mono(-2, m=6, x=2) + mono(2, m=4, x=2) + mono(-2, m=2, x=2)
    + mono(-1, m=8, x=1) + mono(2, m=6, x=1) + mono(-3, m=4, x=1)
    + mono(2, m=2, x=1) + mono(-1, x=1)
    + mono(2, m=4)
)


@pytest.mark.parametrize(
    "a, b, expected",
    [(0, 0, 1), (5, 2, 10), (3, 0, 1), (4, 4, 1), (2, 3, 0), (-1, 0, 0),
     (4, -1, 0), (-3, -3, 0), (7, 3, 35)],
)
def test_binom_z_values(a, b, expected):
    assert binom_z(a, b) == expected


def test_binom_z_pascal_identity_exhaustive():
    for a in range(-20, 21):
        for b in range(-20, 21):
            if (a, b) == (0, 0):
                continue
            assert binom_z(a, b) == binom_z(a - 1, b - 1) + binom_z(a - 1, b)


def test_q_literal_and_rewrite():
    assert q_poly() == Q
    base = mono(1, m=2) + mono(1, m=-2) + mono(1, x=1) - 1
    assert q_poly() == mono(1, m=4) * (2 - mono(1, x=1) * base**2)
    # the factored form the recursion applies, through T' = M^4 - M^2 + 1
    t = mono(1, m=4) - mono(1, m=2) + 1
    assert t == mono(1, m=2) * (mono(1, m=2) + mono(1, m=-2) - 1)
    assert q_poly() == (mono(2, m=4) - mono(1, x=1) * t**2 - mono(2, m=2, x=2) * t
                        - mono(1, m=4, x=3))
    assert at_meridian(q_poly(), 1.0)[0][0] == pytest.approx(2)


@pytest.mark.parametrize("fn, label", [(rm_closed, "closed"), (rm_recursive, "recursive")])
def test_small_n_literals(fn, label):
    for n, expected in ((0, ONE), (1, P2), (-1, PM2)):
        result = fn(n)
        assert isinstance(result, RMResult)
        assert result.n == n
        assert result.path == label
        assert result.poly == expected


def test_recursion_step_against_naive_oracle():
    # P_4 = Q*P_2 - M^8 * P_0, assembled entirely in naive dict arithmetic
    expected = naive_add(
        naive_mul(as_dict(Q), as_dict(P2)),
        naive_neg({(0, 8, 0): 1}),
    )
    assert as_dict(rm_closed(2).poly) == expected
    assert as_dict(rm_recursive(2).poly) == expected


def test_downward_recursion_step_against_naive_oracle():
    # P_-4 = Q*P_-2 - M^8 * M^-2
    expected = naive_add(
        naive_mul(as_dict(Q), as_dict(PM2)),
        naive_neg({(0, 6, 0): 1}),
    )
    assert as_dict(rm_closed(-2).poly) == expected
    assert as_dict(rm_recursive(-2).poly) == expected


@pytest.mark.parametrize("n", range(-10, 11))
def test_closed_equals_recursive(n):
    assert rm_closed(n).poly == rm_recursive(n).poly


@pytest.mark.parametrize("n", [*range(-10, 11), -24, 24])
def test_closed_form_matches_its_sum_taken_summand_by_summand(n):
    # rm_closed expands the base by the binomial theorem and never multiplies by it;
    # the reference multiplies by the base once per summand
    assert as_dict(rm_closed(n).poly) == rm_closed_summand_by_summand(n)


def test_closed_form_forms_no_product_sum_or_shift_of_packed_rows(monkeypatch):
    # each x-row is built as one int from the table of T' powers, and unpacked once
    expected = {n: rm_recursive(n).poly for n in range(-8, 9)}

    def refuse(*args, **kwargs):
        raise AssertionError("the closed form ran an operation on packed rows")

    for name in ("__mul__", "_plus", "shift"):
        monkeypatch.setattr(_Rows, name, refuse)
    for n, poly in expected.items():
        assert rm_closed(n).poly == poly


@pytest.mark.parametrize("n", [k for k in range(-8, 9) if k != 0])
def test_x_degree_and_leading_coefficient(n):
    poly = rm_closed(n).poly
    if n > 0:
        deg = 3 * n
        lead = mono((-1) ** n, m=4 * n)
    else:
        deg = -3 * n - 1
        lead = mono((-1) ** (abs(n) + 1), m=-4 * n - 2)
    assert poly.degree("x") == deg
    assert poly.coeff("x", deg) == lead


@pytest.mark.parametrize("n", range(-8, 9))
def test_variable_l_never_appears(n):
    poly = rm_closed(n).poly
    assert poly.min_exp("L") == 0 and poly.degree("L") == 0


def test_three_term_recursion_holds_for_closed_form():
    m8 = mono(1, m=8)
    for n in range(2, 7):
        assert rm_closed(n).poly == Q * rm_closed(n - 1).poly - m8 * rm_closed(n - 2).poly
    for n in range(-6, -2):
        assert rm_closed(n).poly == Q * rm_closed(n + 1).poly - m8 * rm_closed(n + 2).poly
    # the step into n = -2 uses the downward seed M^-2 in place of P_0
    assert rm_closed(-2).poly == Q * rm_closed(-1).poly - m8 * mono(1, m=-2)
