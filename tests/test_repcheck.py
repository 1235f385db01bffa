"""Tests for the numeric representation checks: words, matrices, roots, residuals."""

import cmath
import dataclasses
import itertools
import json
import math
import random
import re
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st
from oracles import (
    at_meridian,
    mpmath_polish_root,
    numpy_word_product,
    one_lane_rho,
    one_lane_word,
    scalar_verify_family,
    scan_report,
)

from c2n3.apoly import APolyResult, apoly_theorem, substitution_x
from c2n3.laurent import ONE, LaurentPoly, mono
from c2n3.rmpoly import rm_closed
from c2n3.repcheck import (
    BadPoint,
    DegreeCollapseError,
    NonConvergenceError,
    RepeatedRootError,
    SingularPointError,
    VerificationReport,
    _check,
    _first_repeat,
    _reduced,
    _roots_batch,
    _starts,
    build_longitude,
    build_w,
    longitude_eigen,
    relator_word,
    roots_of_rm,
    sample_unit_modulus,
    verify_family,
    verify_point,
)

TWIST_BLOCK = (("t", 1), ("s", -1), ("t", 1), ("s", 1), ("t", -1), ("s", 1))


# -- words ----------------------------------------------------------------


def test_word_free_reduction():
    assert _reduced([("s", 1), ("s", 1)]) == (("s", 2),)
    assert _reduced([("s", 1), ("s", -1)]) == ()
    assert _reduced([("s", 1), ("t", 1), ("t", -1), ("s", 1)]) == (("s", 2),)
    assert _reduced([("s", 0), ("t", 2)]) == (("t", 2),)
    assert _reduced([("t", 2), ("s", 0), ("t", -1)]) == (("t", 1),)


def test_build_w_literals():
    assert build_w(0) == ()
    assert build_w(1) == TWIST_BLOCK
    assert build_w(-1) == (
        ("s", -1), ("t", 1), ("s", -1), ("t", -1), ("s", 1), ("t", -1),
    )
    assert build_w(2) == build_w(1) + build_w(1)
    assert build_w(-2) == build_w(-1) + build_w(-1)


def test_build_longitude_literals():
    assert build_longitude(0) == ()
    assert build_longitude(1) == (
        ("t", 1), ("s", -1), ("t", 1), ("s", 1), ("t", -1), ("s", 2),
        ("t", -1), ("s", 1), ("t", 1), ("s", -1), ("t", 1), ("s", -4),
    )
    # for n < 0 the leading s cancels against w and t^-1 merges with its neighbours
    assert relator_word(-1) == (
        ("t", 1), ("s", -1), ("t", -1), ("s", 1), ("t", -1),
        ("s", -1), ("t", 1), ("s", 1), ("t", -1), ("s", 1),
    )


@pytest.mark.parametrize("n", range(-5, 6))
def test_exponent_sums(n):
    assert sum(e for _, e in build_longitude(n)) == 0
    relator = relator_word(n)
    s_sum = sum(e for g, e in relator if g == "s")
    t_sum = sum(e for g, e in relator if g == "t")
    assert (s_sum, t_sum) == (1, -1)


# -- generator matrices and word evaluation ---------------------------------


def test_rho_fixtures():
    s_mat, t_mat = one_lane_rho(1.0, 0.0)
    assert np.allclose(s_mat, [[1, 1], [0, 1]])
    assert np.allclose(t_mat, np.eye(2))

    _, t_mat = one_lane_rho(1j, 1.0)
    assert t_mat[1, 0] == pytest.approx(3)
    assert t_mat[0, 0] == pytest.approx(1j)
    assert t_mat[1, 1] == pytest.approx(-1j)

    with pytest.raises(ValueError):
        one_lane_rho(0.0, 1.0)


def test_eval_word_examples():
    s_mat, t_mat = one_lane_rho(0.7 + 0.5j, 0.3 - 0.2j)
    assert np.allclose(one_lane_word((), s_mat, t_mat)[0], np.eye(2))
    assert np.allclose(one_lane_word((("s", 1), ("t", 1)), s_mat, t_mat)[0], s_mat @ t_mat)
    s_inv, _ = one_lane_word((("s", -1),), s_mat, t_mat)
    assert np.allclose(s_mat @ s_inv, np.eye(2))


def test_eval_word_rejects_singular_generator_images():
    singular = np.array([[1.0, 1.0], [0.0, 0.0]], dtype=complex)
    good = np.eye(2, dtype=complex)
    with pytest.raises(ValueError):
        one_lane_word((("s", 1),), singular, good)


words = st.lists(
    st.tuples(st.sampled_from(["s", "t"]), st.integers(-2, 2)), max_size=4
).map(_reduced)
radii = st.floats(min_value=0.8, max_value=1.25, allow_nan=False)
angles = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
meridians = st.builds(lambda r, t: r * cmath.exp(1j * t), radii, angles)
traces = st.builds(
    complex,
    st.floats(min_value=-1.5, max_value=1.5),
    st.floats(min_value=-1.5, max_value=1.5),
)


@given(word=words, M0=meridians, x0=traces)
def test_eval_word_preserves_unit_determinant(word, M0, x0):
    s_mat, t_mat = one_lane_rho(M0, x0)
    mat, cond = one_lane_word(word, s_mat, t_mat)
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    assert abs(det - 1) <= 1e-10 * cond**2 + 1e-10


@given(word=words, M0=meridians, x0=traces)
def test_eval_word_matches_the_numpy_oracle(word, M0, x0):
    s_mat, t_mat = one_lane_rho(M0, x0)
    mat, cond = one_lane_word(word, s_mat, t_mat)
    expected, expected_cond = numpy_word_product(word, s_mat, t_mat)
    assert np.abs(mat - expected).max() <= 1e-12 * cond
    assert abs(cond - expected_cond) <= 1e-12 * expected_cond


# -- roots of the trace polynomial ------------------------------------------


def test_roots_at_unit_meridian_for_n_minus1():
    roots = roots_of_rm(-1, 1.0)
    s3 = math.sqrt(3) / 2
    assert len(roots) == 2
    assert roots[0] == pytest.approx(complex(-0.5, -s3), abs=1e-12)
    assert roots[1] == pytest.approx(complex(-0.5, s3), abs=1e-12)


def test_roots_degenerate_cases():
    assert roots_of_rm(0, 0.9 + 0.1j) == []
    with pytest.raises(DegreeCollapseError):
        roots_of_rm(1, 0.0)
    for M0 in (1e-100, 1e-200):  # the leading M0^4 underflows to 0 in doubles
        with pytest.raises(DegreeCollapseError):
            roots_of_rm(1, M0)


def test_the_s_form_of_the_recursion_is_p_2n_exactly():
    # in the exact kernel, the recursion that roots_of_rm runs on
    # s = M^2 + M^-2 - 1 gives rm_closed(n) up to the power of M it leaves out
    x, s = mono(1, x=1), mono(1, m=2) + mono(1, m=-2) - 1
    u = s + x
    two_c, t = 2 - x * u * u, x * u + 1
    for sign in (1, -1):
        prev, cur = ONE, two_c - t if sign > 0 else t
        for k in range(1, 21):
            n = sign * k
            assert mono(1, m=4 * k - 2 * (n < 0)) * cur == rm_closed(n).poly, n
            prev, cur = cur, two_c * cur - prev


@pytest.mark.parametrize("n", [1, -1, 5, -5])
def test_root_finding_calls_nothing_from_the_exact_kernel(monkeypatch, n):
    import c2n3.laurent
    import c2n3.rmpoly

    def no_kernel(*args):
        raise AssertionError("root finding called the exact kernel")

    monkeypatch.setattr(c2n3.laurent, "packed", no_kernel)
    monkeypatch.setattr(LaurentPoly, "__mul__", no_kernel)
    monkeypatch.setattr(c2n3.rmpoly, "rm_closed", no_kernel)
    for M0 in sample_unit_modulus(3, seed=2) + [0.5, 2.0, 0.3 + 1.7j]:
        assert len(roots_of_rm(n, M0)) == 3 * abs(n) - (n < 0)


@pytest.mark.parametrize("n", [1, 2, -2])
def test_roots_are_polished_to_tiny_residuals(n):
    from c2n3.rmpoly import rm_closed

    M0 = sample_unit_modulus(1, seed=7)[0]
    poly = rm_closed(n).poly
    roots = roots_of_rm(n, M0)
    assert len(roots) == poly.degree("x")
    values, bounds = at_meridian(poly, M0)
    for x0 in roots:
        value = np.polyval(values[::-1], x0)
        scale = np.polyval(bounds[::-1], abs(x0))
        assert abs(value) <= 1e-12 * scale


def test_every_root_is_found_at_n_8():
    # every seed-0 sample keeps all of its roots, distinct, at |n| = 8 (samples
    # near +-i included) and beyond the acceptance grid
    samples = sample_unit_modulus(20, seed=0)
    for n in (8, -8, 5, -5, 6, -6):
        for M0 in samples:
            roots = roots_of_rm(n, M0)
            assert len(roots) == 3 * abs(n) - (n < 0)
            assert len(set(roots)) == len(roots)


@pytest.mark.parametrize("n", [2, -3])
def test_a_start_given_twice_polishes_to_a_repeated_root(monkeypatch, n):
    # a stand-in start generator hands one start over twice; the two iterates
    # never see each other, so they move as one onto one root
    import c2n3.repcheck as repcheck

    real_starts = repcheck._starts

    def doubled(n, s_values):
        starts = real_starts(n, s_values)
        starts[:, -1] = starts[:, 0]
        return starts

    monkeypatch.setattr(repcheck, "_starts", doubled)
    samples = sample_unit_modulus(3, seed=1)
    with pytest.raises(RepeatedRootError, match=f"n = {n} converged to the same value .* at M0 = "):
        roots_of_rm(n, samples[0])
    reports = verify_family(n, samples, 1e-8)
    assert [type(r).__name__ for r in reports] == ["BadPoint"] * 3
    assert [r.M_sample for r in reports] == samples
    assert all("converged to the same value" in r.reason and not r.passed for r in reports)


def test_polish_root_matches_the_mpmath_oracle():
    # every root at every seed-0 sample with |n| <= 8 is where 40-digit Newton
    # polishing on the exact coefficients, started from that root, ends
    samples = sample_unit_modulus(20, seed=0)
    for n in [k for k in range(-8, 9) if k]:
        poly = rm_closed(n).poly
        for M0 in samples:
            with mp.workdps(40):
                exact = at_meridian(poly, mp.mpc(M0))[0][::-1]
                for x in roots_of_rm(n, M0):
                    assert abs(x - mpmath_polish_root(x, exact)) <= 1e-13 * max(1.0, abs(x))


@pytest.mark.parametrize("n, M0", [(n, M0) for n in range(-8, 9) if n
                                   for M0 in sample_unit_modulus(20, seed=0)]
                         + [(n, M0) for n in (3, -3, 12, -12) for M0 in (0.5, 2.0, 0.3 + 1.7j)]
                         + [(12, 0.3 - 0.4j), (-12, 0.3 - 0.4j), (40, 0.5)])
def test_specialization_matches_the_mpmath_oracle(n, M0):
    # P_2n specialized at M0 through its recursion has the roots of the exact
    # P_2n: all deg of them, distinct, each with a relative residual of at
    # most 1e-12 against a 60-digit evaluation of rm_closed(n); off the unit
    # circle too, where |M0|^e spans many orders of magnitude
    poly = rm_closed(n).poly
    roots = roots_of_rm(n, M0)
    assert len(roots) == poly.degree("x") == 3 * abs(n) - (n < 0)
    for a, b in itertools.combinations(roots, 2):
        assert abs(a - b) > 1e-12 * max(1.0, abs(a))
    with mp.workdps(60):
        values, sizes = at_meridian(poly, mp.mpc(M0))
        for x in map(mp.mpc, roots):
            assert abs(mp.polyval(values[::-1], x)) <= 1e-12 * mp.polyval(sizes[::-1], abs(x))


@pytest.mark.parametrize("M0", [math.nan, math.inf, complex(1, -math.inf), complex(math.nan, 1)])
def test_non_finite_meridians_are_rejected_by_name(M0):
    message = re.escape(f"M0 = {complex(M0)!r}")
    with pytest.raises(ValueError, match=message):
        roots_of_rm(2, M0)
    with pytest.raises(ValueError, match=message):
        verify_family(2, [M0], 1e-8)


# at 1e80 (and 1e-80) M0^4 itself leaves the double range; the error still names M0
_HUGE_MERIDIANS = (1e200, 1e80, 1e-80)


def test_meridians_whose_coefficients_overflow_doubles_are_rejected_by_name():
    for M0 in _HUGE_MERIDIANS:
        with pytest.raises(OverflowError, match=re.escape(f"M0 = {complex(M0)!r} does not fit")):
            roots_of_rm(2, M0)


def test_an_overflowing_meridian_is_a_bad_point_and_the_family_goes_on():
    unit = sample_unit_modulus(1, seed=0)[0]
    for M0 in _HUGE_MERIDIANS:
        bad, *rest = verify_family(3, [M0, unit], 1e-8)
        assert bad.to_json_obj()["status"] == "error"
        assert bad.M_sample == M0 and f"M0 = {complex(M0)!r} does not fit" in bad.reason
        assert rest == verify_family(3, [unit], 1e-8)
        assert len(rest) == 9 and all(r.passed for r in rest)


def test_polish_root_reports_non_convergence(monkeypatch):
    import c2n3.repcheck as repcheck

    M0 = sample_unit_modulus(1, seed=5)[0]
    assert len(roots_of_rm(-3, M0)) == 8
    # below the sweeps this point needs, the cap names the roots still moving
    for cap, moving in ((0, 8), (1, 8)):
        monkeypatch.setattr(repcheck, "_SWEEPS", cap)
        with pytest.raises(NonConvergenceError,
                           match=f"for {moving} of 8 roots in {cap} sweeps, for P_2n with n = -3"):
            roots_of_rm(-3, M0)
    monkeypatch.undo()
    # a NaN iterate spreads to every root, and none ever meets the stopping rule
    real_starts = repcheck._starts
    monkeypatch.setattr(repcheck, "_starts", lambda n, s_values: np.append(
        real_starts(n, s_values)[:, 1:], np.full((len(s_values), 1), np.nan), axis=1))
    with pytest.raises(NonConvergenceError, match="for 8 of 8 roots in 100 sweeps"):
        roots_of_rm(-3, M0)


def test_non_convergence_names_the_point_and_becomes_a_bad_point(monkeypatch):
    import c2n3.repcheck as repcheck

    # one sweep never meets the stopping rule from the starting points
    monkeypatch.setattr(repcheck, "_SWEEPS", 1)
    M0 = sample_unit_modulus(1, seed=5)[0]
    message = f"in 1 sweeps, for P_2n with n = 2 at M0 = {M0!r}"
    with pytest.raises(NonConvergenceError, match=re.escape(message)):
        roots_of_rm(2, M0)
    (bad,) = verify_family(2, [M0], 1e-8)
    assert bad.to_json_obj()["status"] == "error"
    assert bad.M_sample == M0 and "met no stopping rule" in bad.reason


def _bits(roots):
    return np.array(roots, dtype=complex).tobytes()


@pytest.mark.parametrize("n", [1, -1, 5, -5, 12, -40, 100])
def test_every_meridian_of_a_batch_gets_its_roots_alone_bit_for_bit(n):
    # the lanes of one meridian see none of another's; n = -40 sweeps these
    # five meridians in groups of 4 and 1, n = 100 one by one
    samples = sample_unit_modulus(5, seed=4)
    found = _roots_batch(n, samples)
    assert len(found) == 5
    for M0, roots in zip(samples, found):
        assert len(roots) == 3 * abs(n) - (n < 0)
        assert _bits(roots) == _bits(roots_of_rm(n, M0))


def test_meridians_that_fail_their_checks_leave_the_batch_alone():
    units = sample_unit_modulus(3, seed=6)
    samples = [units[0], 1e200, units[1], 1e-100, units[2]]
    found = _roots_batch(4, samples)
    for M0, roots in zip(units, found[::2]):
        assert _bits(roots) == _bits(roots_of_rm(4, M0))
    reports = verify_family(4, samples, 1e-8)
    assert len(reports) == 3 * 12 + 2
    assert [(r.M_sample, r.reason) for r in (reports[12], reports[25])] == [
        (1e200, f"P_2n at M0 = {complex(1e200)!r} does not fit in double precision"),
        (1e-100, f"M0^4, so the leading x-coefficient, is 0 at M0 = {complex(1e-100)!r}"),
    ]
    assert all(r.passed for r in reports[:12] + reports[13:25] + reports[26:])


def test_a_nan_start_fails_its_own_meridian_alone(monkeypatch):
    # the NaN spreads over every root of its meridian and no further; at n = 40
    # the meridian 10.0 shares its group and has its values rescaled, which
    # the NaN lanes must not stop
    import c2n3.repcheck as repcheck

    real_starts = repcheck._starts
    calls = []

    def nan_at_first(n, s_values):
        starts = real_starts(n, s_values)
        if not calls:
            starts[0, 0] = np.nan
        calls.extend(s_values)
        return starts

    units = sample_unit_modulus(2, seed=8)
    samples = [units[0], 10.0, units[1]]
    monkeypatch.setattr(repcheck, "_starts", nan_at_first)
    first, *rest = _roots_batch(40, samples)
    assert len(calls) == 3
    message = f"for 120 of 120 roots in 100 sweeps, for P_2n with n = 40 at M0 = {units[0]!r}"
    assert isinstance(first, NonConvergenceError) and message in str(first)
    calls.clear()
    bad, *reports = verify_family(40, units, 1e-8)
    assert bad.M_sample == units[0] and message in bad.reason
    assert len(reports) == 120 and all(r.passed for r in reports)
    monkeypatch.undo()
    for M0, roots in zip(samples[1:], rest):
        assert _bits(roots) == _bits(roots_of_rm(40, M0))


@pytest.mark.parametrize("n, count, groups", [(6, 20, [20]), (-6, 20, [20]), (12, 51, [50, 1]),
                                               (-40, 5, [4, 1]), (100, 3, [1, 1, 1])])
def test_a_family_is_swept_in_groups_of_at_most_2_16_gaps(monkeypatch, n, count, groups):
    import c2n3.repcheck as repcheck

    real_sweeps = repcheck._sweeps
    seen = []
    monkeypatch.setattr(repcheck, "_sweeps",
                        lambda n, group, s: seen.append(len(group)) or real_sweeps(n, group, s))
    _roots_batch(n, sample_unit_modulus(count, seed=0))
    assert seen == groups


def test_the_root_stage_of_a_family_at_n_100_stays_small():
    # one meridian a group peaks near 4.4 MiB; all 8 in one group near 33 MiB
    samples = sample_unit_modulus(8, seed=0)
    tracemalloc.start()
    try:
        _roots_batch(100, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def _first_repeat_reference(roots):
    for a, b in itertools.combinations(roots, 2):
        if abs(a - b) < 1e-12 * max(1.0, abs(a)):
            return a
    return None


def test_first_repeat_matches_the_pairwise_loop():
    # one call checks every row of a group
    rng = np.random.default_rng(3)
    rows = []
    for _ in range(200):
        roots = list(map(complex, rng.normal(size=8) + 1j * rng.normal(size=8)))
        for _ in range(rng.integers(0, 3)):
            i, j = rng.integers(0, 8, size=2)
            roots[j] = roots[i] * (1 + rng.choice([0, 5e-13, 2e-12]))
        rows.append(sorted(roots, key=lambda v: (v.real, v.imag)))
    for roots, index in zip(rows, _first_repeat(np.array(rows))):
        assert (roots[index] if index >= 0 else None) == _first_repeat_reference(roots)
    assert _first_repeat(np.array([[0j, 5e-13j, 1.0], [0j, 2e-12j, 1.0]])).tolist() == [0, -1]


@pytest.mark.parametrize("n", [1, -1, 6, -12, 40])
def test_one_eigvals_call_gives_every_row_its_starts_alone_bit_for_bit(n):
    s_values = [M0 * M0 + 1 / (M0 * M0) - 1
                for M0 in sample_unit_modulus(4, seed=9) + [0.5, 2.0, 0.3 + 1.7j]]
    rows = _starts(n, s_values)
    assert rows.shape == (7, 3 * abs(n) - (n < 0))
    for s, row in zip(s_values, rows):
        assert _bits(row) == _bits(_starts(n, [s])[0])


@pytest.mark.parametrize("n", [3, -7, 12])
def test_roots_come_in_the_order_python_sorts_them(n):
    for roots in _roots_batch(n, sample_unit_modulus(10, seed=2) + [0.5, 2.0]):
        assert roots == sorted(roots, key=lambda v: (v.real, v.imag))


# -- longitude eigenvalue ----------------------------------------------------


def test_longitude_eigen_fixtures():
    assert longitude_eigen(1, 1.0, 0.0) == pytest.approx(-1)
    assert longitude_eigen(-1, 1.0, 0.0) == pytest.approx(-1)
    with pytest.raises(SingularPointError):
        longitude_eigen(1, 1j, 1.0)
    with pytest.raises(ValueError):
        longitude_eigen(1, 0.0, 1.0)


def test_longitude_eigen_rejects_a_non_finite_meridian_or_root_as_verify_point_does():
    nan, inf = float("nan"), float("inf")
    for M0, x0, match in ((nan, 0.5, "M0 = .*nan"), (inf, 0.5, "M0 = .*inf"), (1.0, nan, "x0 = .*nan")):
        messages = []
        for fn in (longitude_eigen, lambda *a: verify_point(*a, 1e-8)):
            with pytest.raises(ValueError, match=f"must be finite, got {match}") as info:
                fn(1, M0, x0)
            messages.append(str(info.value))
        assert messages[0] == messages[1]


def _at_pole(fn, *args):
    try:
        fn(*args)
    except SingularPointError:
        return True
    return False


def test_longitude_eigen_and_verify_point_agree_on_the_pole(monkeypatch):
    # x0 = -M0^2 with M0^2 as Python rounds it and as numpy does: the two
    # roundings differ at many meridians, and whichever way each candidate
    # falls, longitude_eigen and verify_point see the same pole
    import c2n3.repcheck as repcheck

    apoly = apoly_theorem(1)
    monkeypatch.setattr(repcheck, "apoly_theorem", lambda n: apoly)
    poles = 0
    for M0 in sample_unit_modulus(2000, seed=5):
        for x0 in (-(M0 * M0), complex(-(np.array([M0]) * np.array([M0]))[0])):
            pole = _at_pole(verify_point, 1, M0, x0, 1e-8)
            assert _at_pole(longitude_eigen, 1, M0, x0) == pole, (M0, x0)
            poles += pole
    assert 0 < poles < 4000


def test_longitude_eigen_gives_inf_or_nan_where_the_power_of_m0_leaves_the_double_range():
    # |M0|^-402 overflows at this meridian: Python's ** would raise, the lanes give inf or NaN
    M0 = 0.16177803993223905 + 0.05004381214183469j
    with pytest.raises(OverflowError, match="complex exponentiation"):
        M0 ** (-4 * 100 - 2)
    assert not cmath.isfinite(longitude_eigen(100, M0, 0.5))


@given(n=st.integers(-3, 3), M0=meridians, x0=traces)
def test_longitude_eigen_inverts_the_x_substitution(n, M0, x0):
    assume(abs(M0 * M0 + x0) > 0.1)
    L0 = longitude_eigen(n, M0, x0)
    num, den = (np.polyval(at_meridian(p, M0)[0][::-1], L0) for p in substitution_x(n))
    assume(abs(den) > 1e-3)
    x_back = num / den
    assert abs(x_back - x0) <= 1e-7 * (1 + abs(x0) + abs(L0))


# -- point and family verification -------------------------------------------


def test_verify_point_rejects_degenerate_inputs():
    with pytest.raises(ValueError):
        verify_point(0, 1.0, 0.5, 1e-8)
    with pytest.raises(ValueError):
        verify_point(1, 1.0, 0.5, 0.0)
    with pytest.raises(ValueError):
        verify_point(1, 1.0, 0.5, -1e-8)
    for tol in (math.inf, math.nan):
        with pytest.raises(ValueError, match="finite positive"):
            verify_point(1, 1.0, 0.5, tol)
    with pytest.raises(ValueError, match="finite positive"):
        verify_family(2, sample_unit_modulus(1, seed=0), math.inf)


def test_verify_family_rejects_the_degenerate_n_before_building_anything(monkeypatch):
    import c2n3.repcheck as repcheck

    # an empty list of reports would read as a family that passed
    def no_build(n):
        raise AssertionError("built a polynomial for n = 0")

    monkeypatch.setattr(repcheck, "apoly_theorem", no_build)
    for samples in (sample_unit_modulus(3, seed=0), []):
        with pytest.raises(ValueError, match="n = 0 is degenerate"):
            verify_family(0, samples, 1e-8)


def test_verify_family_rejects_an_empty_sample_list_before_building_anything(monkeypatch):
    import c2n3.repcheck as repcheck

    # no reports at all would read as a family that passed
    def no_build(n):
        raise AssertionError(f"built a polynomial for n = {n} with no samples")

    monkeypatch.setattr(repcheck, "apoly_theorem", no_build)
    for samples in ([], (), np.array([], dtype=complex)):
        with pytest.raises(ValueError, match="at least one meridian sample"):
            verify_family(3, samples, 1e-8)


@pytest.mark.parametrize("M0", [math.nan, math.inf, complex(1, -math.inf), complex(math.nan, 1)])
def test_verify_family_rejects_a_non_finite_meridian_before_building_anything(monkeypatch, M0):
    import c2n3.repcheck as repcheck

    # building A_200 first would take seconds
    def no_build(n):
        raise AssertionError(f"built a polynomial for n = {n} at a non-finite meridian")

    monkeypatch.setattr(repcheck, "apoly_theorem", no_build)
    with pytest.raises(ValueError, match=re.escape(f"M0 = {complex(M0)!r}")):
        verify_family(100, sample_unit_modulus(2, seed=0) + [M0], 1e-8)


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(1, -math.inf), complex(math.nan, 1)])
def test_verify_point_rejects_a_non_finite_meridian_or_root_by_name(value, monkeypatch):
    import c2n3.repcheck as repcheck

    def no_build(n):
        raise AssertionError("built a polynomial for a non-finite point")

    monkeypatch.setattr(repcheck, "apoly_theorem", no_build)
    with pytest.raises(ValueError, match=re.escape(f"M0 = {complex(value)!r}")):
        verify_point(1, value, 0.5, 1e-8)
    with pytest.raises(ValueError, match=re.escape(f"x0 = {complex(value)!r}")):
        verify_point(1, 1.0, value, 1e-8)


def test_verify_point_rejects_a_zero_meridian():
    with pytest.raises(ValueError, match="must be nonzero"):
        verify_point(1, 0.0, 0.5, 1e-8)


def test_verify_point_raises_the_error_its_lane_meets():
    # A_24 at M0 = 2.0 leaves the double range, as the scalar at_meridian shows;
    # the lane meets no error there, and its report says so
    with pytest.raises(OverflowError, match="complex exponentiation"):
        at_meridian(apoly_theorem(12).poly, complex(2.0))
    report = verify_point(12, 2.0, 0.5, 1e-8)
    assert not all(map(cmath.isfinite, vars(report).values())) and not report.passed
    # the one error a lane meets is the pole of the longitude eigenvalue
    M0 = sample_unit_modulus(1, seed=5)[0]
    pole = complex(-(np.array([M0]) * np.array([M0]))[0])  # M0^2 as the lanes compute it
    with pytest.raises(SingularPointError, match=re.escape("M0^2 + x0 = 0")):
        verify_point(1, M0, pole, 1e-8)


def test_verify_point_passes_on_true_representation_points():
    omega = complex(-0.5, math.sqrt(3) / 2)
    report = verify_point(-1, 1.0, omega, 1e-8)
    assert report.passed
    assert report.relation_residual <= 1e-10 * report.cond_relator
    assert report.offdiag_residual <= 1e-10 * report.cond_longitude
    assert report.apoly_residual <= 1e-10
    assert report.longitude_mismatch <= 1e-10 * report.cond_longitude
    assert report.cond_relator >= 2.0 and report.cond_longitude >= 2.0

    M0 = sample_unit_modulus(1, seed=11)[0]
    x0 = roots_of_rm(2, M0)[0]
    assert verify_point(2, M0, x0, 1e-8).passed


def test_verify_point_fails_off_the_representation_variety():
    M0 = sample_unit_modulus(1, seed=11)[0]
    x0 = roots_of_rm(2, M0)[0] + 0.1
    report = verify_point(2, M0, x0, 1e-8)
    assert not report.passed
    assert report.relation_residual > 1e-3


def test_verification_report_json_shape():
    report = verify_point(-1, 1.0, complex(-0.5, math.sqrt(3) / 2), 1e-8)
    obj = report.to_json_obj()
    assert set(obj) == {
        "n", "M_sample", "root", "relation_residual", "longitude_mismatch",
        "offdiag_residual", "apoly_residual", "cond_relator", "cond_longitude",
        "passed",
    }
    assert obj["n"] == -1
    assert obj["M_sample"] == [1.0, 0.0]
    assert isinstance(obj["passed"], bool)
    assert isinstance(report, VerificationReport)


def _dumps(entry):
    return json.dumps(entry.to_json_obj(), separators=(",", ":"), allow_nan=False)


@pytest.mark.parametrize("n", [1, -1, 6, -6, 12])
def test_each_report_writes_the_json_dumps_text(n):
    # off the unit circle too, where reports hold tiny and huge floats and, at
    # n = 12, BadPoints stand in for reports out of the double range
    entries = verify_family(n, sample_unit_modulus(5, seed=4) + [2.0, 0.5, 0.3 + 1.7j], 1e-8)
    for entry in entries:
        assert entry.to_json() == _dumps(entry)
    assert any(isinstance(e, VerificationReport) for e in entries)
    assert n != 12 or any(isinstance(e, BadPoint) for e in entries)


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(n=st.integers(-100, 100), parts=st.lists(finite_floats, min_size=10, max_size=10),
       passed=st.booleans())
def test_a_report_of_any_finite_floats_writes_the_json_dumps_text(n, parts, passed):
    report = VerificationReport(n, complex(*parts[:2]), complex(*parts[2:4]), *parts[4:10],
                                passed)
    assert report.to_json() == _dumps(report)


@pytest.mark.parametrize("reason", ['say "no"', "back\\slash", "non-ASCII: \u00e9\u2212\U0001d4b3",
                                    "control\n\t\x00", ""])
def test_a_bad_point_escapes_its_reason_as_json_dumps_does(reason):
    bad = BadPoint(3, complex(0.5, -1e-300), reason)
    assert bad.to_json() == _dumps(bad)
    assert json.loads(bad.to_json())["reason"] == reason


@pytest.mark.parametrize("field", ["M_sample", "root", "relation_residual", "longitude_mismatch",
                                   "offdiag_residual", "apoly_residual", "cond_relator",
                                   "cond_longitude"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_a_report_holding_inf_or_nan_writes_no_json(field, value):
    report = verify_point(-1, 1.0, complex(-0.5, math.sqrt(3) / 2), 1e-8)
    part = complex(1.0, value) if field in ("M_sample", "root") else value
    report = dataclasses.replace(report, **{field: part})
    with pytest.raises(ValueError):
        _dumps(report)
    with pytest.raises(ValueError):
        report.to_json()


def test_the_report_json_text_refuses_nan_as_json_dumps_does():
    # A_24 at M0 = 2.0 leaves the double range in this lane
    report = verify_point(12, 2.0, 0.5, 1e-8)
    with pytest.raises(ValueError):
        _dumps(report)
    with pytest.raises(ValueError):
        report.to_json()


def test_only_the_lanes_check_flags_are_named_and_as_the_field_scan_names_them():
    n, tol, samples = 12, 1e-8, [2.0, 0.5]
    found = _roots_batch(n, samples)
    family = [(complex(M0), roots) for M0, roots in zip(samples, found)]
    lanes, finite = _check(n, family, tol, apoly_theorem(n).poly)
    points = [(M0, x0) for M0, roots in family for x0 in roots]
    assert not any(isinstance(r, SingularPointError) for r in lanes)
    scanned = [scan_report(n, M0, x0, r) for (M0, x0), r in zip(points, lanes)]
    assert finite == [r is s for r, s in zip(lanes, scanned)]
    assert True in finite and False in finite
    reasons = [r.reason if isinstance(r, BadPoint) else None for r in verify_family(n, samples, tol)]
    assert reasons == [s.reason if isinstance(s, BadPoint) else None for s in scanned]


def test_verify_family_reports_bad_points_in_place(monkeypatch):
    import c2n3.repcheck as repcheck

    samples = sample_unit_modulus(3, seed=5)
    real_batch = repcheck._roots_batch

    def faulty_batch(n, M_samples):
        found = real_batch(n, M_samples)
        for i, M0 in enumerate(M_samples):
            if M0 == samples[0]:
                found[i] = RepeatedRootError("two roots coincide")
            if M0 == samples[1]:
                # M0^2 + x0 = 0, with M0^2 as the lanes compute it: no longitude eigenvalue
                found[i] = [complex(-(np.array([M0]) * np.array([M0]))[0])] + found[i]
        return found

    real_word_lanes = repcheck._word_lanes
    poisoned_root = roots_of_rm(1, samples[2])[1]

    def faulty_words(n, M0, x0):
        # the longitude's (1, 1) entry complex(inf) at the poisoned root alone
        rel, cond_rel, lon_a, lon_c, cond_lon = real_word_lanes(n, M0, x0)
        return rel, cond_rel, np.where(x0 == poisoned_root, math.inf, lon_a), lon_c, cond_lon

    monkeypatch.setattr(repcheck, "_roots_batch", faulty_batch)
    monkeypatch.setattr(repcheck, "_word_lanes", faulty_words)
    reports = verify_family(1, samples, 1e-8)
    kinds = [type(r).__name__ for r in reports]
    assert kinds == (["BadPoint", "BadPoint"] + ["VerificationReport"] * 4
                     + ["BadPoint", "VerificationReport"])
    assert reports[0].to_json_obj() == {
        "n": 1, "M_sample": [samples[0].real, samples[0].imag],
        "status": "error", "reason": "two roots coincide",
    }
    assert reports[1].M_sample == samples[1] and "M0^2 + x0 = 0" in reports[1].reason
    assert reports[6].M_sample == samples[2]
    assert reports[6].reason == (f"out of double range (longitude_mismatch) "
                                 f"at x0 = {complex(poisoned_root)!r}")
    assert not any(r.passed for r in reports[:2] + reports[6:7])
    assert all(r.passed for r in reports[2:6] + reports[7:])


@pytest.mark.parametrize("n", [-5, 2, 6])
def test_verify_point_alone_matches_its_lane_in_verify_family(n):
    samples = sample_unit_modulus(4, seed=2)
    reports = verify_family(n, samples, 1e-8)
    assert len(reports) == 4 * (3 * abs(n) - (n < 0))
    for lane in reports:
        alone = verify_point(n, lane.M_sample, lane.root, 1e-8)
        assert alone.passed and lane.passed
        for residual, cond in (("relation_residual", "cond_relator"),
                               ("longitude_mismatch", "cond_longitude"),
                               ("offdiag_residual", "cond_longitude")):
            assert abs(getattr(alone, cond) - getattr(lane, cond)) <= 1e-12 * getattr(lane, cond)
            assert abs(getattr(alone, residual) - getattr(lane, residual)) <= 1e-12 * getattr(lane, cond)
        assert alone.apoly_residual == lane.apoly_residual


@pytest.mark.parametrize("n, roots_per_sample", [(-1, 2), (1, 3)])
def test_verify_family_covers_every_root(n, roots_per_sample):
    samples = sample_unit_modulus(3, seed=5)
    reports = verify_family(n, samples, 1e-8)
    assert len(reports) == 3 * roots_per_sample
    assert all(r.passed for r in reports)
    assert {r.n for r in reports} == {n}


# -- the lanes against the scalar check ------------------------------------------


def test_word_entries_that_are_nan_or_huge_give_what_python_gives(monkeypatch):
    # a NaN in any entry of the relator makes the relation residual NaN, and
    # abs(complex(1.5e308, 1.5e308)) is inf: each is a bad point, named by its field
    import c2n3.repcheck as repcheck

    M0 = sample_unit_modulus(1, seed=4)[0]
    clean = verify_family(2, [M0], 1e-8)
    real_word_lanes = repcheck._word_lanes

    def faulty_words(n, M0, x0):
        (a, b, c, d), cond_rel, lon_a, lon_c, cond_lon = real_word_lanes(n, M0, x0)
        a, b, lon_c = a.copy(), b.copy(), lon_c.copy()
        a[0] = b[1] = complex(math.nan, 0)
        lon_c[2] = complex(1.5e308, 1.5e308)
        return (a, b, c, d), cond_rel, lon_a, lon_c, cond_lon

    monkeypatch.setattr(repcheck, "_word_lanes", faulty_words)
    first, second, third, *rest = verify_family(2, [M0], 1e-8)
    for bad, field, clean_report in ((first, "relation_residual", clean[0]),
                                     (second, "relation_residual", clean[1]),
                                     (third, "offdiag_residual", clean[2])):
        assert isinstance(bad, BadPoint) and not bad.passed
        assert bad.reason == f"out of double range ({field}) at x0 = {clean_report.root!r}"
    assert rest == clean[3:]


def test_an_overflow_inside_the_lanes_is_as_silent_as_in_python(monkeypatch):
    # 1e20 * 2.0**1000 is inf in Python's floats, without a warning; the A
    # residual is then inf / inf
    import c2n3.repcheck as repcheck

    apoly = mono(10**20, l=1, m=1000) + ONE
    monkeypatch.setattr(repcheck, "apoly_theorem", lambda n: APolyResult(n, apoly, "theorem"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = verify_point(1, 2.0, 0.5, 1e-8)
    assert math.isnan(report.apoly_residual) and not report.passed


def test_a_magnitude_sum_past_the_double_range_in_both_forms_gives_no_a_residual(monkeypatch):
    # at M0 = 1 the two L terms cancel in value, while their magnitude sum
    # 2e308 is inf at L0 and at 1/L0 alike: |A| / inf would read 0 and pass
    import c2n3.repcheck as repcheck

    apoly = mono(10**308, l=1, m=2) - mono(10**308, l=1) + ONE
    monkeypatch.setattr(repcheck, "apoly_theorem", lambda n: APolyResult(n, apoly, "theorem"))
    assert math.isnan(verify_point(1, 1.0, 0.5, 1e-8).apoly_residual)


_OFF_CIRCLE = [0.5, 2.0, 0.3 + 1.7j, 1e200, 1e-100, 1e30]


def _lanes_and_scalar(monkeypatch, n, samples):
    # both checks of one family, on one A_2n and one set of roots
    import c2n3.repcheck as repcheck

    apoly, found = apoly_theorem(n), _roots_batch(n, samples)
    monkeypatch.setattr(repcheck, "apoly_theorem", lambda n: apoly)
    monkeypatch.setattr(repcheck, "_roots_batch", lambda n, M_samples: found)
    lanes = verify_family(n, samples, 1e-8)
    return lanes, scalar_verify_family(n, samples, 1e-8, apoly.poly, found)


def _unbracketed(reason):
    # a reason with the parenthetical of "out of double range (...)" left out
    return re.sub(r"^out of double range \(.*\) at x0 = ", "out of double range at x0 = ", reason)


def _assert_same_verdicts(lanes, scalar):
    # the same entries, samples, roots and verdicts, and the same reasons up to
    # their parenthetical; each residual within 1e-12 of the scalar one, scaled
    # by its conditioning
    assert [type(r) for r in lanes] == [type(r) for r in scalar]
    for lane, ref in zip(lanes, scalar):
        assert (lane.M_sample, lane.passed) == (ref.M_sample, ref.passed)
        if isinstance(ref, BadPoint):
            assert _unbracketed(lane.reason) == _unbracketed(ref.reason)
            continue
        assert lane.root == ref.root
        for residual, cond in (("relation_residual", "cond_relator"),
                               ("longitude_mismatch", "cond_longitude"),
                               ("offdiag_residual", "cond_longitude")):
            assert abs(getattr(lane, residual) - getattr(ref, residual)) <= 1e-12 * getattr(ref, cond)
        assert abs(lane.apoly_residual - ref.apoly_residual) <= 1e-12


@pytest.mark.parametrize("n", [k for k in range(-12, 13) if k])
def test_the_lanes_give_the_scalar_check_bit_for_bit(monkeypatch, n):
    # off the unit circle too: there every error kind of the scalar check
    # occurs, "out of double range" where Python's ** or / raises (n = -12 at
    # M0 = 0.5 divides by a magnitude sum of 0), M0^2 + x0 = 0 and non-finite
    # reports at n = -1, M0 = 1e30
    lanes, scalar = _lanes_and_scalar(monkeypatch, n, sample_unit_modulus(20, seed=3) + _OFF_CIRCLE)
    _assert_same_verdicts(lanes, scalar)


@pytest.mark.parametrize("n", [40, -40, 64, 100, -100])
def test_the_lanes_give_the_scalar_check_bit_for_bit_at_large_n(monkeypatch, n):
    # at n = 64 and n = +-100 some roots take the form in 1/L0, where |L0|^deg
    # overflows
    samples = sample_unit_modulus(3, seed=0)
    lanes, scalar = _lanes_and_scalar(monkeypatch, n, samples)
    _assert_same_verdicts(lanes, scalar)
    assert len(lanes) == 3 * (3 * abs(n) - (n < 0)) and all(r.passed for r in lanes)


def test_a_longitude_power_past_the_double_range_fails_every_lane_as_in_the_scalar_check(monkeypatch):
    # |M0|^-402 overflows at this meridian while the powers of M0 in A_200
    # only underflow, so every root is found and every lane fails in the
    # longitude eigenvalue
    n, M0 = 100, 0.16177803993223905 + 0.05004381214183469j
    with pytest.raises(OverflowError, match="complex exponentiation"):
        M0 ** (-4 * n - 2)
    lanes, scalar = _lanes_and_scalar(monkeypatch, n, [M0])
    _assert_same_verdicts(lanes, scalar)
    assert len(lanes) == 300
    assert all(r.reason.startswith("out of double range (longitude_mismatch") for r in lanes)
    assert all(r.reason.startswith("out of double range (complex exponentiation) at x0 = ")
               for r in scalar)


def test_a_family_of_1000_meridians_stays_small():
    # the scalar check peaked at 32.0 MiB here, A_24's build included
    samples = sample_unit_modulus(1000, seed=0)
    tracemalloc.start()
    try:
        reports = verify_family(12, samples, 1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(reports) == 36000
    assert peak < 32 * 2**20


# -- meridian sampling ---------------------------------------------------------


def test_sample_unit_modulus_contract():
    a = sample_unit_modulus(10, seed=0)
    b = sample_unit_modulus(10, seed=0)
    c = sample_unit_modulus(10, seed=1)
    assert a == b
    assert a != c
    assert len(a) == 10
    assert all(abs(abs(z) - 1) < 1e-12 for z in a)
    with pytest.raises(ValueError):
        sample_unit_modulus(0, seed=0)


def test_sample_unit_modulus_avoids_low_order_roots_of_unity():
    special = sorted({2 * math.pi * k / q for q in range(1, 13) for k in range(q + 1)})
    for z in sample_unit_modulus(50, seed=3):
        theta = cmath.phase(z) % (2 * math.pi)
        assert min(abs(theta - a) for a in special) >= 0.05 - 1e-9


def test_fewer_samples_are_the_first_of_more():
    # so `verify --samples 2` checks the first two meridians of `--samples 20` at one seed
    for seed in range(100):
        many = sample_unit_modulus(20, seed)
        for count in (1, 2, 7, 19):
            assert sample_unit_modulus(count, seed) == many[:count]


@pytest.mark.parametrize("n", [3, -5, 32, -64])
def test_fewer_samples_give_the_first_reports_of_more_byte_for_byte(n):
    # a meridian gets the same roots and the same report alone or in a larger family
    d = 3 * abs(n) - (n < 0)
    many = verify_family(n, sample_unit_modulus(20, seed=0), 1e-8)
    few = verify_family(n, sample_unit_modulus(2, seed=0), 1e-8)
    assert [r.to_json() for r in few] == [r.to_json() for r in many[: 2 * d]]


def _sample_by_linear_scan(count, seed):
    # each draw tested against every special angle, at the sampler's margin of 0.05
    special = sorted({2 * math.pi * k / q for q in range(1, 13) for k in range(q + 1)})
    rng = random.Random(seed)
    samples = []
    while len(samples) < count:
        theta = rng.uniform(0.0, 2.0 * math.pi)
        if not any(abs(theta - a) < 0.05 for a in special):
            samples.append(cmath.exp(1j * theta))
    return samples


def test_sample_unit_modulus_tests_each_draw_against_its_two_neighbours_alone():
    for seed in range(300):
        for count in (1, 7, 20, 100):
            assert sample_unit_modulus(count, seed) == _sample_by_linear_scan(count, seed)
