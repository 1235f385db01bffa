"""Independent brute-force reference arithmetic used as test oracles.

Polynomials here are plain dicts mapping (expL, expM, expX) to int.
Nothing is shared with the LaurentPoly internals: products and sums are
accumulated pairwise so the library results can be checked against a
second, deliberately naive implementation.  The numeric-layer oracles at
the end keep the earlier numpy and mpmath kernels of c2n3.repcheck; mpmath
is a test-only dependency.
"""

import mpmath as mp
import numpy as np


def naive_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for key, coeff in b.items():
        out[key] = out.get(key, 0) + coeff
    return {k: c for k, c in out.items() if c}


def naive_neg(a: dict) -> dict:
    return {k: -c for k, c in a.items()}


def naive_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (l1, m1, x1), c1 in a.items():
        for (l2, m2, x2), c2 in b.items():
            key = (l1 + l2, m1 + m2, x1 + x2)
            out[key] = out.get(key, 0) + c1 * c2
    return {k: c for k, c in out.items() if c}


def naive_pow(a: dict, k: int) -> dict:
    out = {(0, 0, 0): 1}
    for _ in range(k):
        out = naive_mul(out, a)
    return out


def as_dict(poly) -> dict:
    """Plain-dict view of a LaurentPoly, for comparison with naive results."""
    return dict(poly.terms())


# -- numeric layer ------------------------------------------------------------


def _inv2(mat: np.ndarray) -> np.ndarray:
    det = mat[0, 0] * mat[1, 1] - mat[0, 1] * mat[1, 0]
    if det == 0:
        raise ValueError("singular matrix")
    return np.array([[mat[1, 1], -mat[0, 1]], [-mat[1, 0], mat[0, 0]]], dtype=complex) / det


def numpy_word_product(word, s_mat, t_mat) -> tuple[np.ndarray, float]:
    """A word's image by one numpy 2x2 matmul per letter, and the peak entry-magnitude sum."""
    steps = {
        ("s", 1): np.asarray(s_mat, dtype=complex),
        ("t", 1): np.asarray(t_mat, dtype=complex),
    }
    steps[("s", -1)] = _inv2(steps[("s", 1)])
    steps[("t", -1)] = _inv2(steps[("t", 1)])
    acc = np.eye(2, dtype=complex)
    cond = 2.0
    for gen, exp in word:
        step = steps[(gen, 1 if exp > 0 else -1)]
        for _ in range(abs(exp)):
            acc = acc @ step
            cond = max(cond, float(np.abs(acc).sum()))
    return acc, cond


def mpmath_polish_root(z, exact_coeffs) -> complex:
    """Newton's method by mpmath polyval, highest power first; stops at |step| < 1e-30."""
    current = mp.mpc(complex(z))
    for _ in range(50):
        value, slope = mp.polyval(exact_coeffs, current, derivative=True)
        if slope == 0:
            break
        step = value / slope
        current = current - step
        if abs(step) < mp.mpf("1e-30"):
            break
    return complex(current)
