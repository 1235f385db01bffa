"""Independent brute-force reference arithmetic used as test oracles.

Polynomials here are plain dicts mapping (expL, expM, expX) to int.
Nothing is shared with the LaurentPoly internals: products and sums are
accumulated pairwise so the library results can be checked against a
second, deliberately naive implementation.
"""


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
