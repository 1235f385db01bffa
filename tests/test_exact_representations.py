"""The verify chain in exact arithmetic: every representation at a meridian at once, with no float.

Riley's theorem (R. Riley, "Nonabelian representations of 2-bridge knot
groups", Quart. J. Math. Oxford 35, 1984) says that s -> [[M, 1], [0, 1/M]],
t -> [[M, 0], [2 - M^2 - M^-2 - x, 1/M]] satisfies the knot-group relation
exactly where P_2n(x, M) = 0.  Over GF(p), at one meridian M0, take P =
P_2n(x, M0) made monic.  A polynomial in x that vanishes at every root of a
squarefree P is a multiple of P, so each check below is an identity in the
ring GF(p)[x]/(P), which holds at every root of P at once: the words of
c2n3.repcheck are evaluated on matrices over that ring.  P_2n and A_2n come
in as values; nothing is shared with either exact route or with the doubles
of the numeric layer.
"""

import random

import pytest
from test_wide_range import squarefree_mod

from c2n3.apoly import apoly_theorem
from c2n3.laurent import mono
from c2n3.repcheck import build_longitude, relator_word
from c2n3.rmpoly import rm_closed

PRIME = 2**61 - 1


def _at_meridian(poly, M0, axis):
    """Coefficients mod PRIME of the powers of L (axis 0) or x (axis 2) of poly at M = M0."""
    coeffs = [0] * (max(key[axis] for key, _ in poly.terms()) + 1)
    for key, c in poly.terms():
        coeffs[key[axis]] = (coeffs[key[axis]] + c * pow(M0, key[1], PRIME)) % PRIME
    return coeffs


class _Quotient:
    """GF(PRIME)[x]/(P) for a monic P; an element is its d coefficients, lowest power first."""

    def __init__(self, monic):
        self.mod = monic[:-1]
        self.d = len(self.mod)

    def const(self, c):
        return [c % PRIME] + [0] * (self.d - 1)

    def add(self, a, b):
        return [(u + v) % PRIME for u, v in zip(a, b)]

    def linear(self, a, u, v):
        """a * (u + v x)."""
        top = a[-1]
        shifted = [0] + a[:-1]  # x a, less top * x^d = -top * (P - x^d)
        return [(u * c + v * (s - top * m)) % PRIME for c, s, m in zip(a, shifted, self.mod)]

    def mul(self, a, b):
        full = [0] * (2 * self.d - 1)
        for i, u in enumerate(a):
            if u:
                for j, v in enumerate(b):
                    full[i + j] += u * v
        for k in range(2 * self.d - 2, self.d - 1, -1):
            top = full[k] % PRIME
            if top:
                for i, m in enumerate(self.mod):
                    full[k - self.d + i] -= top * m
        return [c % PRIME for c in full[: self.d]]


def _word(ring, letters, gens):
    """The image of a word, each letter step a product with a matrix of linear polynomials."""
    zero, one = ring.const(0), ring.const(1)
    (a, b), (c, d) = (one, zero), (zero, one)
    for gen, exp in letters:
        (p, q), (r, s) = gens[gen, exp > 0]
        for _ in range(abs(exp)):
            a, b = (ring.add(ring.linear(a, *p), ring.linear(b, *r)),
                    ring.add(ring.linear(a, *q), ring.linear(b, *s)))
            c, d = (ring.add(ring.linear(c, *p), ring.linear(d, *r)),
                    ring.add(ring.linear(c, *q), ring.linear(d, *s)))
    return (a, b), (c, d)


def exact_checks(n, riley, apoly, M0):
    """The four checks of verify at every root of riley(x, M0) at once, in GF(PRIME)[x]/(P).

    riley is P_2n and apoly is A_2n, as LaurentPolys.  Gives whether the
    relator is the identity, whether the longitude's (2, 1) entry is 0,
    whether its (1, 1) entry l satisfies l (M0^2 + x) = -M0^(-4n-2)
    (M0^-2 + x), and whether A_2n(l, M0) = 0, by Horner's rule in L.
    """
    coeffs = _at_meridian(riley, M0, axis=2)
    lead = pow(coeffs[-1], -1, PRIME)
    ring = _Quotient([c * lead % PRIME for c in coeffs])
    inv = pow(M0, -1, PRIME)
    m2, inv2 = M0 * M0 % PRIME, inv * inv % PRIME
    tau = (2 - m2 - inv2) % PRIME  # t's (2, 1) entry is tau - x
    gens = {  # s, t and their inverses, each entry a pair (u, v) for u + v x
        ("s", True): (((M0, 0), (1, 0)), ((0, 0), (inv, 0))),
        ("s", False): (((inv, 0), (-1, 0)), ((0, 0), (M0, 0))),
        ("t", True): (((M0, 0), (0, 0)), ((tau, -1), (inv, 0))),
        ("t", False): (((inv, 0), (0, 0)), ((-tau, 1), (M0, 0))),
    }
    relator = _word(ring, relator_word(n), gens)
    (ell, _), (offdiag, _) = _word(ring, build_longitude(n), gens)
    scale = -pow(M0, -4 * n - 2, PRIME) % PRIME
    value = ring.const(0)
    for c in reversed(_at_meridian(apoly, M0, axis=0)):
        value = ring.add(ring.mul(value, ell), ring.const(c))
    zero, one = ring.const(0), ring.const(1)
    return {
        "relator": relator == ((one, zero), (zero, one)),
        "offdiag": offdiag == zero,
        "eigenvalue": ring.linear(ell, m2, 1) == ring.linear(ring.const(scale), inv2, 1),
        "apoly": value == zero,
    }


def _meridian(n):
    return random.Random(n).randrange(2, PRIME - 1)


NONZERO_N = [n for n in range(-12, 13) if n]


def _assert_every_check_holds(n):
    M0, riley = _meridian(n), rm_closed(n).poly
    coeffs = _at_meridian(riley, M0, axis=2)
    assert len(coeffs) - 1 == 3 * abs(n) - (n < 0)
    # P is squarefree, and M0^2 + x is a unit mod P: P(-M0^2) != 0
    assert squarefree_mod(coeffs, PRIME)
    assert sum(c * pow(-M0 * M0, k, PRIME) for k, c in enumerate(coeffs)) % PRIME
    assert exact_checks(n, riley, apoly_theorem(n).poly, M0) == dict.fromkeys(
        ["relator", "offdiag", "eigenvalue", "apoly"], True)


@pytest.mark.parametrize("n", NONZERO_N)
def test_every_representation_satisfies_every_check_exactly(n):
    _assert_every_check_holds(n)


@pytest.mark.parametrize("n", [40, -40])
def test_every_representation_satisfies_every_check_exactly_at_n_40(n):
    # past the pinned range: 120 and 119 roots at once, about 1.5 s each, builds included
    _assert_every_check_holds(n)


@pytest.mark.parametrize("n", [60, -60])
def test_every_representation_satisfies_every_check_exactly_at_n_60(n):
    # 180 and 179 roots at once, about 3.5 s each, builds included; CI runs n = +-100 too
    _assert_every_check_holds(n)


@pytest.mark.parametrize("n", [2, -3, 7])
def test_a_changed_coefficient_of_a_fails_only_the_a_check(n):
    apoly = apoly_theorem(n).poly
    (l, m, _), _ = apoly.terms()[len(apoly) // 2]
    checks = exact_checks(n, rm_closed(n).poly, apoly + mono(1, l=l, m=m), _meridian(n))
    assert checks == {"relator": True, "offdiag": True, "eigenvalue": True, "apoly": False}


@pytest.mark.parametrize("n", [2, -3, 7])
def test_a_changed_coefficient_of_p_fails_every_check(n):
    riley = rm_closed(n).poly
    (_, m, x), _ = riley.terms()[len(riley) // 2]
    checks = exact_checks(n, riley - mono(1, m=m, x=x), apoly_theorem(n).poly, _meridian(n))
    assert checks == dict.fromkeys(["relator", "offdiag", "eigenvalue", "apoly"], False)
