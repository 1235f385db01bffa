"""Riley-Mednykh polynomials P_2n(x, M) of the two-bridge knots C(2n,3).

Each P_2n is built along two independent routes: a closed-form finite sum
over zero-extended binomials, and a three-term recursion driven by a fixed
cubic Q.  Route agreement is a test-level identity, not an implementation
shortcut.  x is the trace-like variable of the representation and M the
meridian eigenvalue; the n = 0 value is the constant 1 (the start of the
upward branch).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .laurent import LaurentPoly, ONE, _digits, _Rows, _width, mono, packed


def binom_z(a: int, b: int) -> int:
    """Binomial coefficient C(a, b), extended by zero outside 0 <= b <= a."""
    if b < 0 or a < 0 or b > a:
        return 0
    return math.comb(a, b)


# M^2 + M^-2 + x - 1, the base of the closed form.
_BASE = mono(1, m=2) + mono(1, m=-2) + mono(1, x=1) - 1

# Q = -M^4 x^3 + (-2M^6 + 2M^4 - 2M^2) x^2 + (-M^8 + 2M^6 - 3M^4 + 2M^2 - 1) x + 2M^4
_Q = (
    mono(-1, m=4, x=3)
    + mono(-2, m=6, x=2)
    + mono(2, m=4, x=2)
    + mono(-2, m=2, x=2)
    + mono(-1, m=8, x=1)
    + mono(2, m=6, x=1)
    + mono(-3, m=4, x=1)
    + mono(2, m=2, x=1)
    + mono(-1, x=1)
    + mono(2, m=4)
)

# P_2 = -M^4 x^3 + (-2M^6 + M^4 - 2M^2) x^2 + (-M^8 + M^6 - 2M^4 + M^2 - 1) x + M^4
_P_PLUS2 = (
    mono(-1, m=4, x=3)
    + mono(-2, m=6, x=2)
    + mono(1, m=4, x=2)
    + mono(-2, m=2, x=2)
    + mono(-1, m=8, x=1)
    + mono(1, m=6, x=1)
    + mono(-2, m=4, x=1)
    + mono(1, m=2, x=1)
    + mono(-1, x=1)
    + mono(1, m=4)
)

# P_-2 = M^2 x^2 + (M^4 - M^2 + 1) x + M^2
_P_MINUS2 = (
    mono(1, m=2, x=2)
    + mono(1, m=4, x=1)
    + mono(-1, m=2, x=1)
    + mono(1, x=1)
    + mono(1, m=2)
)

_P0_UP = ONE
_P0_DOWN = mono(1, m=-2)


# T' = M^4 - M^2 + 1 = M^2 * (M^2 + M^-2 - 1); the recursion applies Q through it
_T = mono(1, m=4) + mono(-1, m=2) + 1


def q_poly() -> LaurentPoly:
    """The cubic Q(x, M) driving the recursion; equals M^4 * (2 - x*(M^2 + M^-2 + x - 1)^2).

    Expanded in T' = M^4 - M^2 + 1 = M^2 * (M^2 + M^-2 - 1), that is
    Q = 2M^4 - x*T'^2 - 2M^2*x^2*T' - M^4*x^3, the form _recursive_rows applies.
    """
    return _Q


@dataclass(frozen=True)
class RMResult:
    """A Riley-Mednykh polynomial together with the route that produced it."""

    n: int
    poly: LaurentPoly
    path: str


def _recursive_rows(n: int) -> _Rows:
    """P_2n as packed rows, by the loop of rm_recursive; P_0 = 1 runs no loop and packs nothing.

    Each step applies Q = 2M^4 - x*T'^2 - 2M^2*x^2*T' - M^4*x^3 as
    2M^4*P - x*T'*(T'*P + 2M^2*x*P) - M^4*x^3*P: both products by T' take
    its +-1 digits (shifts and adds, no big-int product), 2P is the one
    doubling, and the rest is shifts and sums.  For |P|_1 <= b the parts
    are bounded by 2b + 15b + b = |Q|_1 * b, so the room of the recursion on
    1-norms still holds every value.
    """
    if n == 0:
        # one slot, on the grid of stride 2 that every value of the recursion lies on
        return _Rows({(0, 0): (0, 1)}, 2, _width(1), 1)
    prev, cur = (_P0_UP, _P_PLUS2) if n > 0 else (_P0_DOWN, _P_MINUS2)
    # the recursion run on 1-norms bounds every value it takes
    lower, room = prev.norm1(), cur.norm1()
    for _ in range(abs(n) - 1):
        lower, room = room, _Q.norm1() * room + lower
    prev, cur, t = packed(room, prev, cur, _T)
    for _ in range(abs(n) - 1):
        twice = cur * 2
        inner = cur * t + twice.shift(m=2, x=1)
        prev, cur = cur, (twice.shift(m=4) - (inner * t).shift(x=1) - cur.shift(m=4, x=3)
                          - prev.shift(m=8))
    return cur


def rm_recursive(n: int) -> RMResult:
    """P_2n by the recursion P_2k = Q*P_2(k-1) - M^8*P_2(k-2), run away from 0.

    Upward from P_0 = 1 and the explicit P_2 for n >= 0; downward from
    P_0 = M^-2 and the explicit P_-2 for n < 0 (with k-1, k-2 replaced by
    k+1, k+2).  Only two values are carried, so the cost is linear in |n|.
    The loop runs on packed rows (_recursive_rows), unpacked once here;
    apoly_substitution takes the rows as they are.  Each step applies Q
    through T' = M^4 - M^2 + 1, whose +-1 digits need no big-int product.
    """
    return RMResult(n, _recursive_rows(n).unpack(), "recursive")


def summation_indices(n: int) -> list[tuple[int, int, int]]:
    """(i, j, C) for each summand of the closed forms of P_2n and A_2n.

    j = floor((1+i)/2) throughout.  For n >= 0, i runs over 0 <= i <= 2n
    and C = C(n + floor(i/2), i); for n < 0, i runs over 0 <= i < -2n and
    C = C(-n + floor((i-1)/2), i).  Out-of-range binomials vanish via binom_z.
    """
    if n >= 0:
        return [(i, (1 + i) // 2, binom_z(n + i // 2, i)) for i in range(2 * n + 1)]
    return [(i, (1 + i) // 2, binom_z(-n + (i - 1) // 2, i)) for i in range(-2 * n)]


def rm_closed(n: int) -> RMResult:
    """P_2n by the closed-form finite sum over summation_indices(n).

    For n >= 0 the summand is C * M^(4n) * (M^2 + M^-2 + x - 1)^i * (-x)^j;
    for n < 0 the base is negated and the prefactor is M^(-4n-2).  With the
    base written as s * (M^-2 * T' + x), T' = M^4 - M^2 + 1, the binomial
    theorem expands each summand into
    sum_e C * (-1)^j * s^i * C(i, e) * x^(i-e+j) * M^(p-2e) * T'^e,
    so every x-row is a sum of integer multiples of packed powers of T',
    each built once by shifts and adds.  Each row is one int, and no
    product, sum or shift of packed rows is formed per summand.
    """
    if n >= 0:
        sign, prefactor = 1, 4 * n
    else:
        sign, prefactor = -1, -4 * n - 2
    indices = summation_indices(n)
    # the sum run on 1-norms bounds every value it takes; since |T'^e|_1 <= 3^e, the
    # contributions to one x-row from the summand of i are bounded by |C| * 4^i too
    room = sum(abs(c) * _BASE.norm1() ** i for i, _, c in indices)
    (t,) = packed(room, mono(1, m=2) * (_BASE - mono(1, x=1)))
    width = t.width
    digits = _digits(t.rows[(0, 0)][1], width)
    table = [1]  # T'^e as packed ints on the stride-2 grid, lowest slot M^0
    for _ in range(indices[-1][0]):
        table.append(sum(d * (table[-1] << k * width) for k, d in enumerate(digits)))
    # x-exponent: {e: the integer multiple of M^(prefactor - 2e) * T'^e}; within a row
    # each e comes from one summand, since i + j grows strictly with i
    parts: dict[int, dict[int, int]] = {}
    for i, j, c in indices:
        c *= (-1) ** j * sign**i
        for e in range(i + 1):
            parts.setdefault(i - e + j, {})[e] = c * math.comb(i, e)
    rows = {}
    for a, multiples in parts.items():
        top = max(multiples)
        rows[(0, a)] = (prefactor - 2 * top,
                        sum((d * table[e]) << (top - e) * width for e, d in multiples.items()))
    return RMResult(n, _Rows(rows, t.stride, width, room).unpack(), "closed")
