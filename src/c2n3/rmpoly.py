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

from .laurent import LaurentPoly, ONE, _digits, _fits, _Rows, _width, mono, packed


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


def q_poly() -> LaurentPoly:
    """The cubic Q(x, M) driving the recursion; equals M^4 * (2 - x*(M^2 + M^-2 + x - 1)^2).

    Expanded in T' = M^4 - M^2 + 1 = M^2 * (M^2 + M^-2 - 1), that is
    Q = 2M^4 - x*T'^2 - 2M^2*x^2*T' - M^4*x^3.  _recursive_rows applies it
    row by row in x, as 2M^4*P[x] - T'*(T'*P[x-1] + 2M^2*P[x-2]) - M^4*P[x-3],
    and takes only its 1-norm from this value.
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

    P_2(k-1) and P_2(k-2) are lists of rows, (lowest expM, packed int)
    indexed by the power of x, and each step builds every row of P_2k in
    one pass: row x of Q*P - M^8*P' is
    2M^4*P[x] - T'*(T'*P[x-1] + 2M^2*P[x-2]) - M^4*P[x-3] - M^8*P'[x].
    T' = M^4 - M^2 + 1 is applied by its +-1 digits, as v - (v << w) +
    (v << 2w) with w the bits of one M^2, so no big-int product is formed,
    and the terms of a row are lined up by their lowest exponents.  For
    |P|_1 <= b the terms are bounded by 2b + 15b + b = |Q|_1 * b, so the
    recursion on 1-norms, b_k = |Q|_1 * b_(k-1) + b_(k-2), bounds every
    value: it gives the room, and the loop carries it and raises
    OverflowError at the first step it would not fit the width, so no slot
    is ever read back wrong.
    """
    if n == 0:
        # one slot, on the grid of stride 2 that every value of the recursion lies on
        return _Rows({(0, 0): (0, 1)}, 2, _width(1), 1)
    prev, cur = (_P0_UP, _P_PLUS2) if n > 0 else (_P0_DOWN, _P_MINUS2)
    # the recursion run on 1-norms bounds every value it takes
    lower, room = prev.norm1(), cur.norm1()
    for _ in range(abs(n) - 1):
        lower, room = room, _Q.norm1() * room + lower
    prev, cur = packed(room, prev, cur)
    width, stride, lower, bound = cur.width, cur.stride, prev.bound, cur.bound
    bits = width // stride  # bits per unit of M-exponent: M^2 is one slot
    # a zero row; a step raises a lowest exponent by at most 8, from at most 8, so this
    # one lies above every nonzero row's and never sets the lowest exponent of a sum
    zero = (8 * abs(n) + 16, 0)
    prev, cur = ([rows.rows.get((0, x), zero) for x in range(max(x for _, x in rows.rows) + 1)]
                 for rows in (prev, cur))
    for _ in range(abs(n) - 1):
        lower, bound = bound, _Q.norm1() * bound + lower
        _fits(bound, width)
        size = max(len(cur) + 3, len(prev))
        c = [zero] * 3 + cur + [zero] * (size - len(cur))
        p = prev + [zero] * (size - len(prev))
        new = []
        for x in range(size):
            (lo0, v0), (lo1, v1), (lo2, v2), (lo3, v3), (lo_p, v_p) = (
                c[x + 3], c[x + 2], c[x + 1], c[x], p[x])
            # inner = T'*P[x-1] + 2M^2*P[x-2], from the lower of their lowest exponents;
            # the doublings 2M^2*P[x-2] and 2M^4*P[x] are the + 1 in their shifts
            t = v1 - (v1 << 2 * bits) + (v1 << 4 * bits)
            lo2 += 2
            if lo1 <= lo2:
                lo_i, inner = lo1, t + (v2 << (lo2 - lo1) * bits + 1)
            else:
                lo_i, inner = lo2, (t << (lo1 - lo2) * bits) + (v2 << 1)
            inner = inner - (inner << 2 * bits) + (inner << 4 * bits)
            lo0, lo3, lo_p = lo0 + 4, lo3 + 4, lo_p + 8
            lo = min(lo0, lo_i, lo3, lo_p)
            value = ((v0 << (lo0 - lo) * bits + 1)
                     - (inner << (lo_i - lo) * bits if lo_i > lo else inner)
                     - (v3 << (lo3 - lo) * bits if lo3 > lo else v3)
                     - (v_p << (lo_p - lo) * bits if lo_p > lo else v_p))
            new.append((lo, value))
        prev, cur = cur, new
    return _Rows({(0, x): row for x, row in enumerate(cur) if row[1]}, stride, width, bound)


def rm_recursive(n: int) -> RMResult:
    """P_2n by the recursion P_2k = Q*P_2(k-1) - M^8*P_2(k-2), run away from 0.

    Upward from P_0 = 1 and the explicit P_2 for n >= 0; downward from
    P_0 = M^-2 and the explicit P_-2 for n < 0 (with k-1, k-2 replaced by
    k+1, k+2).  Only two values are carried, so the number of steps is
    linear in |n|.  The loop runs on packed rows (_recursive_rows): each
    step is one pass over the x-rows that builds every row of the next
    value from at most five rows of the two before, by shifts and sums of
    packed ints, with no product of packed rows.  The rows are unpacked
    once here; apoly_substitution takes them as they are.
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
