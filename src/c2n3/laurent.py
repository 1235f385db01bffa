"""Exact sparse Laurent polynomials in the fixed variable set {L, M, x}.

Coefficients are arbitrary-precision integers and exponents may be negative.
Every value is kept in canonical form (no zero coefficients), so structural
equality is mathematical equality.  Terms are keyed by plain int tuples
(expL, expM, expX), whose lexicographic order drives term enumeration,
serialization, and the sign convention of unit normalization.
"""

from __future__ import annotations

import json
import math
import re
from itertools import compress, repeat
from typing import Iterable, Mapping

VARIABLES = ("L", "M", "x")
_VAR_INDEX = {"L": 0, "M": 1, "x": 2}


UNIT_MONOMIAL = (0, 0, 0)


def _checked_int(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{what} must be an int, got {type(value).__name__}")
    return value


def _as_monomial(key) -> tuple:
    if not isinstance(key, tuple) or len(key) != 3:
        raise TypeError(f"monomial key must be a 3-tuple, got {key!r}")
    return tuple(_checked_int(e, "exponent") for e in key)


def _var_index(var: str) -> int:
    try:
        return _VAR_INDEX[var]
    except KeyError:
        raise ValueError(f"unknown variable {var!r}, expected one of {VARIABLES}") from None


class LaurentPoly:
    """An integer Laurent polynomial in L, M, x.

    Instances are immutable by convention; every operation returns a new
    canonical value.  ints coerce to constant polynomials in mixed
    arithmetic and comparisons.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping | Iterable = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        canonical: dict[tuple, int] = {}
        for key, coeff in items:
            _checked_int(coeff, "coefficient")
            m = _as_monomial(key)
            total = canonical.get(m, 0) + coeff
            if total:
                canonical[m] = total
            else:
                canonical.pop(m, None)
        self._terms = canonical

    @classmethod
    def _raw(cls, terms: dict[tuple, int]) -> "LaurentPoly":
        # trusted canonical dict, used by the arithmetic fast paths
        obj = object.__new__(cls)
        obj._terms = terms
        return obj

    # -- inspection ------------------------------------------------------

    def terms(self) -> tuple[tuple[tuple, int], ...]:
        """All (monomial, coefficient) pairs in ascending canonical order."""
        return tuple(sorted(self._terms.items()))

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def degree(self, var: str) -> int:
        """Largest exponent of var across all terms (0 for unused variables)."""
        idx = _var_index(var)
        if not self._terms:
            raise ValueError("the zero polynomial has no degree")
        return max(m[idx] for m in self._terms)

    def norm1(self) -> int:
        """The sum of the absolute values of the coefficients."""
        return sum(map(abs, self._terms.values()))

    def min_exp(self, var: str) -> int:
        idx = _var_index(var)
        if not self._terms:
            raise ValueError("the zero polynomial has no exponents")
        return min(m[idx] for m in self._terms)

    # -- ring operations -------------------------------------------------

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly):
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return LaurentPoly._raw({UNIT_MONOMIAL: other}) if other else ZERO
        return None

    def __eq__(self, other) -> bool:
        coerced = LaurentPoly._coerce(other)
        if coerced is None:
            return NotImplemented
        return self._terms == coerced._terms

    __hash__ = None  # mutable-dict backed; equality with ints rules out hashing

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly._raw({m: -c for m, c in self._terms.items()})

    def __add__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            total = out.get(m, 0) + c
            if total:
                out[m] = total
            else:
                out.pop(m, None)
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __sub__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "LaurentPoly":
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "LaurentPoly":
        """The schoolbook product, term by term; loops of products run on packed() rows."""
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[tuple, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                key = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
                total = out.get(key, 0) + c1 * c2
                if total:
                    out[key] = total
                else:
                    out.pop(key, None)
        return LaurentPoly._raw(out)

    __rmul__ = __mul__

    def __pow__(self, k) -> "LaurentPoly":
        if isinstance(k, bool) or not isinstance(k, int):
            return NotImplemented
        if k < 0:
            raise ValueError("negative powers of a polynomial are not defined")
        result = ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result

    # -- structural operations -------------------------------------------

    def coeff(self, var: str, k: int) -> "LaurentPoly":
        """Coefficient of var**k: the matching terms with var removed."""
        idx = _var_index(var)
        _checked_int(k, "exponent")
        out: dict[tuple, int] = {}
        for m, c in self._terms.items():
            if m[idx] == k:
                exps = list(m)
                exps[idx] = 0
                out[tuple(exps)] = c
        return LaurentPoly._raw(out)

    def substitute(self, var: str, num: "LaurentPoly", den: "LaurentPoly",
                   clear_deg: int) -> "LaurentPoly":
        """Substitute num/den for var and clear denominators.

        Returns sum_k coeff(var, k) * num**k * den**(clear_deg - k), which
        equals self(var := num/den) * den**clear_deg.  Requires a nonzero
        den, nonnegative exponents of var and clear_deg >= degree(var) so
        the result stays in the ring.  The sum is evaluated by Horner's rule
        in num (_horner, which apoly_substitution calls on P_2n's rows too),
        on rows from one packed() call, whose cost follows each row's
        M-span / stride, not its term count; the stride is the gcd of every
        M-exponent of self, num and den, so exponents that are sparse, or
        evenly spaced off a multiple of their spacing (M^3 + M^5), are slow.
        """
        idx = _var_index(var)
        _checked_int(clear_deg, "clear_deg")
        if clear_deg < 0:
            raise ValueError("clear_deg must be nonnegative")
        if not den:
            raise ValueError("denominator must be nonzero")
        if not self._terms:
            return ZERO
        if self.min_exp(var) < 0:
            raise ValueError(f"cannot substitute into negative exponents of {var}")
        deg = self.degree(var)
        if clear_deg < deg:
            raise ValueError(f"clear_deg {clear_deg} is below the {var}-degree {deg}")
        parts: dict[int, dict[tuple, int]] = {}  # coeff(var, k) for every k, in one pass
        for m, c in self._terms.items():
            exps = list(m)
            exps[idx] = 0
            parts.setdefault(m[idx], {})[tuple(exps)] = c
        # The bound of the whole sum.  With |num|_1 taken as at least 1 it also
        # bounds every Horner intermediate and every power of den used.
        num_norm, den_norm = max(num.norm1(), 1), den.norm1()
        room = sum(sum(map(abs, part.values())) * num_norm**k * den_norm ** (clear_deg - k)
                   for k, part in parts.items())
        num, den, *rows = packed(room, num, den, *map(LaurentPoly._raw, parts.values()))
        return _horner(dict(zip(parts, rows)), num, den, clear_deg).unpack()

    def normalize_unit(self) -> tuple["LaurentPoly", tuple, int]:
        """Factor out the monomial content and a global sign.

        Returns (q, u, s) with self == s * u * q, where q has minimum
        exponent 0 in every variable and the coefficient of its
        lexicographically least term is positive.  q is self when self is
        unit-normal already.
        """
        terms = self._terms
        if not terms:
            raise ValueError("cannot unit-normalize the zero polynomial")
        unit = tuple(map(min, zip(*terms)))
        # a shift keeps the lexicographic order, so the least term stays least
        sign = 1 if terms[min(terms)] > 0 else -1
        if unit != UNIT_MONOMIAL:
            l0, m0, x0 = unit
            terms = {(l - l0, m - m0, x - x0): c for (l, m, x), c in terms.items()}
        elif sign > 0:
            return self, unit, sign
        if sign < 0:
            terms = {m: -c for m, c in terms.items()}
        return LaurentPoly._raw(terms), unit, sign

    # -- canonical JSON ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"l": l, "m": m, "x": x, "c": str(c)} for (l, m, x), c in self.terms()
            ]
        }

    def to_json(self) -> str:
        """The compact json.dumps text of to_json_obj(), written straight from the sorted terms."""
        body = ",".join(f'{{"l":{l},"m":{m},"x":{x},"c":"{c}"}}' for (l, m, x), c in self.terms())
        return f'{{"terms":[{body}]}}'

    @classmethod
    def from_json_obj(cls, data) -> "LaurentPoly":
        if not isinstance(data, dict) or set(data) != {"terms"}:
            raise ValueError("polynomial JSON must be an object with the single key 'terms'")
        entries = data["terms"]
        if not isinstance(entries, list):
            raise ValueError("'terms' must be a list")
        out: dict[tuple, int] = {}
        for entry in entries:
            if not isinstance(entry, dict) or set(entry) != {"l", "m", "x", "c"}:
                raise ValueError(f"term must have exactly the keys l, m, x, c: {entry!r}")
            exps = []
            for key in ("l", "m", "x"):
                e = entry[key]
                if isinstance(e, bool) or not isinstance(e, int):
                    raise ValueError(f"exponent {key}={e!r} is not an integer")
                exps.append(e)
            c = entry["c"]
            if not isinstance(c, str) or not re.fullmatch(r"-?[0-9]+", c):
                raise ValueError(f"coefficient {c!r} is not a decimal integer string")
            coeff = int(c)
            if coeff == 0:
                raise ValueError("zero coefficients are not part of the canonical form")
            key = tuple(exps)
            if key in out:
                raise ValueError(f"duplicate monomial {key}")
            out[key] = coeff
        return cls._raw(out)

    @classmethod
    def from_json(cls, text: str) -> "LaurentPoly":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from exc
        return cls.from_json_obj(data)

    # -- human-readable forms ----------------------------------------------

    def to_text(self) -> str:
        return _render(self, latex=False)

    def to_latex(self) -> str:
        return _render(self, latex=True)

    @classmethod
    def from_text(cls, text: str) -> "LaurentPoly":
        return _parse(text, latex=False)

    @classmethod
    def from_latex(cls, text: str) -> "LaurentPoly":
        return _parse(text, latex=True)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.to_text()!r})"


def _width(bound: int) -> int:
    """Slot width in bits for magnitudes up to bound: a sign bit on top, in whole bytes."""
    return (bound.bit_length() + 8) // 8 * 8


def _biases(count: int, width: int) -> int:
    """2^(width - 1) in each of count slots; added to a packed int, it makes every slot >= 0."""
    return int.from_bytes((1 << (width - 1)).to_bytes(width // 8, "little") * count, "little")


def _joined(digits: list[int], width: int) -> int:
    """The packed int whose slots hold the signed values digits, lowest first."""
    half, w = 1 << (width - 1), width // 8
    data = b"".join(map(int.to_bytes, [d + half for d in digits], repeat(w), repeat("little")))
    return int.from_bytes(data, "little") - _biases(len(digits), width)


def _digits(value: int, width: int) -> list[int]:
    """The signed slot values of a packed int, lowest first, to its top nonzero slot or one past."""
    # a packed int whose top nonzero slot is slot k has bit length at least width * k - 1
    count = (value.bit_length() + 1) // width + 1
    w = width // 8
    biases = _biases(count, width)
    # each slot of value + biases holds digit + 2^(width - 1) with no carry between slots;
    # flipping the top bit leaves the digit in two's complement
    data = ((value + biases) ^ biases).to_bytes(count * w, "little")
    return [int.from_bytes(data[at:at + w], "little", signed=True) for at in range(0, len(data), w)]


def packed(room: int, *polys: LaurentPoly) -> list["_Rows"]:
    """polys as packed rows on one grid, for a loop of ring operations unpacked once at its end.

    The rows support +, -, * (by rows or an int), shift (the product with
    a monomial), powers and unpack, which gives the LaurentPoly back.  A
    product of rows splits its right operand into slots and scales the
    left operand's rows by each, so put the short fixed factor on the
    right: long * factor.  The grid comes from the operands: slots step
    through the M-exponents by their gcd (1 if every one is 0), and the
    slot width holds room and every operand's 1-norm.  Every value computed
    from the rows keeps that grid, so pack all operands of a loop in one
    call, with room for the largest 1-norm the loop reaches.
    """
    stride = math.gcd(*(m[1] for poly in polys for m in poly._terms)) or 1
    width = _width(max(room, *map(LaurentPoly.norm1, polys)))
    out = []
    for poly in polys:
        grouped: dict[tuple[int, int], dict[int, int]] = {}
        for m, c in poly._terms.items():
            grouped.setdefault((m[0], m[2]), {})[m[1]] = c
        rows = {}
        for key, row in grouped.items():
            lo = min(row)
            digits = [0] * ((max(row) - lo) // stride + 1)
            for e, c in row.items():
                digits[(e - lo) // stride] = c
            rows[key] = (lo, _joined(digits, width))
        out.append(_Rows(rows, stride, width, poly.norm1()))
    return out


class _Rows:
    """A polynomial as packed rows: {(expL, expX): (lowest expM, packed int)}.

    Slot k of a row's int, bits width * k up to width * (k + 1), holds the
    coefficient of M^(lowest + stride * k) as a signed digit, so the int is
    the row evaluated at M^stride = 2^width (Kronecker substitution).  That
    evaluation is a ring homomorphism, so +, - and * of packed ints are
    exact whatever the width; only reading the slots back needs every
    coefficient inside [-2^(width-1), 2^(width-1)).  packed() fixes the
    width and the stride for all the values of one call; every value
    computed from them keeps both, and operands that differ in either raise
    ValueError.  The slot grid is anchored at M^0: every M-exponent is a
    multiple of stride, so the rows of one value and the products landing
    in one output row line up.  a * b takes b term by term, one term per
    nonzero slot (a one-slot row is one term), and adds each row of a,
    scaled by the term's int and shifted to its key and offset, into the
    product; a term of +-1 scales nothing.  Any shapes give the exact
    product, but its cost grows with b's slots times a's size, so b is the
    short factor (T', a den power, num) in every product the routes form.
    bound is an upper bound on the 1-norm of the polynomial, hence on every
    coefficient; it grows by |a|_1 + |b|_1 for sums and |a|_1 * |b|_1 for
    products, and an operation whose bound would not fit the width raises
    OverflowError, so no slot is ever read back wrong.
    """

    __slots__ = ("rows", "stride", "width", "bound")

    def __init__(self, rows: dict, stride: int, width: int, bound: int):
        if bound.bit_length() >= width:
            raise OverflowError(f"a 1-norm bound of {bound.bit_length()} bits outgrows "
                                f"{width}-bit slots; pack with more room")
        self.rows = rows
        self.stride = stride
        self.width = width
        self.bound = bound

    def unpack(self) -> LaurentPoly:
        """The polynomial itself, read slot by slot; zero slots are not terms."""
        width, stride = self.width, self.stride
        out: dict[tuple, int] = {}
        for (l, x), (lo, value) in self.rows.items():
            coeffs = _digits(value, width)
            keys = zip(repeat(l), range(lo, lo + len(coeffs) * stride, stride), repeat(x))
            out.update(compress(zip(keys, coeffs), coeffs))
        return LaurentPoly._raw(out)

    def _grid(self, other: "_Rows") -> None:
        if (other.width, other.stride) != (self.width, self.stride):
            raise ValueError(f"packed rows of widths {self.width} and {other.width}, strides "
                             f"{self.stride} and {other.stride} do not combine")

    def _plus(self, other: "_Rows", minus: bool) -> "_Rows":
        # self - other if minus else self + other, row by row
        self._grid(other)
        width, stride = self.width, self.stride
        rows = dict(self.rows)
        for key, (lo, value) in other.rows.items():
            have = rows.get(key)
            if have is None:
                rows[key] = (lo, -value if minus else value)
                continue
            lo0, value0 = have
            if lo >= lo0:
                moved = value << ((lo - lo0) // stride * width)
                total = value0 - moved if minus else value0 + moved
            else:
                lo0, moved = lo, value0 << ((lo0 - lo) // stride * width)
                total = moved - value if minus else moved + value
            if total:
                rows[key] = (lo0, total)
            else:
                del rows[key]
        return _Rows(rows, stride, width, self.bound + other.bound)

    def __add__(self, other: "_Rows") -> "_Rows":
        return self._plus(other, False)

    def __sub__(self, other: "_Rows") -> "_Rows":
        return self._plus(other, True)

    def __mul__(self, other) -> "_Rows":
        if isinstance(other, int):
            if other == 1:
                return self
            rows = {key: (lo, -value if other == -1 else value * other)
                    for key, (lo, value) in self.rows.items() if other}
            return _Rows(rows, self.stride, self.width, self.bound * abs(other))
        self._grid(other)
        width, stride = self.width, self.stride
        # other enters slot by slot: scaling a long row by a small int is cheaper
        # than multiplying it by an int that is mostly slot padding
        half = 1 << (width - 1)
        terms = []
        for (lb, xb), (lo_b, vb) in other.rows.items():
            if -half <= vb < half:
                terms.append((lb, xb, lo_b, vb))
            else:
                terms.extend((lb, xb, lo_b + k * stride, c)
                             for k, c in enumerate(_digits(vb, width)) if c)
        out: dict[tuple[int, int], tuple[int, int]] = {}
        for (la, xa), (lo_a, va) in self.rows.items():
            for lb, xb, lo_b, vb in terms:
                key = (la + lb, xa + xb)
                lo = lo_a + lo_b
                minus = vb == -1
                term = va if minus or vb == 1 else va * vb
                have = out.get(key)
                if have is None:
                    out[key] = (lo, -term if minus else term)
                elif lo >= have[0]:
                    moved = term << ((lo - have[0]) // stride * width)
                    out[key] = (have[0], have[1] - moved if minus else have[1] + moved)
                else:
                    moved = have[1] << ((have[0] - lo) // stride * width)
                    out[key] = (lo, moved - term if minus else moved + term)
        rows = {key: row for key, row in out.items() if row[1]}
        return _Rows(rows, stride, width, self.bound * other.bound)

    def powers(self, top: int) -> list["_Rows"]:
        """[1, self, self^2, ..., self^top], all on this value's grid, with bounds bound^j.

        A binomial a + b of two +-1 monomials in two rows (the den of both
        A_2n routes) gets its powers from Pascal's rule: row i of (a + b)^j
        is the one slot C(j, i) * a^i * b^(j - i), and no product is formed.
        Any other value multiplies up power by power.
        """
        out = [_Rows({(0, 0): (0, 1)}, self.stride, self.width, 1)]
        if len(self.rows) == 2 and all(value in (1, -1) for _, value in self.rows.values()):
            ((la, xa), (ma, sa)), ((lb, xb), (mb, sb)) = self.rows.items()
            coeffs = [1]  # the signed coefficient of a^i * b^(j - i), i = 0..j
            for j in range(1, top + 1):
                coeffs = [sb * c + sa * c_less for c, c_less in zip(coeffs + [0], [0] + coeffs)]
                rows = {(i * la + (j - i) * lb, i * xa + (j - i) * xb): (i * ma + (j - i) * mb, c)
                        for i, c in enumerate(coeffs)}
                out.append(_Rows(rows, self.stride, self.width, out[-1].bound * self.bound))
            return out
        for _ in range(top):
            out.append(out[-1] * self)
        return out

    def shift(self, l: int = 0, m: int = 0, x: int = 0) -> "_Rows":
        """The product with the monomial L^l * M^m * x^x: new keys and offsets, the same ints."""
        if m % self.stride:
            raise ValueError(f"an M-shift of {m} is off the grid of stride {self.stride}")
        rows = {(kl + l, kx + x): (lo + m, value) for (kl, kx), (lo, value) in self.rows.items()}
        return _Rows(rows, self.stride, self.width, self.bound)

    def normalize_unit(self) -> tuple["_Rows", tuple, int]:
        """LaurentPoly.normalize_unit on the rows: (q, u, s) with self == s * u * q.

        The monomial content comes from the row keys and each row's lowest
        nonzero slot, the sign from the top bit of the least term's slot; a
        shift and at most one negation apply them, and no row is unpacked.
        """
        if not self.rows:
            raise ValueError("cannot unit-normalize the zero polynomial")
        width, stride = self.width, self.stride
        lowest = {}  # (expL, expX): (index of the lowest nonzero slot, its M-exponent)
        for key, (lo, value) in self.rows.items():
            k = ((value & -value).bit_length() - 1) // width
            lowest[key] = (k, lo + k * stride)
        unit = (min(l for l, _ in lowest), min(m for _, m in lowest.values()),
                min(x for _, x in lowest))
        # the least term is the lowest slot of the row least in (expL, its lowest expM, expX)
        (l, x), (k, _) = min(lowest.items(), key=lambda row: (row[0][0], row[1][1], row[0][1]))
        # the top bit of that slot is its digit's sign bit, whatever the slots above it hold
        sign = -1 if self.rows[(l, x)][1] >> (width * (k + 1) - 1) & 1 else 1
        return self.shift(*(-e for e in unit)) * sign, unit, sign


def _horner(parts: dict[int, _Rows], num: _Rows, den: _Rows, clear_deg: int) -> _Rows:
    """sum_k parts[k] * num**k * den**(clear_deg - k), by Horner's rule in num.

    parts maps each power k of the substituted variable to its coefficient
    rows; every value is on one grid with room for the whole sum, and
    clear_deg is at least max(parts).
    """
    den_pow = den.powers(clear_deg - min(parts))
    out = _Rows({}, num.stride, num.width, 0)
    for k in range(max(parts), -1, -1):
        out = out * num
        if k in parts:
            out = out + parts[k] * den_pow[clear_deg - k]
    return out


def mono(coeff: int, l: int = 0, m: int = 0, x: int = 0) -> LaurentPoly:
    """Single-term polynomial coeff * L**l * M**m * x**x."""
    return LaurentPoly({(l, m, x): coeff})


ZERO = LaurentPoly()
ONE = mono(1)


def _render(poly: LaurentPoly, latex: bool) -> str:
    if poly.is_zero():
        return "0"
    chunks = []
    for m, c in sorted(poly._terms.items(), reverse=True):
        factors = []
        for name, e in zip(VARIABLES, m):
            if e == 0:
                continue
            if e == 1:
                factors.append(name)
            elif latex:
                factors.append(f"{name}^{{{e}}}")
            else:
                factors.append(f"{name}^{e}")
        if abs(c) != 1 or not factors:
            factors.insert(0, str(abs(c)))
        body = (" " if latex else "*").join(factors)
        if chunks:
            chunks.append(f" {'-' if c < 0 else '+'} {body}")
        else:
            chunks.append("-" + body if c < 0 else body)
    return "".join(chunks)


_TERM_SPLIT = re.compile(r" ([+-]) ")
_TEXT_FACTOR = re.compile(r"(L|M|x)(?:\^(-?[0-9]+))?\Z")
_LATEX_FACTOR = re.compile(r"(L|M|x)(?:\^\{(-?[0-9]+)\})?\Z")
_PLAIN_INT = re.compile(r"[0-9]+\Z")


def _parse(text: str, latex: bool) -> LaurentPoly:
    s = text.strip()
    if not s:
        raise ValueError("empty polynomial text")
    if s == "0":
        return ZERO
    pieces = _TERM_SPLIT.split(s)
    signed = [("+", pieces[0])]
    signed.extend(zip(pieces[1::2], pieces[2::2]))
    factor_re = _LATEX_FACTOR if latex else _TEXT_FACTOR
    sep = " " if latex else "*"
    acc: dict[tuple, int] = {}
    for op, chunk in signed:
        sign = -1 if op == "-" else 1
        chunk = chunk.strip()
        if chunk.startswith("-"):
            sign = -sign
            chunk = chunk[1:].lstrip()
        if not chunk:
            raise ValueError(f"empty term in {text!r}")
        coeff = 1
        exps = [0, 0, 0]
        for pos, piece in enumerate(chunk.split(sep)):
            piece = piece.strip()
            if not piece:
                raise ValueError(f"malformed term {chunk!r}")
            if _PLAIN_INT.match(piece):
                if pos != 0:
                    raise ValueError(f"misplaced coefficient in term {chunk!r}")
                coeff = int(piece)
                continue
            matched = factor_re.match(piece)
            if not matched:
                raise ValueError(f"unrecognized factor {piece!r}")
            name, exp_text = matched.group(1), matched.group(2)
            exps[_VAR_INDEX[name]] += 1 if exp_text is None else int(exp_text)
        key = tuple(exps)
        acc[key] = acc.get(key, 0) + sign * coeff
    return LaurentPoly(acc)
