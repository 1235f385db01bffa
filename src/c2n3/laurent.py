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
        other = LaurentPoly._coerce(other)
        if other is None:
            return NotImplemented
        if _row_packing_pays(self._terms, other._terms):
            return LaurentPoly._raw(_mul_packed(self._terms, other._terms))
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
        the result stays in the ring.
        """
        _var_index(var)
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
        num_pow = [ONE]
        for _ in range(deg):
            num_pow.append(num_pow[-1] * num)
        den_pow = [ONE]
        for _ in range(clear_deg):
            den_pow.append(den_pow[-1] * den)
        out = ZERO
        for k in range(deg + 1):
            part = self.coeff(var, k)
            if part.is_zero():
                continue
            out = out + part * num_pow[k] * den_pow[clear_deg - k]
        return out

    def normalize_unit(self) -> tuple["LaurentPoly", tuple, int]:
        """Factor out the monomial content and a global sign.

        Returns (q, u, s) with self == s * u * q, where q has minimum
        exponent 0 in every variable and the coefficient of its
        lexicographically least term is positive.
        """
        if not self._terms:
            raise ValueError("cannot unit-normalize the zero polynomial")
        unit = tuple(min(m[i] for m in self._terms) for i in range(3))
        shifted = {
            (m[0] - unit[0], m[1] - unit[1], m[2] - unit[2]): c
            for m, c in self._terms.items()
        }
        sign = 1 if shifted[min(shifted)] > 0 else -1
        if sign < 0:
            shifted = {m: -c for m, c in shifted.items()}
        return LaurentPoly._raw(shifted), unit, sign

    # -- numeric evaluation ----------------------------------------------

    def at_meridian(self, M0) -> tuple[list, list]:
        """Set M to the number M0: coefficients and term-magnitude sums per power of L or x.

        The polynomial may use M and one other variable, L or x, with
        nonnegative exponents.  Entry k of the first list is sum c * M0**e
        and entry k of the second is sum |c| * |M0|**e, both over the terms
        c * M^e * var^k; the lists are empty for the zero polynomial.  M0
        may be a complex or an mpmath mpc, which keeps its working
        precision throughout.
        """
        terms = self._terms
        axis = 0 if any(m[0] for m in terms) else 2
        if axis == 0 and any(m[2] for m in terms):
            raise ValueError("at_meridian needs a polynomial in M and one of L, x")
        if any(m[axis] < 0 for m in terms):
            raise ValueError(f"cannot specialize negative exponents of {VARIABLES[axis]}")
        if M0 == 0 and any(m[1] < 0 for m in terms):
            raise ZeroDivisionError("M = 0 but M occurs with negative exponents")
        size = max((m[axis] for m in terms), default=-1) + 1
        zero = 0 * M0
        values = [zero] * size
        bounds = [abs(zero)] * size
        modulus = abs(M0)
        powers = {}
        for m, c in terms.items():
            power = powers.get(m[1])
            if power is None:
                power = powers[m[1]] = (M0 ** m[1], modulus ** m[1])
            values[m[axis]] += c * power[0]
            bounds[m[axis]] += abs(c) * power[1]
        return values, bounds

    # -- canonical JSON ----------------------------------------------------

    def to_json_obj(self) -> dict:
        return {
            "terms": [
                {"l": l, "m": m, "x": x, "c": str(c)} for (l, m, x), c in self.terms()
            ]
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))

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


def _row_count(terms: dict[tuple, int]) -> int:
    return len({(m[0], m[2]) for m in terms})


def _row_packing_pays(a: dict[tuple, int], b: dict[tuple, int]) -> bool:
    """Whether a * b should take the row-packed path rather than the schoolbook loop.

    Packing pays when the (expL, expX) rows hold several terms each, so that
    one big-int product per row pair replaces many term products.  The
    choice depends on the operands' shapes alone.
    """
    small, large = sorted((len(a), len(b)))
    if small < 2 or large < 8:
        return False
    return 4 * _row_count(a) * _row_count(b) <= small * large


def _slot_bias(count: int, width: int) -> int:
    # 2^(8 * width - 1) in each of count slots of width bytes
    return int.from_bytes((1 << (8 * width - 1)).to_bytes(width, "little") * count, "little")


def _pack(coeffs: list[int], width: int) -> int:
    """sum_k coeffs[k] * 2^(8 * width * k), for |coeffs[k]| < 2^(8 * width - 1)."""
    half = 1 << (8 * width - 1)
    data = b"".join(map(int.to_bytes, map(half.__add__, coeffs), repeat(width), repeat("little")))
    return int.from_bytes(data, "little") - _slot_bias(len(coeffs), width)


def _unpack(value: int, count: int, width: int) -> list[int]:
    """The count slot values of a packed int; the inverse of _pack.

    Adding half a slot to every slot makes each one a nonnegative
    width-byte digit, so the int splits with to_bytes.
    """
    half = 1 << (8 * width - 1)
    data = (value + _slot_bias(count, width)).to_bytes(count * width, "little")
    return [int.from_bytes(data[at:at + width], "little") - half for at in range(0, len(data), width)]


def _pack_rows(terms: dict[tuple, int], stride: int, width: int) -> dict:
    """(expL, expX) -> (lowest expM, highest expM, packed int) for each row of terms.

    Slot k of a row's int holds the coefficient of M^(lowest + k * stride).
    """
    rows: dict[tuple[int, int], dict[int, int]] = {}
    for m, c in terms.items():
        row = rows.get((m[0], m[2]))
        if row is None:
            rows[(m[0], m[2])] = {m[1]: c}
        else:
            row[m[1]] = c
    packed = {}
    for key, row in rows.items():
        lo = min(row)
        hi = max(row)
        coeffs = [0] * ((hi - lo) // stride + 1)
        for e, c in row.items():
            coeffs[(e - lo) // stride] = c
        packed[key] = (lo, hi, _pack(coeffs, width))
    return packed


def _mul_packed(a: dict[tuple, int], b: dict[tuple, int]) -> dict[tuple, int]:
    """Canonical term dict of a * b by Kronecker substitution in M, row by row.

    Each (expL, expX) row of each operand becomes one int with a slot per
    M-exponent, so a row-pair product is one big-int multiplication.  The
    slot stride is the gcd of all M-exponent differences within each whole
    operand: a per-row stride would misalign rows whose lowest M-exponents
    differ by a non-multiple of it when they land in the same output row.
    Slots are wide enough for any product coefficient, which is a sum of at
    most min(|a|, |b|) products of input coefficients.
    """
    first_a = next(iter(a))[1]
    first_b = next(iter(b))[1]
    stride = math.gcd(*(m[1] - first_a for m in a), *(m[1] - first_b for m in b)) or 1
    bound = min(len(a), len(b)) * max(map(abs, a.values())) * max(map(abs, b.values()))
    width = (bound.bit_length() + 2 + 7) // 8  # a sign bit and a spare bit, in whole bytes
    bits = 8 * width
    rows_a = _pack_rows(a, stride, width)
    rows_b = _pack_rows(b, stride, width)

    spans: dict[tuple[int, int], list[int]] = {}
    for (la, xa), (lo_a, hi_a, _) in rows_a.items():
        for (lb, xb), (lo_b, hi_b, _) in rows_b.items():
            key = (la + lb, xa + xb)
            span = spans.get(key)
            if span is None:
                spans[key] = [lo_a + lo_b, hi_a + hi_b]
            else:
                span[0] = min(span[0], lo_a + lo_b)
                span[1] = max(span[1], hi_a + hi_b)
    sums = dict.fromkeys(spans, 0)
    for (la, xa), (lo_a, _, va) in rows_a.items():
        for (lb, xb), (lo_b, _, vb) in rows_b.items():
            key = (la + lb, xa + xb)
            shift = (lo_a + lo_b - spans[key][0]) // stride * bits
            sums[key] += (va * vb) << shift

    out: dict[tuple, int] = {}
    for (l, x), total in sums.items():
        lo, hi = spans[(l, x)]
        coeffs = _unpack(total, (hi - lo) // stride + 1, width)
        keys = zip(repeat(l), range(lo, hi + 1, stride), repeat(x))
        out.update(compress(zip(keys, coeffs), coeffs))  # zero slots are not terms
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
        chunks.append(("-" if c < 0 else "+", body))
    sign, body = chunks[0]
    out = ("-" if sign == "-" else "") + body
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


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
