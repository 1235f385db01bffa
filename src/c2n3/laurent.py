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
        # the keys are unique, so sorting them alone gives the order of the pairs
        keys = sorted(self._terms)
        return tuple(zip(keys, map(self._terms.__getitem__, keys)))

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
        """The schoolbook product, term by term."""
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
        in num on schoolbook products: one product by num and one by a
        power of den per step, the powers of den one product each, so the
        cost follows the term counts, whatever the exponents.
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
        den_pow = [ONE]
        for _ in range(clear_deg - min(parts)):
            den_pow.append(den_pow[-1] * den)
        out = ZERO
        for k in range(deg, -1, -1):
            out = out * num
            if k in parts:
                out = out + LaurentPoly._raw(parts[k]) * den_pow[clear_deg - k]
        return out

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


def _fits(bound: int, width: int) -> None:
    """Raise OverflowError unless a 1-norm bound fits slots of width bits, sign bit included."""
    if bound.bit_length() >= width:
        raise OverflowError(f"a 1-norm bound of {bound.bit_length()} bits outgrows "
                            f"{width}-bit slots; pack with more room")


def packed(room: int, *polys: LaurentPoly) -> list["_Rows"]:
    """polys as packed rows on one grid, for a loop on their ints unpacked once at its end.

    Every route builder runs such a loop: the recursion of P_2n applies
    its one factor T' by shifts, and both A_2n routes apply their +-1
    binomials in L by _times_binomial and _add_binomial_power.  The grid
    comes from the operands: slots step through the M-exponents by their
    gcd (1 if every one is 0), and the slot width holds room and every
    operand's 1-norm.  A loop takes the grid from here, keeps it, and
    carries its bound itself; the rows give normalize_unit and unpack,
    which gives the LaurentPoly back.
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
    evaluation is a ring homomorphism, so sums, shifts and products of the
    ints are exact whatever the width; only reading the slots back needs
    every coefficient inside [-2^(width-1), 2^(width-1)).  packed() fixes
    the width and the stride for all the values of one call.  The slot
    grid is anchored at M^0: every M-exponent is a multiple of stride, so
    the rows of one value line up.  bound is an upper bound on the 1-norm
    of the polynomial, hence on every coefficient; a bound that would not
    fit the width raises OverflowError, so no slot is ever read back wrong.
    """

    __slots__ = ("rows", "stride", "width", "bound")

    def __init__(self, rows: dict, stride: int, width: int, bound: int):
        _fits(bound, width)
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

    def normalize_unit(self) -> tuple["_Rows", tuple, int]:
        """LaurentPoly.normalize_unit on the rows: (q, u, s) with self == s * u * q.

        The monomial content comes from the row keys and each row's lowest
        nonzero slot, the sign from the top bit of the least term's slot;
        one pass over the rows moves their keys and offsets and scales
        their ints by the sign, and no row is unpacked.
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
        l0, m0, x0 = unit
        rows = {(l - l0, x - x0): (lo - m0, value * sign)
                for (l, x), (lo, value) in self.rows.items()}
        return _Rows(rows, stride, width, self.bound), unit, sign


def _times_binomial(rows: list, e0: int, s1: int, e1: int, stride: int, width: int) -> list:
    """rows * (M^e0 + s1 * L * M^e1), for s1 = 1 or -1, in one pass.

    rows are (lowest expM, packed int) indexed by the power of L, all on
    one grid of packed() and a zero int an empty row.  Row l of the
    product is M^e0 * rows[l] + s1 * M^e1 * rows[l - 1]: the two ints are
    lined up by the lower of their lowest exponents and added or
    subtracted, so no big-int product is formed.  e0 and e1 lie on the grid.
    """
    out = []
    minus = s1 < 0
    lo1, v1 = 0, 0  # rows[l - 1]: nothing below row 0
    for row in rows + [(0, 0)]:  # one row past the top takes rows[-1] * L
        lo0, v0 = row
        lo0 += e0
        lo1 += e1
        if not v1:
            out.append((lo0, v0))
        elif not v0:
            out.append((lo1, -v1 if minus else v1))
        elif lo0 <= lo1:
            moved = v1 << (lo1 - lo0) // stride * width
            out.append((lo0, v0 - moved if minus else v0 + moved))
        else:
            moved = v0 << (lo0 - lo1) // stride * width
            out.append((lo1, moved - v1 if minus else moved + v1))
        lo1, v1 = row
    return out


def _add_binomial_power(rows: list, c: int, part: tuple[int, int], e: int, f: int, j: int,
                        stride: int, width: int) -> None:
    """rows += c * part * (M^e + L * M^f)^j in place, for part one row (lowest expM, packed int).

    rows are as _times_binomial takes them, and grow to j + 1 rows if
    shorter.  By Pascal's rule row l gains c * C(j, l) * part at
    M^(e * (j - l) + f * l): one shifted term per row, and no power of the
    binomial is formed.  part, e and f lie on the grid of rows.
    """
    lo, value = part
    if len(rows) <= j:
        rows.extend([(0, 0)] * (j + 1 - len(rows)))
    k = c  # c * C(j, l)
    for l in range(j + 1):
        term = value if k == 1 else -value if k == -1 else k * value
        at = lo + e * (j - l) + f * l
        have, v = rows[l]
        if not v:
            rows[l] = (at, term)
        elif at >= have:
            rows[l] = (have, v + (term << (at - have) // stride * width))
        else:
            rows[l] = (at, (v << (have - at) // stride * width) + term)
        k = k * (j - l) // (l + 1)


def mono(coeff: int, l: int = 0, m: int = 0, x: int = 0) -> LaurentPoly:
    """Single-term polynomial coeff * L**l * M**m * x**x."""
    return LaurentPoly({(l, m, x): coeff})


ZERO = LaurentPoly()
ONE = mono(1)


def _render(poly: LaurentPoly, latex: bool) -> str:
    if poly.is_zero():
        return "0"
    chunks = []
    terms = poly._terms
    for m in sorted(terms, reverse=True):
        c = terms[m]
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
