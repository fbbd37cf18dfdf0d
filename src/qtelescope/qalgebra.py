"""Exact sparse arithmetic for bivariate Laurent polynomials in (z, q).

Everything here is integer-exact: coefficients are Python ints (arbitrary
precision), exponents are signed ints, and there is no floating point or
division anywhere.  Polynomials are immutable and kept in canonical form
(no stored zero coefficients), so equality is plain structural equality.

A truncated q-series is a capped LaurentPoly: a cap and a z-free
polynomial with no term above it, so series arithmetic is polynomial
arithmetic followed by one cut at the cap.

A Kronecker packing stores a polynomial as one int, its value at
q = 2^width and z = 2^(width*span): where every exponent and coefficient
is in the packing's range, a sum is one int add, a monomial multiple one
shift, a product one int multiply (pack_product says where it fits) and
a comparison one int compare.  MacMahon's sum side and closed form run on
one such packing per (n, m).

The module also provides the closed-form building blocks used by the
verification drivers: Gaussian (q-binomial) coefficients in base q^step,
whose Pascal recurrence runs on packed ints (gaussian_row), finite
products of (1 +/- z^a q^b) factors, and the alternating square sum that
Andrews' identity evaluates to.
"""

from __future__ import annotations

from functools import lru_cache
from math import prod
from typing import Iterator, Mapping, Optional, Union


class LaurentPoly:
    """A sparse Laurent polynomial in z and q with integer coefficients.

    Terms are stored as a map (z_exp, q_exp) -> coefficient with all zero
    coefficients dropped, so two polynomials are equal iff their term maps
    are equal.  Instances are immutable; all arithmetic returns new values.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Union[Mapping[tuple[int, int], int], None] = None):
        self._terms = {zq: c for zq, c in (terms or {}).items() if c}

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, coeff: int, z: int = 0, q: int = 0) -> "LaurentPoly":
        """The single-term polynomial coeff * z**z_exp * q**q_exp."""
        return cls({(z, q): coeff})

    def terms(self) -> Iterator[tuple[int, int, int]]:
        """Yield (z_exp, q_exp, coeff) sorted lexicographically by (z, q)."""
        for (z, q) in sorted(self._terms):
            yield z, q, self._terms[(z, q)]

    def coeff(self, z: int = 0, q: int = 0) -> int:
        return self._terms.get((z, q), 0)

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out = dict(self._terms)
        for key, c in other._terms.items():
            acc = out.get(key, 0) + c
            if acc:
                out[key] = acc
            else:
                out.pop(key, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    def __neg__(self) -> "LaurentPoly":
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = {key: -c for key, c in self._terms.items()}
        return res

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Union["LaurentPoly", int]) -> "LaurentPoly":
        if isinstance(other, int):
            res = LaurentPoly.__new__(LaurentPoly)
            res._terms = {k: c * other for k, c in self._terms.items()} if other else {}
            return res
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        out: dict[tuple[int, int], int] = {}
        for (z1, q1), c1 in self._terms.items():
            for (z2, q2), c2 in other._terms.items():
                key = (z1 + z2, q1 + q2)
                acc = out.get(key, 0) + c1 * c2
                if acc:
                    out[key] = acc
                else:
                    out.pop(key, None)
        res = LaurentPoly.__new__(LaurentPoly)
        res._terms = out
        return res

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self._terms!r})"

    def __str__(self) -> str:
        if not self._terms:
            return "0"
        chunks = []
        for z, q, c in self.terms():
            factors = []
            if z:
                factors.append("z" if z == 1 else f"z^{z}")
            if q:
                factors.append("q" if q == 1 else f"q^{q}")
            if not factors or abs(c) != 1:
                factors.insert(0, str(abs(c)))
            body = "*".join(factors)
            chunks.append(("- " if c < 0 else "+ ") + body)
        first = chunks[0]
        first = "-" + first[2:] if first.startswith("- ") else first[2:]
        return " ".join([first] + chunks[1:])


ZERO = LaurentPoly.zero()
ONE = LaurentPoly.one()


def _cut(poly: LaurentPoly, cap: int) -> LaurentPoly:
    """The terms of poly up to q^cap.

    The one validation of a truncated series: cap >= 0, and poly is z-free
    with no negative exponent.  Raises ValueError otherwise.
    """
    if cap < 0:
        raise ValueError("cap must be nonnegative")
    kept = {}
    for (z, q), c in poly._terms.items():
        if z != 0:
            raise ValueError("truncated series must be z-free")
        if q < 0:
            raise ValueError(f"negative exponent {q} in truncated series")
        if q <= cap:
            kept[(z, q)] = c
    return poly if len(kept) == len(poly._terms) else LaurentPoly(kept)


class TruncatedSeries:
    """A z-free q-power series known exactly on exponents 0..cap.

    A capped LaurentPoly: the cap and a z-free polynomial with no term above
    it.  Each operation is one LaurentPoly operation followed by one cut at
    the cap.  Two series combine at the smaller of their caps; coefficients
    above the cap are discarded, never invented.
    """

    __slots__ = ("cap", "poly")

    def __init__(self, cap: int, coeffs: Union[Mapping[int, int], None] = None):
        self.cap = cap
        self.poly = _cut(LaurentPoly({(0, e): c for e, c in (coeffs or {}).items()}), cap)

    @classmethod
    def constant(cls, value: int, cap: int) -> "TruncatedSeries":
        return cls(cap, {0: value})

    @classmethod
    def from_list(cls, coeffs: list[int]) -> "TruncatedSeries":
        """The series with coefficient coeffs[e] at q^e, capped at
        len(coeffs) - 1: one pass, every exponent in range by construction."""
        if not coeffs:
            raise ValueError("cap must be nonnegative")
        poly = LaurentPoly.__new__(LaurentPoly)
        poly._terms = {(0, e): c for e, c in enumerate(coeffs) if c}
        series = cls.__new__(cls)
        series.cap, series.poly = len(coeffs) - 1, poly
        return series

    def coeff(self, e: int) -> int:
        if e > self.cap:
            raise ValueError(f"exponent {e} beyond cap {self.cap}")
        return self.poly.coeff(0, e)

    def __add__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return truncate(self.poly + other.poly, min(self.cap, other.cap))

    def __sub__(self, other: "TruncatedSeries") -> "TruncatedSeries":
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return truncate(self.poly - other.poly, min(self.cap, other.cap))

    def mul_poly(self, p: LaurentPoly) -> "TruncatedSeries":
        """Multiply by a z-free polynomial with nonnegative q-exponents.

        The cap is unchanged; anything pushed above it is dropped.
        """
        return truncate(self.poly * p, self.cap)

    def first_mismatch(self, other: "TruncatedSeries", window: Union[int, None] = None):
        """Smallest exponent <= window where the two series differ, else None.

        The window defaults to the smaller cap and is clamped to it.
        """
        limit = min(self.cap, other.cap)
        if window is not None:
            limit = min(limit, window)
        return next((q for _z, q, _c in (self.poly - other.poly).terms() if q <= limit),
                    None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.cap == other.cap and self.poly == other.poly

    def __repr__(self) -> str:
        coeffs = {q: c for _z, q, c in self.poly.terms()}
        return f"TruncatedSeries(cap={self.cap}, coeffs={coeffs!r})"

    def __str__(self) -> str:
        return f"{self.poly} + O(q^{self.cap + 1})"


def truncate(p: LaurentPoly, cap: int) -> TruncatedSeries:
    """View a z-free polynomial with nonnegative q-exponents as a series.

    Coefficients of q^0 .. q^cap are retained; anything above is dropped.
    Raises ValueError if p involves z or negative q-exponents.
    """
    series = TruncatedSeries.__new__(TruncatedSeries)
    series.cap, series.poly = cap, _cut(p, cap)
    return series


class Kronecker:
    """Polynomials in z and q packed into ints (Kronecker substitution).

    The term c z^a q^b sits in slot (a - z_lo) * span + b, slots `width`
    bits apart, so a polynomial packs to its value at q = 2^width and
    z = 2^(width*span), times z^-z_lo.  A slot holds a signed coefficient,
    its top bit the sign.  On polynomials with z exponents >= z_lo, q
    exponents in [0, span) and coefficients of absolute value below
    2^(width-1), packing is injective and takes sums to sums and a
    monomial multiple to a shift (at), as long as the results stay there.
    """

    __slots__ = ("z_lo", "span", "width")

    def __init__(self, z_lo: int, top: int, bound: int):
        """The packing of z exponents from z_lo, q exponents up to top and
        coefficients of absolute value up to bound."""
        self.z_lo, self.span, self.width = z_lo, top + 1, bound.bit_length() + 1

    def at(self, z: int, q: int) -> int:
        """The shift that multiplies a packed value by z^z q^q."""
        return self.width * (z * self.span + q)

    def pack_product(self, *factors: LaurentPoly) -> Optional[int]:
        """The product of the packed factors, the packed product of
        `factors` offset by z^(-z_lo * len(factors)); None where a factor
        does not pack or the product may not fit: it fits where the
        factors' largest q exponents sum below the span and the product of
        their coefficients' absolute sums is below 2^(width-1)."""
        top = sum(max((q for _z, q in f._terms), default=0) for f in factors)
        bound = prod(sum(map(abs, f._terms.values())) for f in factors)
        if top >= self.span or bound >= 1 << self.width - 1:
            return None
        try:
            return prod(map(self.pack, factors))
        except ValueError:
            return None

    def pack(self, poly: LaurentPoly) -> int:
        """The int of poly, built a row (z exponent) at a time; ValueError
        where a term is out of range."""
        width, half, rows = self.width, 1 << self.width - 1, {}
        for (z, q), c in poly._terms.items():
            if z < self.z_lo or not 0 <= q < self.span or not -half < c < half:
                raise ValueError(f"{poly} has a term outside the packing")
            rows[z] = rows.get(z, 0) + (c << width * q)
        return sum(row << self.at(z - self.z_lo, 0) for z, row in rows.items())

    def unpack(self, x: int) -> LaurentPoly:
        """The polynomial packed as x: its balanced base-2^width digits."""
        width, terms, slot = self.width, {}, 0
        mask, half = (1 << width) - 1, 1 << width - 1
        while x:
            skip = ((x & -x).bit_length() - 1) // width  # the empty slots below
            x, slot = x >> skip * width, slot + skip
            c = (x & mask ^ half) - half
            row, q = divmod(slot, self.span)
            terms[row + self.z_lo, q] = c
            x, slot = x - c >> width, slot + 1
        return LaurentPoly(terms)

    def at_one(self, x: int) -> int:
        """The value at z = q = 1 of the polynomial packed as x, the sum of
        its coefficients, where that is below 2^(width-1) in absolute
        value: each slot is worth 1 modulo 2^width - 1."""
        half = (1 << self.width - 1) - 1
        return (x + half) % (2 * half + 1) - half


def gaussian_row(n: int, step: int, kron: Kronecker) -> list[int]:
    """The Gaussian coefficients [n, j] in base q**step, j = 0..n, packed
    by kron as multiples of the int 1 (z^z_lo), by the Pascal-type
    recurrence [i, j] = [i-1, j-1] + q^(step*j) [i-1, j], with
    [i, 0] = [i, i] = 1.  Every [i, j] on the way has degree
    step*j*(i-j) <= step*n^2/4 and coefficients summing to C(i, j) <= 2^n,
    so a kron of that range holds them."""
    shift, row = kron.at(0, step), [1]
    for i in range(1, n + 1):
        row = [1, *[row[j - 1] + (row[j] << shift * j) for j in range(1, i)], 1]
    return row


@lru_cache(maxsize=None)
def gaussian_binomial(n: int, k: int, step: int = 1) -> LaurentPoly:
    """The Gaussian coefficient [n choose k] in base q**step: the decoded
    entry k of gaussian_row.  Returns the zero polynomial when k < 0 or
    k > n.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if step < 1:
        raise ValueError("step must be positive")
    if k < 0 or k > n:
        return ZERO
    kron = Kronecker(0, step * (n * n // 4), 1 << n)
    return kron.unpack(gaussian_row(n, step, kron)[k])


def factor_product(count: int, sign: int, z_exp: int, q_offset: int,
                   q_step: int) -> LaurentPoly:
    """Expand prod_{i=0}^{count-1} (1 + sign * z^z_exp * q^(q_offset + i*q_step)).

    count = 0 gives 1.  sign must be +1 or -1, q_step positive.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    if q_step < 1:
        raise ValueError("q_step must be positive")
    out = ONE
    for i in range(count):
        factor = ONE + LaurentPoly.monomial(sign, z_exp, q_offset + i * q_step)
        out = out * factor
    return out


def rhs_andrews(n: int) -> LaurentPoly:
    """The alternating square sum (-1)^n q^(n^2) sum_{j=-n}^{n} (-1)^j q^(-j^2).

    A z-free polynomial with q-exponents running from 0 (at j = +-n)
    up to n^2 (at j = 0).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    terms: dict[tuple[int, int], int] = {}
    for j in range(n + 1):
        coeff = (2 if j > 0 else 1) * (-1) ** (n + j)
        terms[(0, n * n - j * j)] = coeff
    return LaurentPoly(terms)
