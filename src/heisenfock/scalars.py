"""Exact complex scalars with rational real and imaginary parts.

``Scalar`` is the coefficient field for everything in this package: a
Gaussian rational stored as one Gaussian integer over one positive
denominator, ``(a + b*i) / d`` with ``d > 0`` and ``gcd(a, b, d) = 1``.
That form is unique, so equality is a compare of three ints, and all
arithmetic is plain integer arithmetic with at most one ``gcd`` per result
(``_reduced``; negation needs none); the parts ``re`` and ``im`` are read
back as ``fractions.Fraction``.  The Fock kernel keeps to one ``gcd`` when
it adds a product into a slot: it forms the product as a raw triple and
reduces only the sum.  All arithmetic is exact and equality carries no
tolerance.  The canonical text form is ``a+bi`` with each rational printed
as ``p/q`` (``1/2-3/4i``, ``2``, ``-i``); every JSON payload uses it, and one
pattern reads it back.
"""

from __future__ import annotations

import re as _re
from fractions import Fraction
from math import gcd, isqrt
from typing import Optional, Union

from .errors import PreconditionError, SchemaError, _quoted

RationalLike = Union[int, Fraction]
ScalarLike = Union["Scalar", int, Fraction]

_new = object.__new__


class Scalar:
    """Immutable Gaussian rational, closed under +, -, *, / (nonzero)."""

    __slots__ = ("a", "b", "d")

    def __init__(self, re: RationalLike = 0, im: RationalLike = 0):
        if not (isinstance(re, (int, Fraction))
                and isinstance(im, (int, Fraction))):
            raise TypeError(f"Scalar parts must be int or Fraction, "
                            f"got {type(re).__name__}, {type(im).__name__}")
        # both parts are in lowest terms, so over the lcm of their
        # denominators the triple is already reduced
        p, q = re.numerator, re.denominator
        r, s = im.numerator, im.denominator
        d = q * s // gcd(q, s)
        self.a = p * (d // q)
        self.b = r * (d // s)
        self.d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _reduced(self.a + o.a, self.b + o.b, d1)
        return _reduced(self.a * d2 + o.a * d1, self.b * d2 + o.b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else _coerce(other)
        if o is None:
            return NotImplemented
        d1, d2 = self.d, o.d
        if d1 == d2:
            return _reduced(self.a - o.a, self.b - o.b, d1)
        return _reduced(self.a * d2 - o.a * d1, self.b * d2 - o.b * d1, d1 * d2)

    def __rsub__(self, other: ScalarLike) -> "Scalar":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else _coerce(other)
        if o is None:
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, o.a, o.b
        if b2 == 0:
            return _reduced(a1 * a2, b1 * a2, self.d * o.d)
        return _reduced(a1 * a2 - b1 * b2, a1 * b2 + b1 * a2, self.d * o.d)

    __rmul__ = __mul__

    def __truediv__(self, other: ScalarLike) -> "Scalar":
        o = other if type(other) is Scalar else _coerce(other)
        if o is None:
            return NotImplemented
        a2, b2 = o.a, o.b
        norm = a2 * a2 + b2 * b2
        if norm == 0:
            raise ZeroDivisionError("division by zero Scalar")
        # (a1 + b1 i)/d1 * (a2 - b2 i) d2 / (a2^2 + b2^2)
        a1, b1, d2 = self.a, self.b, o.d
        return _reduced((a1 * a2 + b1 * b2) * d2, (b1 * a2 - a1 * b2) * d2,
                        self.d * norm)

    def __rtruediv__(self, other: ScalarLike) -> "Scalar":
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self) -> "Scalar":
        # negating a reduced triple leaves it reduced
        s = _new(Scalar)
        s.a, s.b, s.d = -self.a, -self.b, self.d
        return s

    def scale(self, q: RationalLike) -> "Scalar":
        """Fast multiply by a real rational (the fiber solver's halving)."""
        n = q.numerator
        return _reduced(self.a * n, self.b * n, self.d * q.denominator)

    def __pos__(self) -> "Scalar":
        return self

    # -- comparisons / conversions ------------------------------------------

    def __eq__(self, other) -> bool:
        if type(other) is Scalar:
            return self.a == other.a and self.b == other.b and self.d == other.d
        if isinstance(other, (int, Fraction)):
            return (self.b == 0 and self.a == other.numerator
                    and self.d == other.denominator)
        return NotImplemented

    def __hash__(self):
        return hash(self.re) if self.b == 0 else hash((self.re, self.im))

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def __complex__(self) -> complex:
        # int / int is correctly rounded, as Fraction's float() is
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self) -> str:
        return f"Scalar({self.re!r}, {self.im!r})"

    def __str__(self) -> str:
        return format_scalar(self)


def _reduced(a: int, b: int, d: int) -> Scalar:
    """The Scalar (a + b*i) / d for d > 0, brought to lowest terms."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    s = _new(Scalar)
    s.a, s.b, s.d = a, b, d
    return s


ZERO = Scalar(0)
ONE = Scalar(1)


def _coerce(x) -> Optional[Scalar]:
    t = type(x)
    if t is Scalar:
        return x
    if t is int:
        return _reduced(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return Scalar(x)
    return None


def as_scalar(x: ScalarLike) -> Scalar:
    """Coerce an int/Fraction/Scalar to Scalar, rejecting floats."""
    s = _coerce(x)
    if s is None:
        raise TypeError(f"cannot interpret {x!r} as an exact scalar")
    return s


# -- canonical text form -----------------------------------------------------

def format_scalar(x: Scalar) -> str:
    """Render the canonical ``a+bi`` form with rationals as ``p/q``."""
    a, b, d = x.a, x.b, x.d
    if b == 0:
        return _ratio_text(a, d)
    mag = _ratio_text(-b if b < 0 else b, d)
    imag = "i" if mag == "1" else mag + "i"
    if a == 0:
        return imag if b > 0 else "-" + imag
    return _ratio_text(a, d) + ("+" if b > 0 else "-") + imag


def _ratio_text(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, without building the Fraction: the
    one writer of numbers, which refuses one too long to convert to text."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError as exc:  # past the int-to-text digit limit
        raise PreconditionError("a number in the result is too long to "
                                "write") from exc


def parse_scalar(text: str) -> Scalar:
    """Parse the canonical ``a+bi`` form back into a Scalar."""
    s = text.strip().replace(" ", "")
    m = _SCALAR.fullmatch(s)
    if not s or m is None:
        raise SchemaError(f"bad scalar {_quoted(text)}")
    try:
        p, q, t = int(m[1] or 0), int(m[2] or 1), int(m[5] or 1)
        r = 0 if m[3] is None else int(m[3] + (m[4] or "1"))
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(f"over-long number in scalar {_quoted(text)}") from exc
    if q == 0 or t == 0:
        raise SchemaError(f"zero denominator in scalar {_quoted(text)}")
    return _reduced(p * t, r * q, q * t)


_RATIONAL = _re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")
# an optional real part, which a sign or the end of the string must follow,
# and an optional imaginary part whose digits may be left out (``i``, ``-i``)
_SCALAR = _re.compile(r"(?:([+-]?[0-9]+)(?:/([0-9]+))?(?=[+-]|\Z))?"
                      r"(?:([+-]?)(?:([0-9]+)(?:/([0-9]+))?)?i)?")


def parse_rational(text: str) -> Fraction:
    """Parse the strict ``p/q`` or integer form; nothing else is a rational.

    Decimals, exponents, underscores and spaces are refused: ``Fraction``
    would expand an exponent such as ``1e99999999`` into an integer of that
    many digits.
    """
    m = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if m is None:
        raise SchemaError(f"bad rational {_quoted(text)}")
    try:
        return Fraction(int(m[1]), int(m[2] or 1))
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational {_quoted(text)}") from exc


# -- exact square roots ------------------------------------------------------

def fraction_sqrt(q: Fraction) -> Optional[Fraction]:
    """Exact nonnegative square root of a rational, or None."""
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def scalar_sqrt(c: Scalar) -> Optional[Scalar]:
    """An exact square root of c in Q(i) if one exists, else None.

    Deterministic branch: the root with positive real part, falling back
    to nonnegative imaginary part on the imaginary axis.
    """
    a, b = c.re, c.im
    if b == 0:
        r = fraction_sqrt(a if a >= 0 else -a)
        if r is None:
            return None
        return Scalar(r) if a >= 0 else Scalar(0, r)
    n = fraction_sqrt(a * a + b * b)
    if n is None:
        return None
    # b != 0 makes n > |a|, so x > 0
    x = fraction_sqrt((a + n) / 2)
    if x is None:
        return None
    root = Scalar(x, b / (2 * x))
    return root if root * root == c else None
