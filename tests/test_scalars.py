import operator
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from heisenfock import Scalar, SchemaError, format_scalar, parse_scalar, scalar_sqrt
from heisenfock.scalars import as_scalar, fraction_sqrt

rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
scalars = st.builds(Scalar, rationals, rationals)


@given(scalars, scalars, scalars)
def test_field_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == Scalar(0)


@given(scalars, scalars)
def test_exact_division(a, b):
    if b:
        assert (a / b) * b == a


def test_int_and_fraction_coercion():
    assert Scalar(1, 2) * 2 == Scalar(2, 4)
    assert 3 + Scalar(0, 1) == Scalar(3, 1)
    assert Scalar(1) / Fraction(1, 2) == Scalar(2)
    assert Scalar(Fraction(3, 2)).scale(Fraction(2, 3)) == Scalar(1)


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Scalar(1) / Scalar(0)


@pytest.mark.parametrize("value,text", [
    (Scalar(0), "0"),
    (Scalar(2), "2"),
    (Scalar(Fraction(-1, 2)), "-1/2"),
    (Scalar(0, 1), "i"),
    (Scalar(0, -1), "-i"),
    (Scalar(0, Fraction(3, 4)), "3/4i"),
    (Scalar(Fraction(1, 2), Fraction(3, 4)), "1/2+3/4i"),
    (Scalar(1, -1), "1-i"),
    (Scalar(-2, Fraction(-5, 3)), "-2-5/3i"),
])
def test_canonical_text(value, text):
    assert format_scalar(value) == text
    assert parse_scalar(text) == value


@given(scalars)
def test_text_round_trip(a):
    assert parse_scalar(format_scalar(a)) == a


@pytest.mark.parametrize("bad", ["", "1/2+", "i2", "1//2", "2+3j", "1/0"])
def test_bad_scalar_text(bad):
    with pytest.raises(SchemaError):
        parse_scalar(bad)


def test_fraction_sqrt():
    assert fraction_sqrt(Fraction(9, 4)) == Fraction(3, 2)
    assert fraction_sqrt(Fraction(2)) is None
    assert fraction_sqrt(Fraction(-1)) is None
    assert fraction_sqrt(Fraction(0)) == 0


def test_scalar_sqrt_exact_cases():
    assert scalar_sqrt(Scalar(4)) == Scalar(2)
    assert scalar_sqrt(Scalar(-9)) == Scalar(0, 3)
    # (1+i)^2 = 2i
    assert scalar_sqrt(Scalar(0, 2)) == Scalar(1, 1)
    # (3/2 - 2i)^2 = 9/4 - 4 - 6i = -7/4 - 6i
    root = scalar_sqrt(Scalar(Fraction(-7, 4), -6))
    assert root is not None and root * root == Scalar(Fraction(-7, 4), -6)
    assert scalar_sqrt(Scalar(2)) is None
    assert scalar_sqrt(Scalar(1, 1)) is None


@given(scalars)
def test_scalar_sqrt_round_trip(a):
    root = scalar_sqrt(a * a)
    assert root is not None
    assert root * root == a * a


# -- differential check against a pair of Fractions ----------------------------

class RefScalar:
    """Reference Gaussian rational: two ``Fraction`` parts, textbook formulas."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @staticmethod
    def of(x):
        return x if isinstance(x, RefScalar) else RefScalar(x)

    def __add__(self, o):
        o = RefScalar.of(o)
        return RefScalar(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = RefScalar.of(o)
        return RefScalar(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = RefScalar.of(o)
        return RefScalar(self.re * o.re - self.im * o.im,
                         self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = RefScalar.of(o)
        norm = o.re * o.re + o.im * o.im
        return RefScalar((self.re * o.re + self.im * o.im) / norm,
                         (self.im * o.re - self.re * o.im) / norm)

    def __neg__(self):
        return RefScalar(-self.re, -self.im)

    def hash(self):
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    def text(self):
        if self.im == 0:
            return str(self.re)
        mag = abs(self.im)
        imag = "i" if mag == 1 else f"{mag}i"
        if self.re == 0:
            return imag if self.im > 0 else "-" + imag
        return f"{self.re}{'+' if self.im > 0 else '-'}{imag}"


def agrees(got, ref):
    """``got`` is the canonical triple of ``ref`` and reads back the same."""
    assert type(got) is Scalar
    assert got.d > 0 and gcd(got.a, got.b, got.d) == 1
    assert (got.re, got.im) == (ref.re, ref.im)
    assert got.a * ref.re.denominator == ref.re.numerator * got.d
    assert got.b * ref.im.denominator == ref.im.numerator * got.d
    assert got == Scalar(ref.re, ref.im) and not got != Scalar(ref.re, ref.im)
    assert hash(got) == ref.hash()
    assert bool(got) == bool(ref.re or ref.im)
    assert str(got) == format_scalar(got) == ref.text()
    assert repr(got) == f"Scalar({ref.re!r}, {ref.im!r})"
    assert complex(got) == complex(float(ref.re), float(ref.im))


wide = st.builds(Fraction, st.integers(-10**30, 10**30), st.integers(1, 10**12))
parts = st.one_of(rationals, wide, st.integers(-50, 50))
pairs = st.tuples(parts, parts)
plain = st.one_of(st.integers(-50, 50), rationals, wide)
BINARY = (operator.add, operator.sub, operator.mul, operator.truediv)


@given(pairs, pairs)
def test_differential_binary(x, y):
    got_x, got_y = Scalar(*x), Scalar(*y)
    ref_x, ref_y = RefScalar(*x), RefScalar(*y)
    agrees(got_x, ref_x)
    for op in BINARY:
        if op is operator.truediv and not (ref_y.re or ref_y.im):
            with pytest.raises(ZeroDivisionError):
                op(got_x, got_y)
            continue
        agrees(op(got_x, got_y), op(ref_x, ref_y))
    assert (got_x == got_y) == ((ref_x.re, ref_x.im) == (ref_y.re, ref_y.im))


@given(pairs, plain)
def test_differential_plain_operand_both_sides(x, q):
    got, ref = Scalar(*x), RefScalar(*x)
    for op in BINARY:
        for left, right, ref_l, ref_r in ((got, q, ref, RefScalar(q)),
                                          (q, got, RefScalar(q), ref)):
            if op is operator.truediv and not (ref_r.re or ref_r.im):
                with pytest.raises(ZeroDivisionError):
                    op(left, right)
                continue
            agrees(op(left, right), op(ref_l, ref_r))
    agrees(got.scale(q), ref * q)
    agrees(-got, -ref)
    assert (got == q) == (q == got) == (ref.im == 0 and ref.re == q)


@given(plain)
def test_real_scalar_is_its_rational(q):
    s = Scalar(q)
    assert s == q and q == s
    assert hash(s) == hash(q) == hash(Fraction(q))
    assert {Fraction(q): "hit"}[s] == "hit"
    assert {s: "hit"}[q] == "hit"


def test_half_finds_its_dict_entry():
    assert {Fraction(1, 2): 7}[Scalar(Fraction(1, 2))] == 7
    assert Scalar(Fraction(1, 2)) in {Fraction(1, 2)}
    assert Scalar(3) in {3}


@pytest.mark.parametrize("bad", [0.1, 1.0, "1/3", "2", 1j, None, Scalar(1)])
def test_constructor_accepts_only_int_and_fraction(bad):
    with pytest.raises(TypeError):
        Scalar(bad)
    with pytest.raises(TypeError):
        Scalar(1, bad)


@pytest.mark.parametrize("bad", [0.1, "1/3", 1j])
def test_as_scalar_rejects_floats_and_text(bad):
    with pytest.raises(TypeError):
        as_scalar(bad)


def test_float_operands_are_not_exact():
    with pytest.raises(TypeError):
        Scalar(1) + 0.5
    with pytest.raises(TypeError):
        0.5 * Scalar(1)
    assert Scalar(1) != 1.0
