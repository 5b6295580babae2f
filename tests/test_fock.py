from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from heisenfock import (BosonIndexError, FockVector, ModeRangeError,
                        Scalar, Sector, SectorMismatchError, monomial_text,
                        weighted_partial)
from heisenfock.fock import (NEG_INFINITY, _check_positive, doubled_mode,
                             monomial_key)
from heisenfock.sampling import random_fock

from conftest import one, sc, x


def monomial_degree2(mono):
    """The reference doubled degree of one monomial."""
    return sum(d2 * e for _, d2, e in mono)


def min_mode2(f):
    """The reference smallest doubled mode of a vector, 0 without variables."""
    return min((d2 for mono in f.terms for _, d2, _ in mono), default=0)


class TestWeightedPartial:
    def test_own_variable(self):
        assert weighted_partial(1, 1, x(1, 1, 2)) == one(2)

    def test_power_rule_with_weight(self):
        # term-by-term power rule: n * e * x^(e-1) = 2 * 2 * x
        f = x(1, 2, 1) * x(1, 2, 1)
        assert weighted_partial(1, 2, f) == 4 * x(1, 2, 1)

    def test_absent_variable(self):
        assert not weighted_partial(1, 1, x(2, 1, 2))

    def test_twisted_weight(self):
        f = x(1, Fraction(3, 2), 1, Sector.TWISTED)
        out = weighted_partial(1, Fraction(3, 2), f)
        assert out == one(1, Sector.TWISTED).scaled(Fraction(3, 2))

    def test_degree_drop_is_exact(self, rng):
        for _ in range(50):
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=6)
            d2 = min_mode2(f)
            if d2 == 0:
                continue
            input_degrees = {monomial_degree2(m) for m in f.terms}
            for i in (1, 2):
                out = weighted_partial(i, Fraction(d2, 2), f)
                for mono in out.terms:
                    assert monomial_degree2(mono) + d2 in input_degrees

    def test_leibniz_rule(self, rng):
        for _ in range(40):
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5, max_terms=3)
            g = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5, max_terms=3)
            n = rng.randint(1, 4)
            i = rng.randint(1, 2)
            lhs = weighted_partial(i, n, f * g)
            rhs = weighted_partial(i, n, f) * g + f * weighted_partial(i, n, g)
            assert lhs == rhs

    def test_partials_commute(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            base = Fraction(0) if sector is Sector.UNTWISTED else Fraction(1, 2)
            for _ in range(30):
                f = random_fock(rng, 2, sector, max_degree=6)
                m = base + rng.randint(1 if not base else 0, 3)
                n = base + rng.randint(1 if not base else 0, 3)
                i, j = rng.randint(1, 2), rng.randint(1, 2)
                assert (weighted_partial(i, m, weighted_partial(j, n, f))
                        == weighted_partial(j, n, weighted_partial(i, m, f)))

    def test_rejects_bad_arguments(self):
        f = x(1, 1, 1)
        with pytest.raises(BosonIndexError):
            weighted_partial(2, 1, f)
        with pytest.raises(ModeRangeError):
            weighted_partial(1, Fraction(1, 2), f)
        with pytest.raises(ModeRangeError):
            weighted_partial(1, 0, f)


class TestDegree:
    def test_examples(self):
        assert (x(1, 3, 2) * x(2, 1, 2)).degree == 4
        assert FockVector.constant(7, 1).degree == 0
        assert FockVector.zero(1).degree == float("-inf")

    def test_half_integer(self):
        f = x(1, Fraction(1, 2), 1, Sector.TWISTED)
        assert f.degree == Fraction(1, 2)

    def test_multiplicative(self, rng):
        for _ in range(40):
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5)
            g = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5)
            assert (f * g).degree == f.degree + g.degree


class TestRingOperations:
    def test_additive_inverse(self):
        f = x(1, 1, 1)
        assert not (f + (-1) * f)

    def test_square(self):
        f = x(1, 1, 1)
        sq = f * f
        assert list(sq.terms.items()) == [(((1, 2, 2),), sc(1))]

    def test_distributivity(self):
        f = x(1, 1, 2) + x(2, 1, 2)
        assert 2 * f == 2 * x(1, 1, 2) + 2 * x(2, 1, 2)

    def test_sector_mismatch(self):
        with pytest.raises(SectorMismatchError):
            x(1, 1, 1) + x(1, Fraction(1, 2), 1, Sector.TWISTED)
        with pytest.raises(SectorMismatchError):
            x(1, 1, 1) * x(1, Fraction(1, 2), 1, Sector.TWISTED)

    def test_rank_mismatch(self):
        with pytest.raises(BosonIndexError):
            x(1, 1, 1) + x(1, 1, 2)

    def test_no_zero_coefficients_stored(self, rng):
        for _ in range(30):
            f = random_fock(rng, 2, Sector.UNTWISTED, nonzero=False)
            g = random_fock(rng, 2, Sector.UNTWISTED, nonzero=False)
            for h in (f + g, f - g, f * g):
                assert all(c for c in h.terms.values())


def leading(f):
    """The graded-lex largest monomial of f."""
    return max(f.terms, key=monomial_key)


def test_monomial_ordering_is_graded_lex():
    a = leading(x(1, 1, 2) * x(1, 1, 2))   # degree 2
    b = leading(x(2, 3, 2))                # degree 3
    assert monomial_key(b) > monomial_key(a)
    # same degree: lower boson index wins the tie at higher key? ordering is
    # on the flattened (index, mode) word; check determinism and totality
    c = leading(x(1, 2, 2))
    d = leading(x(2, 2, 2))
    assert (monomial_key(c) < monomial_key(d)) != (monomial_key(c) > monomial_key(d))


def expanded_key(mono):
    """The reference order: degree, then the variable list with each
    x[i,n] written out e times."""
    return (monomial_degree2(mono),
            tuple((i, d2) for i, d2, e in mono for _ in range(e)))


# few variables and small exponents, so equal degrees are common
monomials = st.dictionaries(
    st.tuples(st.integers(1, 2), st.integers(1, 6)), st.integers(1, 4),
    max_size=4).map(lambda exps: tuple((i, d2, e)
                                       for (i, d2), e in sorted(exps.items())))


@given(monomials, monomials)
def test_monomial_key_orders_as_the_expanded_key(a, b):
    assert ((monomial_key(a) > monomial_key(b))
            == (expanded_key(a) > expanded_key(b)))
    assert (monomial_key(a) == monomial_key(b)) == (a == b)


def test_monomial_key_does_not_grow_with_the_exponent():
    small, large = monomial_key(((1, 2, 1),)), monomial_key(((1, 2, 10 ** 6),))
    assert large[0] == 2 * 10 ** 6
    assert len(large[1]) == len(small[1]) == 1


def test_sector_parity_fixes_the_doubled_lattice():
    assert (Sector.UNTWISTED.parity, Sector.TWISTED.parity) == (0, 1)
    for sector in Sector:
        for d2 in range(-3, 6):
            if d2 % 2 == sector.parity:
                assert doubled_mode(Fraction(d2, 2), sector) == d2
            else:
                with pytest.raises(ModeRangeError, match=sector.value):
                    doubled_mode(Fraction(d2, 2), sector)
                with pytest.raises(ModeRangeError, match=sector.value):
                    _check_positive(d2, sector)


def test_leading_term_selection():
    f = x(1, 1, 1) + x(1, 3, 1) * x(1, 1, 1) + FockVector.constant(5, 1)
    assert leading(f) == ((1, 2, 1), (1, 6, 1))


def test_monomial_text():
    f = (x(1, 1, 2) * x(1, 1, 2)) * x(2, Fraction(3, 1), 2)
    assert monomial_text(leading(f)) == "x[1,1]^2*x[2,3]"
    g = x(1, Fraction(3, 2), 1, Sector.TWISTED)
    assert monomial_text(leading(g)) == "x[1,3/2]"
    assert monomial_text(()) == "1"


def test_variable_validation():
    with pytest.raises(BosonIndexError):
        FockVector.variable(3, 1, rank=2)
    with pytest.raises(ModeRangeError):
        FockVector.variable(1, Fraction(1, 2), rank=2)
    with pytest.raises(ModeRangeError):
        FockVector.variable(1, 2, rank=2, sector=Sector.TWISTED)


def test_each_vector_reports_its_own_degree():
    # the degree is kept on the vector after its first read; every new
    # vector, whatever built it, measures its own
    f = x(1, 2, 2) * x(2, 1, 2) + x(2, 1, 2)
    assert f.degree2 == 6
    bigger = f + x(1, 5, 2)
    assert (bigger.degree2, f.degree2) == (10, 6)
    assert (f - x(1, 2, 2) * x(2, 1, 2)).degree2 == 2
    assert (f - f).degree2 == NEG_INFINITY and (f - f).degree == NEG_INFINITY
    assert f.scaled(3).degree2 == 6 and f.scaled(0).degree2 == NEG_INFINITY
    assert weighted_partial(1, 2, f).degree2 == 2
    assert weighted_partial(2, 2, f).degree2 == NEG_INFINITY
    assert FockVector.zero(2).degree2 == NEG_INFINITY
    assert FockVector.constant(5, 2).degree2 == 0
    assert f.degree2 == 6


@pytest.mark.parametrize("sector", list(Sector))
def test_degree_is_the_largest_monomial_degree(rng, sector):
    for _ in range(40):
        f = random_fock(rng, 3, sector, max_degree=8, nonzero=False)
        want = max((monomial_degree2(m) for m in f.terms), default=NEG_INFINITY)
        assert f.degree2 == want
