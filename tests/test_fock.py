from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, strategies as st

from heisenfock import (BosonIndexError, FockVector, ModeRangeError,
                        Scalar, Sector, SectorMismatchError, monomial_text,
                        weighted_partial)
from heisenfock import fock, heisenberg, scalars, vertex
from heisenfock.fock import (NEG_INFINITY, _add_weighted_partial2,
                             _check_positive, doubled_mode, monomial_key)
from heisenfock.heisenberg import (QuadraticElement, _compose_quadratic,
                                   act_mode2)
from heisenfock.sampling import random_fock, random_lambda
from heisenfock.scalars import ONE, ZERO

from conftest import assert_canonical, lam_of, one, sc, x


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
    # times_variable takes a doubled mode, checked the same way: a wrong
    # parity or a mode <= 0 builds nothing
    f = FockVector.variable(1, 1, rank=1)
    t = FockVector.variable(1, Fraction(1, 2), rank=1, sector=Sector.TWISTED)
    for g, d2 in ((f, 3), (f, 0), (f, -2), (t, 2), (t, -1)):
        with pytest.raises(ModeRangeError):
            g.times_variable(1, d2)
    with pytest.raises(BosonIndexError):
        f.times_variable(2, 2)
    assert f.times_variable(1, 4) == x(1, 1, 1) * x(1, 2, 1)
    assert t.times_variable(1, 1) == t * t


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


# -- one reduction per coefficient write ----------------------------------------
#
# The kernel and the ring operations form each product as a raw Gaussian
# integer and reduce it once, summed into its slot.  The references below
# take the older route, kept here to check the fused one: every product a
# reduced Scalar, then added to the slot through Scalar arithmetic.

def ref_monomial(*monos):
    """The product of monomials; a negative exponent divides a factor out."""
    exps = {}
    for mono in monos:
        for i, d2, e in mono:
            exps[i, d2] = exps.get((i, d2), 0) + e
    return tuple((i, d2, e) for (i, d2), e in sorted(exps.items()) if e)


def ref_add(acc, mono, c):
    s = acc.get(mono, ZERO) + c
    if s:
        acc[mono] = s
    else:
        acc.pop(mono, None)


def ref_kernel(acc, i, d2, terms, shift=None, scale=None, creators=()):
    """scale * (n * d/dx[i,n] + shift) f, times creators, added into acc."""
    for mono, c in terms.items():
        if shift is not None:
            v = c * shift
            ref_add(acc, ref_monomial(mono, creators),
                    v if scale is None else v * scale)
        for bi, bd2, e in mono:
            if d2 and (bi, bd2) == (i, d2):
                v = c * Fraction(d2 * e, 2)
                ref_add(acc, ref_monomial(mono, creators, ((i, d2, -1),)),
                        v if scale is None else v * scale)


def ref_ring(f, g, op):
    """f + g, f - g or f * g by Scalar arithmetic on term dicts."""
    acc = dict(f.terms)
    if op == "*":
        acc = {}
        for m1, c1 in f.terms.items():
            for m2, c2 in g.terms.items():
                ref_add(acc, ref_monomial(m1, m2), c1 * c2)
        return acc
    for mono, c in g.terms.items():
        ref_add(acc, mono, c if op == "+" else c * -1)
    return acc


def ref_scaled(f, c):
    """c * f by Scalar arithmetic, one product per term."""
    return {mono: v * c for mono, v in f.terms.items()} if c else {}


def ref_times_variable(f, i, d2):
    """f times x[i, d2/2], each monomial rebuilt by ``ref_monomial``."""
    return {ref_monomial(mono, ((i, d2, 1),)): v for mono, v in f.terms.items()}


def ref_compose(lam, q, f):
    """h_i(m) h_j(n) f - shift * f by the reference kernel."""
    inner = {}
    ref_kernel(inner, q.j, q.n2, f.terms, lam.pair2(q.n2, q.j) or None)
    acc = {}
    ref_kernel(acc, q.i, q.m2, inner, lam.pair2(q.m2, q.i) or None)
    for mono, c in f.terms.items():
        ref_add(acc, mono, c * q.shift * -1)
    return acc


FACTORS = ("none", "one", "real", "gaussian")


def factor(kind, rng):
    """A shift or scale: None, 1, a real or a Gaussian rational."""
    if kind == "none":
        return None
    if kind == "one":
        return ONE
    re = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12), rng.randint(1, 12))
    im = Fraction(rng.randint(1, 12), rng.randint(1, 12))
    return Scalar(re, im if kind == "gaussian" else 0)


def dense(rng, sector, forms=3):
    """A product of linear forms in a few variables: many terms, and
    coefficients that share slots when a derivation or product moves them."""
    p = sector.parity
    f = FockVector.constant(1, 2, sector)
    for _ in range(forms):
        form = FockVector.constant(factor("gaussian", rng), 2, sector)
        for i, d2 in ((1, 2 - p), (2, 2 - p), (1, 4 - p)):
            form = form + FockVector(2, sector, {((i, d2, 1),): factor(
                rng.choice(["real", "gaussian"]), rng)})
        f = f * form
    return f


@pytest.mark.parametrize("sector", list(Sector))
def test_kernel_writes_reduced_values_equal_to_the_reference(rng, sector):
    p = sector.parity
    # no creators; a single creator that no term holds, and one that many
    # terms hold (its exponent is raised in place); two creators
    creator_sets = ((), ((2, 6 - p, 1),), ((1, 2 - p, 1),),
                    ((1, 2 - p, 1), (2, 6 - p, 2)))
    touched = {"collide": 0, "cancel": 0, "fresh": 0, "copy": 0,
               "empty shift": 0, "empty derivative": 0}
    for _ in range(4):
        f = dense(rng, sector)
        i, d2 = rng.choice([(1, 2 - p), (2, 2 - p), (1, 4 - p), (0, 0)])
        for shift_kind in FACTORS:
            for scale_kind in FACTORS:
                for creators in creator_sets:
                    shift, scale = factor(shift_kind, rng), factor(scale_kind, rng)
                    written = {}
                    ref_kernel(written, i, d2, f.terms, shift, scale, creators)
                    # some slots taken before the call, some with the
                    # negative of what it writes, and one it never writes
                    before = {((1, 10 + p, 1),): sc(7, 2)}
                    for mono, c in written.items():
                        pick = rng.randrange(3)
                        if pick == 0:
                            before[mono] = c * -1
                        elif pick == 1:
                            before[mono] = factor("gaussian", rng)
                        touched[("cancel", "collide", "fresh")[pick]] += 1
                    # and the same call into an empty accumulator
                    if shift is None:
                        touched["empty derivative"] += d2 != 0
                    elif shift_kind == "one" and scale_kind in ("none", "one") \
                            and not creators:
                        touched["copy"] += 1
                    else:
                        touched["empty shift"] += 1
                    for start in (before, {}):
                        got, want = dict(start), dict(start)
                        _add_weighted_partial2(got, i, d2, f.terms, shift,
                                               scale, creators)
                        ref_kernel(want, i, d2, f.terms, shift, scale,
                                   creators)
                        assert got == want, (i, d2, shift, scale, creators,
                                             bool(start))
                        assert_canonical(got)
    assert min(touched.values()) > 0, touched
    # a Gaussian shift s and a scale 1/s: their raw product is an unreduced
    # triple, still read as a unit, so each write stores the term's own
    # Scalar; on the copy path (no creators, fresh accumulator) and on the
    # unit path (a creator, fresh and taken slots)
    f = dense(rng, sector)
    s = factor("gaussian", rng)
    assert s != ONE and ONE / s != ONE
    for creators in ((), ((1, 2 - p, 1),)):
        moved = {ref_monomial(mono, creators): c for mono, c in f.terms.items()}
        taken = {mono: factor("gaussian", rng) for mono in list(moved)[::2]}
        for start in ({}, taken):
            got, want = dict(start), dict(start)
            _add_weighted_partial2(got, 0, 0, f.terms, s, ONE / s, creators)
            ref_kernel(want, 0, 0, f.terms, s, ONE / s, creators)
            assert got == want, (creators, bool(start))
            assert_canonical(got)
            assert all(got[mono] is c for mono, c in moved.items()
                       if mono not in start)


@pytest.mark.parametrize("sector", list(Sector))
def test_ring_operations_write_reduced_values_equal_to_the_reference(rng, sector):
    for _ in range(6):
        f, g = dense(rng, sector, 2), dense(rng, sector, 2)
        half = dict(list(f.terms.items())[::2])
        # a second operand that cancels half of f's slots, or holds them
        plus = FockVector(2, sector, {**g.terms,
                                      **{m: c * -1 for m, c in half.items()}})
        minus = FockVector(2, sector, {**g.terms, **half})
        for left, op, right in ((f, "+", plus), (f, "-", minus), (f, "*", g),
                                (f + g, "*", f - g), (f, "-", f)):
            out = {"+": left + right, "-": left - right,
                   "*": left * right}[op]
            assert out.terms == ref_ring(left, right, op), op
            assert_canonical(out.terms)
        assert len((f + plus).terms) < len(f.terms) + len(plus.terms)
        assert len(((f + g) * (f - g)).terms) < len(
            (f + g).terms) * len((f - g).terms)
        # scalings, and a creator f holds (its exponent is raised in place)
        # and one it does not
        q = Fraction(rng.choice([-1, 1]) * rng.randint(1, 12),
                     rng.randint(2, 12))
        p = sector.parity
        held = rng.choice([(1, 2 - p), (2, 2 - p), (1, 4 - p)])
        for out, want in ((-f, ref_scaled(f, -1)), (0 * f, {}),
                          (f.scaled(0), {}),
                          (f.scaled_fraction(q), ref_scaled(f, q)),
                          (f.times_variable(*held), ref_times_variable(f, *held)),
                          (f.times_variable(2, 4 - p),
                           ref_times_variable(f, 2, 4 - p))):
            assert out.terms == want
            assert_canonical(out.terms)


@pytest.mark.parametrize("sector", list(Sector))
def test_composition_writes_reduced_values_equal_to_the_reference(rng, sector):
    for _ in range(5):
        lam = random_lambda(rng, 2, sector)
        f = dense(rng, sector)
        modes = list(lam.positive_support2()) + [2 - sector.parity]
        for kind in FACTORS:
            shift = factor(kind, rng) or ZERO
            q = QuadraticElement(rng.randint(1, 2), rng.randint(1, 2),
                                 rng.choice(modes), rng.choice(modes), sector,
                                 shift)
            out = _compose_quadratic(lam, q, f)
            assert out.terms == ref_compose(lam, q, f), q
            assert_canonical(out.terms)


def test_no_caller_passes_the_kernel_a_zero_factor(rng, monkeypatch):
    """The kernel stores a fresh slot's product unchecked, so a zero shift
    or scale would store zero coefficients: every caller passes None."""
    kernel = fock._add_weighted_partial2
    factors = []

    def checked(acc, i, d2, terms, shift=None, scale=None, creators=()):
        factors.extend(v for v in (shift, scale) if v is not None)
        kernel(acc, i, d2, terms, shift, scale, creators)

    for module in (fock, heisenberg, vertex):
        monkeypatch.setattr(module, "_add_weighted_partial2", checked)
    for sector in Sector:
        p = sector.parity
        for _ in range(8):
            # some of lambda's entries are zero, and modes run past its support
            lam = random_lambda(rng, 2, sector)
            f = random_fock(rng, 2, sector, max_degree=4)
            for d2 in range(2 - p, 10, 2):
                out = act_mode2(lam, rng.randint(1, 2), d2, f)
                assert_canonical(out.terms)
                q = QuadraticElement(rng.randint(1, 2), rng.randint(1, 2),
                                     d2, rng.randrange(2 - p, 10, 2), sector,
                                     rng.choice([ZERO, factor("real", rng)]))
                assert_canonical(_compose_quadratic(lam, q, f).terms)
            for n in range(-1, 3):
                out = vertex.virasoro_mode(n, f, lam)
                assert_canonical(out.terms)
            # the ring operations that make a zero vector
            for out in (f.scaled(0), 0 * f, f.scaled_fraction(Fraction(0)),
                        f - f, -FockVector.zero(2, sector)):
                assert not out.terms
    assert len(factors) > 100
    assert all(factors), [v for v in factors if not v]


def _writes(coeff, i, d2, terms):
    """Coefficient writes of one kernel call: a shift write per term when
    coeff is nonzero, and a derivative write per term holding x[i,d2/2]."""
    derived = sum(1 for mono in terms if any((bi, bd2) == (i, d2)
                                             for bi, bd2, _ in mono))
    return (len(terms) if coeff else 0) + derived


def _count_reductions(monkeypatch):
    calls = []
    reduced = scalars._reduced

    def counted(a, b, d):
        calls.append(1)
        return reduced(a, b, d)

    # the kernel calls it under the name it imported; Scalar methods under
    # their own module's
    monkeypatch.setattr(scalars, "_reduced", counted)
    monkeypatch.setattr(fock, "_reduced", counted)
    return calls


def test_each_coefficient_write_costs_one_reduction(monkeypatch):
    sector = Sector.UNTWISTED
    f = dense(Random(17), sector, 4)
    lam = lam_of(sector, 2, (sc(0), sc(0)), (sc(2, 1), sc(Fraction(1, 3), 3)))
    q = QuadraticElement(1, 2, 2, 2, sector, sc(Fraction(5, 2), -2))
    inner = act_mode2(lam, q.j, q.n2, f)
    act_writes = _writes(lam.pair2(2, 1), 1, 2, f.terms)
    compose_writes = (_writes(lam.pair2(2, 2), 2, 2, f.terms)
                      + _writes(lam.pair2(2, 1), 1, 2, inner.terms)
                      + len(f.terms))
    calls = _count_reductions(monkeypatch)
    acted = act_mode2(lam, 1, 2, f)
    assert len(calls) <= act_writes
    # writes meet in shared slots, where a second reduction would show
    assert len(acted.terms) < act_writes
    del calls[:]
    composed = _compose_quadratic(lam, q, f)
    assert len(calls) <= compose_writes
    assert len(composed.terms) < compose_writes
    # a shift pass into an empty accumulator with no creators is a copy:
    # none for a unit shift, which stores the terms' own Scalars, and one
    # per term for any other shift
    del calls[:]
    copy = {}
    _add_weighted_partial2(copy, 0, 0, f.terms, ONE)
    assert copy == f.terms and not calls
    copy = {}
    _add_weighted_partial2(copy, 0, 0, f.terms, q.shift)
    assert len(calls) == len(f.terms) == len(copy)
    # a shift and a scale, neither 1, are multiplied as raw ints: the call
    # reduces once per write and never for the product of its factors
    del calls[:]
    both = {}
    _add_weighted_partial2(both, 1, 2, f.terms, q.shift, sc(2, 1))
    assert len(calls) == _writes(q.shift, 1, 2, f.terms)
    assert_canonical(both)
    # negation, and a -1 shift pass into an empty accumulator, store each
    # term's negation, which is already reduced: no reduction at all
    del calls[:]
    negated = -f
    minus = {}
    _add_weighted_partial2(minus, 0, 0, f.terms, -ONE)
    assert not calls
    assert negated.terms == minus
    assert all(minus[mono] == Scalar.__neg__(c) for mono, c in f.terms.items())
    assert len(minus) == len(f.terms)
    assert_canonical(minus)
