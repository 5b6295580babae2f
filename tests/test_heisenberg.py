from fractions import Fraction
from random import Random

import pytest

from heisenfock import (BosonIndexError, FockVector, HighestWeightError,
                        LambdaSequence, ModeRangeError, QuadraticElement, Scalar, Sector,
                        SectorMismatchError, act_mode, commutator_check,
                        j_generator, quadratic_act, quadratic_check,
                        reduce_step, theta_involution)
from heisenfock import heisenberg
from heisenfock.fock import _add_weighted_partial2
from heisenfock.heisenberg import _compose_quadratic, act_mode2
from heisenfock.sampling import (commutator_trial, random_fock, random_lambda,
                                 random_scalar)

from conftest import assert_canonical, lam_of, one, sc, x

HALF = Fraction(1, 2)


class TestLambdaSequence:
    def test_trailing_zeros_trimmed(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1], [0])
        assert lam.support_bound == 1
        assert lam.top_doubled == 2

    def test_pairings_are_coordinates(self):
        lam = lam_of(Sector.UNTWISTED, 2, [0, 0], [sc(2), sc(0, 1)])
        assert lam.pair2(2, 1) == sc(2)
        assert lam.pair2(2, 2) == sc(0, 1)
        assert lam.pair2(10, 1) == sc(0)

    def test_twisted_indexing(self):
        lam = lam_of(Sector.TWISTED, 1, [sc(3)], [sc(4)])
        assert lam.support_bound == 2
        assert lam.top_doubled == 3
        assert lam.pair2(1, 1) == sc(3)
        assert lam.pair2(3, 1) == sc(4)
        with pytest.raises(ModeRangeError):
            lam.pair2(2, 1)

    @pytest.mark.parametrize("i", [0, -1, 3])
    def test_pairing_index_outside_rank(self, i):
        lam = lam_of(Sector.UNTWISTED, 2, [sc(1), sc(2)], [sc(3), sc(4)])
        with pytest.raises(BosonIndexError):
            lam.pair2(2, i)
        with pytest.raises(BosonIndexError):
            lam.pair2(8, i)  # beyond the support: still checked

    def test_proper_flag(self):
        assert not LambdaSequence.zero(1).top_doubled > 0
        assert not lam_of(Sector.UNTWISTED, 1, [1]).top_doubled > 0
        assert lam_of(Sector.UNTWISTED, 1, [0], [1]).top_doubled > 0
        assert lam_of(Sector.TWISTED, 1, [1]).top_doubled > 0

    @pytest.mark.parametrize("rank", [0, -1])
    def test_rank_below_one_refused(self, rank):
        for sector in Sector:
            with pytest.raises(BosonIndexError):
                LambdaSequence.make(sector, rank, [])
            with pytest.raises(BosonIndexError):
                LambdaSequence.zero(rank, sector)

    def test_highest_weight_guard(self):
        # only lambda_0 nonzero: no positive support for the reduction
        with pytest.raises(HighestWeightError):
            reduce_step(lam_of(Sector.UNTWISTED, 1, [1]), x(1, 1, 1))
        step, _ = reduce_step(lam_of(Sector.UNTWISTED, 1, [0], [1]), x(1, 1, 1))
        assert step.element.n2 == 2


class TestModeActions:
    def test_creation(self):
        lam, lam2 = LambdaSequence.zero(1), LambdaSequence.zero(2)
        assert act_mode(lam, 1, -1, one(1)) == x(1, 1, 1)
        assert act_mode(lam2, 2, -3, x(1, 1, 2)) == x(1, 1, 2) * x(2, 3, 2)
        tw = act_mode(lam, 1, -HALF, one(1, Sector.TWISTED))
        assert tw == x(1, HALF, 1, Sector.TWISTED)

    def test_vacuum_annihilation(self):
        lam = LambdaSequence.zero(1)
        assert not act_mode(lam, 1, 1, one(1))

    def test_whittaker_eigenvector(self):
        # h(1) acts on the cyclic vector by the lambda_1 coordinate
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        assert act_mode(lam, 1, 1, one(1)) == one(1)

    def test_mixed_degree_output(self):
        # h(1) x[1,1] = (h,h) + (h,lambda_1) x[1,1]: two degrees at once
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        out = act_mode(lam, 1, 1, x(1, 1, 1))
        assert out == one(1) + x(1, 1, 1)

    def test_mode_zero_is_scalar(self):
        lam = lam_of(Sector.UNTWISTED, 1, [3])
        assert act_mode(lam, 1, 0, one(1)) == 3 * one(1)
        assert act_mode(lam, 1, 0, x(1, 1, 1)) == 3 * x(1, 1, 1)

    def test_mode_dispatch(self):
        lam = LambdaSequence.zero(1)
        assert act_mode(lam, 1, -2, one(1)) == x(1, 2, 1)

    def test_twisted_half_mode(self):
        lam = lam_of(Sector.TWISTED, 1, [1])
        assert act_mode(lam, 1, HALF, one(1, Sector.TWISTED)) == one(1, Sector.TWISTED)

    def test_no_zero_mode_twisted(self):
        lam = LambdaSequence.zero(1, Sector.TWISTED)
        with pytest.raises(ModeRangeError):
            act_mode(lam, 1, 0, one(1, Sector.TWISTED))

    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_annihilation_index_outside_rank(self, mode):
        lam = lam_of(Sector.UNTWISTED, 1, [1], [2])
        f = x(1, 1, 1) + one(1)
        for i in (0, 2):
            with pytest.raises(BosonIndexError):
                act_mode(lam, i, mode, f)

    def test_sector_mismatch(self):
        lam = LambdaSequence.zero(1, Sector.TWISTED)
        with pytest.raises(SectorMismatchError):
            act_mode(lam, 1, 1, one(1))

    def test_annihilation_beyond_support_kills_cyclic_vector(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(20):
                lam = random_lambda(rng, 2, sector)
                top = lam.top_doubled
                v = one(2, sector)
                for extra in (2, 4, 6):
                    assert not act_mode2(lam, rng.randint(1, 2), top + extra, v)


class TestCommutator:
    def test_dual_pair(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [sc(5, 1)])
        assert commutator_check(1, 1, 1, -1, x(1, 1, 1), lam)

    def test_orthogonal_bosons(self, rng):
        lam = random_lambda(rng, 2, Sector.UNTWISTED)
        f = random_fock(rng, 2, Sector.UNTWISTED)
        assert commutator_check(1, 2, 1, -1, f, lam)

    def test_twisted_half_bracket(self):
        lam = LambdaSequence.zero(1, Sector.TWISTED)
        f = one(1, Sector.TWISTED)
        lhs = (act_mode(lam, 1, HALF, act_mode(lam, 1, -HALF, f))
               - act_mode(lam, 1, -HALF, act_mode(lam, 1, HALF, f)))
        assert lhs == f.scaled(HALF)
        assert commutator_check(1, 1, HALF, -HALF, f, lam)

    def test_randomized(self, rng):
        # modes |m|, |n| <= 4 of the sector's parity, zero modes included
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(25):
                assert commutator_trial(rng, 2, sector, 4)


class TestQuadraticAction:
    def test_degree_one_input(self):
        c = sc(7, 2)
        lam = lam_of(Sector.UNTWISTED, 1, [0], [c])
        q = QuadraticElement.build(lam, 1, 1, 1, 1)
        out = quadratic_act(lam, q, x(1, 1, 1))
        assert out == one(1).scaled(2 * c)

    def test_pure_second_derivative(self):
        lam = LambdaSequence.zero(1)
        q = QuadraticElement.build(lam, 1, 1, 1, 1)
        assert quadratic_act(lam, q, x(1, 1, 1) * x(1, 1, 1)) == 2 * one(1)

    def test_constant_input_annihilated(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            lam = random_lambda(rng, 2, sector)
            base = Fraction(1, 1) if sector is Sector.UNTWISTED else HALF
            q = QuadraticElement.build(lam, 1, 2, base, base + 1)
            assert not quadratic_act(lam, q, one(2, sector))

    def test_matches_composition_minus_shift(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(60):
                lam = random_lambda(rng, 2, sector)
                f = random_fock(rng, 2, sector, max_degree=6)
                base = 0 if sector is Sector.UNTWISTED else HALF
                m = base + rng.randint(0 if base else 1, 4)
                n = base + rng.randint(0 if base else 1, 4)
                q = QuadraticElement.build(lam, rng.randint(1, 2),
                                           rng.randint(1, 2), m, n)
                assert quadratic_check(lam, q, f)

    def test_check_detects_a_wrong_shift(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [sc(2)])
        q = QuadraticElement.build(lam, 1, 1, 1, 1)
        wrong = QuadraticElement(q.i, q.j, q.m2, q.n2, q.sector,
                                 q.shift + sc(1))
        assert quadratic_check(lam, q, x(1, 1, 1))
        assert not quadratic_check(lam, wrong, x(1, 1, 1))

    @pytest.mark.parametrize("i,j", [(0, 1), (1, 0), (-1, 2)])
    def test_rejects_nonpositive_boson_index(self, i, j):
        with pytest.raises(BosonIndexError):
            QuadraticElement(i, j, 2, 2, Sector.UNTWISTED, sc(0))

    def test_rejects_nonpositive_modes(self):
        with pytest.raises(ModeRangeError):
            QuadraticElement(1, 1, 0, 2, Sector.UNTWISTED, sc(0))
        with pytest.raises(ModeRangeError):
            QuadraticElement(1, 1, 2, -2, Sector.UNTWISTED, sc(0))


class TestQuadraticElement:
    @pytest.mark.parametrize("sector", list(Sector))
    def test_modes_are_positive_doubled_modes_of_the_sector(self, sector):
        good = 2 + sector.parity  # mode 1 untwisted, 3/2 twisted
        QuadraticElement(1, 1, good, good, sector, sc(0))
        for bad in (good + 1, 0, -2, -good):
            with pytest.raises(ModeRangeError):
                QuadraticElement(1, 1, bad, good, sector, sc(0))
            with pytest.raises(ModeRangeError):
                QuadraticElement(1, 1, good, bad, sector, sc(0))
        for i, j in ((0, 1), (1, 0)):
            with pytest.raises(BosonIndexError):
                QuadraticElement(i, j, good, good, sector, sc(0))

    @pytest.mark.parametrize("sector,m,n,shift", [
        (Sector.UNTWISTED, Fraction(1), Fraction(1), sc(0, 3)),
        (Sector.TWISTED, HALF, Fraction(3, 2), sc(0, 1)),
    ])
    def test_build_from_fractions_equals_doubled_construction(
            self, sector, m, n, shift):
        lam = lam_of(sector, 2, [sc(1), sc(2)], [sc(3), sc(0, 1)])
        q = QuadraticElement.build(lam, 1, 2, m, n)
        assert q == QuadraticElement(1, 2, int(2 * m), int(2 * n), sector,
                                     shift)

    def test_closed_form_checks_indices_against_the_rank(self):
        lam = lam_of(Sector.UNTWISTED, 2, [0, 0], [sc(1), sc(1)])
        for i, j in ((3, 1), (1, 3)):
            q = QuadraticElement(i, j, 2, 2, Sector.UNTWISTED, sc(0))
            with pytest.raises(BosonIndexError):
                quadratic_act(lam, q, x(1, 1, 2))


def three_pass_act(lam, q, f):
    """The closed form in three kernel calls for every element, the
    diagonal ones included: d_jn f, then (c_m + d_im) over it, then
    c_n d_im f from f (skipped when c_n = 0)."""
    cm = lam.pair2(q.m2, q.i)
    cn = lam.pair2(q.n2, q.j)
    dj = {}
    _add_weighted_partial2(dj, q.j, q.n2, f.terms)
    acc = {}
    _add_weighted_partial2(acc, q.i, q.m2, dj, cm if cm else None)
    if cn:
        _add_weighted_partial2(acc, q.i, q.m2, f.terms, scale=cn)
    return FockVector(f.rank, f.sector, acc)


PAIRINGS = {"zero": sc(0), "unit": sc(1), "real": sc(Fraction(-7, 3)),
            "gaussian": sc(Fraction(2, 5), Fraction(-3, 4))}


def free_of(rng, rank, sector, i, d2, max_degree):
    """A nonzero random vector in which x[i,n] does not occur."""
    while True:
        f = random_fock(rng, rank, sector, max_degree=max_degree)
        f = FockVector(rank, sector, {
            mono: c for mono, c in f.terms.items()
            if not any(a == i and b == d2 for a, b, _ in mono)})
        if f:
            return f


def vector_with_powers(rng, rank, sector, i, d2, powers):
    """A vector free of x[i,n], plus, for each e in ``powers``, another
    one times x[i,n]^e."""
    f = free_of(rng, rank, sector, i, d2, 6)
    for e in powers:
        g = free_of(rng, rank, sector, i, d2, 4)
        for _ in range(e):
            g = g.times_variable(i, d2)
        f = f + g
    return f


@pytest.fixture
def kernel_calls(monkeypatch):
    """The (i, d2) of every kernel call ``heisenberg`` makes."""
    calls = []
    kernel = heisenberg._add_weighted_partial2

    def counted(acc, i, d2, *rest, **kwargs):
        calls.append((i, d2))
        kernel(acc, i, d2, *rest, **kwargs)

    monkeypatch.setattr(heisenberg, "_add_weighted_partial2", counted)
    return calls


class TestDiagonalElement:
    """i = j and m = n: (2 c_m + d_im) d_im in one kernel call over d_im f."""

    @pytest.mark.parametrize("sector", list(Sector))
    def test_sweep_matches_three_calls_and_composition(self, sector):
        rng = Random(2507 + sector.parity)
        p = sector.parity
        seen = set()
        for _ in range(12):
            for kind, c in PAIRINGS.items():
                for powers in ((), (1,), (2,), (3,), (1, 3), (1, 2, 3)):
                    rank = rng.randint(1, 3)
                    i = rng.randint(1, rank)
                    m2 = rng.randrange(2 - p, 9, 2)
                    rows = [[random_scalar(rng) for _ in range(rank)]
                            for _ in range(m2 // 2 + rng.randint(1, 2))]
                    rows[m2 // 2][i - 1] = c
                    lam = LambdaSequence.make(sector, rank, rows)
                    assert lam.pair2(m2, i) == c
                    f = vector_with_powers(rng, rank, sector, i, m2, powers)
                    q = QuadraticElement.build(lam, i, i, Fraction(m2, 2),
                                               Fraction(m2, 2))
                    out = quadratic_act(lam, q, f)
                    assert out == three_pass_act(lam, q, f), (q, kind, powers)
                    assert out == _compose_quadratic(lam, q, f), (q, kind)
                    assert_canonical(out.terms)
                    # d_im f is nonzero iff x[i,m] occurs, and then only
                    # d_im^2 can kill it: when c = 0 and every e is 1
                    nonzero = bool(powers) and bool(c or max(powers) > 1)
                    assert bool(out) == nonzero, (kind, powers)
                    seen.add((kind, powers))
                    # the neighbours off the diagonal keep their third call
                    n2 = m2 + 2
                    neighbours = [QuadraticElement.build(
                        lam, i, i, Fraction(m2, 2), Fraction(n2, 2))]
                    if rank > 1:
                        neighbours.append(QuadraticElement.build(
                            lam, i, i % rank + 1, Fraction(m2, 2),
                            Fraction(m2, 2)))
                    for near in neighbours:
                        assert quadratic_act(lam, near, f) == \
                            three_pass_act(lam, near, f), near
        assert len(seen) == len(PAIRINGS) * 6

    # pairings: (m, 1) = 3, (m, 2) = 0, (m + 1, 1) = 2, (m + 1, 2) = 5
    @pytest.mark.parametrize("sector", list(Sector))
    @pytest.mark.parametrize("i,j,dm,dn,calls", [
        (1, 1, 0, 0, 2),  # diagonal, c_m = c_n = 3
        (2, 2, 0, 0, 2),  # diagonal, c_m = c_n = 0
        (1, 1, 0, 2, 3),  # i = j only, c_n = 2
        (2, 1, 0, 0, 3),  # m = n only, c_n = 3
        (1, 2, 2, 0, 2),  # off the diagonal, c_n = 0
    ])
    def test_kernel_calls(self, kernel_calls, sector, i, j, dm, dn, calls):
        p = sector.parity
        m2 = 2 - p
        lam = lam_of(sector, 2, *[[0, 0]] * (1 - p), [3, 0], [2, 5])
        xs = [x(a, Fraction(d2, 2), 2, sector)
              for a in (1, 2) for d2 in (m2, m2 + 2)]
        form = xs[0] + xs[1] + xs[2] + xs[3]
        f = form * form * form
        q = QuadraticElement.build(lam, i, j, Fraction(m2 + dm, 2),
                                   Fraction(m2 + dn, 2))
        out = quadratic_act(lam, q, f)
        assert len(kernel_calls) == calls, kernel_calls
        assert out and out == _compose_quadratic(lam, q, f)

    @pytest.mark.parametrize("sector", list(Sector))
    def test_index_above_rank_raises_before_any_call(self, kernel_calls,
                                                     sector):
        m2 = 2 - sector.parity
        lam = lam_of(sector, 2, *[[0, 0]] * (1 - sector.parity), [1, 1])
        q = QuadraticElement(3, 3, m2, m2, sector, sc(0))
        with pytest.raises(BosonIndexError):
            quadratic_act(lam, q, x(1, Fraction(m2, 2), 2, sector))
        assert kernel_calls == []


class TestTheta:
    def test_even_monomial_fixed(self):
        f = x(1, 1, 1) * x(1, 3, 1)
        assert theta_involution(f) == f

    def test_odd_monomial_negated(self):
        assert theta_involution(x(1, 2, 1)) == -x(1, 2, 1)

    def test_conformal_state_fixed(self):
        from heisenfock import omega
        for rank in (1, 2, 3):
            assert theta_involution(omega(rank)) == omega(rank)

    def test_involution_and_homomorphism(self, rng):
        for _ in range(30):
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5)
            g = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5)
            assert theta_involution(theta_involution(f)) == f
            assert theta_involution(f * g) == theta_involution(f) * theta_involution(g)


class TestJGenerator:
    def test_formula(self):
        expected = (x(1, 1, 1) * x(1, 1, 1) * x(1, 1, 1) * x(1, 1, 1)
                    - 2 * (x(1, 3, 1) * x(1, 1, 1))
                    + Fraction(3, 2) * (x(1, 2, 1) * x(1, 2, 1)))
        assert j_generator(1, 1) == expected

    def test_theta_fixed_and_degree(self):
        for rank in (1, 2):
            for a in range(1, rank + 1):
                j = j_generator(a, rank)
                assert theta_involution(j) == j
                assert j.degree == 4
