"""Twisted-correction coefficients and the twisted mode engine.

The oracle for the coefficient table is an independent series expansion via
sympy (nested Taylor expansions of the generating function), computed here
once per test run and compared against the package's closed form
c[m,n] = b_m b_n / (2(m+n)).
"""

from fractions import Fraction
from functools import lru_cache
from random import Random

import sympy

from heisenfock import (FockVector, LambdaSequence, Sector, bilinear,
                        cmn_table, delta_z_apply, mode_apply, omega,
                        twisted_mode_apply, twisted_virasoro_mode,
                        weighted_partial)
from heisenfock.sampling import (random_fock, random_lambda,
                                 random_nonzero_scalar, virasoro_trial)

from conftest import lam_of, one, sc, x

HALF = Fraction(1, 2)


@lru_cache(maxsize=None)
def sympy_cmn_oracle(order):
    """Taylor coefficients of -log(((1+z)^(1/2) + (1+w)^(1/2)) / 2)."""
    z, w = sympy.symbols("z w")
    expr = -sympy.log(((1 + z) ** sympy.Rational(1, 2)
                       + (1 + w) ** sympy.Rational(1, 2)) / 2)
    poly_z = sympy.series(expr, z, 0, order + 1).removeO()
    table = {}
    for m in range(order + 1):
        coeff_m = poly_z.coeff(z, m)
        poly_w = sympy.series(coeff_m, w, 0, order + 1).removeO()
        for n in range(order + 1):
            val = sympy.nsimplify(sympy.expand(poly_w).coeff(w, n))
            table[(m, n)] = Fraction(int(sympy.numer(val)), int(sympy.denom(val)))
    return table


class TestCmnTable:
    def test_against_series_oracle(self):
        oracle = sympy_cmn_oracle(6)
        table = cmn_table(6)
        for m in range(7):
            for n in range(7):
                assert table.c(m, n) == oracle[(m, n)], (m, n)

    def test_frozen_values(self):
        table = cmn_table(2)
        assert table.c(0, 0) == 0
        assert table.c(1, 0) == Fraction(-1, 4)
        assert table.c(1, 1) == Fraction(1, 16)

    def test_symmetric(self):
        table = cmn_table(6)
        for m in range(7):
            for n in range(7):
                assert table.c(m, n) == table.c(n, m)

    def test_restriction_consistency(self):
        big = cmn_table(6)
        small = cmn_table(3)
        for m in range(4):
            for n in range(4):
                assert big.c(m, n) == small.c(m, n)


class TestDeltaZ:
    def test_single_oscillator_uncorrected(self):
        u = FockVector.variable(1, 1, 2)
        assert delta_z_apply(u) == {0: u}

    def test_conformal_state_shift(self):
        for rank in (1, 2, 3):
            out = delta_z_apply(omega(rank))
            shift = FockVector.constant(1, rank).scaled_fraction(
                Fraction(rank, 16))
            assert out == {0: omega(rank), 2: shift}

    def test_vacuum_uncorrected(self):
        for rank in (1, 2, 3):
            for vac in (FockVector.constant(1, rank), FockVector.zero(rank)):
                assert delta_z_apply(vac) == {0: vac}

    def test_order_zero_part_is_the_state(self, rng):
        for _ in range(10):
            u = random_fock(rng, 2, Sector.UNTWISTED, max_degree=4)
            assert delta_z_apply(u)[0] == u

    def test_mode_two_square(self):
        # c[2,2] = (3/8)^2 / 8 = 9/512 and (2 d/dx[1,2])^2 x[1,2]^2 = 8
        u = x(1, 2, 1) * x(1, 2, 1)
        assert delta_z_apply(u) == {
            0: u, 4: FockVector.constant(1, 1).scaled_fraction(Fraction(9, 64))}

    def test_exponential_terminates_with_quartic(self):
        # weight-4 diagonal state needs the squared lowering term:
        # dd x^4 = 12 x^2, so the first-order part is 12 c11 x^2 z^-2 and
        # the second-order part (1/2) * 12 c11 * (dd x^2) c11 = 12 c11^2 z^-4
        u = x(1, 1, 1) * x(1, 1, 1) * x(1, 1, 1) * x(1, 1, 1)
        out = delta_z_apply(u)
        assert set(out) == {0, 2, 4}
        assert out[2] == (x(1, 1, 1) * x(1, 1, 1)).scaled_fraction(
            12 * Fraction(1, 16))
        assert out[4] == FockVector.constant(1, 1).scaled_fraction(
            12 * Fraction(1, 16) ** 2)


def reference_delta_z_apply(u):
    """exp(Delta_z) u as it stood before the powers passed term dicts: every
    derivative builds a vector through weighted_partial, is scaled by
    c[m,n] as a vector and summed into its power, and each power is scaled
    by 1/k and summed into the parts as vectors."""
    def variables(v):
        return sorted({(i, d2 // 2) for mono in v.terms for i, d2, _ in mono})

    result = {0: u}
    if not u:
        return result
    table = cmn_table(u.degree2 // 2)
    term = {0: u}
    k = 0
    while term:
        k += 1
        nxt = {}
        for j, v in term.items():
            for i, n in variables(v):
                dn = weighted_partial(i, n, v)
                for a, m in variables(dn):
                    if a != i:
                        continue
                    add = weighted_partial(i, m, dn).scaled_fraction(table.c(m, n))
                    key = j + m + n
                    nxt[key] = nxt.get(key, FockVector.zero(u.rank)) + add
        term = {}
        for j, v in nxt.items():
            v = v.scaled_fraction(Fraction(1, k))
            if v:
                term[j] = v
                result[j] = result.get(j, FockVector.zero(u.rank)) + v
    return {j: v for j, v in result.items() if v or j == 0}


def weighted_state(rng, rank, weight=8):
    """One to three monomials of weight at most ``weight``, each a product
    of runs x[a,n]^e (n up to 4, so derivative factors occur), at times
    with a constant term."""
    u = FockVector.constant(random_nonzero_scalar(rng), rank) \
        if rng.random() < 0.3 else FockVector.zero(rank)
    for _ in range(rng.randint(1, 3)):
        term = FockVector.constant(random_nonzero_scalar(rng), rank)
        left = weight
        for _ in range(rng.randint(1, 3)):
            n = rng.randint(1, 4)
            e = min(rng.randint(1, 4), left // n)
            a = rng.randint(1, rank)
            for _ in range(e):
                term = term.times_variable(a, 2 * n)
            left -= n * e
        u = u + term
    return u


class TestDeltaZAgainstReference:
    def test_seeded_sweep(self):
        rng = Random(20261019)
        seen = {"parts": 0, "runs": 0, "derivative": 0}
        for trial in range(150):
            rank = 1 + trial % 3
            u = weighted_state(rng, rank)
            assert u.degree2 <= 16
            got = delta_z_apply(u)
            want = reference_delta_z_apply(u)
            assert got == want
            assert list(got) == list(want)  # the parts come in one order
            monos = [mono for mono in u.terms if mono]
            seen["parts"] += len(got) > 2
            seen["runs"] += any(e > 1 for mono in monos for _, _, e in mono)
            seen["derivative"] += any(d2 > 2 for mono in monos
                                      for _, d2, _ in mono)
        assert min(seen.values()) > 30, seen

    def test_one_vector_per_part(self, monkeypatch):
        # the powers pass term dicts to each other; only the returned parts
        # are vectors, where the reference builds 83 here
        u = (x(1, 1, 2) * x(1, 1, 2) * x(1, 2, 2) * x(2, 1, 2) * x(2, 3, 2)
             + 3 * x(1, 2, 2) * x(1, 2, 2) * x(2, 2, 2))
        built = []
        init = FockVector.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(FockVector, "__init__", counted)
        out = delta_z_apply(u)
        assert len(out) >= 3
        assert len(built) == len(out)


class TestTwistedModes:
    def test_constant_shift_enters_l0(self):
        # rank 1: the z^-2 correction contributes exactly 1/16 on the vacuum
        lam = LambdaSequence.zero(1, Sector.TWISTED)
        f = one(1, Sector.TWISTED)
        assert twisted_mode_apply(omega(1), 1, f, lam) == f.scaled_fraction(
            Fraction(1, 16))

    def test_constant_shift_scales_with_rank(self):
        for rank in (2, 3):
            lam = LambdaSequence.zero(rank, Sector.TWISTED)
            f = one(rank, Sector.TWISTED)
            got = twisted_mode_apply(omega(rank), 1, f, lam)
            assert got == f.scaled_fraction(Fraction(rank, 16))

    def test_eigenvalues_on_cyclic_vector(self, rng):
        for _ in range(15):
            lam = random_lambda(rng, 2, Sector.TWISTED, max_r=3)
            r = lam.support_bound
            v = one(2, Sector.TWISTED)
            for j in range(r + 1, 2 * r + 1):
                acc = sc(0)
                for m2 in range(1, 2 * r, 2):
                    n2 = 2 * (j - 1) - m2
                    if 1 <= n2 <= 2 * r - 1:
                        acc = acc + sum(lam.pair2(m2, i) * lam.pair2(n2, i)
                                         for i in (1, 2))
                assert twisted_mode_apply(omega(2), j, v, lam) == v.scaled(acc / 2)

    def test_top_eigenvalue(self, rng):
        for _ in range(15):
            lam = random_lambda(rng, 2, Sector.TWISTED, max_r=3)
            r = lam.support_bound
            top = lam.entries[-1]
            got = twisted_mode_apply(omega(2), 2 * r, one(2, Sector.TWISTED), lam)
            assert got == one(2, Sector.TWISTED).scaled(bilinear(top, top) / 2)

    def test_truncation(self, rng):
        for _ in range(10):
            lam = random_lambda(rng, 2, Sector.TWISTED, max_r=3)
            r = lam.support_bound
            for j in range(2 * r + 1, 2 * r + 5):
                assert not twisted_mode_apply(omega(2), j, one(2, Sector.TWISTED), lam)

    def test_twisted_virasoro_brackets(self, rng):
        for _ in range(40):
            assert virasoro_trial(rng, 2, Sector.TWISTED, 3)

    def test_untwisted_vector_takes_untwisted_modes(self):
        # the twisted name is the one operator, so untwisted data gets the
        # untwisted modes: no exp(Delta_z) shift on L_0 of the vacuum
        lam = LambdaSequence.zero(1)
        assert not twisted_mode_apply(omega(1), 1, one(1), lam)
        f = FockVector.variable(1, 2, 1) * FockVector.variable(1, 1, 1)
        for k in range(-2, 4):
            assert twisted_mode_apply(omega(1), k, f, lam) == mode_apply(
                omega(1), k, f, lam)

    def test_half_mode_of_single_field(self, rng):
        # a single twisted free field has plain oscillator modes
        from heisenfock import act_mode
        u = FockVector.variable(1, 1, 2)
        for _ in range(10):
            lam = random_lambda(rng, 2, Sector.TWISTED)
            f = random_fock(rng, 2, Sector.TWISTED, max_degree=4)
            for k2 in range(-5, 6, 2):
                k = Fraction(k2, 2)
                assert twisted_mode_apply(u, k, f, lam) == act_mode(lam, 1, k, f)
