from fractions import Fraction

import pytest
import sympy

from heisenfock import (FockVector, LambdaSequence, Sector,
                        binom_mode_identity_check, binom_transfer_matrix)
from heisenfock.errors import PreconditionError
from heisenfock.sampling import random_fock, random_lambda

from conftest import lam_of, one, x


def exact_determinant(matrix):
    """The determinant of a matrix of Fractions, by sympy over the rationals."""
    return sympy.Matrix([[sympy.Rational(e.numerator, e.denominator)
                          for e in row] for row in matrix]).det()


class TestModeIdentity:
    def test_vacuum_trivial(self):
        lam0 = LambdaSequence.zero(1)
        u = one(1)
        for p in range(3):
            for q in range(3):
                for n in range(-2, 8):
                    assert binom_mode_identity_check(1, 1, p, q, n, u, lam0, 0)

    def test_diagonal_small(self):
        lam = lam_of(Sector.UNTWISTED, 1, [1], [2])
        u = x(1, 1, 1)
        for n in range(-2, 6):
            assert binom_mode_identity_check(1, 1, 0, 0, n, u, lam, 1)

    def test_randomized(self, rng):
        for _ in range(25):
            bound = rng.randint(0, 2)
            rank = rng.randint(1, 2)
            if bound and rng.random() < 0.8:
                lam = random_lambda(rng, rank, Sector.UNTWISTED, max_r=bound)
            else:
                lam = LambdaSequence.zero(rank)
            u = random_fock(rng, rank, Sector.UNTWISTED, max_degree=bound,
                            max_terms=2, nonzero=False)
            a = rng.randint(1, rank)
            b = rng.randint(1, rank)
            for p in range(3):
                for q in range(3):
                    n = rng.randint(-2, 2 * bound + 3)
                    assert binom_mode_identity_check(a, b, p, q, n, u, lam, bound)

    def test_invalid_bound_rejected(self):
        lam0 = LambdaSequence.zero(1)
        u = x(1, 2, 1)  # contains mode 2, so the bound 1 is a lie
        with pytest.raises(PreconditionError):
            binom_mode_identity_check(1, 1, 0, 0, 0, u, lam0, 1)
        lam = lam_of(Sector.UNTWISTED, 1, [0], [0], [1])
        with pytest.raises(PreconditionError):
            binom_mode_identity_check(1, 1, 0, 0, 0, one(1), lam, 1)


class TestTransferMatrix:
    def test_determinants_nonzero(self):
        for bound in range(0, 4):
            for size in range(1, 7):
                d = exact_determinant(binom_transfer_matrix(bound, size))
                assert d != 0

    def test_determinant_value(self):
        # rows are binomials in the column abscissa with leading term x^p/p!,
        # so the determinant reduces to a Vandermonde of consecutive integers
        # divided by the factorial product: exactly 1
        for bound in range(0, 4):
            for size in range(1, 8):
                assert exact_determinant(binom_transfer_matrix(bound, size)) == 1

    def test_entries_are_integers(self):
        for row in binom_transfer_matrix(2, 6):
            for entry in row:
                assert entry.denominator == 1
