from fractions import Fraction
from math import gcd
from random import Random

import pytest

from heisenfock import FockVector, LambdaSequence, Scalar, Sector, bilinear
from heisenfock.sampling import random_lambda


@pytest.fixture
def rng():
    return Random(20260810)


@pytest.fixture
def plant_wrong_entry(monkeypatch):
    """Every numeric fiber solve then scales its lowest entry by 1 + 1e-6."""
    from heisenfock import whittaker
    solve = whittaker._back_substitute

    def planted(zeta, entries, *rest):
        solve(zeta, entries, *rest)
        entries[0] = tuple(c * (1 + 1e-6) for c in entries[0])

    monkeypatch.setattr(whittaker, "_back_substitute", planted)


def sc(re, im=0):
    return Scalar(Fraction(re), Fraction(im))


def x(i, mode, rank, sector=Sector.UNTWISTED):
    return FockVector.variable(i, Fraction(mode), rank, sector)


def one(rank, sector=Sector.UNTWISTED):
    return FockVector.constant(1, rank, sector)


def lam_of(sector, rank, *rows):
    return LambdaSequence.make(sector, rank, [list(r) for r in rows])


def assert_canonical(terms):
    """Every stored value a reduced, nonzero Scalar."""
    for c in terms.values():
        assert type(c) is Scalar and c.d > 0 and (c.a or c.b), c
        assert gcd(c.a, c.b, c.d) == 1, (c.a, c.b, c.d)


def anisotropic_lambda(rng, rank, sector, max_r=3):
    """``random_lambda`` re-drawn until its top entry pairs to a nonzero value
    with itself, so a Whittaker type exists.  Each re-draw consumes the
    stream as one more ``random_lambda`` call does."""
    while True:
        lam = random_lambda(rng, rank, sector, max_r)
        top = lam.entries[-1]
        if bilinear(top, top):
            return lam
