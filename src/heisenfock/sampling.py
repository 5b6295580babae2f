"""Seeded random generators for the randomized identity suites.

Everything here is driven by a caller-supplied ``random.Random`` so that a
seed fully determines a run, in the CLI relations suite and in the tests
alike.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Optional

from .fock import FockVector, Sector
from .heisenberg import LambdaSequence
from .scalars import Scalar
from .whittaker import bilinear


def random_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))


def random_scalar(rng: Random) -> Scalar:
    re = random_rational(rng)
    im = random_rational(rng) if rng.random() < 0.5 else 0
    return Scalar(re, im)


def random_nonzero_scalar(rng: Random) -> Scalar:
    while True:
        s = random_scalar(rng)
        if s:
            return s


def _random_mode2(rng: Random, sector: Sector, budget2: int) -> Optional[int]:
    """A doubled mode of the sector's parity in 1..budget2, or None."""
    p = sector.parity
    if budget2 < 2 - p:
        return None
    return 2 * rng.randint(1 - p, (budget2 - p) // 2) + p


def random_fock(rng: Random, rank: int, sector: Sector,
                max_degree: int = 8, max_terms: int = 4,
                nonzero: bool = True) -> FockVector:
    """Random sparse vector with weight at most ``max_degree``."""
    while True:
        out = FockVector.zero(rank, sector)
        for _ in range(rng.randint(1, max_terms)):
            term = FockVector.constant(random_nonzero_scalar(rng), rank, sector)
            budget2 = 2 * max_degree
            for _ in range(rng.randint(0, 3)):
                d2 = _random_mode2(rng, sector, budget2)
                if d2 is None:
                    break
                term = term.times_variable(rng.randint(1, rank), d2)
                budget2 -= d2
            out = out + term
        if out or not nonzero:
            return out


def random_lambda(rng: Random, rank: int, sector: Sector,
                  max_r: int = 3, anisotropic_top: bool = False) -> LambdaSequence:
    """Random proper lambda data with support bound r in 1..max_r.

    The top entry, at a positive mode, is nonzero; ``anisotropic_top``
    re-draws until it pairs to a nonzero value with itself (so a Whittaker
    type exists).
    """
    while True:
        r = rng.randint(1, max_r)
        entries = []
        for _ in range(r + 1 - sector.parity):
            entries.append([random_scalar(rng) if rng.random() < 0.7 else 0
                            for _ in range(rank)])
        while not any(entries[-1]):
            entries[-1] = [random_scalar(rng) for _ in range(rank)]
        lam = LambdaSequence.make(sector, rank, entries)
        if anisotropic_top:
            top = lam.entry2(lam.top_doubled)
            if not bilinear(top, top):
                continue
        return lam
