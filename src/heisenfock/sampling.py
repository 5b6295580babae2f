"""Seeded random generators and trials for the randomized identity suites.

Everything here is driven by a caller-supplied ``random.Random`` so that a
seed fully determines a run, in the relations suite ``run_suites`` and in
the tests alike.  Nothing here imports ``whittaker``: a ``relations``
request loads ``sampling``, ``vertex`` and the layers below them.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Optional

from .fock import FockVector, Sector
from .heisenberg import (LambdaSequence, QuadraticElement, commutator_check,
                         quadratic_check)
from .scalars import Scalar
from .vertex import binom_mode_identity_check, virasoro_bracket_check


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
                  max_r: int = 3) -> LambdaSequence:
    """Random proper lambda data with support bound r in 1..max_r; the top
    entry, at a positive mode, is nonzero."""
    r = rng.randint(1, max_r)
    entries = []
    for _ in range(r + 1 - sector.parity):
        entries.append([random_scalar(rng) if rng.random() < 0.7 else 0
                        for _ in range(rank)])
    while not any(entries[-1]):
        entries[-1] = [random_scalar(rng) for _ in range(rank)]
    return LambdaSequence.make(sector, rank, entries)


def random_mode_pair(rng: Random, sector: Sector, bound: int):
    """Two modes of the sector's parity, each of absolute value <= bound."""
    p = sector.parity
    values = [Fraction(2 * v + p, 2) for v in range(-bound, bound + 1 - p)]
    return rng.choice(values), rng.choice(values)


# -- relations trials: each draws its inputs from rng and returns whether its
# identity held, or None when the draw gives nothing to check.

def commutator_trial(rng: Random, rank: int, sector: Sector, bound: int):
    lam = random_lambda(rng, rank, sector)
    f = random_fock(rng, rank, sector, max_degree=6)
    i = rng.randint(1, rank)
    j = rng.randint(1, rank)
    m, n = random_mode_pair(rng, sector, bound)
    return commutator_check(i, j, m, n, f, lam)


def quadratic_trial(rng: Random, rank: int, sector: Sector, bound: int):
    lam = random_lambda(rng, rank, sector)
    f = random_fock(rng, rank, sector, max_degree=6)
    # a whole pair per mode, half of it unused: a seed's report counts draws
    m = abs(random_mode_pair(rng, sector, bound)[0])
    n = abs(random_mode_pair(rng, sector, bound)[0])
    if not m or not n:
        return None
    q = QuadraticElement.build(lam, rng.randint(1, rank),
                               rng.randint(1, rank), m, n)
    return quadratic_check(lam, q, f)


def virasoro_trial(rng: Random, rank: int, sector: Sector, bound: int):
    lam = random_lambda(rng, rank, sector, max_r=2)
    f = random_fock(rng, rank, sector, max_degree=4, max_terms=2)
    m = rng.randint(-bound, bound)
    n = rng.randint(-bound, bound)
    return virasoro_bracket_check(m, n, f, lam)


def binom_trial(rng: Random, rank: int, sector: Sector, bound: int):
    """The binomial transfer identity; ``bound`` is not used."""
    bound_m = rng.randint(0, 2)
    lam = LambdaSequence.zero(rank)
    if bound_m > 0 and rng.random() < 0.7:
        lam = random_lambda(rng, rank, sector, max_r=bound_m)
    u = random_fock(rng, rank, sector, max_degree=bound_m,
                    max_terms=2, nonzero=False)
    p, q = rng.randint(0, 2), rng.randint(0, 2)
    n = rng.randint(-2, 2 * bound_m + 2)
    a, b = rng.randint(1, rank), rng.randint(1, rank)
    return binom_mode_identity_check(a, b, p, q, n, u, lam, bound_m)


def run_suites(seed: int, rank: int, bound: int, trials: int) -> dict:
    """Per suite, the trials ``checked`` and their ``failures``, from one seed:
    commutator and quadratic run ``trials`` times per sector, virasoro
    ``max(1, trials // 5)`` times per sector, binom as often but untwisted."""
    rng = Random(seed)
    both = (Sector.UNTWISTED, Sector.TWISTED)
    light = max(1, trials // 5)
    plan = (("commutator", commutator_trial, both, trials),
            ("quadratic", quadratic_trial, both, trials),
            ("virasoro", virasoro_trial, both, light),
            ("binom", binom_trial, (Sector.UNTWISTED,), light))
    suites = {}
    for name, trial, sectors, count in plan:
        results = [trial(rng, rank, sector, bound)
                   for sector in sectors for _ in range(count)]
        checked = [ok for ok in results if ok is not None]
        suites[name] = {"checked": len(checked),
                        "failures": sum(not ok for ok in checked)}
    return suites
