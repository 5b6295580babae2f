"""Differential test of the ring layer against sympy's Gaussian rationals.

Seeded random ``FockVector``s of ranks 1-3 in both sectors are mirrored in
``sympy.polys.rings.ring(..., QQ_I)`` with one generator per (boson,
doubled mode).  Sums, differences, negation, products, ``scaled`` (also
by 0), ``scaled_fraction``, ``times_variable`` and ``weighted_partial`` must
give exactly the same coefficient dict on both sides.
"""

from fractions import Fraction
from random import Random

import pytest
from sympy.polys.domains import QQ, QQ_I
from sympy.polys.rings import ring

from heisenfock import FockVector, Sector, weighted_partial
from heisenfock.sampling import random_fock, random_scalar

MAX_DEGREE = 4
TRIALS = 100


def _variables(rank, sector):
    first = 1 if sector is Sector.TWISTED else 2
    return [(i, d2) for i in range(1, rank + 1)
            for d2 in range(first, 2 * MAX_DEGREE + 1, 2)]


def _gaussian(s):
    return QQ_I(QQ(s.re.numerator, s.re.denominator),
                QQ(s.im.numerator, s.im.denominator))


def _to_sympy(f: FockVector, R, index):
    terms = {}
    for mono, c in f.terms.items():
        exps = [0] * len(index)
        for i, d2, e in mono:
            exps[index[(i, d2)]] = e
        terms[tuple(exps)] = _gaussian(c)
    return R.from_dict(terms)


def _fock_dict(f: FockVector, variables):
    out = {}
    for mono, c in f.terms.items():
        exps = dict(((i, d2), e) for i, d2, e in mono)
        out[tuple(exps.get(v, 0) for v in variables)] = (c.re, c.im)
    return out


def _sympy_dict(p):
    return {exps: (Fraction(int(c.x.numerator), int(c.x.denominator)),
                   Fraction(int(c.y.numerator), int(c.y.denominator)))
            for exps, c in p.items()}


@pytest.mark.parametrize("sector", [Sector.UNTWISTED, Sector.TWISTED],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_ring_operations_match_sympy(rank, sector):
    rng = Random(20261018 + 10 * rank + (sector is Sector.TWISTED))
    variables = _variables(rank, sector)
    index = {v: n for n, v in enumerate(variables)}
    R, *gens = ring([f"x{i}_{d2}" for i, d2 in variables], QQ_I)

    def check(f, p):
        assert _fock_dict(f, variables) == _sympy_dict(p)

    kinds = set()
    for _ in range(TRIALS):
        f = random_fock(rng, rank, sector, max_degree=MAX_DEGREE, nonzero=False)
        g = random_fock(rng, rank, sector, max_degree=MAX_DEGREE, nonzero=False)
        pf, pg = _to_sympy(f, R, index), _to_sympy(g, R, index)
        check(f, pf)
        check(f + g, pf + pg)
        check(f - g, pf - pg)
        check(f - f, pf - pf)
        check(f * g, pf * pg)
        s = random_scalar(rng)
        check(f.scaled(s), pf * _gaussian(s))
        check(-f, -pf)
        check(0 * f, pf * 0)
        check(f.scaled(0), pf * 0)
        q = Fraction(rng.randint(-12, 12), rng.randint(1, 12))
        check(f.scaled_fraction(q), pf * QQ_I(QQ(q.numerator, q.denominator),
                                               QQ(0)))
        # a creator f holds, when it holds one, and one it does not
        held = sorted({(i, d2) for mono in f.terms for i, d2, _ in mono})
        absent = [v for v in variables if v not in held]
        creators = (rng.sample(held, min(1, len(held)))
                    + rng.sample(absent, min(1, len(absent))))
        for i, d2 in creators:
            check(f.times_variable(i, d2), pf * gens[index[(i, d2)]])
            kinds.add((i, d2) in held)
        i, d2 = rng.choice(variables)
        check(weighted_partial(i, Fraction(d2, 2), f),
              pf.diff(gens[index[(i, d2)]]) * QQ_I(QQ(d2, 2), QQ(0)))
    assert kinds == {True, False}
