"""Seeded input generator for the benchmark workloads.

Standard library only: it never imports ``heisenfock``, so a change to the
package (its sampling helpers included) cannot change the inputs.  Every
input is a JSON document in the package's version-1 schemas
(``docs/schemas.md``); the workloads hand the documents to the public
parsers or write them to files for the CLI.

Every input draws its *shape* (ranks, sectors, monomials, modes, support
patterns) from a stream fixed per workload and its *values* (coefficients)
from the stream of the seed.  Runs with different seeds therefore get
different inputs that cost the same work, so the spread between seeds
measures the machine, not the luck of the draw.

Exact values are pairs ``(re, im)`` of ``Fraction`` while they are built and
canonical text (``a+bi``) once they are written into a document.  Modes are
kept doubled (``2n``) as in the package, so both sectors share integer
arithmetic: untwisted modes are even, twisted modes odd.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random
from typing import Dict, List, Sequence, Tuple

UNTWISTED = "untwisted"
TWISTED = "twisted"
SECTORS = (UNTWISTED, TWISTED)

Gaussian = Tuple[Fraction, Fraction]
# monomial: sorted tuple of (boson index, doubled mode, exponent)
Monomial = Tuple[Tuple[int, int, int], ...]

ZERO: Gaussian = (Fraction(0), Fraction(0))
SPAN = 3  # numerators of generated rationals lie in [-SPAN, SPAN]
MAX_FACTORS = 3  # factors of a random_vector monomial
MAX_PART = 3  # largest mode of a random_state factor
DENSE_MODE = 4  # largest mode of a dense_vector variable


def stream(workload: str, seed: int, repeat: int) -> Random:
    """The value stream of one workload for one seed and one pass over its
    operations: every pass of a run draws fresh values for the same shapes."""
    return Random(f"heisenfock-bench/{workload}/{seed}/{repeat}")


def shapes(workload: str) -> Random:
    """The shape stream of one workload, the same for every seed."""
    return Random(f"heisenfock-bench/{workload}/shapes")


# -- exact scalars ------------------------------------------------------------

def rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(-SPAN, SPAN), rng.choice((1, 2, 3)))


def positive_rational(rng: Random) -> Fraction:
    return Fraction(rng.randint(1, SPAN), rng.choice((1, 2, 3)))


def gaussian(rng: Random) -> Gaussian:
    im = rational(rng) if rng.random() < 0.5 else Fraction(0)
    return (rational(rng), im)


def nonzero_gaussian(rng: Random) -> Gaussian:
    while True:
        z = gaussian(rng)
        if z != ZERO:
            return z


def g_add(a: Gaussian, b: Gaussian) -> Gaussian:
    return (a[0] + b[0], a[1] + b[1])


def g_mul(a: Gaussian, b: Gaussian) -> Gaussian:
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def bilinear(u: Sequence[Gaussian], v: Sequence[Gaussian]) -> Gaussian:
    acc = ZERO
    for a, b in zip(u, v):
        acc = g_add(acc, g_mul(a, b))
    return acc


def scalar_text(z: Gaussian) -> str:
    """Canonical ``a+bi`` text of docs/schemas.md (``1/2-3/4i``, ``2``, ``-i``)."""
    re, im = z
    if im == 0:
        return str(re)
    mag = -im if im < 0 else im
    imag = "i" if mag == 1 else f"{mag}i"
    if re == 0:
        return imag if im > 0 else "-" + imag
    return f"{re}{'+' if im > 0 else '-'}{imag}"


# -- documents ----------------------------------------------------------------

def mode_text(d2: int) -> str:
    return str(Fraction(d2, 2))


def monomial_text(mono: Monomial) -> str:
    if not mono:
        return "1"
    parts = []
    for i, d2, e in mono:
        base = f"x[{i},{mode_text(d2)}]"
        parts.append(base if e == 1 else f"{base}^{e}")
    return "*".join(parts)


def vector_doc(rank: int, sector: str, terms: Dict[Monomial, Gaussian]) -> dict:
    return {"schema": "vector/1", "sector": sector, "rank": rank,
            "terms": [{"monomial": monomial_text(m), "coeff": scalar_text(c)}
                      for m, c in sorted(terms.items())]}


def lambda_doc(sector: str, rank: int,
               entries: Sequence[Sequence[Gaussian]]) -> dict:
    return {"schema": "lambda/1", "sector": sector, "rank": rank,
            "entries": [[[str(re), str(im)] for re, im in row]
                        for row in entries]}


def zeta_doc(sector: str, r: int, zeta: Sequence[Gaussian]) -> dict:
    return {"schema": "type/1", "sector": sector, "r": r,
            "zeta": [scalar_text(z) for z in zeta]}


# -- polynomials --------------------------------------------------------------

def merge(m1: Monomial, m2: Monomial) -> Monomial:
    exps: Dict[Tuple[int, int], int] = {}
    for i, d2, e in m1 + m2:
        exps[(i, d2)] = exps.get((i, d2), 0) + e
    return tuple((i, d2, e) for (i, d2), e in sorted(exps.items()))


def random_mode2(rng: Random, sector: str, max_mode2: int) -> int:
    """A positive doubled mode of the sector, at most ``max_mode2``."""
    if sector == UNTWISTED:
        return 2 * rng.randint(1, max_mode2 // 2)
    return 2 * rng.randint(0, (max_mode2 - 1) // 2) + 1


def random_vector(shape: Random, rng: Random, rank: int, sector: str,
                  max_weight: int, max_terms: int) -> dict:
    """Nonzero sparse vector: each term has weight at most ``max_weight``."""
    monomials: List[Monomial] = []
    for _ in range(shape.randint(1, max_terms)):
        mono: Monomial = ()
        budget2 = 2 * max_weight
        for _ in range(shape.randint(0, MAX_FACTORS)):
            if budget2 < (2 if sector == UNTWISTED else 1):
                break
            d2 = random_mode2(shape, sector, budget2)
            mono = merge(mono, ((shape.randint(1, rank), d2, 1),))
            budget2 -= d2
        if mono not in monomials:
            monomials.append(mono)
    return vector_doc(rank, sector, {m: nonzero_gaussian(rng) for m in monomials})


def dense_vector(shape: Random, rng: Random, rank: int, sector: str,
                 factors: int, width: int) -> dict:
    """Product of ``factors`` linear forms, each a constant plus the same
    ``width`` variables of the sector, times a Gaussian: hundreds of terms,
    with coefficients that grow with every factor.  The forms' coefficients
    are positive, so no term cancels and the terms are the same for every
    seed."""
    variables: List[Tuple[int, int]] = []
    while len(variables) < width:
        v = (shape.randint(1, rank), random_mode2(shape, sector, 2 * DENSE_MODE))
        if v not in variables:
            variables.append(v)
    terms: Dict[Monomial, Fraction] = {(): Fraction(1)}
    for _ in range(factors):
        form = {(): positive_rational(rng)}
        for i, d2 in variables:
            form[((i, d2, 1),)] = positive_rational(rng)
        product: Dict[Monomial, Fraction] = {}
        for m1, c1 in terms.items():
            for m2, c2 in form.items():
                m = merge(m1, m2)
                product[m] = product.get(m, 0) + c1 * c2
        terms = product
    z = nonzero_gaussian(rng)
    return vector_doc(rank, sector, {m: (c * z[0], c * z[1]) for m, c in terms.items()})


def random_state(shape: Random, rng: Random, rank: int, weight: int,
                 count: int) -> dict:
    """Untwisted state: 1-2 monomials of one weight, each ``count`` factors.

    A twisted mode of a state is half-odd or integral by the parity of its
    factor count, so every monomial of one state shares that count.  The
    factor count also sets the cost of a mode: the engine enumerates
    ``count - 1`` nested mode choices.
    """
    if not count <= weight <= count * MAX_PART:
        raise ValueError(f"no weight-{weight} monomial with {count} factors")
    monomials: List[Monomial] = []
    for _ in range(shape.randint(1, 2)):
        parts = [1] * count
        for _ in range(weight - count):
            parts[shape.choice([k for k in range(count) if parts[k] < MAX_PART])] += 1
        mono: Monomial = ()
        for p in parts:
            mono = merge(mono, ((shape.randint(1, rank), 2 * p, 1),))
        if mono not in monomials:
            monomials.append(mono)
    return vector_doc(rank, UNTWISTED, {m: nonzero_gaussian(rng) for m in monomials})


# -- lambda data and Whittaker types ------------------------------------------

def random_lambda(shape: Random, rng: Random, rank: int, sector: str,
                  max_r: int, anisotropic_top: bool = False) -> Tuple[dict, list]:
    """Proper lambda data: the entry of top (positive) mode is nonzero.

    With ``anisotropic_top`` the top entry also pairs to a nonzero value with
    itself, so a Whittaker type exists.  Returns the document and the rows.
    """
    r = shape.randint(1, max_r)
    count = r + 1 if sector == UNTWISTED else r
    pattern = [[shape.random() < 0.7 for _ in range(rank)] for _ in range(count)]
    if not any(pattern[-1]):
        pattern[-1][shape.randrange(rank)] = True
    while True:
        rows = [[nonzero_gaussian(rng) if p else ZERO for p in row]
                for row in pattern]
        if not anisotropic_top or bilinear(rows[-1], rows[-1]) != ZERO:
            return lambda_doc(sector, rank, rows), rows


def isotropic_lambda(rng: Random, sector: str) -> dict:
    """Rank-2 lambda data whose top entry pairs to zero with itself."""
    a = nonzero_gaussian(rng)
    top = [a, (-a[1], a[0])]  # (a, i*a): a^2 + (i a)^2 = 0
    count = 2 if sector == UNTWISTED else 1
    rows = [[nonzero_gaussian(rng), nonzero_gaussian(rng)]
            for _ in range(count - 1)] + [top]
    return lambda_doc(sector, 2, rows)


def type_of(sector: str, rows: Sequence[Sequence[Gaussian]]) -> Tuple[int, list]:
    """Closed-form Whittaker type: zeta_i = 1/2 sum_{m+n=i-1} (lambda_m, lambda_n).

    ``rows`` is trimmed of trailing zero entries.  Returns (r, zeta) with
    zeta listing the indices r+1 .. 2r+eps.
    """
    rows = list(rows)
    while rows and all(z == ZERO for z in rows[-1]):
        rows.pop()
    start, eps = (0, 1) if sector == UNTWISTED else (1, 0)
    r = len(rows) - 1 if sector == UNTWISTED else len(rows)
    by_mode2 = {start + 2 * s: row for s, row in enumerate(rows)}
    zeta = []
    for i in range(r + 1, 2 * r + eps + 1):
        acc = ZERO
        for m2, row in by_mode2.items():
            other = by_mode2.get(2 * (i - 1) - m2)
            if other is not None:
                acc = g_add(acc, bilinear(row, other))
        zeta.append((acc[0] / 2, acc[1] / 2))
    return r, zeta


def exact_zeta(rng: Random, sector: str, r: int) -> list:
    """A type whose top value is s^2/2, so its exact fiber needs no new roots."""
    s = nonzero_gaussian(rng)
    top = g_mul(s, s)
    lower = [gaussian(rng) for _ in range(r + (1 if sector == UNTWISTED else 0) - 1)]
    return lower + [(top[0] / 2, top[1] / 2)]
