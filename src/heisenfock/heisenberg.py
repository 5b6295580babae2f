"""Oscillator-mode actions on the polynomial Fock spaces.

The rank-l Heisenberg modes act on a Fock vector f through a finitely
supported sequence of vectors lambda_n in C^l:

* negative modes create:      h_i(-n) f = x[i,n] * f
* nonnegative modes annihilate:  h_i(n) f = (n * d/dx[i,n]) f + (lambda_n)_i * f

The basis h_1..h_l is orthonormal for the standard symmetric form, so every
pairing (lambda_n, h_i) is a plain coordinate lookup.  The central element
acts as the identity throughout (level one); it never appears explicitly.

The quadratic elements h_i(m) h_j(n) - (lambda_m, h_i)(lambda_n, h_j) with
positive m, n act by pure differential operators; ``quadratic_act`` applies
that closed form directly (a diagonal element, i = j and m = n, in two
kernel calls, d_im f and one over it, as case 3a of ``certify`` reads it),
while the two-step composition is kept as an independent cross-check
(``quadratic_check``, certificate replay and the test suites).  A
``QuadraticElement`` stores both of its modes doubled.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterator, Sequence

from ._record import Record
from .errors import BosonIndexError, SchemaError, SectorMismatchError
from .fock import (FockVector, ModeLike, Monomial, Sector,
                   _add_weighted_partial2, _check_boson, _check_parity,
                   _check_positive, doubled_mode)
from .scalars import ZERO, Scalar, as_scalar


class LambdaSequence(Record):
    """Finitely supported sequence of C^l vectors indexing a Fock action.

    Entry k sits at the doubled mode 2k + p, p = ``sector.parity``: at
    modes 0, 1, ..., r untwisted and 1/2, 3/2, ..., r - 1/2 twisted.
    Trailing zero vectors are trimmed on construction, so the last stored
    entry is always nonzero.
    """

    __slots__ = ("sector", "rank", "entries")

    def _check(self):
        if self.rank < 1:
            raise BosonIndexError(f"rank must be >= 1, got {self.rank}")

    @classmethod
    def make(cls, sector: Sector, rank: int,
             entries: Sequence[Sequence] = ()) -> "LambdaSequence":
        rows = []
        for entry in entries:
            row = tuple(as_scalar(v) for v in entry)
            if len(row) != rank:
                raise SchemaError(
                    f"lambda entry of length {len(row)} does not match rank {rank}")
            rows.append(row)
        while rows and not any(rows[-1]):
            rows.pop()
        return cls(sector, rank, tuple(rows))

    @classmethod
    def zero(cls, rank: int, sector: Sector = Sector.UNTWISTED) -> "LambdaSequence":
        return cls(sector, rank, ())

    # -- indexing -------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.entries

    @property
    def support_bound(self) -> int:
        """The bound r: top mode is r (untwisted) or r - 1/2 (twisted)."""
        return max(0, len(self.entries) - 1 + self.sector.parity)

    @property
    def top_doubled(self) -> int:
        """Doubled index of the last stored entry; 0 when empty."""
        if not self.entries:
            return 0
        return 2 * len(self.entries) - 2 + self.sector.parity

    def pair2(self, d2: int, i: int) -> Scalar:
        """(lambda_n, h_i) for the doubled mode d2: the i-th coordinate."""
        _check_boson(i, self.rank)
        slot = _check_parity(d2, self.sector) // 2
        if 0 <= slot < len(self.entries):
            return self.entries[slot][i - 1]
        return ZERO

    def positive_support2(self) -> Iterator[int]:
        """Doubled indices n > 0 with lambda_n nonzero, ascending."""
        p = self.sector.parity
        for slot, row in enumerate(self.entries):
            d2 = 2 * slot + p
            if d2 > 0 and any(row):
                yield d2

    def _check_vector(self, f: FockVector):
        if f.sector is not self.sector:
            raise SectorMismatchError(
                f"{self.sector.value} lambda data cannot act on a "
                f"{f.sector.value} vector")
        if f.rank != self.rank:
            raise SchemaError(
                f"lambda rank {self.rank} does not match vector rank {f.rank}")


# -- mode actions --------------------------------------------------------------

def act_mode(lam: LambdaSequence, i: int, mode: ModeLike,
             f: FockVector) -> FockVector:
    """Dispatch h_i(mode): negative modes create, the rest annihilate."""
    d2 = doubled_mode(mode, f.sector)
    if d2 >= 0:
        lam._check_vector(f)
    return act_mode2(lam, i, d2, f)


def act_mode2(lam: LambdaSequence, i: int, d2: int, f: FockVector) -> FockVector:
    """Doubled-integer fast path of ``act_mode`` (no parity re-checks)."""
    if d2 < 0:
        return f.times_variable(i, -d2)
    coeff = lam.pair2(d2, i)
    acc: Dict[Monomial, Scalar] = {}
    _add_weighted_partial2(acc, i, d2, f.terms, coeff if coeff else None)
    return FockVector(f.rank, f.sector, acc)


def commutator_check(i: int, j: int, m: ModeLike, n: ModeLike,
                     f: FockVector, lam: LambdaSequence) -> bool:
    """Exact check of [h_i(m), h_j(n)] f = m delta(m+n) delta(i,j) f."""
    md2 = doubled_mode(m, f.sector)
    nd2 = doubled_mode(n, f.sector)
    lhs = (act_mode2(lam, i, md2, act_mode2(lam, j, nd2, f))
           - act_mode2(lam, j, nd2, act_mode2(lam, i, md2, f)))
    if md2 + nd2 == 0 and i == j:
        rhs = f.scaled_fraction(Fraction(md2, 2))
    else:
        rhs = FockVector.zero(f.rank, f.sector)
    return lhs == rhs


# -- quadratic elements ----------------------------------------------------------

class QuadraticElement(Record):
    """h_i(m) h_j(n) - shift, with positive annihilation modes m, n of one
    sector, stored doubled: m2 = 2m, n2 = 2n."""

    __slots__ = ("i", "j", "m2", "n2", "sector", "shift")

    def _check(self):
        _check_positive(self.m2, self.sector)
        _check_positive(self.n2, self.sector)
        if self.i < 1 or self.j < 1:
            raise BosonIndexError(
                f"boson indices must be >= 1, got i={self.i}, j={self.j}")

    @classmethod
    def build(cls, lam: LambdaSequence, i: int, j: int,
              m: ModeLike, n: ModeLike) -> "QuadraticElement":
        """Construct with the canonical shift (lambda_m, h_i)(lambda_n, h_j)."""
        m2 = doubled_mode(m, lam.sector)
        n2 = doubled_mode(n, lam.sector)
        shift = lam.pair2(m2, i) * lam.pair2(n2, j)
        return cls(i, j, m2, n2, lam.sector, shift)


def quadratic_act(lam: LambdaSequence, q: QuadraticElement,
                  f: FockVector) -> FockVector:
    """Apply h_i(m) h_j(n) - (lambda_m,h_i)(lambda_n,h_j) in closed form.

    The closed form is the pure differential operator
    (lambda_m,h_i) d_jn + (lambda_n,h_j) d_im + d_im d_jn
    with d_in the weighted derivation; it agrees exactly with the two-step
    composition minus the canonical shift.  One kernel call takes d_jn f
    and a second applies (lambda_m,h_i) + d_im to it.  A diagonal element
    (i = j, m = n; case 3a of ``certify``) is (2 c_m + d_im) d_im, so its
    second call adds the whole shift and it needs no third; any other
    element adds (lambda_n,h_j) d_im f in a third call when that pairing is
    nonzero.
    """
    lam._check_vector(f)
    if q.sector is not f.sector:
        raise SectorMismatchError("quadratic element sector does not match vector")
    # the pairings check both boson indices before any derivation runs
    cm = lam.pair2(q.m2, q.i)
    cn = lam.pair2(q.n2, q.j)
    dj: Dict[Monomial, Scalar] = {}
    _add_weighted_partial2(dj, q.j, q.n2, f.terms)
    acc: Dict[Monomial, Scalar] = {}
    if q.i == q.j and q.m2 == q.n2:
        # d_im = d_jn and cn = cm, so cn * d_im f is cn * dj:
        # (cm + cn + d_im) dj in one pass, with no sum formed when cm = 0
        _add_weighted_partial2(acc, q.i, q.m2, dj, cm + cn if cm else None)
    else:
        # d_im d_jn f and cm * d_jn f in one pass, then cn * d_im f
        _add_weighted_partial2(acc, q.i, q.m2, dj, cm if cm else None)
        if cn:
            _add_weighted_partial2(acc, q.i, q.m2, f.terms, scale=cn)
    return FockVector(f.rank, f.sector, acc)


def _compose_quadratic(lam: LambdaSequence, q: QuadraticElement,
                       f: FockVector) -> FockVector:
    """h_i(m) h_j(n) f - shift * f by two oscillator actions."""
    composed = act_mode2(lam, q.i, q.m2, act_mode2(lam, q.j, q.n2, f))
    if not q.shift:
        return composed
    acc = dict(composed.terms)
    _add_weighted_partial2(acc, 0, 0, f.terms, -q.shift)
    return FockVector(f.rank, f.sector, acc)


def quadratic_check(lam: LambdaSequence, q: QuadraticElement,
                    f: FockVector) -> bool:
    """Exact check that the closed form equals the composition minus q.shift."""
    return quadratic_act(lam, q, f) == _compose_quadratic(lam, q, f)


# -- involutions and generators ---------------------------------------------------

def theta_involution(f: FockVector) -> FockVector:
    """Negate every generator: each monomial picks up (-1)^(variable count).

    On the untwisted vacuum space this is the order-two graph automorphism;
    on a twisted space it is the corresponding negation involution.  Either
    way it is an exact algebra involution.
    """
    terms = {}
    for mono, c in f.terms.items():
        k = sum(e for _, _, e in mono)
        terms[mono] = -c if k % 2 else c
    return FockVector(f.rank, f.sector, terms)


def j_generator(a: int, rank: int) -> FockVector:
    """The degree-four invariant x[a,1]^4 - 2 x[a,3] x[a,1] + (3/2) x[a,2]^2."""
    x1 = FockVector.variable(a, 1, rank)
    x2 = FockVector.variable(a, 2, rank)
    x3 = FockVector.variable(a, 3, rank)
    return x1 * x1 * x1 * x1 - 2 * (x3 * x1) + Fraction(3, 2) * (x2 * x2)
