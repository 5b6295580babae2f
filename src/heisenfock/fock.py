"""Sparse exact polynomials in the mode variables x[i,n].

A Fock vector is a finite linear combination of monomials in variables
``x[i,n]``, where ``i`` is a boson index in ``1..rank`` and ``n`` a positive
mode: a positive integer in the untwisted sector, a positive half-odd
integer in the twisted sector.  Monomials are graded by weight, with
``deg x[i,n] = n``; the zero vector has degree -inf.

Public functions take a mode as an ``int`` or ``Fraction`` (``ModeLike``)
and convert it once; below them a mode is only its *doubled* integer ``2n``,
checked by ``_check_parity`` and ``_check_positive``.  The sector fixes the
parity of every doubled mode, ``Sector.parity``: 0 untwisted, 1 twisted; the
other lattice facts (where lambda entry k sits, a type's epsilon) follow.

Values are immutable after construction; every operation returns a new
vector, so sharing across threads is safe.  A vector's degree is scanned
once, on its first read, and kept in the vector: the terms it derives from
never change.

    >>> f = FockVector.variable(1, 1, rank=2)
    >>> g = f * f + 3 * FockVector.variable(2, 2, rank=2)
    >>> g.degree
    Fraction(2, 1)
    >>> weighted_partial(1, 1, g) == 2 * f
    True
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .errors import BosonIndexError, ModeRangeError, SectorMismatchError
from .scalars import Scalar, _reduced, as_scalar

# A monomial maps each variable to its exponent, stored as a sorted tuple of
# (boson index, doubled mode, exponent) triples.  The empty tuple is the
# constant monomial 1.
Monomial = Tuple[Tuple[int, int, int], ...]

ModeLike = Union[int, Fraction]

NEG_INFINITY = float("-inf")


class Sector(str, Enum):
    UNTWISTED = "untwisted"
    TWISTED = "twisted"

    def __init__(self, value: str):
        # a plain attribute, not a property: it is read on every mode action
        self.parity = 0 if value == "untwisted" else 1


def _doubled_value(mode: ModeLike) -> int:
    """Convert a mode in (1/2)Z to its doubled integer, whatever its parity."""
    if isinstance(mode, int):
        return 2 * mode
    q = mode if type(mode) is Fraction else Fraction(mode)
    if q.denominator == 1:
        return 2 * q.numerator
    if q.denominator != 2:
        raise ModeRangeError(f"mode {mode} is not in (1/2)Z")
    return q.numerator


def _check_parity(d2: int, sector: Sector) -> int:
    """The doubled mode d2, refused unless it has the sector's parity."""
    if d2 % 2 != sector.parity:
        raise ModeRangeError(f"mode {Fraction(d2, 2)} not {sector.value}")
    return d2


def _check_positive(d2: int, sector: Sector) -> int:
    """The doubled mode d2, refused unless it is a positive mode of sector."""
    if _check_parity(d2, sector) <= 0:
        raise ModeRangeError(f"mode must be positive, got {mode_text(d2)}")
    return d2


def doubled_mode(mode: ModeLike, sector: Sector) -> int:
    """Convert a mode in (1/2)Z to its doubled integer, checking parity."""
    return _check_parity(_doubled_value(mode), sector)


def mode_text(d2: int) -> str:
    """Mode as an integer or ``k/2`` string."""
    return str(d2 // 2) if d2 % 2 == 0 else f"{d2}/2"


def monomial_key(mono: Monomial):
    """Graded-lexicographic sort key: degree, then boson index, then mode.

    It orders as the variable list with each x[i,n] written out e times:
    at equal degree neither list can end where the other goes on, so the
    larger exponent of a shared variable sorts first.
    """
    degree2, variables = 0, []
    for i, d2, e in mono:
        degree2 += d2 * e
        variables.append((i, d2, -e))
    return degree2, variables


class FockVector:
    """Finite exact linear combination of x[i,n] monomials of one sector."""

    # _degree2 is filled on the first read of the degree and never cleared
    __slots__ = ("rank", "sector", "terms", "_degree2")

    def __init__(self, rank: int, sector: Sector, terms: Dict[Monomial, Scalar]):
        if rank < 1:
            raise BosonIndexError(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.sector = sector
        self.terms = terms  # never mutated after construction

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, rank: int, sector: Sector = Sector.UNTWISTED) -> "FockVector":
        return cls(rank, sector, {})

    @classmethod
    def constant(cls, value, rank: int,
                 sector: Sector = Sector.UNTWISTED) -> "FockVector":
        c = as_scalar(value)
        return cls(rank, sector, {(): c} if c else {})

    @classmethod
    def variable(cls, i: int, mode: ModeLike, rank: int,
                 sector: Sector = Sector.UNTWISTED) -> "FockVector":
        """The single variable x[i, mode]."""
        d2 = _check_positive(_doubled_value(mode), sector)
        _check_boson(i, rank)
        return cls(rank, sector, {((i, d2, 1),): as_scalar(1)})

    # -- ring operations ------------------------------------------------------

    def __add__(self, other) -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(acc, mono, c)
        return FockVector(self.rank, self.sector, acc)

    def __sub__(self, other) -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        for mono, c in other.terms.items():
            _accumulate(acc, mono, -c)
        return FockVector(self.rank, self.sector, acc)

    def __neg__(self) -> "FockVector":
        return FockVector(self.rank, self.sector,
                          {m: -c for m, c in self.terms.items()})

    def __mul__(self, other) -> "FockVector":
        if isinstance(other, FockVector):
            self._check_compatible(other)
            acc: Dict[Monomial, Scalar] = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    _accumulate(acc, _merge_monomials(m1, m2), c1 * c2)
            return FockVector(self.rank, self.sector, acc)
        return self.scaled(other)

    def __rmul__(self, other) -> "FockVector":
        return self.scaled(other)

    def scaled(self, value) -> "FockVector":
        c = as_scalar(value)
        if not c:
            return FockVector.zero(self.rank, self.sector)
        return FockVector(self.rank, self.sector,
                          {m: v * c for m, v in self.terms.items()})

    def scaled_fraction(self, q: Fraction) -> "FockVector":
        if not q:
            return FockVector.zero(self.rank, self.sector)
        return FockVector(self.rank, self.sector,
                          {m: v.scale(q) for m, v in self.terms.items()})

    def times_variable(self, i: int, d2: int) -> "FockVector":
        """Multiply by x[i, d2/2]; fast path used by creation operators."""
        _check_boson(i, self.rank)
        return FockVector(self.rank, self.sector,
                          {_insert_variable(m, i, d2): c
                           for m, c in self.terms.items()})

    # -- structure -------------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return (self.rank == other.rank and self.sector == other.sector
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.rank, self.sector, frozenset(self.terms.items())))

    @property
    def degree2(self) -> Union[int, float]:
        """Doubled degree, or -inf for the zero vector; scanned once."""
        try:
            return self._degree2
        except AttributeError:
            pass
        best = NEG_INFINITY
        for mono in self.terms:
            d = 0
            for _, d2, e in mono:
                d += d2 * e
            if d > best:
                best = d
        self._degree2 = best
        return best

    @property
    def degree(self) -> Union[Fraction, float]:
        d2 = self.degree2
        return d2 if d2 == NEG_INFINITY else Fraction(d2, 2)

    def constant_coefficient(self) -> Scalar:
        return self.terms.get((), as_scalar(0))

    def max_mode2(self) -> int:
        """Largest doubled mode of any variable present (0 if constant/zero)."""
        best = 0
        for mono in self.terms:
            for _, d2, _ in mono:
                if d2 > best:
                    best = d2
        return best

    def leading_monomial(self) -> Monomial:
        if not self.terms:
            raise ValueError("zero vector has no leading monomial")
        return max(self.terms, key=monomial_key)

    def sorted_terms(self):
        """Terms in descending graded-lexicographic order (leading first)."""
        return sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]),
                      reverse=True)

    def _check_compatible(self, other: "FockVector"):
        if self.sector is not other.sector:
            raise SectorMismatchError(
                f"cannot combine {self.sector.value} and {other.sector.value} vectors")
        if self.rank != other.rank:
            raise BosonIndexError(
                f"cannot combine vectors of rank {self.rank} and {other.rank}")

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in self.sorted_terms():
            cs = str(c)
            if any(ch in cs[1:] for ch in "+-") or "i" in cs:
                cs = f"({cs})"
            parts.append(cs if mono == () else f"{cs}*{monomial_text(mono)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"<FockVector {self}>"


def monomial_text(mono: Monomial) -> str:
    """Canonical text form: ``x[i,n]^e`` factors joined by ``*``; ``1`` if empty."""
    if not mono:
        return "1"
    return "*".join([_factor_text(i, d2, e) for i, d2, e in mono])


def _factor_text(i: int, d2: int, e: int) -> str:
    """One factor of a monomial's text: ``x[i,n]``, or ``x[i,n]^e`` for e > 1."""
    base = f"x[{i},{mode_text(d2)}]"
    return base if e == 1 else f"{base}^{e}"


def _check_boson(i: int, rank: int):
    if not 1 <= i <= rank:
        raise BosonIndexError(f"boson index {i} outside 1..{rank}")


def _accumulate(acc: Dict[Monomial, Scalar], mono: Monomial, c: Scalar):
    prev = acc.get(mono)
    if prev is None:
        if c:
            acc[mono] = c
        return
    s = prev + c
    if s:
        acc[mono] = s
    else:
        del acc[mono]


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials."""
    if not m1:
        return m2
    if not m2:
        return m1
    return _sorted_monomial(m1 + m2)


def _sorted_monomial(factors) -> Monomial:
    """The monomial of nonempty (i, d2, e) factors in any order: one sort,
    then the exponents of equal variables added."""
    merged = sorted(factors)
    out = [merged[0]]
    for factor in merged[1:]:
        i, d2, e = out[-1]
        if factor[0] == i and factor[1] == d2:
            out[-1] = (i, d2, e + factor[2])
        else:
            out.append(factor)
    return tuple(out)


def _insert_variable(mono: Monomial, i: int, d2: int) -> Monomial:
    key = (i, d2)
    for pos, (bi, bd2, e) in enumerate(mono):
        if (bi, bd2) == key:
            return mono[:pos] + ((bi, bd2, e + 1),) + mono[pos + 1:]
        if (bi, bd2) > key:
            return mono[:pos] + ((i, d2, 1),) + mono[pos:]
    return mono + ((i, d2, 1),)


def weighted_partial(i: int, mode: ModeLike, f: FockVector) -> FockVector:
    """Apply the weighted derivation n * d/dx[i,n] with n = mode.

    Every surviving term drops in degree by exactly n.
    """
    d2 = _check_positive(_doubled_value(mode), f.sector)
    _check_boson(i, f.rank)
    return _weighted_partial2(i, d2, f)


def _weighted_partial2(i: int, d2: int, f: FockVector,
                       shift: Optional[Scalar] = None) -> FockVector:
    """(n * d/dx[i,n] + shift) f for the doubled mode d2 = 2n, in one pass.

    The caller has checked the mode and the boson index; a ``shift`` of
    None adds nothing.
    """
    acc: Dict[Monomial, Scalar] = {}
    _add_weighted_partial2(acc, i, d2, f, shift)
    return FockVector(f.rank, f.sector, acc)


def _add_weighted_partial2(acc: Dict[Monomial, Scalar], i: int, d2: int,
                           f: FockVector, shift: Optional[Scalar] = None,
                           scale: Optional[Scalar] = None) -> None:
    """Add (scale * n * d/dx[i,n] + shift) f into the terms ``acc``.

    None stands for a ``scale`` of 1 and a ``shift`` of 0.  A term with
    x[i,n]^e is scaled by n * e, the integer d2 * e over 2.
    """
    for mono, c in f.terms.items():
        if shift is not None:
            _accumulate(acc, mono, c * shift)
        for pos, (bi, bd2, e) in enumerate(mono):
            if bi == i and bd2 == d2:
                if e == 1:
                    reduced = mono[:pos] + mono[pos + 1:]
                else:
                    reduced = mono[:pos] + ((bi, bd2, e - 1),) + mono[pos + 1:]
                if scale is not None:
                    c = c * scale
                m = d2 * e
                _accumulate(acc, reduced, _reduced(c.a * m, c.b * m, 2 * c.d))
                break
