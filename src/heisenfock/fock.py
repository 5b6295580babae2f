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

Every coefficient written goes through one loop, the weighted-derivation
kernel ``_add_weighted_partial2``; each ring operation is its shift pass.

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

from bisect import bisect_left
from enum import Enum
from fractions import Fraction
from typing import Dict, Optional, Tuple, Union

from .errors import (BosonIndexError, ModeRangeError, SectorMismatchError,
                     _quoted)
from .scalars import ONE, Scalar, _ratio_text, _reduced, as_scalar

# A monomial maps each variable to its exponent, stored as a sorted tuple of
# (boson index, doubled mode, exponent) triples.  The empty tuple is the
# constant monomial 1.
Monomial = Tuple[Tuple[int, int, int], ...]

ModeLike = Union[int, Fraction]

NEG_INFINITY = float("-inf")

_MINUS_ONE = -ONE


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
        raise ModeRangeError(f"mode {_mode_quoted(d2)} not {sector.value}")
    return d2


def _check_integer(d2: int) -> int:
    """The doubled mode d2, refused in either sector unless it is an integer."""
    if d2 % 2:
        raise ModeRangeError(f"mode {_mode_quoted(d2)} is not an integer")
    return d2


def _check_positive(d2: int, sector: Sector) -> int:
    """The doubled mode d2, refused unless it is a positive mode of sector."""
    if _check_parity(d2, sector) <= 0:
        raise ModeRangeError(f"mode must be positive, got {_mode_quoted(d2)}")
    return d2


def _mode_quoted(d2: int) -> str:
    """``mode_text(d2)`` for an error message, its digits cut by ``_quoted``."""
    return _quoted(d2 // 2) if d2 % 2 == 0 else _quoted(d2) + "/2"


def doubled_mode(mode: ModeLike, sector: Sector) -> int:
    """Convert a mode in (1/2)Z to its doubled integer, checking parity."""
    return _check_parity(_doubled_value(mode), sector)


def mode_text(d2: int) -> str:
    """Mode as an integer or ``k/2`` string."""
    return _ratio_text(d2, 2)


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
        _add_weighted_partial2(acc, 0, 0, other.terms, ONE)
        return FockVector(self.rank, self.sector, acc)

    def __sub__(self, other) -> "FockVector":
        if not isinstance(other, FockVector):
            return NotImplemented
        self._check_compatible(other)
        acc = dict(self.terms)
        _add_weighted_partial2(acc, 0, 0, other.terms, _MINUS_ONE)
        return FockVector(self.rank, self.sector, acc)

    def __neg__(self) -> "FockVector":
        acc: Dict[Monomial, Scalar] = {}
        _add_weighted_partial2(acc, 0, 0, self.terms, _MINUS_ONE)
        return FockVector(self.rank, self.sector, acc)

    def __mul__(self, other) -> "FockVector":
        if isinstance(other, FockVector):
            self._check_compatible(other)
            acc: Dict[Monomial, Scalar] = {}
            # c1 * m1 * other is the kernel's shift term c1 with creators m1
            # and no derivative (d2 = 0)
            for m1, c1 in self.terms.items():
                _add_weighted_partial2(acc, 0, 0, other.terms, c1, None, m1)
            return FockVector(self.rank, self.sector, acc)
        return self.scaled(other)

    def __rmul__(self, other) -> "FockVector":
        return self.scaled(other)

    def scaled(self, value) -> "FockVector":
        c = as_scalar(value)
        acc: Dict[Monomial, Scalar] = {}
        if c:  # the kernel stores a fresh product unchecked
            _add_weighted_partial2(acc, 0, 0, self.terms, c)
        return FockVector(self.rank, self.sector, acc)

    def scaled_fraction(self, q: Fraction) -> "FockVector":
        acc: Dict[Monomial, Scalar] = {}
        if q:
            _add_weighted_partial2(acc, 0, 0, self.terms,
                                   _reduced(q.numerator, 0, q.denominator))
        return FockVector(self.rank, self.sector, acc)

    def times_variable(self, i: int, d2: int) -> "FockVector":
        """Multiply by x[i, d2/2]; fast path used by creation operators."""
        _check_positive(d2, self.sector)
        _check_boson(i, self.rank)
        acc: Dict[Monomial, Scalar] = {}
        _add_weighted_partial2(acc, 0, 0, self.terms, ONE, None, ((i, d2, 1),))
        return FockVector(self.rank, self.sector, acc)

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
    return base if e == 1 else f"{base}^{_ratio_text(e, 1)}"


def _check_boson(i: int, rank: int):
    if not 1 <= i <= rank:
        raise BosonIndexError(f"boson index {i} outside 1..{rank}")


def _accumulate_raw(acc: Dict[Monomial, Scalar], mono: Monomial, prev: Scalar,
                    a: int, b: int, d: int):
    """Add the raw Gaussian rational (a + b*i)/d, d > 0 and not reduced, to
    prev, the Scalar in the slot mono of acc: one reduction of the sum, and
    the slot emptied at zero.  A fresh slot takes ``_reduced(a, b, d)``,
    stored by the caller: inline, that store gave the ``certify`` benchmark
    about 4% more operations per second than a call of this one per write
    (BENCH_fused_reduction.json)."""
    pd = prev.d
    if pd == d:
        a += prev.a
        b += prev.b
    else:
        a = a * pd + prev.a * d
        b = b * pd + prev.b * d
        d *= pd
    if a or b:
        acc[mono] = _reduced(a, b, d)
    else:
        del acc[mono]


def _merge_monomials(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two monomials: a single factor of m2 is placed by
    ``_insert_variable``, more are merged by one sort."""
    if not m1:
        return m2
    if not m2:
        return m1
    if len(m2) == 1:
        return _insert_variable(m1, *m2[0])
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


def _insert_variable(mono: Monomial, i: int, d2: int, e: int = 1) -> Monomial:
    """mono times x[i, d2/2]^e.  The pair (i, d2) sorts just before every
    factor (i, d2, *), so ``bisect_left`` finds the variable's place: its
    exponent is raised there, or the factor is inserted there."""
    pos = bisect_left(mono, (i, d2))
    if pos < len(mono):
        bi, bd2, be = mono[pos]
        if bi == i and bd2 == d2:
            return mono[:pos] + ((i, d2, be + e),) + mono[pos + 1:]
    return mono[:pos] + ((i, d2, e),) + mono[pos:]


def weighted_partial(i: int, mode: ModeLike, f: FockVector) -> FockVector:
    """Apply the weighted derivation n * d/dx[i,n] with n = mode.

    Every surviving term drops in degree by exactly n.
    """
    d2 = _check_positive(_doubled_value(mode), f.sector)
    _check_boson(i, f.rank)
    acc: Dict[Monomial, Scalar] = {}
    _add_weighted_partial2(acc, i, d2, f.terms)
    return FockVector(f.rank, f.sector, acc)


def _add_weighted_partial2(acc: Dict[Monomial, Scalar], i: int, d2: int,
                           terms: Dict[Monomial, Scalar],
                           shift: Optional[Scalar] = None,
                           scale: Optional[Scalar] = None,
                           creators: Monomial = ()) -> None:
    """Add scale * (n * d/dx[i,n] + shift) f, times the monomial
    ``creators``, into the terms ``acc``; ``terms`` are those of f.  With
    d2 = 0 it is every ``FockVector`` ring operation (+, -, negation, *,
    scalings, ``times_variable``) as well as the derivations.

    None stands for a ``scale`` of 1 and a ``shift`` of 0; a ``shift`` or
    ``scale`` given is nonzero, since a fresh slot stores its product
    unchecked.  A d2 of 0 leaves the shift alone (no variable has mode 0).
    A term with x[i,n]^e is scaled by n * e, the integer d2 * e over 2,
    together with ``scale``.

    Two passes write into ``acc``: the shift pass, then the derivative
    pass, each one loop over ``terms`` with the factors read as ints before
    it starts.  A pass never meets a slot it wrote itself: the monomials of
    ``terms`` are distinct, and both M -> M * creators and M -> M / x[i,n]
    are injective.  So a pass into an empty ``acc`` looks up no slot, and a
    unit shift pass into an empty ``acc`` with no creators is a copy.

    Each write costs one reduction: a product is formed as a raw Gaussian
    integer over its denominator and summed into its slot before the one
    ``_reduced``; into a fresh slot, a unit shift stores the term's own
    Scalar and a shift of -1 its negation, with none.  Shift times scale is
    a raw triple too: equal to +-1, it still has the form (+-d, 0, d).
    """
    ka, kb, kd = (1, 0, 1) if scale is None else (scale.a, scale.b, scale.d)
    if shift is not None:
        sa, sb, sd = shift.a, shift.b, shift.d
        if kb or ka != kd:  # a scale other than 1, whose form is (1, 0, 1)
            sa, sb, sd = sa * ka - sb * kb, sa * kb + sb * ka, sd * kd
        unit = not sb and sa == sd
        negate = not sb and sa == -sd
        fresh = not acc
        if unit and fresh and not creators:
            acc.update(terms)
        else:
            for mono, c in terms.items():
                if creators:
                    mono = _merge_monomials(mono, creators)
                prev = None if fresh else acc.get(mono)
                if unit:
                    if prev is None:
                        acc[mono] = c
                        continue
                    a, b, d = c.a, c.b, c.d
                elif negate:
                    if prev is None:
                        acc[mono] = -c
                        continue
                    a, b, d = -c.a, -c.b, c.d
                else:
                    a, b, d = c.a, c.b, c.d * sd
                    if sb:
                        a, b = a * sa - b * sb, a * sb + b * sa
                    else:
                        a, b = a * sa, b * sa
                    if prev is None:
                        acc[mono] = _reduced(a, b, d)
                        continue
                _accumulate_raw(acc, mono, prev, a, b, d)
    if not d2:
        return
    fresh = not acc
    kd2 = 2 * kd  # n * e = d2 * e / 2
    key = (i, d2)  # sorts just before the factor (i, d2, e) of a monomial
    for mono, c in terms.items():
        pos = bisect_left(mono, key)
        if pos == len(mono):
            continue
        bi, bd2, e = mono[pos]
        if bi != i or bd2 != d2:
            continue
        if e == 1:
            mono = mono[:pos] + mono[pos + 1:]
        else:
            mono = mono[:pos] + ((i, d2, e - 1),) + mono[pos + 1:]
        if creators:
            mono = _merge_monomials(mono, creators)
        m = d2 * e
        a, b = c.a, c.b
        if kb:
            a, b = (a * ka - b * kb) * m, (a * kb + b * ka) * m
        else:
            m *= ka
            a, b = a * m, b * m
        prev = None if fresh else acc.get(mono)
        if prev is None:
            acc[mono] = _reduced(a, b, c.d * kd2)
        else:
            _accumulate_raw(acc, mono, prev, a, b, c.d * kd2)
