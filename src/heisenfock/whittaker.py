"""Virasoro Whittaker types of lambda data, and the fiber solver.

``whittaker_type_of`` maps a lambda sequence with support bound r to the
eigenvalue list zeta = (zeta_{r+1}, ..., zeta_{2r+eps}) of the high Virasoro
modes on the cyclic vector, with eps = 1 - ``sector.parity``: 1 untwisted
and 0 twisted:

    zeta_i = (1/2) * sum_{m+n=i-1} (lambda_m, lambda_n)

Below the public boundary the type is read by lambda's slots, slot a at
mode a + p/2 with t the top slot: entry k of zeta is zeta_{r+1+k}, the half
pair sum over slots a + b = k + t, in both sectors.

``solve_fiber`` inverts the map: the quadratic top equation
(lambda_top, lambda_top) = 2*zeta_top puts lambda_top on a scaled complex
sphere, after which each remaining equation is affine in one unknown vector
with an (rank-1)-dimensional solution space.  The fiber is therefore a
complex sphere times an affine space; ``fiber_dimension`` reports the pair.

Exact mode stays inside Q(i) and demands an exact square root (or an exactly
scaled top vector); numeric mode works in double-precision complex with one
refinement sweep on the triangular system.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ._record import Record
from .errors import (IsotropicTopError, NonSquareError, NumericFailure,
                     PreconditionError, _quoted)
from .fock import FockVector, Sector
from .heisenberg import LambdaSequence
from .scalars import ONE, ZERO, Scalar, as_scalar, scalar_sqrt

TOLERANCE = 1e-10  # a numeric fiber's type residual per unit of max(1, |zeta|)


def bilinear(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Standard symmetric form sum_j u_j v_j (no conjugation).

    Works over Q(i) and over complex floats alike.
    """
    return sum(a * b for a, b in zip(u, v))


class WhittakerType(Record, defaults=(True,)):
    """Eigenvalue data (r, zeta_{r+1..2r+eps}) with nonzero last entry."""

    __slots__ = ("sector", "r", "zeta", "exact")

    def _check(self):
        if self.r < self.sector.parity:
            raise PreconditionError(
                f"{self.sector.value} type needs r >= {self.sector.parity}")
        if len(self.zeta) != self.r + self.epsilon:
            raise PreconditionError(
                f"expected {_quoted(self.r + self.epsilon)} eigenvalues, "
                f"got {len(self.zeta)}")
        if not self.zeta or not self.zeta[-1]:
            raise PreconditionError("top eigenvalue must be nonzero")

    @property
    def epsilon(self) -> int:
        return 1 - self.sector.parity


def _type_sums(entries: Sequence[Sequence], zero) -> Tuple:
    """The type by slot: entry k is (1/2) sum_{a+b=k+t} (entries[a], entries[b]).

    ``entries`` holds lambda's slots over either field, slot a at mode
    a + p/2, and t is the top slot; ``zero`` is that field's zero.  Modes
    m + n = i - 1 are slots a + b = i - 1 - p, so entry k is zeta_{r+1+k}
    in both sectors.
    """
    t = len(entries) - 1
    return tuple(_half_pair_sum(entries, k + t, k, t, zero) for k in range(t + 1))


def _half_pair_sum(entries: Sequence[Sequence], total: int, lo: int, hi: int,
                   zero):
    """(1/2) sum of (entries[a], entries[b]) over a + b = total, lo <= a, b <= hi."""
    acc = zero
    for a in range(max(lo, total - hi), min(hi, total - lo) + 1):
        acc = acc + bilinear(entries[a], entries[total - a])
    return acc / 2


def whittaker_type_of(lam: LambdaSequence) -> WhittakerType:
    """The Whittaker type of a lambda sequence with nonzero top entry.

    Raises IsotropicTopError when the top entry pairs to zero with itself:
    the candidate type would violate the nonzero-last-eigenvalue requirement,
    and that case is surfaced rather than silently accepted.
    """
    if lam.is_zero:
        raise PreconditionError("the zero sequence has no Whittaker type")
    zeta = _type_sums(lam.entries, ZERO)
    if not zeta[-1]:
        raise IsotropicTopError(
            "top lambda entry is isotropic: (lambda_top, lambda_top) = 0")
    return WhittakerType(lam.sector, lam.support_bound, zeta, exact=True)


# -- eigenvector verification ---------------------------------------------------

class ReportRow(Record):
    __slots__ = ("index", "expected", "actual", "ok")


class WhittakerReport(Record):
    __slots__ = ("sector", "r", "bound", "valid_type", "rows")

    epsilon = WhittakerType.epsilon

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def verify_whittaker_vector(lam: LambdaSequence, bound: int) -> WhittakerReport:
    """Check the Virasoro mode spectrum on the constant vector 1.

    For i = r+1 .. bound the i-th omega mode of 1 is computed through the
    vertex engine and compared against slot sum k = i - r - 1 of the type
    (zero past the top one), whose last sum gives ``valid_type``.  Only the
    zero sequence reaches row 1, where the twisted sector adds the vacuum
    energy rank/16 of L_0.  Exact equality per row; a bound <= r, which
    leaves no row, is refused.
    """
    from .vertex import virasoro_mode
    r = lam.support_bound
    if bound <= r:
        raise PreconditionError(f"bound {bound} must exceed r = {r}")
    sums = _type_sums(lam.entries, ZERO)
    one = FockVector.constant(1, lam.rank, lam.sector)
    rows: List[ReportRow] = []
    for k, i in enumerate(range(r + 1, bound + 1)):  # row i reads slot sum k
        got = virasoro_mode(i - 1, one, lam)  # omega_i = L_(i-1)
        expected = sums[k] if k < len(sums) else ZERO
        if i == 1 and lam.sector is Sector.TWISTED:  # vacuum energy of L_0
            expected = expected + Fraction(lam.rank, 16)
        ok = got == one.scaled(expected)
        rows.append(ReportRow(i, expected, str(got), ok))
    return WhittakerReport(lam.sector, r, bound, bool(sums and sums[-1]),
                           tuple(rows))


# -- the fiber over a type --------------------------------------------------------

class FiberPoint(Record):
    """One solution lambda over a type, with its parameterization data.

    ``free_params`` follow the back-substitution order: index 0 belongs to
    the highest unknown below the top entry, descending from there.
    """

    __slots__ = ("sector", "rank", "r", "exact", "sphere_point", "top_vector",
                 "free_params", "lambda_entries", "residual")

    def to_lambda(self) -> LambdaSequence:
        if not self.exact:
            raise PreconditionError("numeric fiber point has no exact lambda")
        return LambdaSequence.make(self.sector, self.rank, self.lambda_entries)


def fiber_dimension(rank: int, r: int, sector: Sector) -> Tuple[int, int]:
    """(sphere dimension, affine dimension) of the fiber over a type."""
    if rank < 1:
        raise PreconditionError("rank must be >= 1")
    if r < sector.parity:
        raise PreconditionError(f"{sector.value} r must be >= {sector.parity}")
    return (rank - 1, (rank - 1) * (r - sector.parity))


class _Field(Record):
    """The scalars a fiber solve runs over: Q(i) exactly, or complex floats.

    ``coerce`` makes an input value a field element; ``sqrt`` gives a square
    root, or None when the field lacks one; ``negligible`` tells a
    Gram-Schmidt self-pairing too small to keep; ``pivot`` picks the top
    coordinate the fallback basis divides by."""

    __slots__ = ("exact", "coerce", "zero", "one", "sqrt", "negligible", "pivot")


def _exact_value(x) -> Scalar:
    try:
        return as_scalar(x)
    except TypeError as exc:
        raise PreconditionError(f"exact mode needs exact values, got {x!r}") from exc


def _numeric_value(x) -> complex:
    try:
        return complex(x)
    except OverflowError as exc:  # an exact value beyond the float range
        raise PreconditionError("a value is too large for numeric mode") from exc


_EXACT = _Field(True, _exact_value, ZERO, ONE, scalar_sqrt,
                lambda x: not x,
                lambda top: next(idx for idx, c in enumerate(top) if c))
_NUMERIC = _Field(False, _numeric_value, 0j, 1.0 + 0j, cmath.sqrt,
                  lambda x: not abs(x) > 1e-12,
                  lambda top: max(range(len(top)), key=lambda idx: abs(top[idx])))


def _complement_basis(top: Tuple, field: _Field) -> Tuple[List[Tuple],
                                                       Optional[int]]:
    """Deterministic basis of the orthogonal complement of a non-isotropic
    vector, and its pivot.

    Gram-Schmidt seeded from the standard basis gives pairwise orthogonal,
    non-isotropic vectors and the pivot ``None``.  Exact mode does not
    normalize (square roots may not exist in Q(i)); numeric mode does.  If
    (numerically) isotropic intermediates starve it, the fallback is the
    pivot basis e_s - (top_s / top_j*) e_j* for s != j*, which is always
    valid, and the pivot is j*.
    """
    rank = len(top)
    tt = bilinear(top, top)
    accepted: List[Tuple] = []
    for s in range(rank):
        e = tuple(field.one if c == s else field.zero for c in range(rank))
        coef = bilinear(e, top) / tt
        v = [a - coef * b for a, b in zip(e, top)]
        for w in accepted:
            coef = bilinear(v, w)
            if field.exact:
                coef = coef / bilinear(w, w)
            v = [a - coef * b for a, b in zip(v, w)]
        norm2 = bilinear(v, v)
        if not field.negligible(norm2):
            if not field.exact:
                scale = 1 / field.sqrt(norm2)
                v = [scale * a for a in v]
            accepted.append(tuple(v))
        if len(accepted) == rank - 1:
            return accepted, None
    jstar = field.pivot(top)
    basis = []
    for s in range(rank):
        if s == jstar:
            continue
        v = [field.zero] * rank
        v[s] = field.one
        v[jstar] = -(top[s] / top[jstar])
        basis.append(tuple(v))
    return basis, jstar


def _vector_of(values: Sequence, rank: int, name: str, field: _Field):
    """The vector and its self-pairing, refused when floats overflow it or
    when it is isotropic: (v, v) = 0 exactly, or numerically
    |(v, v)| <= 1e-14 * sum |v_i|^2, so a vector's length does not matter."""
    vec = tuple(field.coerce(c) for c in values)
    if len(vec) != rank:
        raise PreconditionError(f"{name} has wrong length")
    vv = bilinear(vec, vec)
    if not field.exact and not cmath.isfinite(vv):
        raise PreconditionError(f"{name} pairs to a non-finite value with itself")
    isotropic = not vv if field.exact else (
        abs(vv) <= 1e-14 * sum(abs(c) * abs(c) for c in vec))
    if isotropic:
        raise IsotropicTopError(f"{name} pairs to zero with itself")
    return vec, vv


def _back_substitute(zeta: WhittakerType, entries: List, basis: List[Tuple],
                     params: List[Tuple], field: _Field) -> None:
    """Solve the affine equation of each entry below the top (the last one).

    Entries are solved descending from the top.  A fresh entry (None) is
    rhs/(T, T) times T plus its free part in ``basis``; an entry already
    present (the numeric refinement sweep) is corrected only along the top
    direction.
    """
    t = len(entries) - 1
    top = entries[t]
    tt = bilinear(top, top)
    for step, k in enumerate(reversed(range(t))):
        # type entry k pairs slot k with the top slot t
        rhs = field.coerce(zeta.zeta[k]) - _half_pair_sum(
            entries, k + t, k + 1, t - 1, field.zero)
        prev = entries[k]
        if prev is None:
            coef = rhs / tt
            vec = [coef * c for c in top]
            for c, w in zip(params[step], basis):
                vec = [a + c * b for a, b in zip(vec, w)]
        else:
            delta = (rhs - bilinear(prev, top)) / tt
            vec = [a + delta * c for a, c in zip(prev, top)]
        entries[k] = tuple(vec)


def solve_fiber(zeta: WhittakerType, rank: int,
                sphere_point: Optional[Sequence] = None,
                free_params: Optional[Sequence[Sequence]] = None,
                exact: bool = False,
                top_vector: Optional[Sequence] = None) -> FiberPoint:
    """Produce one lambda sequence whose Whittaker type is ``zeta``.

    The top entry is sqrt(2*zeta_top) times a point on the complex unit
    sphere; each lower entry solves one affine equation, with its free
    (rank-1)-dimensional part taken from ``free_params`` in the deterministic
    complement basis of the top entry.  In exact mode a caller who already
    owns an exactly scaled top vector may pass it as ``top_vector`` to avoid
    the square-root requirement; in numeric mode ``top_vector`` only fixes
    the direction of the top entry.  At most one of ``sphere_point`` and
    ``top_vector`` may be given, and an isotropic one raises
    IsotropicTopError.  When 2*zeta_top has no square root in
    Q(i) and neither is given, an exact solve at rank >= 2 takes the top
    ``((1+t)/2, i(1-t)/2, 0, ...)`` with ``t = 2*zeta_top``, and the
    point's ``sphere_point`` is None; at rank 1 it raises NonSquareError.
    """
    if rank < 1:
        raise PreconditionError("rank must be >= 1")
    if sphere_point is not None and top_vector is not None:
        raise PreconditionError("give sphere_point or top_vector, not both")
    steps = len(zeta.zeta) - 1  # entries below the top one
    if free_params is None:
        free_params = [[0] * (rank - 1) for _ in range(steps)]
    if len(free_params) != steps or any(len(p) != rank - 1 for p in free_params):
        raise PreconditionError(
            f"free_params must be {steps} vectors of length {rank - 1}")
    field = _EXACT if exact else _NUMERIC
    two_top = 2 * field.coerce(zeta.zeta[-1])
    if not exact and cmath.isinf(two_top):  # a NaN is left to the residual check
        raise PreconditionError("2 * zeta_top is beyond the float range")
    if top_vector is not None:
        top, tt = _vector_of(top_vector, rank, "top_vector", field)
        if exact and tt != two_top:
            raise PreconditionError(
                "top_vector does not satisfy (T, T) = 2 * zeta_top")
    else:
        if sphere_point is None:
            sp = tuple(field.one if c == 0 else field.zero for c in range(rank))
        else:
            sp, norm2 = _vector_of(sphere_point, rank, "sphere_point", field)
            if exact and norm2 != field.one:
                raise PreconditionError("sphere_point is not on the unit sphere")
            if not exact:
                root = field.sqrt(norm2)
                sp = tuple(c / root for c in sp)
        s = field.sqrt(two_top)
        if s is not None:
            top = tuple(s * c for c in sp)
        elif sphere_point is None and rank >= 2:
            # t = 2 * zeta_top has no root, but ((1+t)/2)^2 + (i(1-t)/2)^2 = t
            half = Fraction(1, 2)
            top = ((ONE + two_top).scale(half),
                   (ONE - two_top) * Scalar(0, half)) + (ZERO,) * (rank - 2)
        else:
            raise NonSquareError(
                "2 * zeta_top has no square root in Q(i); supply top_vector")
    basis, _ = _complement_basis(top, field)
    params = [tuple(field.coerce(c) for c in row) for row in free_params]
    entries = [None] * steps + [top]
    _back_substitute(zeta, entries, basis, params, field)
    if not exact:
        # one refinement sweep: rescale the top onto its quadric, re-correct the rest
        scale = field.sqrt(two_top / bilinear(top, top))
        top = entries[-1] = tuple(scale * c for c in top)
        _back_substitute(zeta, entries, basis, params, field)

    lam_entries = tuple(entries)
    values = [field.coerce(z) for z in zeta.zeta]
    gaps = [got - want
            for got, want in zip(_type_sums(lam_entries, field.zero), values)]
    if exact:
        if any(gaps):
            raise NumericFailure("exact fiber solve failed to reproduce the type")
        residual = Fraction(0)
    else:
        sizes = list(map(abs, gaps))
        # max() would drop a NaN that follows a number; report it instead
        residual = cmath.nan if any(map(cmath.isnan, sizes)) else max(sizes)
        if not cmath.isfinite(residual) and all(map(cmath.isfinite, values)):
            raise PreconditionError(
                "the fiber residual overflows: the type is beyond the float range")
        # the sums round relative to their size, so the bound scales with
        # the largest |zeta_i| above 1; a NaN residual or an inf bound fails
        bound = TOLERANCE * max(1.0, *map(abs, values))
        if not residual <= bound < cmath.inf:
            raise NumericFailure(
                f"fiber residual {residual:.3e} exceeds tolerance {bound:.3e}")
    root = field.sqrt(bilinear(top, top))
    sphere = None if root is None else tuple(c / root for c in top)
    return FiberPoint(zeta.sector, rank, zeta.r, exact, sphere, top,
                      tuple(params), lam_entries, residual)


def extract_fiber_data(lam: LambdaSequence) -> Tuple[Tuple[Scalar, ...],
                                                     List[Tuple[Scalar, ...]]]:
    """Recover (top_vector, free_params) so that solve_fiber reproduces lam.

    Exact inverse of the parameterization on its own image; requires the top
    entry to be non-isotropic.  Each lower entry less its component along
    the top is orthogonal to the top, so its coordinates are read straight
    off the complement basis: (resid, w) / (w, w) on a Gram-Schmidt basis,
    and the entries of resid off the pivot on the pivot basis.
    """
    if lam.is_zero:
        raise PreconditionError("zero sequence")
    top = lam.entries[-1]
    tt = bilinear(top, top)
    if not tt:
        raise IsotropicTopError("top entry is isotropic")
    basis, pivot = _complement_basis(top, _EXACT)
    params: List[Tuple[Scalar, ...]] = []
    for v in reversed(lam.entries[:-1]):
        coef = bilinear(v, top) / tt
        resid = [a - coef * b for a, b in zip(v, top)]
        if pivot is None:
            params.append(tuple(bilinear(resid, w) / bilinear(w, w)
                                for w in basis))
        else:
            params.append(tuple(c for s, c in enumerate(resid) if s != pivot))
    return top, params
