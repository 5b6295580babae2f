"""Virasoro Whittaker types of lambda data, and the fiber solver.

``whittaker_type_of`` maps a lambda sequence with support bound r to the
eigenvalue list zeta = (zeta_{r+1}, ..., zeta_{2r+eps}) of the high Virasoro
modes on the cyclic vector, with eps = 1 - ``sector.parity``: 1 untwisted
and 0 twisted:

    zeta_i = (1/2) * sum_{m+n=i-1} (lambda_m, lambda_n)

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
from typing import (Callable, Dict, List, NamedTuple, Optional, Sequence,
                    Tuple, Union)

from ._linalg import solve as _solve_linear
from ._record import Record, _set
from .errors import (IsotropicTopError, NonSquareError, NumericFailure,
                     PreconditionError)
from .fock import FockVector, Sector
from .heisenberg import LambdaSequence
from .scalars import Scalar, as_scalar, scalar_sqrt
from .vertex import twisted_virasoro_mode, virasoro_mode

TOLERANCE = 1e-10  # the largest type residual a numeric fiber point may have

ZERO = as_scalar(0)


def bilinear(u: Sequence[Scalar], v: Sequence[Scalar]) -> Scalar:
    """Standard symmetric form sum_j u_j v_j (no conjugation).

    Works over Q(i) and over complex floats alike.
    """
    return sum(a * b for a, b in zip(u, v))


class WhittakerType(Record):
    """Eigenvalue data (r, zeta_{r+1..2r+eps}) with nonzero last entry."""

    __slots__ = ("sector", "r", "zeta", "exact")

    def __init__(self, sector: Sector, r: int, zeta: Tuple, exact: bool = True):
        _set(self, "sector", sector)
        _set(self, "r", r)
        _set(self, "zeta", zeta)
        _set(self, "exact", exact)
        if self.r < self.sector.parity:
            raise PreconditionError(
                f"{self.sector.value} type needs r >= {self.sector.parity}")
        if len(self.zeta) != self.r + self.epsilon:
            raise PreconditionError(
                f"expected {self.r + self.epsilon} eigenvalues, got {len(self.zeta)}")
        if not self.zeta or not self.zeta[-1]:
            raise PreconditionError("top eigenvalue must be nonzero")

    @property
    def epsilon(self) -> int:
        return 1 - self.sector.parity

    @property
    def first_index(self) -> int:
        return self.r + 1

    @property
    def last_index(self) -> int:
        return 2 * self.r + self.epsilon

    def value(self, i: int):
        if not self.first_index <= i <= self.last_index:
            raise IndexError(f"index {i} outside {self.first_index}..{self.last_index}")
        return self.zeta[i - self.first_index]


def type_eigenvalues(lam: LambdaSequence) -> Dict[int, Scalar]:
    """Raw eigenvalue sums zeta_i for i = r+1 .. 2r+eps (no validity check)."""
    return _eigenvalue_sums(lam.entries, lam.sector, ZERO)


def _eigenvalue_sums(entries: Sequence[Sequence], sector: Sector, zero) -> Dict:
    """zeta_i = (1/2) sum_{m+n=i-1} (lambda_m, lambda_n) for i = r+1 .. 2r+eps.

    ``entries`` holds lambda at its modes in ascending order (0, 1, ..., r
    untwisted; 1/2, ..., r - 1/2 twisted), over either field; ``zero`` is
    that field's zero.
    """
    p, count = sector.parity, len(entries)
    r = max(0, count - 1 + p)
    # slots a, b sit at modes a + p/2, b + p/2: they pair up in zeta_i when
    # a + b + p = i - 1
    return {i: _half_pair_sum(entries, i - 1 - p, 0, count - 1, zero)
            for i in range(r + 1, 2 * r + 2 - p)}


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
    zeta = tuple(type_eigenvalues(lam).values())
    if not zeta[-1]:
        raise IsotropicTopError(
            "top lambda entry is isotropic: (lambda_top, lambda_top) = 0")
    return WhittakerType(lam.sector, lam.support_bound, zeta, exact=True)


# -- eigenvector verification ---------------------------------------------------

class ReportRow(Record):
    __slots__ = ("index", "expected", "actual", "ok")

    def __init__(self, index: int, expected: Scalar, actual: str, ok: bool):
        _set(self, "index", index)
        _set(self, "expected", expected)
        _set(self, "actual", actual)
        _set(self, "ok", ok)


class WhittakerReport(Record):
    __slots__ = ("sector", "r", "epsilon", "bound", "valid_type", "rows")

    def __init__(self, sector: Sector, r: int, epsilon: int, bound: int,
                 valid_type: bool, rows: Tuple[ReportRow, ...]):
        _set(self, "sector", sector)
        _set(self, "r", r)
        _set(self, "epsilon", epsilon)
        _set(self, "bound", bound)
        _set(self, "valid_type", valid_type)
        _set(self, "rows", rows)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def verify_whittaker_vector(lam: LambdaSequence, bound: int) -> WhittakerReport:
    """Check the Virasoro mode spectrum on the constant vector 1.

    For i = r+1 .. bound the i-th omega mode of 1 is computed through the
    vertex engine and compared against the closed-form eigenvalue (zero
    beyond 2r+eps).  Exact equality per row; a bound <= r, which leaves no
    row, is refused.
    """
    r = lam.support_bound
    if bound <= r:
        raise PreconditionError(f"bound {bound} must exceed r = {r}")
    eps = 1 - lam.sector.parity
    eig = type_eigenvalues(lam)
    one = FockVector.constant(1, lam.rank, lam.sector)
    ell = (virasoro_mode if lam.sector is Sector.UNTWISTED
           else twisted_virasoro_mode)
    rows: List[ReportRow] = []
    for i in range(r + 1, bound + 1):
        got = ell(i - 1, one, lam)  # omega_i = L_(i-1)
        expected = eig.get(i, ZERO)
        ok = got == one.scaled(expected)
        rows.append(ReportRow(i, expected, str(got), ok))
    top = eig.get(2 * r + eps, ZERO)
    return WhittakerReport(lam.sector, r, eps, bound, bool(top), tuple(rows))


# -- the fiber over a type --------------------------------------------------------

class FiberPoint(Record):
    """One solution lambda over a type, with its parameterization data.

    ``free_params`` follow the back-substitution order: index 0 belongs to
    the highest unknown below the top entry, descending from there.
    """

    __slots__ = ("sector", "rank", "r", "exact", "sphere_point", "top_vector",
                 "free_params", "lambda_entries", "residual")

    def __init__(self, sector: Sector, rank: int, r: int, exact: bool,
                 sphere_point: Optional[Tuple], top_vector: Tuple,
                 free_params: Tuple[Tuple, ...],
                 lambda_entries: Tuple[Tuple, ...],
                 residual: Union[Fraction, float]):
        _set(self, "sector", sector)
        _set(self, "rank", rank)
        _set(self, "r", r)
        _set(self, "exact", exact)
        _set(self, "sphere_point", sphere_point)
        _set(self, "top_vector", top_vector)
        _set(self, "free_params", free_params)
        _set(self, "lambda_entries", lambda_entries)
        _set(self, "residual", residual)

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


class _Field(NamedTuple):
    """The scalars a fiber solve runs over: Q(i) exactly, or complex floats."""

    exact: bool
    coerce: Callable      # an input value as a field element
    zero: object
    one: object
    sqrt: Callable        # a square root, or None when the field lacks one
    negligible: Callable  # a Gram-Schmidt self-pairing too small to keep
    pivot: Callable       # the top coordinate the fallback basis divides by


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


_EXACT = _Field(True, _exact_value, ZERO, as_scalar(1), scalar_sqrt,
                lambda x: not x,
                lambda top: next(idx for idx, c in enumerate(top) if c))
_NUMERIC = _Field(False, _numeric_value, 0j, 1.0 + 0j, cmath.sqrt,
                  lambda x: not abs(x) > 1e-12,
                  lambda top: max(range(len(top)), key=lambda idx: abs(top[idx])))


def _complement_basis(top: Tuple, field: _Field) -> List[Tuple]:
    """Deterministic orthogonal complement basis of a non-isotropic vector.

    Gram-Schmidt seeded from the standard basis.  Exact mode does not
    normalize (square roots may not exist in Q(i)); numeric mode does.  If
    (numerically) isotropic intermediates starve it, fall back to the pivot
    hyperplane basis, which is always valid.
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
            return accepted
    # pivot fallback: e_s - (top_s / top_j*) e_j*
    jstar = field.pivot(top)
    basis = []
    for s in range(rank):
        if s == jstar:
            continue
        v = [field.zero] * rank
        v[s] = field.one
        v[jstar] = -(top[s] / top[jstar])
        basis.append(tuple(v))
    return basis


def _vector_of(values: Sequence, rank: int, name: str, field: _Field):
    """The vector and its self-pairing, refused when floats overflow it."""
    vec = tuple(field.coerce(c) for c in values)
    if len(vec) != rank:
        raise PreconditionError(f"{name} has wrong length")
    vv = bilinear(vec, vec)
    if not field.exact and not cmath.isfinite(vv):
        raise PreconditionError(f"{name} pairs to a non-finite value with itself")
    return vec, vv


def _back_substitute(zeta: WhittakerType, entries: List, basis: List[Tuple],
                     params: List[Tuple], field: _Field) -> None:
    """Solve the affine equation of each entry below the top (the last one).

    Entries are solved descending from the top.  A fresh entry (None) is
    rhs/(T, T) times T plus its free part in ``basis``; an entry already
    present (the numeric refinement sweep) is corrected only along the top
    direction.
    """
    top_slot = len(entries) - 1
    top = entries[top_slot]
    tt = bilinear(top, top)
    for step, k in enumerate(reversed(range(top_slot))):
        # zeta_i pairs this entry with the top: their modes sum to i - 1
        i = k + top_slot + 2 - zeta.epsilon
        rhs = field.coerce(zeta.value(i)) - _half_pair_sum(
            entries, k + top_slot, k + 1, top_slot - 1, field.zero)
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
    the direction of the top entry.
    """
    if rank < 1:
        raise PreconditionError("rank must be >= 1")
    steps = zeta.r - 1 + zeta.epsilon  # entries below the top one
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
        if not tt:
            raise IsotropicTopError("top_vector pairs to zero with itself")
        if exact and tt != two_top:
            raise PreconditionError(
                "top_vector does not satisfy (T, T) = 2 * zeta_top")
    else:
        if sphere_point is None:
            sp = tuple(field.one if c == 0 else field.zero for c in range(rank))
        else:
            sp, norm2 = _vector_of(sphere_point, rank, "sphere_point", field)
            if exact:
                if norm2 != field.one:
                    raise PreconditionError("sphere_point is not on the unit sphere")
            else:
                if abs(norm2) <= 1e-14 * sum(abs(c) * abs(c) for c in sp):
                    raise PreconditionError("sphere_point is numerically isotropic")
                root = field.sqrt(norm2)
                sp = tuple(c / root for c in sp)
        s = field.sqrt(two_top)
        if s is None:
            raise NonSquareError(
                "2 * zeta_top has no square root in Q(i); supply top_vector")
        top = tuple(s * c for c in sp)
    basis = _complement_basis(top, field)
    params = [tuple(field.coerce(c) for c in row) for row in free_params]
    entries = [None] * steps + [top]
    _back_substitute(zeta, entries, basis, params, field)
    if not exact:
        # one refinement sweep: rescale the top onto its quadric, re-correct the rest
        scale = field.sqrt(two_top / bilinear(top, top))
        top = entries[-1] = tuple(scale * c for c in top)
        _back_substitute(zeta, entries, basis, params, field)

    lam_entries = tuple(entries)
    if exact:
        lam = LambdaSequence.make(zeta.sector, rank, lam_entries)
        wanted = WhittakerType(zeta.sector, zeta.r,
                               tuple(field.coerce(z) for z in zeta.zeta))
        if whittaker_type_of(lam) != wanted:
            raise NumericFailure("exact fiber solve failed to reproduce the type")
        residual = Fraction(0)
    else:
        residual = numeric_type_residual(lam_entries, zeta)
        if not cmath.isfinite(residual) and all(
                cmath.isfinite(field.coerce(z)) for z in zeta.zeta):
            raise PreconditionError(
                "the fiber residual overflows: the type is beyond the float range")
        if not residual <= TOLERANCE:  # a NaN residual fails too
            raise NumericFailure(
                f"fiber residual {residual:.3e} exceeds tolerance {TOLERANCE:.3e}")
    root = field.sqrt(bilinear(top, top))
    sphere = None if root is None else tuple(c / root for c in top)
    return FiberPoint(zeta.sector, rank, zeta.r, exact, sphere, top,
                      tuple(params), lam_entries, residual)


def numeric_type_residual(entries: Sequence[Sequence[complex]],
                          zeta: WhittakerType) -> float:
    """Largest |zeta_i(entries) - zeta_i| over the type, in floating point."""
    got = _eigenvalue_sums(entries, zeta.sector, 0j)
    gaps = [abs(got[i] - complex(zeta.value(i)))
            for i in range(zeta.first_index, zeta.last_index + 1)]
    # max() would drop a NaN that follows a number; report it instead
    return cmath.nan if any(map(cmath.isnan, gaps)) else max(gaps, default=0.0)


def extract_fiber_data(lam: LambdaSequence) -> Tuple[Tuple[Scalar, ...],
                                                     List[Tuple[Scalar, ...]]]:
    """Recover (top_vector, free_params) so that solve_fiber reproduces lam.

    Exact inverse of the parameterization on its own image; requires the top
    entry to be non-isotropic.
    """
    if lam.is_zero:
        raise PreconditionError("zero sequence")
    top = lam.entries[-1]
    tt = bilinear(top, top)
    if not tt:
        raise IsotropicTopError("top entry is isotropic")
    basis = _complement_basis(top, _EXACT)
    params: List[Tuple[Scalar, ...]] = []
    for v in reversed(lam.entries[:-1]):
        coef = bilinear(v, top) / tt
        resid = [a - coef * b for a, b in zip(v, top)]
        matrix = [[basis[s][row] for s in range(len(basis))]
                  for row in range(lam.rank)]
        coords = _solve_linear(matrix, resid)
        if coords is None:
            raise PreconditionError("entry does not lie in the parameterized space")
        params.append(tuple(coords))
    return top, params
