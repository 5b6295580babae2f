"""Constructive simplicity certificates.

Given lambda data with some nonzero positive-index entry and a nonzero Fock
vector a, repeated application of quadratic elements

    h_i(m) h_j(n) - (lambda_m, h_i)(lambda_n, h_j)

drives a down to a nonzero constant; the recorded sequence of elements with
its degree ledger is a replayable witness that the constant 1 lies in the
quadratic subalgebra's orbit of a.  Construction applies each element in its
differential closed form; verification replays the two-step composition
minus the recorded shift, so the two routes check each other.

Choice rule per step: m is the smallest mode of any variable occurring in a,
i0 the smallest boson index carrying that mode, n the smallest positive mode
with a nonzero lambda entry; the case split on (n vs m) follows the size
comparison, with the diagonal case splitting on whether (lambda_m, h_i0)
vanishes.  If an inhomogeneous cancellation ever kills the result (possible
in principle for mixed-degree inputs), the next admissible (i0, n) pair is
tried and the retry count is recorded in the step.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from ._record import Record, _set
from .errors import PreconditionError, ReductionError, SchemaError
from .fock import FockVector
from .heisenberg import (LambdaSequence, QuadraticElement, _compose_quadratic,
                         quadratic_act, require_positive_support)
from .scalars import Scalar

CASE_HIGH = "1"     # n > m
CASE_LOW = "2"      # n < m
CASE_DIAG = "3a"    # n = m, (lambda_m, h_i0) != 0
CASE_OFFDIAG = "3b"  # n = m, (lambda_m, h_i0) = 0


class ReductionStep(Record):
    __slots__ = ("element", "case", "degree_before", "degree_after", "retries")

    def __init__(self, element: QuadraticElement, case: str,
                 degree_before: Fraction, degree_after: Fraction,
                 retries: int = 0):
        _set(self, "element", element)
        _set(self, "case", case)
        _set(self, "degree_before", degree_before)
        _set(self, "degree_after", degree_after)
        _set(self, "retries", retries)


class ReductionCertificate(Record):
    __slots__ = ("initial", "steps", "terminal")

    def __init__(self, initial: FockVector, steps: Tuple[ReductionStep, ...],
                 terminal: Scalar):
        _set(self, "initial", initial)
        _set(self, "steps", steps)
        _set(self, "terminal", terminal)


def _mode_candidates(a: FockVector) -> Tuple[int, List[int]]:
    """Smallest doubled mode present and the boson indices carrying it, in
    one scan of the monomials."""
    m2, indices = 0, set()
    for mono in a.terms:
        for i, d2, _ in mono:
            if d2 < m2 or not m2:
                m2, indices = d2, {i}
            elif d2 == m2:
                indices.add(i)
    return m2, sorted(indices)


def _case_and_element(lam: LambdaSequence, i0: int, m2: int,
                      n2: int) -> Tuple[str, QuadraticElement]:
    if n2 > m2:
        case, j0 = CASE_HIGH, _index_pairing_nonzero(lam, n2)
    elif n2 < m2:
        case, j0 = CASE_LOW, _index_pairing_nonzero(lam, n2)
    elif lam.pair2(m2, i0):
        case, j0 = CASE_DIAG, i0
    else:
        case, j0 = CASE_OFFDIAG, _index_pairing_nonzero(lam, m2, skip=i0)
    shift = lam.pair2(m2, i0) * lam.pair2(n2, j0)
    return case, QuadraticElement(i0, j0, m2, n2, lam.sector, shift)


def _index_pairing_nonzero(lam: LambdaSequence, n2: int, skip: int = 0) -> int:
    for j in range(1, lam.rank + 1):
        if j != skip and lam.pair2(n2, j):
            return j
    raise ReductionError(f"no usable boson index at mode {Fraction(n2, 2)}")


def reduce_step(lam: LambdaSequence,
                a: FockVector) -> Tuple[ReductionStep, FockVector]:
    """One degree-lowering quadratic application; returns (step, result)."""
    lam._check_vector(a)
    if not a:
        raise PreconditionError("cannot reduce the zero vector")
    deg_before = a.degree
    if deg_before <= 0:
        raise PreconditionError("constant input needs no reduction")
    require_positive_support(lam)
    m2, index_candidates = _mode_candidates(a)
    retries = 0
    for i0 in index_candidates:
        for n2 in lam.positive_support2():
            case, q = _case_and_element(lam, i0, m2, n2)
            b = quadratic_act(lam, q, a)
            deg_after = b.degree
            if b and deg_after < deg_before:
                return (ReductionStep(q, case, deg_before, deg_after, retries), b)
            retries += 1
    raise ReductionError(
        "every admissible quadratic element annihilated the vector")


def certify_cyclic(lam: LambdaSequence, a: FockVector) -> ReductionCertificate:
    """Reduce a nonzero vector to a nonzero constant, recording each step."""
    lam._check_vector(a)
    if not a:
        raise PreconditionError("cannot certify the zero vector")
    steps: List[ReductionStep] = []
    current, degree = a, a.degree
    while degree > 0:
        step, current = reduce_step(lam, current)
        steps.append(step)
        degree = step.degree_after
    terminal = current.constant_coefficient()
    return ReductionCertificate(a, tuple(steps), terminal)


def verify_certificate(lam: LambdaSequence, a: FockVector,
                       cert: ReductionCertificate) -> bool:
    """Replay a certificate against a vector by the composition route.

    Each step is re-applied as h_i(m) h_j(n) minus the *recorded* shift (not
    the differential closed form used during construction), and the degree
    ledger is checked along the way; the fold must land exactly on the
    recorded terminal constant.
    """
    try:
        lam._check_vector(a)
    except (PreconditionError, SchemaError):
        return False
    current, degree = a, a.degree
    for step in cert.steps:
        if degree != step.degree_before:
            return False
        q = step.element
        if q.sector is not current.sector or max(q.i, q.j) > lam.rank:
            return False
        current = _compose_quadratic(lam, q, current)
        degree = current.degree
        if degree != step.degree_after:
            return False
    if not cert.terminal:
        return False
    return current == FockVector.constant(cert.terminal, a.rank, a.sector)
