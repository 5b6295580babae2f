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
with a nonzero lambda entry; j0 is i0 in case 3a and otherwise the first
boson index with c_n = (lambda_n, h_j0) nonzero, which exists because
lambda_n is nonzero.  Case 3b needs no rule to pass over i0: there n = m
and (lambda_m, h_i0) = 0, so the first such index is never i0.
With c_m = (lambda_m, h_i0) and d_im = m d/dx[i0,m], the element acts as
c_m d_jn + c_n d_im + d_im d_jn, and d_im a is nonzero because x[i0,m]
occurs in a:

    case 1  (n > m):          lambda_m = 0, so b = (c_n + d_jn) d_im a
    case 2  (n < m):          no variable of a has mode n, so b = c_n d_im a
    case 3a (n = m, c_m != 0): b = (2 c_m + d_im) d_im a
    case 3b (n = m, c_m = 0):  b = (c_n + d_jm) d_im a

A nonzero scalar plus a nilpotent operator is invertible, so b is nonzero,
and every term is a derivation, so b has lower degree than a: one element
per step always reduces.  The step's ``retries`` field is kept for the
certificate schema and is always 0 when written.
"""

from __future__ import annotations

from typing import List, Tuple

from ._record import Record
from .errors import HighestWeightError, PreconditionError, ReductionError
from .fock import FockVector, _check_agree
from .heisenberg import (LambdaSequence, QuadraticElement, _compose_quadratic,
                         quadratic_act)

CASE_HIGH = "1"     # n > m
CASE_LOW = "2"      # n < m
CASE_DIAG = "3a"    # n = m, (lambda_m, h_i0) != 0
CASE_OFFDIAG = "3b"  # n = m, (lambda_m, h_i0) = 0


class ReductionStep(Record, defaults=(0,)):
    __slots__ = ("element", "case", "degree_before", "degree_after", "retries")


class ReductionCertificate(Record):
    __slots__ = ("initial", "steps", "terminal")


def _mode_candidates(a: FockVector) -> Tuple[int, int]:
    """Smallest doubled mode present and the smallest boson index carrying
    it, in one scan of the monomials."""
    m2 = i0 = 0
    for mono in a.terms:
        for i, d2, _ in mono:
            if d2 < m2 or not m2 or (d2 == m2 and i < i0):
                m2, i0 = d2, i
    return m2, i0


def _case_and_element(lam: LambdaSequence, i0: int, m2: int,
                      n2: int) -> Tuple[str, QuadraticElement]:
    c_m = lam.pair2(m2, i0)
    if n2 == m2 and c_m:
        case, j0 = CASE_DIAG, i0
    else:
        case = CASE_HIGH if n2 > m2 else CASE_LOW if n2 < m2 else CASE_OFFDIAG
        j0 = next(j for j in range(1, lam.rank + 1) if lam.pair2(n2, j))
    return case, QuadraticElement(i0, j0, m2, n2, lam.sector,
                                  c_m * lam.pair2(n2, j0))


def reduce_step(lam: LambdaSequence,
                a: FockVector) -> Tuple[ReductionStep, FockVector]:
    """Apply the one element the choice rule picks; returns (step, result).

    By the module docstring's four cases the result is nonzero and of lower
    degree; ``ReductionError`` means the rule or the arithmetic is broken."""
    _check_agree(lam, a)
    if not a:
        raise PreconditionError("cannot reduce the zero vector")
    deg_before = a.degree
    if deg_before <= 0:
        raise PreconditionError("constant input needs no reduction")
    n2 = next(lam.positive_support2(), None)
    if n2 is None:
        raise HighestWeightError(
            "all positive-index lambda entries vanish (highest-weight data)")
    m2, i0 = _mode_candidates(a)
    case, q = _case_and_element(lam, i0, m2, n2)
    b = quadratic_act(lam, q, a)
    deg_after = b.degree
    if not b or deg_after >= deg_before:
        raise ReductionError(
            f"case {case} element did not lower the degree {deg_before}")
    return ReductionStep(q, case, deg_before, deg_after), b


def certify_cyclic(lam: LambdaSequence, a: FockVector) -> ReductionCertificate:
    """Reduce a nonzero vector to a nonzero constant, recording each step."""
    _check_agree(lam, a)
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
        _check_agree(lam, a)
    except PreconditionError:
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
