"""The nine immutable records keep the contract of a frozen dataclass.

Each record is checked against a reference twin declared here with
``@dataclass(frozen=True)`` and the same fields and defaults: constructor
parameters, ``repr``, ``==`` and ``hash`` agree with the twin, fields can be
neither set nor deleted, ``copy``, ``deepcopy`` and ``pickle`` give equal
records, and no instance carries a ``__dict__``.  The instances are sampled
in both sectors.
"""

from __future__ import annotations

import copy
import inspect
import pickle
from dataclasses import dataclass, fields
from fractions import Fraction
from random import Random

import pytest

import heisenfock as hf
from heisenfock import (BosonIndexError, PreconditionError, Sector,
                        certify_cyclic, cmn_table, solve_fiber,
                        verify_whittaker_vector, whittaker, whittaker_type_of)
from heisenfock.sampling import random_fock, random_lambda


@dataclass(frozen=True)
class LambdaSequence:
    sector: Sector
    rank: int
    entries: tuple


@dataclass(frozen=True)
class QuadraticElement:
    i: int
    j: int
    m2: int
    n2: int
    sector: Sector
    shift: object


@dataclass(frozen=True)
class ReductionStep:
    element: object
    case: str
    degree_before: Fraction
    degree_after: Fraction
    retries: int = 0


@dataclass(frozen=True)
class ReductionCertificate:
    initial: object
    steps: tuple
    terminal: object


@dataclass(frozen=True)
class CmnTable:
    order: int
    values: tuple


@dataclass(frozen=True)
class WhittakerType:
    sector: Sector
    r: int
    zeta: tuple
    exact: bool = True


@dataclass(frozen=True)
class ReportRow:
    index: int
    expected: object
    actual: str
    ok: bool


@dataclass(frozen=True)
class WhittakerReport:
    sector: Sector
    r: int
    epsilon: int
    bound: int
    valid_type: bool
    rows: tuple


@dataclass(frozen=True)
class FiberPoint:
    sector: Sector
    rank: int
    r: int
    exact: bool
    sphere_point: object
    top_vector: tuple
    free_params: tuple
    lambda_entries: tuple
    residual: object


TWINS = {hf.LambdaSequence: LambdaSequence,
         hf.QuadraticElement: QuadraticElement,
         hf.ReductionStep: ReductionStep,
         hf.ReductionCertificate: ReductionCertificate,
         hf.CmnTable: CmnTable, hf.WhittakerType: WhittakerType,
         whittaker.ReportRow: ReportRow, hf.WhittakerReport: WhittakerReport,
         hf.FiberPoint: FiberPoint}


def _samples():
    """Records of every kind, from seeded draws in both sectors."""
    out = [cmn_table(0), cmn_table(3)]
    for seed in range(3):
        rng = Random(4100 + seed)
        for sector in Sector:
            lam = random_lambda(rng, 2, sector, max_r=2, anisotropic_top=True)
            cert = certify_cyclic(lam, random_fock(rng, 2, sector, max_degree=3))
            ty = whittaker_type_of(lam)
            report = verify_whittaker_vector(lam, lam.support_bound + 2)
            out += [lam, cert, *cert.steps, *(s.element for s in cert.steps),
                    ty, report, *report.rows,
                    solve_fiber(ty, 2, exact=True, top_vector=lam.entries[-1]),
                    solve_fiber(ty, 2)]
    return out


SAMPLES = _samples()
RECORDS = pytest.mark.parametrize("cls", list(TWINS), ids=lambda c: c.__name__)


def _of(cls):
    return [rec for rec in SAMPLES if type(rec) is cls]


def _field_names(rec):
    return [f.name for f in fields(TWINS[type(rec)])]


def _hash(value):
    try:
        return hash(value)
    except TypeError as exc:
        return str(exc)


def test_every_record_is_sampled_in_both_sectors():
    assert {type(rec) for rec in SAMPLES} == set(TWINS)
    assert {lam.sector for lam in _of(hf.LambdaSequence)} == set(Sector)


@RECORDS
def test_constructor_matches_twin(cls):
    def shape(c):
        return [(p.name, p.kind, p.default)
                for p in inspect.signature(c).parameters.values()]

    assert shape(cls) == shape(TWINS[cls])


@RECORDS
def test_repr_eq_hash_match_twin(cls):
    for rec in _of(cls):
        values = [getattr(rec, name) for name in _field_names(rec)]
        twin, again = TWINS[cls](*values), cls(*values)
        assert repr(rec) == repr(twin)
        assert rec == again and not rec != again
        assert _hash(rec) == _hash(twin) == _hash(again)
        assert rec != twin and twin != rec
        assert rec.__eq__(twin) is NotImplemented
        assert rec.__eq__(tuple(values)) is NotImplemented


@RECORDS
def test_fields_cannot_be_set_or_deleted(cls):
    for rec in _of(cls):
        for name in _field_names(rec):
            with pytest.raises(AttributeError,
                               match=f"cannot assign to field '{name}'"):
                setattr(rec, name, 0)
            with pytest.raises(AttributeError,
                               match=f"cannot delete field '{name}'"):
                delattr(rec, name)
        with pytest.raises(AttributeError):
            rec.extra = 0
        assert not hasattr(rec, "__dict__")


@RECORDS
def test_copy_deepcopy_and_pickle_round_trip(cls):
    for rec in _of(cls):
        for back in (copy.copy(rec), copy.deepcopy(rec),
                     pickle.loads(pickle.dumps(rec))):
            assert type(back) is cls and back == rec
            assert repr(back) == repr(rec)


def test_one_field_apart_is_unequal():
    q = hf.QuadraticElement(1, 2, 2, 4, Sector.UNTWISTED, hf.Scalar(3))
    assert q != hf.QuadraticElement(1, 2, 2, 4, Sector.UNTWISTED, hf.Scalar(4))


@pytest.mark.parametrize("build, error, message", [
    (lambda: hf.LambdaSequence(Sector.UNTWISTED, 0, ()),
     BosonIndexError, "rank must be >= 1, got 0"),
    (lambda: hf.QuadraticElement(0, 1, 2, 2, Sector.UNTWISTED, hf.Scalar(0)),
     BosonIndexError, "boson indices must be >= 1, got i=0, j=1"),
    (lambda: hf.WhittakerType(Sector.TWISTED, 0, (hf.Scalar(1),)),
     PreconditionError, "twisted type needs r >= 1"),
    (lambda: hf.WhittakerType(Sector.UNTWISTED, 1, (hf.Scalar(1),)),
     PreconditionError, "expected 2 eigenvalues, got 1"),
    (lambda: hf.WhittakerType(Sector.UNTWISTED, 0, (hf.Scalar(0),)),
     PreconditionError, "top eigenvalue must be nonzero"),
])
def test_construction_checks_keep_their_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
