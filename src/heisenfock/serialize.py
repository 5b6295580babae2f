"""Canonical JSON and text forms for every payload the CLI reads or writes.

Exact values are always strings: rationals ``p/q``, scalars ``a+bi``, modes
``n`` or ``n/2`` in ASCII digits, monomials ``x[i,n]^e`` joined by ``*``.
Floating-point payloads carry an explicit ``"numeric": true`` marker and
encode complex numbers as two-element ``[re, im]`` arrays.  Every document
carries ``"schema": <name>/<version>``; parsers accept documents without the
marker but validate everything else strictly, raising ``SchemaError``.
"""

from __future__ import annotations

import cmath
import re as _re
from typing import Dict, List, Optional, Sequence

from .certify import ReductionCertificate, ReductionStep
from .errors import ModeRangeError, SchemaError
from .fock import (FockVector, Mode, Monomial, Sector, _check_parity,
                   mode_text, monomial_text)
from .heisenberg import LambdaSequence, QuadraticElement
from .scalars import Scalar, format_scalar, parse_rational, parse_scalar
from .vertex import CmnTable
from .whittaker import FiberPoint, WhittakerReport, WhittakerType

SCHEMA_VERSION = 1


def _schema(name: str) -> str:
    return f"{name}/{SCHEMA_VERSION}"


def _is_number(value) -> bool:
    """A JSON number; ``true``/``false`` are not, though ``bool`` is an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _expect(doc, key, kind, where):
    if not isinstance(doc, dict):
        raise SchemaError(f"{where}: expected an object")
    if key not in doc:
        raise SchemaError(f"{where}: missing key {key!r}")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind)
                             or kind is int and isinstance(value, bool)):
        raise SchemaError(f"{where}: key {key!r} has wrong type")
    return value


def parse_sector(text) -> Sector:
    try:
        return Sector(text)
    except ValueError as exc:
        raise SchemaError(f"unknown sector {text!r}") from exc


def fraction_pair(value, where: str) -> Scalar:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, str) for v in value)):
        raise SchemaError(f"{where}: expected a [re, im] pair of rational strings")
    try:
        return Scalar(parse_rational(value[0]), parse_rational(value[1]))
    except SchemaError as exc:
        raise SchemaError(f"{where}: bad rational in {value!r}") from exc


def scalar_pair(x: Scalar) -> List[str]:
    return [str(x.re), str(x.im)]


def complex_pair(z: complex) -> List[float]:
    return [z.real, z.imag]


def parse_complex_pair(value, where: str) -> complex:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(_is_number(v) for v in value)):
        raise SchemaError(f"{where}: expected a numeric [re, im] pair")
    return _finite(value[0], value[1], where)


def _finite(re, im, where: str) -> complex:
    """The complex number re + i*im; NaN, infinities and overflow are refused."""
    try:
        z = complex(re, im)
    except OverflowError as exc:
        raise SchemaError(f"{where}: number out of range in {[re, im]!r}") from exc
    if not cmath.isfinite(z):
        raise SchemaError(f"{where}: non-finite number in {[re, im]!r}")
    return z


# -- lambda sequences ------------------------------------------------------------

def lambda_to_json(lam: LambdaSequence) -> dict:
    return {
        "schema": _schema("lambda"),
        "sector": lam.sector.value,
        "rank": lam.rank,
        "entries": [[scalar_pair(c) for c in row] for row in lam.entries],
    }


def lambda_from_json(doc) -> LambdaSequence:
    sector = parse_sector(_expect(doc, "sector", str, "lambda"))
    rank = _expect(doc, "rank", int, "lambda")
    if rank < 1:
        raise SchemaError("lambda: rank must be >= 1")
    entries = _expect(doc, "entries", list, "lambda")
    rows = []
    for idx, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != rank:
            raise SchemaError(f"lambda: entry {idx} must list {rank} coordinates")
        rows.append([fraction_pair(c, f"lambda entry {idx}") for c in row])
    return LambdaSequence.make(sector, rank, rows)


# -- Fock vectors ------------------------------------------------------------------

# One mode grammar for monomial factors and certificate steps: ASCII digits
# (\d would also read other scripts' digits), then an optional ``/2``.
_MODE = r"([0-9]+)(/2)?"
_MODE_TEXT = _re.compile(_MODE)
_MONOMIAL_FACTOR = _re.compile(r"x\[([0-9]+)," + _MODE + r"\](?:\^([0-9]+))?")


def _doubled(digits: str, half: Optional[str]) -> int:
    """``n`` for ``n/2``, else ``2n``; ``int`` may raise ValueError."""
    return int(digits) if half else 2 * int(digits)


def parse_monomial(text: str, sector: Sector) -> Monomial:
    text = text.strip()
    if text == "1":
        return ()
    factors: Dict = {}
    for piece in text.split("*"):
        m = _MONOMIAL_FACTOR.fullmatch(piece.strip())
        if not m:
            raise SchemaError(f"bad monomial factor {piece!r}")
        try:
            i, d2, e = int(m[1]), _doubled(m[2], m[3]), int(m[4] or 1)
        except ValueError as exc:  # more digits than int() converts
            raise SchemaError(f"over-long number in {piece[:24]!r}...") from exc
        if _check_parity(d2, sector) == 0:
            raise ModeRangeError("mode must be positive, got 0")
        if e < 1:
            raise SchemaError(f"bad exponent in {piece!r}")
        factors[i, d2] = factors.get((i, d2), 0) + e
    return tuple((i, d2, e) for (i, d2), e in sorted(factors.items()))


def fock_to_json(f: FockVector) -> dict:
    return {
        "schema": _schema("vector"),
        "sector": f.sector.value,
        "rank": f.rank,
        "terms": [{"monomial": monomial_text(mono), "coeff": format_scalar(c)}
                  for mono, c in f.sorted_terms()],
    }


def fock_from_json(doc) -> FockVector:
    sector = parse_sector(_expect(doc, "sector", str, "vector"))
    rank = _expect(doc, "rank", int, "vector")
    terms = _expect(doc, "terms", list, "vector")
    pairs = []
    for idx, item in enumerate(terms):
        mono_text = _expect(item, "monomial", str, f"vector term {idx}")
        coeff_text = _expect(item, "coeff", str, f"vector term {idx}")
        mono = parse_monomial(mono_text, sector)
        for i, _, _ in mono:
            if not 1 <= i <= rank:
                raise SchemaError(f"vector term {idx}: boson index {i} > rank")
        pairs.append((mono, parse_scalar(coeff_text)))
    return FockVector.from_terms(rank, sector, pairs)


# -- Whittaker types -----------------------------------------------------------------

def whittaker_type_to_json(wt: WhittakerType) -> dict:
    doc = {
        "schema": _schema("type"),
        "sector": wt.sector.value,
        "r": wt.r,
        "epsilon": wt.epsilon,
    }
    if wt.exact:
        doc["zeta"] = [format_scalar(z) for z in wt.zeta]
    else:
        doc["numeric"] = True
        doc["zeta"] = [complex_pair(complex(z)) for z in wt.zeta]
    return doc


def whittaker_type_from_json(doc) -> WhittakerType:
    sector = parse_sector(_expect(doc, "sector", str, "type"))
    r = _expect(doc, "r", int, "type")
    zeta_raw = _expect(doc, "zeta", list, "type")
    numeric = doc.get("numeric", False)
    if not isinstance(numeric, bool):
        raise SchemaError("type: the numeric marker must be true or false")
    if numeric:
        zeta = tuple(parse_complex_pair(z, "type zeta") for z in zeta_raw)
    else:
        zeta = tuple(parse_scalar(z) if isinstance(z, str)
                     else _bad_zeta(z) for z in zeta_raw)
    try:
        return WhittakerType(sector, r, zeta, exact=not numeric)
    except ValueError as exc:
        raise SchemaError(f"type: {exc}") from exc


def _bad_zeta(z):
    raise SchemaError(f"type zeta entry {z!r} must be a scalar string")


# -- certificates ---------------------------------------------------------------------

def certificate_to_json(lam: LambdaSequence,
                        cert: ReductionCertificate) -> dict:
    return {
        "schema": _schema("certificate"),
        "lambda": lambda_to_json(lam),
        "initial": fock_to_json(cert.initial),
        "steps": [{
            "i": s.element.i,
            "j": s.element.j,
            "m": mode_text(s.element.m.doubled),
            "n": mode_text(s.element.n.doubled),
            "shift": format_scalar(s.element.shift),
            "case": s.case,
            "deg_before": str(s.degree_before),
            "deg_after": str(s.degree_after),
            "retries": s.retries,
        } for s in cert.steps],
        "terminal": format_scalar(cert.terminal),
    }


def certificate_from_json(doc):
    lam = lambda_from_json(_expect(doc, "lambda", dict, "certificate"))
    initial = fock_from_json(_expect(doc, "initial", dict, "certificate"))
    steps = []
    for idx, raw in enumerate(_expect(doc, "steps", list, "certificate")):
        where = f"certificate step {idx}"
        i = _expect(raw, "i", int, where)
        j = _expect(raw, "j", int, where)
        for key, index in (("i", i), ("j", j)):
            if not 1 <= index <= lam.rank:
                raise SchemaError(
                    f"{where}: boson index {key}={index} outside 1..{lam.rank}")
        m = _step_mode(_expect(raw, "m", str, where), lam.sector, where)
        n = _step_mode(_expect(raw, "n", str, where), lam.sector, where)
        shift = parse_scalar(_expect(raw, "shift", str, where))
        case = _expect(raw, "case", str, where)
        if case not in ("1", "2", "3a", "3b"):
            raise SchemaError(f"{where}: unknown case tag {case!r}")
        texts = (_expect(raw, "deg_before", str, where),
                 _expect(raw, "deg_after", str, where))
        try:
            before, after = map(parse_rational, texts)
        except SchemaError as exc:
            raise SchemaError(f"{where}: bad degree") from exc
        retries = raw.get("retries", 0)
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise SchemaError(f"{where}: bad retries value {retries!r}")
        steps.append(ReductionStep(QuadraticElement(i, j, m, n, shift),
                                   case, before, after, retries))
    terminal = parse_scalar(_expect(doc, "terminal", str, "certificate"))
    return lam, ReductionCertificate(initial, tuple(steps), terminal)


def _step_mode(text: str, sector: Sector, where: str) -> Mode:
    m = _MODE_TEXT.fullmatch(text)
    if m is None:
        raise SchemaError(f"{where}: bad mode {text!r}")
    try:
        d2 = _doubled(m[1], m[2])
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(f"{where}: over-long mode {text[:24]!r}...") from exc
    return Mode(d2, sector)


# -- reports and fibers ------------------------------------------------------------------

def report_to_json(report: WhittakerReport) -> dict:
    return {
        "schema": _schema("verify-report"),
        "sector": report.sector.value,
        "r": report.r,
        "epsilon": report.epsilon,
        "bound": report.bound,
        "valid_type": report.valid_type,
        "rows": [{
            "index": row.index,
            "expected": format_scalar(row.expected),
            "actual": row.actual,
            "ok": row.ok,
        } for row in report.rows],
        "all_pass": report.all_ok,
    }


def fiber_to_json(point: FiberPoint) -> dict:
    doc = {
        "schema": _schema("fiber-point"),
        "sector": point.sector.value,
        "rank": point.rank,
        "r": point.r,
        "numeric": not point.exact,
    }
    if point.exact:
        doc["sphere_point"] = ([format_scalar(c) for c in point.sphere_point]
                               if point.sphere_point is not None else None)
        doc["top_vector"] = [format_scalar(c) for c in point.top_vector]
        doc["free_params"] = [[format_scalar(c) for c in row]
                              for row in point.free_params]
        doc["lambda"] = lambda_to_json(LambdaSequence.make(
            point.sector, point.rank, point.lambda_entries))
        doc["residual"] = str(point.residual)
    else:
        doc["sphere_point"] = [complex_pair(c) for c in point.sphere_point]
        doc["top_vector"] = [complex_pair(c) for c in point.top_vector]
        doc["free_params"] = [[complex_pair(complex(c)) for c in row]
                              for row in point.free_params]
        doc["lambda"] = {
            "sector": point.sector.value,
            "rank": point.rank,
            "numeric": True,
            "entries": [[complex_pair(c) for c in row]
                        for row in point.lambda_entries],
        }
        doc["residual"] = point.residual
    return doc


def cmn_to_json(table: CmnTable) -> dict:
    return {
        "schema": _schema("cmn-table"),
        "order": table.order,
        "values": [[str(v) for v in row] for row in table.values],
    }


# -- free-form sphere/parameter files -------------------------------------------------

def vectors_from_json(doc, rank: int, where: str,
                      numeric: bool) -> List[Sequence]:
    """Parse a list of coordinate vectors (scalar strings or float pairs)."""
    if not isinstance(doc, list):
        raise SchemaError(f"{where}: expected a list of vectors")
    rows = []
    for idx, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != rank:
            raise SchemaError(f"{where}[{idx}]: expected {rank} coordinates")
        if numeric:
            rows.append([parse_complex_pair(c, f"{where}[{idx}]")
                         if isinstance(c, (list, tuple)) else _as_float(c, where)
                         for c in row])
        else:
            rows.append([parse_scalar(c) if isinstance(c, str)
                         else _bad_coord(c, where) for c in row])
    return rows


def _as_float(c, where):
    if _is_number(c):
        return _finite(c, 0, where)
    raise SchemaError(f"{where}: bad numeric coordinate {c!r}")


def _bad_coord(c, where):
    raise SchemaError(f"{where}: exact coordinates must be scalar strings, got {c!r}")
