"""Canonical JSON and text forms for every payload the CLI reads or writes.

Exact values are always strings: rationals ``p/q``, scalars ``a+bi``, modes
``n`` or ``n/2`` in ASCII digits, monomials ``x[i,n]^e`` joined by ``*``.
Floating-point payloads carry an explicit ``"numeric": true`` marker and
encode complex numbers as two-element ``[re, im]`` arrays.  Every document
carries ``"schema": <name>/<version>``; a parser refuses a marker other than
its own ``<name>/1``, accepts a document without one, and validates everything
else strictly, raising ``SchemaError``.

Type and fiber coordinates have one writer, ``_coordinates``, and one
reader, ``_coordinate``, which also takes a bare number as a real numeric
coordinate and names the entry it refuses.  The sphere, top and parameter
files of ``fiber`` carry no ``numeric`` marker: the CLI's ``--exact`` flag
picks the mode they are read in.

The record classes of ``certify``, ``whittaker`` and ``vertex`` are reached
through the package, by annotations and readers alike, which loads their
modules on first use: a request loads only its subcommand's modules.

A vector document reads each distinct factor text ``x[i,n]^e`` once and
writes each distinct factor once, through a table that lives for that one
call; text whose factors come sorted and distinct, as canonical text does,
becomes its monomial without a merge.
"""

from __future__ import annotations

import cmath
import re as _re
from fractions import Fraction
from typing import Dict, List, Optional, Sequence

import heisenfock as hf

from .errors import SchemaError, _quoted
from .fock import (FockVector, Monomial, Sector, _check_positive,
                   _factor_text, _sorted_monomial, mode_text)
from .heisenberg import LambdaSequence, QuadraticElement
from .scalars import (Scalar, _ratio_text, format_scalar, parse_rational,
                      parse_scalar)

SCHEMA_VERSION = 1


def _schema(name: str) -> str:
    return f"{name}/{SCHEMA_VERSION}"


def _check_marker(doc, name: str) -> None:
    """A ``schema`` marker, when present, must be this reader's own."""
    if isinstance(doc, dict) and "schema" in doc:
        marker = doc["schema"]
        if marker != _schema(name):
            raise SchemaError(f"{name}: schema marker {_quoted(marker)} "
                              f"is not {_schema(name)!r}")


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


def _rank(doc, where: str) -> int:
    rank = _expect(doc, "rank", int, where)
    if rank < 1:
        raise SchemaError(f"{where}: rank must be >= 1")
    return rank


def parse_sector(text) -> Sector:
    try:
        return Sector(text)
    except ValueError as exc:
        raise SchemaError(f"unknown sector {_quoted(text)}") from exc


def fraction_pair(value, where: str) -> Scalar:
    if (not isinstance(value, (list, tuple)) or len(value) != 2
            or not all(isinstance(v, str) for v in value)):
        raise SchemaError(f"{where}: expected a [re, im] pair of rational strings")
    try:
        return Scalar(parse_rational(value[0]), parse_rational(value[1]))
    except SchemaError as exc:
        raise SchemaError(f"{where}: bad rational in {_quoted(value)}") from exc


def _rational_text(q: Fraction) -> str:
    return _ratio_text(q.numerator, q.denominator)


def _scalar(text: str, where: str) -> Scalar:
    """``parse_scalar``, whose refusal names the entry ``where`` it reads."""
    try:
        return parse_scalar(text)
    except SchemaError as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def _finite(re, im, where: str) -> complex:
    """The complex number re + i*im; NaN, infinities and overflow are refused."""
    try:
        z = complex(re, im)
    except OverflowError as exc:
        raise SchemaError(
            f"{where}: number out of range in {_quoted([re, im])}") from exc
    if not cmath.isfinite(z):
        raise SchemaError(f"{where}: non-finite number in {_quoted([re, im])}")
    return z


# -- lambda sequences ------------------------------------------------------------

def lambda_to_json(lam: LambdaSequence) -> dict:
    return {
        "schema": _schema("lambda"),
        "sector": lam.sector.value,
        "rank": lam.rank,
        "entries": [[[_ratio_text(c.a, c.d), _ratio_text(c.b, c.d)]
                     for c in row] for row in lam.entries],
    }


def lambda_from_json(doc) -> LambdaSequence:
    _check_marker(doc, "lambda")
    sector = parse_sector(_expect(doc, "sector", str, "lambda"))
    rank = _rank(doc, "lambda")
    entries = _expect(doc, "entries", list, "lambda")
    rows = []
    for idx, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != rank:
            raise SchemaError(
                f"lambda: entry {idx} must list {_quoted(rank)} coordinates")
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
    """Read ``1``, or ``x[i,n]^e`` pieces joined by ``*`` in any order with
    repeats summed; the first bad piece raises."""
    return _monomial(text, sector, {})


def _monomial(text: str, sector: Sector, factors: Dict) -> Monomial:
    """``parse_monomial``, reading each piece through the table ``factors``
    of the pieces a document has already parsed."""
    text = text.strip()
    if text == "1":
        return ()
    mono = []
    ordered = True
    last_i, last_d2 = -1, 0
    for piece in text.split("*"):
        factor = factors.get(piece)
        if factor is None:
            factor = factors[piece] = _monomial_factor(piece, sector)
        i, d2, _ = factor
        if i < last_i or i == last_i and d2 <= last_d2:
            ordered = False
        last_i, last_d2 = i, d2
        mono.append(factor)
    # canonical text comes sorted, each variable once
    return tuple(mono) if ordered else _sorted_monomial(mono)


def _monomial_factor(piece: str, sector: Sector):
    """One ``x[i,n]^e`` piece of a monomial as its (i, 2n, e) triple."""
    m = _MONOMIAL_FACTOR.fullmatch(piece.strip())
    if not m:
        raise SchemaError(f"bad monomial factor {_quoted(piece)}")
    try:
        i, d2, e = int(m[1]), _doubled(m[2], m[3]), int(m[4] or 1)
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(f"over-long number in {_quoted(piece)}") from exc
    _check_positive(d2, sector)
    if e < 1:
        raise SchemaError(f"bad exponent in {_quoted(piece)}")
    return i, d2, e


def fock_to_json(f: FockVector) -> dict:
    texts: Dict = {}  # the text of each factor, formatted once per vector
    terms = []
    for mono, c in f.sorted_terms():
        parts = []
        for factor in mono:
            part = texts.get(factor)
            if part is None:
                part = texts[factor] = _factor_text(*factor)
            parts.append(part)
        terms.append({"monomial": "*".join(parts) if parts else "1",
                      "coeff": format_scalar(c)})
    return {
        "schema": _schema("vector"),
        "sector": f.sector.value,
        "rank": f.rank,
        "terms": terms,
    }


def fock_from_json(doc) -> FockVector:
    _check_marker(doc, "vector")
    sector = parse_sector(_expect(doc, "sector", str, "vector"))
    rank = _rank(doc, "vector")
    terms = _expect(doc, "terms", list, "vector")
    factors: Dict = {}  # each distinct factor text, parsed once per document
    acc: Dict[Monomial, Scalar] = {}
    for idx, item in enumerate(terms):
        mono_text = coeff_text = None
        if isinstance(item, dict):
            mono_text, coeff_text = item.get("monomial"), item.get("coeff")
        if not (isinstance(mono_text, str) and isinstance(coeff_text, str)):
            # a malformed term: the checks name it in their message
            where = f"vector term {idx}"
            mono_text = _expect(item, "monomial", str, where)
            coeff_text = _expect(item, "coeff", str, where)
        mono = _monomial(mono_text, sector, factors)
        # sorted by boson index: only the ends can fall outside the rank
        if mono and (mono[0][0] < 1 or mono[-1][0] > rank):
            i = next(i for i, _, _ in mono if not 1 <= i <= rank)
            raise SchemaError(
                f"vector term {idx}: boson index {_quoted(i)} outside 1..{rank}")
        try:
            c = parse_scalar(coeff_text)
        except SchemaError as exc:  # the location is written only on refusal
            raise SchemaError(f"vector term {idx}: {exc}") from exc
        if mono in acc:  # a repeated monomial: its coefficients summed
            c = acc.pop(mono) + c
        if c:
            acc[mono] = c
    return FockVector(rank, sector, acc)


# -- Whittaker types -----------------------------------------------------------------

def whittaker_type_to_json(wt: hf.WhittakerType) -> dict:
    doc = {
        "schema": _schema("type"),
        "sector": wt.sector.value,
        "r": wt.r,
        "epsilon": wt.epsilon,
    }
    if not wt.exact:
        doc["numeric"] = True
    doc["zeta"] = _coordinates(wt.zeta, wt.exact)
    return doc


def whittaker_type_from_json(doc) -> hf.WhittakerType:
    _check_marker(doc, "type")
    sector = parse_sector(_expect(doc, "sector", str, "type"))
    r = _expect(doc, "r", int, "type")
    zeta_raw = _expect(doc, "zeta", list, "type")
    numeric = doc.get("numeric", False)
    if not isinstance(numeric, bool):
        raise SchemaError("type: the numeric marker must be true or false")
    zeta = tuple(_coordinate(z, not numeric, f"type zeta[{k}]")
                 for k, z in enumerate(zeta_raw))
    try:
        return hf.WhittakerType(sector, r, zeta, exact=not numeric)
    except ValueError as exc:
        raise SchemaError(f"type: {exc}") from exc


# -- certificates ---------------------------------------------------------------------

def certificate_to_json(lam: LambdaSequence,
                        cert: hf.ReductionCertificate) -> dict:
    return {
        "schema": _schema("certificate"),
        "lambda": lambda_to_json(lam),
        "initial": fock_to_json(cert.initial),
        "steps": [{
            "i": s.element.i,
            "j": s.element.j,
            "m": mode_text(s.element.m2),
            "n": mode_text(s.element.n2),
            "shift": format_scalar(s.element.shift),
            "case": s.case,
            "deg_before": _rational_text(s.degree_before),
            "deg_after": _rational_text(s.degree_after),
            "retries": s.retries,
        } for s in cert.steps],
        "terminal": format_scalar(cert.terminal),
    }


def certificate_from_json(doc):
    _check_marker(doc, "certificate")
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
                    f"{where}: boson index {key}={_quoted(index)} "
                    f"outside 1..{lam.rank}")
        m2 = _step_mode(_expect(raw, "m", str, where), lam.sector, where)
        n2 = _step_mode(_expect(raw, "n", str, where), lam.sector, where)
        shift = _scalar(_expect(raw, "shift", str, where), where)
        case = _expect(raw, "case", str, where)
        if case not in ("1", "2", "3a", "3b"):
            raise SchemaError(f"{where}: unknown case tag {_quoted(case)}")
        texts = (_expect(raw, "deg_before", str, where),
                 _expect(raw, "deg_after", str, where))
        try:
            before, after = map(parse_rational, texts)
        except SchemaError as exc:
            raise SchemaError(f"{where}: bad degree") from exc
        retries = raw.get("retries", 0)
        if not isinstance(retries, int) or isinstance(retries, bool) or retries < 0:
            raise SchemaError(f"{where}: bad retries value {_quoted(retries)}")
        q = QuadraticElement(i, j, m2, n2, lam.sector, shift)
        steps.append(hf.ReductionStep(q, case, before, after, retries))
    terminal = _scalar(_expect(doc, "terminal", str, "certificate"),
                       "certificate terminal")
    return lam, hf.ReductionCertificate(initial, tuple(steps), terminal)


def _step_mode(text: str, sector: Sector, where: str) -> int:
    m = _MODE_TEXT.fullmatch(text)
    if m is None:
        raise SchemaError(f"{where}: bad mode {_quoted(text)}")
    try:
        d2 = _doubled(m[1], m[2])
    except ValueError as exc:  # more digits than int() converts
        raise SchemaError(f"{where}: over-long mode {_quoted(text)}") from exc
    return _check_positive(d2, sector)


# -- reports and fibers ------------------------------------------------------------------

def report_to_json(report: hf.WhittakerReport) -> dict:
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


def fiber_to_json(point: hf.FiberPoint) -> dict:
    exact = point.exact
    sphere = point.sphere_point
    return {
        "schema": _schema("fiber-point"),
        "sector": point.sector.value,
        "rank": point.rank,
        "r": point.r,
        "numeric": not exact,
        "sphere_point": None if sphere is None else _coordinates(sphere, exact),
        "top_vector": _coordinates(point.top_vector, exact),
        "free_params": [_coordinates(row, exact) for row in point.free_params],
        # a numeric lambda has no schema: the lambda reader is exact only
        "lambda": lambda_to_json(point.to_lambda()) if exact else {
            "sector": point.sector.value,
            "rank": point.rank,
            "numeric": True,
            "entries": [_coordinates(row, False)
                        for row in point.lambda_entries],
        },
        "residual": _rational_text(point.residual) if exact else point.residual,
    }


def _coordinates(values: Sequence, exact: bool) -> list:
    """Scalar strings, or ``[re, im]`` float pairs, one per value; the one
    writer of type and fiber coordinates, which ``_coordinate`` reads."""
    if exact:
        return [format_scalar(c) for c in values]
    return [[z.real, z.imag] for z in map(complex, values)]


def _coordinate(value, exact: bool, where: str):
    """One coordinate as ``_coordinates`` writes it: a scalar string when
    exact, else a finite number or a ``[re, im]`` pair of finite numbers."""
    if exact:
        if isinstance(value, str):
            return _scalar(value, where)
        raise SchemaError(f"{where}: exact coordinates must be scalar "
                          f"strings, got {_quoted(value)}")
    pair = value if isinstance(value, (list, tuple)) else (value, 0)
    if len(pair) == 2 and all(_is_number(v) for v in pair):
        return _finite(*pair, where)
    raise SchemaError(f"{where}: expected a number or a numeric [re, im] "
                      f"pair, got {_quoted(value)}")


def cmn_to_json(table: hf.CmnTable) -> dict:
    return {
        "schema": _schema("cmn-table"),
        "order": table.order,
        "values": [[_rational_text(v) for v in row] for row in table.values],
    }


# -- free-form sphere/parameter files -------------------------------------------------

def vectors_from_json(doc, rank: int, where: str,
                      exact: bool) -> List[Sequence]:
    """Parse a list of coordinate vectors, each coordinate read by
    ``_coordinate``: the file carries no mode marker, ``exact`` picks it."""
    if not isinstance(doc, list):
        raise SchemaError(f"{where}: expected a list of vectors")
    rows = []
    for idx, row in enumerate(doc):
        if not isinstance(row, list) or len(row) != rank:
            raise SchemaError(f"{where}[{idx}]: expected {rank} coordinates")
        rows.append([_coordinate(c, exact, f"{where}[{idx}]") for c in row])
    return rows
