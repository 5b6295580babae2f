import json
import re
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from heisenfock import (FockVector, LambdaSequence, Scalar, SchemaError,
                        Sector, WhittakerType, certify_cyclic, cmn_table,
                        serialize)
from heisenfock.fock import _check_positive, mode_text
from heisenfock.sampling import random_fock, random_lambda
from heisenfock.scalars import format_scalar, parse_scalar
from heisenfock.serialize import (certificate_from_json, certificate_to_json,
                                  cmn_to_json, fock_from_json, fock_to_json,
                                  lambda_from_json, lambda_to_json,
                                  parse_monomial, vectors_from_json,
                                  whittaker_type_from_json,
                                  whittaker_type_to_json)

from conftest import lam_of, sc, x

HALF = Fraction(1, 2)
NAN, INF = float("nan"), float("inf")


class TestLambdaJson:
    def test_round_trip(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(10):
                lam = random_lambda(rng, 3, sector)
                assert lambda_from_json(lambda_to_json(lam)) == lam

    def test_fixed_document(self):
        doc = {"sector": "untwisted", "rank": 2,
               "entries": [[["0", "0"], ["0", "0"]],
                           [["1/2", "0"], ["0", "-1/3"]]]}
        lam = lambda_from_json(doc)
        assert lam.pair(1, 1) == sc(HALF)
        assert lam.pair(1, 2) == sc(0, Fraction(-1, 3))

    @pytest.mark.parametrize("doc", [
        {"sector": "nope", "rank": 1, "entries": []},
        {"sector": "untwisted", "rank": 0, "entries": []},
        {"sector": "untwisted", "rank": 2, "entries": [[["1", "0"]]]},
        {"sector": "untwisted", "rank": 1, "entries": [[["1/0", "0"]]]},
        {"sector": "untwisted", "rank": 1, "entries": [[[1, 0]]]},
        {"rank": 1, "entries": []},
    ])
    def test_rejects_malformed(self, doc):
        with pytest.raises(SchemaError):
            lambda_from_json(doc)


class TestVectorJson:
    def test_round_trip(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(10):
                f = random_fock(rng, 2, sector, nonzero=False)
                assert fock_from_json(fock_to_json(f)) == f

    def test_monomial_text_round_trip(self):
        f = (x(1, 1, 2) * x(1, 1, 2)) * x(2, 3, 2) + FockVector.constant(2, 2)
        doc = fock_to_json(f)
        monos = [t["monomial"] for t in doc["terms"]]
        assert monos == ["x[1,1]^2*x[2,3]", "1"]
        assert fock_from_json(doc) == f

    def test_parse_twisted_monomial(self):
        mono = parse_monomial("x[1,1/2]*x[1,3/2]^2", Sector.TWISTED)
        assert mono == ((1, 1, 1), (1, 3, 2))

    @pytest.mark.parametrize("text", ["x[1]", "y[1,1]", "x[1,1]^0",
                                      "x[1,1/3]", "x[1,1]x[1,2]"])
    def test_rejects_bad_monomials(self, text):
        with pytest.raises(SchemaError):
            parse_monomial(text, Sector.UNTWISTED)

    @pytest.mark.parametrize("mono", ["x[2,1]", "x[0,1]"])
    def test_index_outside_rank_rejected(self, mono):
        doc = {"sector": "untwisted", "rank": 1,
               "terms": [{"monomial": mono, "coeff": "1"}]}
        with pytest.raises(SchemaError, match=r"boson index \d outside 1\.\.1"):
            fock_from_json(doc)

    @pytest.mark.parametrize("rank", [0, -3])
    def test_rank_below_one_rejected(self, rank):
        for terms in ([], [{"monomial": "1", "coeff": "1"}]):
            doc = {"sector": "untwisted", "rank": rank, "terms": terms}
            with pytest.raises(SchemaError):
                fock_from_json(doc)


class TestTypeJson:
    def test_exact_round_trip(self):
        wt = WhittakerType(Sector.UNTWISTED, 1, (sc(0), sc(2)))
        doc = whittaker_type_to_json(wt)
        assert doc["r"] == 1 and doc["zeta"] == ["0", "2"]
        assert whittaker_type_from_json(doc) == wt

    def test_numeric_round_trip(self):
        wt = WhittakerType(Sector.TWISTED, 2, (0.5 + 0j, 1 + 2j), exact=False)
        doc = whittaker_type_to_json(wt)
        assert doc["numeric"] is True
        back = whittaker_type_from_json(doc)
        assert back.zeta == wt.zeta and not back.exact

    def test_rejects_zero_top(self):
        doc = {"sector": "untwisted", "r": 0, "zeta": ["0"]}
        with pytest.raises(SchemaError):
            whittaker_type_from_json(doc)

    @pytest.mark.parametrize("pair", [[NAN, 0], [0, NAN], [INF, 0], [0, -INF],
                                      [10 ** 400, 0]])
    def test_rejects_non_finite_zeta(self, pair):
        doc = {"sector": "untwisted", "r": 0, "numeric": True, "zeta": [pair]}
        with pytest.raises(SchemaError):
            whittaker_type_from_json(doc)


@pytest.mark.parametrize("coord", [NAN, INF, -INF, [NAN, 0], [1, INF]])
def test_numeric_vectors_reject_non_finite(coord):
    with pytest.raises(SchemaError):
        vectors_from_json([[1.0, coord]], 2, "sphere", numeric=True)
    assert vectors_from_json([[1.0, 2]], 2, "sphere", numeric=True) == [[1, 2]]


class TestCertificateJson:
    def test_round_trip(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            lam = random_lambda(rng, 2, sector)
            a = random_fock(rng, 2, sector, max_degree=6)
            cert = certify_cyclic(lam, a)
            lam2, cert2 = certificate_from_json(certificate_to_json(lam, cert))
            assert lam2 == lam
            assert cert2 == cert

    @pytest.mark.parametrize("key,index", [("i", 0), ("i", 2), ("j", 0),
                                           ("j", 5)])
    def test_step_index_outside_rank_rejected(self, key, index):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [2])
        doc = certificate_to_json(lam, certify_cyclic(lam, x(1, 1, 1)))
        doc["steps"][0][key] = index
        with pytest.raises(SchemaError):
            certificate_from_json(doc)

    def test_twisted_round_trip_keeps_mode_text(self):
        tw = Sector.TWISTED
        lam = lam_of(tw, 2, [sc(1), sc(0)], [sc(0), sc(2)])
        a = (x(1, HALF, 2, tw) * x(2, Fraction(3, 2), 2, tw)
             + x(1, Fraction(5, 2), 2, tw))
        doc = certificate_to_json(lam, certify_cyclic(lam, a))
        assert doc["steps"]
        lam2, cert2 = certificate_from_json(doc)
        again = certificate_to_json(lam2, cert2)
        modes = [(s["m"], s["n"]) for s in doc["steps"]]
        assert [(s["m"], s["n"]) for s in again["steps"]] == modes
        assert all(t.endswith("/2") for pair in modes for t in pair)
        assert again == doc

    def test_mode_strings(self):
        lam = lam_of(Sector.TWISTED, 1, [1])
        a = x(1, HALF, 1, Sector.TWISTED)
        cert = certify_cyclic(lam, a)
        doc = certificate_to_json(lam, cert)
        assert doc["steps"][0]["m"] == "1/2"
        assert doc["steps"][0]["deg_before"] == "1/2"


def test_cmn_json():
    doc = cmn_to_json(cmn_table(2))
    assert doc["order"] == 2
    assert doc["values"][1][0] == "-1/4"
    assert doc["values"][1][1] == "1/16"


# -- the codec against its reference ---------------------------------------------
#
# ``reference_parse_monomial`` and ``reference_fock_from_json`` read every
# piece of every term on its own, and ``reference_fock_to_json`` formats every
# factor of every term and sorts by the written-out key; the codec reads and
# formats each distinct factor once per document, and must agree with them on
# every value and on every error's type and message.

_REFERENCE_FACTOR = re.compile(r"x\[([0-9]+),([0-9]+)(/2)?\](?:\^([0-9]+))?")


def reference_parse_monomial(text, sector):
    text = text.strip()
    if text == "1":
        return ()
    factors = {}
    for piece in text.split("*"):
        m = _REFERENCE_FACTOR.fullmatch(piece.strip())
        if not m:
            raise SchemaError(f"bad monomial factor {piece!r}")
        try:
            i = int(m[1])
            d2 = int(m[2]) if m[3] else 2 * int(m[2])
            e = int(m[4] or 1)
        except ValueError as exc:
            raise SchemaError(f"over-long number in {piece[:24]!r}...") from exc
        _check_positive(d2, sector)
        if e < 1:
            raise SchemaError(f"bad exponent in {piece!r}")
        factors[i, d2] = factors.get((i, d2), 0) + e
    return tuple((i, d2, e) for (i, d2), e in sorted(factors.items()))


def _summed(rank, sector, pairs):
    """The vector of the (monomial, coefficient) pairs, equal monomials
    summed and zero sums dropped, without package code."""
    acc = {}
    for mono, c in pairs:
        acc[mono] = acc[mono] + c if mono in acc else c
    return FockVector(rank, sector, {m: c for m, c in acc.items() if c})


def reference_fock_from_json(doc):
    sector = Sector(doc["sector"])
    rank = doc["rank"]
    pairs = []
    for idx, item in enumerate(doc["terms"]):
        mono = reference_parse_monomial(item["monomial"], sector)
        for i, _, _ in mono:
            if not 1 <= i <= rank:
                raise SchemaError(
                    f"vector term {idx}: boson index {i} outside 1..{rank}")
        pairs.append((mono, parse_scalar(item["coeff"])))
    return _summed(rank, sector, pairs)


def reference_fock_to_json(f):
    def key(item):
        mono = item[0]
        return (sum(d2 * e for _, d2, e in mono),
                tuple(v for i, d2, e in mono for v in [(i, d2)] * e))

    def text(mono):
        return "*".join(f"x[{i},{mode_text(d2)}]" + ("" if e == 1 else f"^{e}")
                        for i, d2, e in mono) or "1"

    return {"schema": "vector/1", "sector": f.sector.value, "rank": f.rank,
            "terms": [{"monomial": text(mono), "coeff": format_scalar(c)}
                      for mono, c in sorted(f.terms.items(), key=key,
                                            reverse=True)]}


def _outcome(fn, *args):
    try:
        return "value", fn(*args)
    except Exception as exc:  # the error's type and message are compared
        return "error", (type(exc), str(exc))


_DIGITS = "9" * 5000
_JUNK_PIECES = ["", " ", "1", "x[1]", "y[1,1]", "x[1,1]x[1,2]", "x[1,-1]",
                "x[١,1]", "x[1,1/3]", "x[1,0]", "x[1,1]^0",
                "x[1,1]^" + _DIGITS, "x[" + _DIGITS + ",1]",
                "x[1," + _DIGITS + "]", "x[1," + _DIGITS + "/2]"]


@st.composite
def _monomial_texts(draw, sector):
    """Monomial text in the sector: mostly well-formed factors, repeated and
    unsorted at times, with a junk piece now and then."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["1", " 1 ", "1*1", "", " "]))
    pieces = []
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.integers(0, 11)) == 0:
            pieces.append(draw(st.sampled_from(_JUNK_PIECES)))
            continue
        d2 = 2 * draw(st.integers(0, 3)) + 2 - sector.parity
        if draw(st.integers(0, 11)) == 0:  # the other sector's parity
            d2 += 1
        exponent = draw(st.sampled_from(["", "", "^1", "^2", "^3", "^12"]))
        pad = draw(st.sampled_from(["", "", " "]))
        pieces.append(f"{pad}x[{draw(st.integers(0, 4))},{mode_text(d2)}]"
                      f"{exponent}{pad}")
    outer = st.sampled_from(["", "", " ", "\t", "\n"])
    return draw(outer) + "*".join(pieces) + draw(outer)


_SECTORS = st.sampled_from(list(Sector))
_CODEC = settings(max_examples=250, derandomize=True, deadline=None,
                  database=None)


@_CODEC
@given(data=st.data(), sector=_SECTORS)
def test_parse_monomial_matches_reference(data, sector):
    text = data.draw(_monomial_texts(sector))
    assert (_outcome(parse_monomial, text, sector)
            == _outcome(reference_parse_monomial, text, sector))


@_CODEC
@given(data=st.data(), sector=_SECTORS, rank=st.integers(1, 4))
def test_fock_from_json_matches_reference(data, sector, rank):
    coeffs = st.sampled_from(["1", "-2+i", "0", "1/3", "i", "1/0", "x"])
    terms = data.draw(st.lists(st.tuples(_monomial_texts(sector), coeffs),
                               max_size=6))
    doc = {"sector": sector.value, "rank": rank,
           "terms": [{"monomial": m, "coeff": c} for m, c in terms]}
    got, want = (_outcome(fock_from_json, doc),
                 _outcome(reference_fock_from_json, doc))
    assert got == want


def test_canonical_factors_parsed_once_per_document(monkeypatch):
    # a document's distinct factor texts are matched once each, whatever
    # the number of terms they appear in
    f = random_fock(Random(5), 3, Sector.UNTWISTED, max_degree=8,
                    max_terms=40)
    doc = fock_to_json(f)
    pieces = {p for t in doc["terms"] if t["monomial"] != "1"
              for p in t["monomial"].split("*")}
    assert len(pieces) < sum(t["monomial"].count("*") + 1
                             for t in doc["terms"] if t["monomial"] != "1")
    matched = []
    pattern = serialize._MONOMIAL_FACTOR

    class Counting:
        def fullmatch(self, text):
            matched.append(text)
            return pattern.fullmatch(text)

    monkeypatch.setattr(serialize, "_MONOMIAL_FACTOR", Counting())
    assert fock_from_json(doc) == f
    assert sorted(matched) == sorted(pieces)


_RATIONALS = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                       st.integers(1, 50))
_COEFFS = st.builds(Scalar, _RATIONALS, _RATIONALS)


@st.composite
def _vectors(draw):
    sector = draw(_SECTORS)
    rank = draw(st.integers(1, 3))
    variable = st.tuples(st.integers(1, rank),
                         st.integers(0, 4).map(lambda k: 2 * k + 2 - sector.parity))
    terms = []
    for _ in range(draw(st.integers(0, 8))):
        exps = draw(st.dictionaries(variable, st.integers(1, 4), max_size=4))
        mono = tuple((i, d2, e) for (i, d2), e in sorted(exps.items()))
        terms.append((mono, draw(_COEFFS)))
    return _summed(rank, sector, terms)


@settings(max_examples=150, derandomize=True, deadline=None, database=None)
@given(f=_vectors())
def test_fock_to_json_matches_reference(f):
    doc = fock_to_json(f)
    assert json.dumps(doc) == json.dumps(reference_fock_to_json(f))
    assert fock_from_json(doc) == f
    assert fock_from_json(json.loads(json.dumps(doc))) == f
