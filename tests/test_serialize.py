from fractions import Fraction

import pytest

from heisenfock import (FockVector, LambdaSequence, Scalar, SchemaError,
                        Sector, WhittakerType, certify_cyclic, cmn_table)
from heisenfock.sampling import random_fock, random_lambda
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
