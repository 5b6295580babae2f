import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from heisenfock import (FockVector, Scalar, Sector, WhittakerType, certify,
                        cli, sampling, scalar_sqrt, vertex)
from heisenfock.cli import main
from heisenfock.serialize import whittaker_type_to_json


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def run_cli_stderr(*argv):
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv)
    return code, out, err.getvalue()


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def lambda_file(tmp_path):
    return write(tmp_path / "lam.json", {
        "sector": "untwisted", "rank": 1,
        "entries": [[["0", "0"]], [["2", "0"]]],
    })


@pytest.fixture
def zeta_file(tmp_path):
    # 2 * zeta_top = 1 has an exact square root, so --exact solves it
    return write(tmp_path / "zeta.json", {
        "sector": "untwisted", "r": 1, "zeta": ["1", "1/2"]})


def test_type_command(lambda_file):
    code, out = run_cli("type", "--lambda", lambda_file)
    assert code == 0
    doc = json.loads(out)
    assert doc["r"] == 1
    assert doc["zeta"] == ["0", "2"]


def test_type_isotropic_exit_2(tmp_path):
    path = write(tmp_path / "iso.json", {
        "sector": "untwisted", "rank": 2,
        "entries": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "1"]]],
    })
    code, _ = run_cli("type", "--lambda", path)
    assert code == 2


def test_type_schema_exit_1(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _ = run_cli("type", "--lambda", str(path))
    assert code == 1


def test_undecodable_input_exit_1(tmp_path):
    path = tmp_path / "lam.json"
    path.write_bytes(b"\xff\xfe\x00[1]")
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("type", "--lambda", str(path))
    assert (code, out) == (1, "")
    assert err.getvalue().startswith(f"schema error: {path} is not valid UTF-8")


def test_over_deep_input_exit_1(tmp_path):
    path = tmp_path / "lam.json"
    path.write_text("[" * 100_000)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("type", "--lambda", str(path))
    assert (code, out) == (1, "")
    assert err.getvalue() == f"schema error: {path} nests too deeply\n"


def test_over_long_json_integer_exit_1(tmp_path):
    # past Python's 4,300-digit int-string limit the decoder raises a plain
    # ValueError, which once ended in the internal-error exit 4
    path = tmp_path / "lam.json"
    path.write_text('{"sector": "untwisted", "rank": ' + "1" * 5000
                    + ', "entries": []}')
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("type", "--lambda", str(path))
    assert (code, out) == (1, "")
    assert err.getvalue() == \
        f"schema error: {path} holds an integer too long to read\n"


def test_fiber_rank_one_two_points(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "1", "--exact")
    assert code == 0
    doc = json.loads(out)
    values = [p["lambda"]["entries"][0][0][0] for p in doc["points"]]
    assert sorted(values) == ["-1", "1"]


def _nonsquare_type(rng, sector, r):
    # a random exact type whose 2 * zeta_top has no square root in Q(i)
    def draw():
        return Scalar(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                      Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
    zeta = [draw() for _ in range(r + 1 - sector.parity)]
    while not zeta[-1] or scalar_sqrt(2 * zeta[-1]) is not None:
        zeta[-1] = draw()
    return whittaker_type_to_json(WhittakerType(sector, r, tuple(zeta)))


@pytest.mark.parametrize("sector", list(Sector))
def test_fiber_exact_without_root_gives_its_type_back(tmp_path, sector):
    # at rank >= 2 an exact fiber needs no root of 2 * zeta_top: its top is
    # ((1+t)/2, i(1-t)/2, 0, ...), and the point carries no sphere point
    rng = Random(2106)
    cases = 0
    for rank in (2, 3, 4):
        for r in range(sector.parity, 4):
            doc = _nonsquare_type(rng, sector, r)
            zeta = write(tmp_path / "z.json", doc)
            code, out = run_cli("fiber", "--zeta", zeta, "--l", str(rank),
                                "--exact")
            assert code == 0, doc
            point = json.loads(out)
            assert point["sphere_point"] is None
            lam = write(tmp_path / "lam.json", point["lambda"])
            code, out = run_cli("type", "--lambda", lam)
            assert (code, json.loads(out)) == (0, doc)
            cases += 1
    assert cases == 12 - 3 * sector.parity


def test_fiber_exact_without_root_at_rank_one_exit_2(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1"]})
    code, out, err = run_cli_stderr("fiber", "--zeta", zeta, "--l", "1",
                                    "--exact")
    assert (code, out) == (2, "")
    assert "no square root" in err


def test_fiber_numeric(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 1, "zeta": ["1", "1"]})
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["numeric"] is True
    assert doc["residual"] <= 1e-10


def test_fiber_numeric_type_bare_number_entries_exit_0(tmp_path):
    # a numeric type may write a real entry as a bare number, as numeric
    # sphere, top and parameter files may
    runs = []
    for zeta in ([0.5, 1], [[0.5, 0], [1, 0]]):
        path = write(tmp_path / "z.json", {
            "sector": "untwisted", "r": 1, "numeric": True, "zeta": zeta})
        runs.append(run_cli("fiber", "--zeta", path, "--l", "2"))
    assert runs[0] == runs[1] and runs[0][0] == 0


LARGE_ZETA = {"sector": "untwisted", "r": 1,
              "zeta": ["1234567+1/2i", "2345678-i"]}


def test_fiber_numeric_large_type_exit_0(tmp_path):
    # the residual bound scales with the largest |zeta_i|; the residual
    # written stays absolute
    zeta = write(tmp_path / "z.json", LARGE_ZETA)
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "2")
    assert code == 0
    assert 1e-10 < json.loads(out)["residual"] <= 1e-10 * 2345678


def test_fiber_numeric_planted_wrong_entry_exit_3(tmp_path, plant_wrong_entry):
    zeta = write(tmp_path / "z.json", LARGE_ZETA)
    code, out, err = run_cli_stderr("fiber", "--zeta", zeta, "--l", "2")
    assert (code, out) == (3, "")
    assert "exceeds tolerance 2.346e-04" in err


def test_fiber_exact_planted_wrong_entry_exit_3(tmp_path, monkeypatch):
    # the exact solve re-derives its type: the lowest entry moved along the
    # top moves one eigenvalue by 2 * zeta_top, and the solve refuses it
    from heisenfock import whittaker
    solve = whittaker._back_substitute

    def planted(zeta, entries, *rest):
        solve(zeta, entries, *rest)
        entries[0] = tuple(a + b for a, b in zip(entries[0], entries[-1]))

    monkeypatch.setattr(whittaker, "_back_substitute", planted)
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 1, "zeta": ["1", "2"]})
    code, out, err = run_cli_stderr("fiber", "--zeta", zeta, "--l", "2",
                                    "--exact")
    assert (code, out) == (3, "")
    assert "exact fiber solve failed to reproduce the type" in err


def test_fiber_zero_top_exit_1(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["0"]})
    code, _ = run_cli("fiber", "--zeta", zeta, "--l", "1")
    assert code == 1  # rejected at schema level: the document is invalid


def test_fiber_exact_on_numeric_type_exit_2(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "numeric": True, "zeta": [[0.5, 0.0]]})
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "1", "--exact")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("top", [[[0, 0]], [[1, [0, 1]]], [[1, [1e-15, 1]]]])
@pytest.mark.parametrize("flag, name", [("--top", "top_vector"),
                                        ("--sphere", "sphere_point")])
def test_fiber_numeric_isotropic_top_exit_2(tmp_path, flag, name, top):
    # one rule for either flag: (1, 1e-15 + i) pairs to 2e-15 i with itself,
    # so it is refused, never solved into a failed residual check
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 1, "zeta": ["1", "2"]})
    path = write(tmp_path / "top.json", top)
    assert run_cli_stderr("fiber", "--zeta", zeta, "--l", "2", flag, path) == (
        2, "", f"precondition violated: {name} pairs to zero with itself\n")


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_fiber_non_finite_zeta_exit_1(tmp_path, bad):
    zeta = tmp_path / "z.json"
    zeta.write_text('{"sector": "untwisted", "r": 0, "numeric": true, '
                    f'"zeta": [[{bad}, 0]]}}')
    code, out = run_cli("fiber", "--zeta", str(zeta), "--l", "2")
    assert (code, out) == (1, "")


def test_fiber_non_finite_sphere_exit_1(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    sphere = tmp_path / "s.json"
    sphere.write_text("[[[NaN, 0], [1, 0]]]")
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "2", "--sphere", str(sphere))
    assert (code, out) == (1, "")


def test_fiber_short_sphere_point_exit_0(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    sphere = write(tmp_path / "s.json", [[[1e-8, 0]]])
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "1", "--sphere", sphere)
    assert code == 0
    doc = json.loads(out)
    assert doc["lambda"]["entries"] == [[[1.0, 0.0]]]
    assert doc["residual"] == 0.0


def test_fiber_sphere_with_top_exit_2(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    sphere = write(tmp_path / "s.json", [["1", "0"]])
    top = write(tmp_path / "t.json", [["0", "1"]])
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "2", "--exact",
                        "--sphere", sphere, "--top", top)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("rank", ["0", "-1"])
@pytest.mark.parametrize("flag,doc", [
    (None, None), ("--params", [[0.5]]), ("--sphere", [["1"]]),
    ("--top", [["1"]])])
def test_fiber_rank_below_one_exit_2(tmp_path, zeta_file, rank, flag, doc):
    # the rank is checked before any file is read at that rank
    argv = ["fiber", "--zeta", zeta_file, "--l", rank]
    if flag:
        argv += [flag, write(tmp_path / "rows.json", doc)]
    assert run_cli_stderr(*argv) == (
        2, "", "precondition violated: fiber needs --l >= 1\n")


def test_verify_command(lambda_file):
    code, out = run_cli("verify", "--lambda", lambda_file, "--bound", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert [row["index"] for row in doc["rows"]] == list(range(2, 8))


@pytest.mark.parametrize("bound,code,rows", [("-1", 2, None), ("0", 2, None),
                                             ("1", 2, None), ("2", 0, [2])])
def test_verify_bound_must_exceed_r(lambda_file, bound, code, rows):
    # r = 1: rows run over r+1 .. bound, so a bound <= r has none to report
    got, out = run_cli("verify", "--lambda", lambda_file, "--bound", bound)
    assert got == code
    if rows is None:
        assert out == ""
    else:
        assert [row["index"] for row in json.loads(out)["rows"]] == rows


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_verify_twisted_zero_sequence_row_one(tmp_path, rank):
    # only the zero sequence reaches row 1, where twisted L_0 has the vacuum
    # energy rank/16
    path = write(tmp_path / "lam.json",
                 {"sector": "twisted", "rank": rank, "entries": []})
    code, out = run_cli("verify", "--lambda", path, "--bound", "2")
    assert code == 0
    rows = [(row["index"], row["expected"], row["actual"])
            for row in json.loads(out)["rows"]]
    energy = str(Fraction(rank, 16))
    assert rows == [(1, energy, energy), (2, "0", "0")]


@pytest.mark.parametrize("sector", ["untwisted", "twisted"])
def test_verify_rank_cap_edge(tmp_path, sector):
    cap = cli.MAX_RANK
    for rank, code in ((cap, 0), (cap + 1, 2)):
        path = write(tmp_path / "lam.json",
                     {"sector": sector, "rank": rank, "entries": []})
        got, out, err = run_cli_stderr("verify", "--lambda", path,
                                       "--bound", "1")
        assert got == code, err
        if code:
            assert (out, err) == ("", f"precondition violated: rank "
                                      f"{cap + 1} exceeds the maximum {cap}\n")


def test_certify_and_check(tmp_path, lambda_file):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]^2", "coeff": "1"},
                  {"monomial": "x[1,2]", "coeff": "-3"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    assert code == 0
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(out)
    code, out2 = run_cli("certify", "--check", str(cert_path))
    assert code == 0
    assert json.loads(out2)["valid"] is True


def test_certify_rank_mismatch_exit_2(tmp_path):
    # lambda data of rank 2 cannot act on a rank-1 vector: a precondition,
    # refused like a sector mismatch
    lam = write(tmp_path / "lam2.json", {
        "sector": "untwisted", "rank": 2,
        "entries": [[["0", "0"], ["0", "0"]], [["1", "0"], ["0", "0"]]]})
    vec = write(tmp_path / "vec1.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out, err = run_cli_stderr("certify", "--lambda", lam, "--vector", vec)
    assert (code, out) == (2, "")
    assert err == ("precondition violated: cannot combine rank-2 "
                   "LambdaSequence and rank-1 FockVector\n")


def test_certify_check_with_lambda_exit_1(tmp_path, lambda_file):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    assert code == 0
    cert = write(tmp_path / "cert.json", json.loads(out))
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("certify", "--check", cert, "--lambda", lambda_file)
    assert (code, out) == (1, "")
    assert err.getvalue().startswith("schema error: ")


def test_certify_check_tampered_exit_3(tmp_path, lambda_file):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    assert code == 0
    doc = json.loads(out)
    doc["terminal"] = "5"
    bad = write(tmp_path / "bad.json", doc)
    code, out2 = run_cli("certify", "--check", bad)
    assert code == 3
    assert json.loads(out2)["valid"] is False


def test_certify_check_wrong_degree_before_exit_3(tmp_path, lambda_file):
    # x[1,1]^2 has degree 2: a ledger that claims 3 before step 0 is invalid
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]^2", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    assert code == 0
    doc = json.loads(out)
    assert doc["steps"][0]["deg_before"] == "2"
    doc["steps"][0]["deg_before"] = "3"
    code, out2 = run_cli("certify", "--check", write(tmp_path / "bad.json", doc))
    assert code == 3
    assert json.loads(out2)["valid"] is False


@pytest.mark.parametrize("index", [0, 5])
def test_certify_check_index_outside_rank_exit_1(tmp_path, lambda_file, index):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    doc = json.loads(out)
    doc["steps"][0]["i"] = index
    code, out2 = run_cli("certify", "--check", write(tmp_path / "bad.json", doc))
    assert (code, out2) == (1, "")


@pytest.mark.parametrize("rank", [0, -1])
def test_dump_vector_rank_below_one_exit_1(tmp_path, rank):
    path = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": rank,
        "terms": [{"monomial": "1", "coeff": "1"}]})
    assert run_cli("dump", "--kind", "vector", "--input", path) == (1, "")


def test_certify_check_rank_zero_initial_exit_1(tmp_path, lambda_file):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    assert code == 0
    doc = json.loads(out)
    doc["initial"]["rank"] = 0
    doc["initial"]["terms"] = [{"monomial": "1", "coeff": "1"}]
    code, out2 = run_cli("certify", "--check", write(tmp_path / "bad.json", doc))
    assert (code, out2) == (1, "")


@pytest.mark.parametrize("kind,doc", [
    ("lambda", {"sector": "untwisted", "rank": True,
                "entries": [[["0", "0"]], [["2", "0"]]]}),
    ("vector", {"sector": "untwisted", "rank": True,
                "terms": [{"monomial": "x[1,1]", "coeff": "1"}]}),
])
def test_dump_boolean_rank_exit_1(tmp_path, kind, doc):
    path = write(tmp_path / "doc.json", doc)
    assert run_cli("dump", "--kind", kind, "--input", path) == (1, "")


def test_type_boolean_rank_exit_1(tmp_path):
    path = write(tmp_path / "lam.json", {
        "sector": "untwisted", "rank": True,
        "entries": [[["0", "0"]], [["2", "0"]]]})
    assert run_cli("type", "--lambda", path) == (1, "")


@pytest.mark.parametrize("bad", [[True, False], [1, False]])
def test_fiber_boolean_zeta_exit_1(tmp_path, bad):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "numeric": True, "zeta": [bad]})
    assert run_cli("fiber", "--zeta", zeta, "--l", "1") == (1, "")


def test_fiber_boolean_sphere_coordinate_exit_1(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    sphere = write(tmp_path / "s.json", [[True]])
    assert run_cli("fiber", "--zeta", zeta, "--l", "1",
                   "--sphere", sphere) == (1, "")


@pytest.mark.parametrize("key", ["i", "j", "retries"])
def test_certify_check_boolean_step_field_exit_1(tmp_path, lambda_file, key):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    doc = json.loads(out)
    doc["steps"][0][key] = True
    code, out2 = run_cli("certify", "--check", write(tmp_path / "bad.json", doc))
    assert (code, out2) == (1, "")


@pytest.mark.parametrize("text", ["1e99999999", "1E4", "0.5", "1_000",
                                  " 1/2", "1/2 ", "1/-2", "١"])
def test_dump_lambda_non_strict_rational_exit_1(tmp_path, text):
    path = write(tmp_path / "lam.json", {
        "sector": "untwisted", "rank": 1, "entries": [[["0", "0"]], [[text, "0"]]]})
    assert run_cli("dump", "--kind", "lambda", "--input", path) == (1, "")


@pytest.mark.parametrize("coeff", ["1e99999999", "2.5+i", "1-1e9i"])
def test_dump_vector_non_strict_coefficient_exit_1(tmp_path, coeff):
    path = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": coeff}]})
    assert run_cli("dump", "--kind", "vector", "--input", path) == (1, "")


@pytest.mark.parametrize("monomial", ["x[1,١]", "x[1,1٢]",
                                      "x[1," + "1" * 5000 + "]"])
def test_dump_vector_non_strict_mode_exit_1(tmp_path, monomial):
    path = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": monomial, "coeff": "1"}]})
    assert run_cli("dump", "--kind", "vector", "--input", path) == (1, "")


@pytest.mark.parametrize("monomial", ["x[١,1]", "x[1,1]^٢",
                                      "x[" + "1" * 5000 + ",1]",
                                      "x[1,1]^" + "1" * 5000],
                         ids=["arabic-index", "arabic-exponent",
                              "long-index", "long-exponent"])
def test_dump_vector_non_ascii_or_over_long_index_and_exponent_exit_1(
        tmp_path, monomial):
    path = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": monomial, "coeff": "1"}]})
    assert run_cli("dump", "--kind", "vector", "--input", path) == (1, "")


def test_dump_vector_huge_exponent_is_not_expanded(tmp_path):
    path = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]^99999999999", "coeff": "1"},
                  {"monomial": "x[1,2]", "coeff": "1"}]})
    code, out = run_cli("dump", "--kind", "vector", "--input", path)
    assert code == 0
    assert [t["monomial"] for t in json.loads(out)["terms"]] == [
        "x[1,1]^99999999999", "x[1,2]"]


@pytest.mark.parametrize("flag,doc", [("--top", [[[1.0, 0.0], 1e308]]),
                                      ("--sphere", [[1e200, 0]]),
                                      ("--sphere", [[[0.6, 0.0], 1.5e154]])])
def test_fiber_numeric_overflowing_self_pairing_exit_2(tmp_path, flag, doc):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 1, "zeta": ["0", "2"]})
    path = write(tmp_path / "v.json", doc)
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "2", flag, path)
    assert (code, out) == (2, "")


@pytest.mark.parametrize("l,zeta", [(2, [[1e308, 0]]), (1, [[1, 0], [1e308, 0]])])
def test_fiber_numeric_overflowing_zeta_top_exit_2(tmp_path, l, zeta):
    path = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": len(zeta) - 1, "numeric": True, "zeta": zeta})
    assert run_cli("fiber", "--zeta", path, "--l", str(l)) == (2, "")


@pytest.mark.parametrize("sector,r,zeta", [
    ("untwisted", 1, [[1e308, 0], [1, 0]]),     # residual inf
    ("twisted", 2, [[1e308, 1e308], [1, 0]]),   # residual nan
])
def test_fiber_numeric_overflowing_residual_exit_2(tmp_path, sector, r, zeta):
    path = write(tmp_path / "z.json", {
        "sector": sector, "r": r, "numeric": True, "zeta": zeta})
    assert run_cli("fiber", "--zeta", path, "--l", "2") == (2, "")


def test_fiber_numeric_exact_type_beyond_float_range_exit_2(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 1, "zeta": ["0", "1" + "0" * 400]})
    assert run_cli("fiber", "--zeta", zeta, "--l", "2") == (2, "")


@pytest.mark.parametrize("key,text", [("deg_before", "1e99999999"),
                                      ("deg_after", "0.0"), ("m", "1e0"),
                                      ("n", "1.0")])
def test_certify_check_non_strict_rational_exit_1(tmp_path, lambda_file,
                                                   key, text):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    doc = json.loads(out)
    doc["steps"][0][key] = text
    bad = write(tmp_path / "bad.json", doc)
    assert run_cli("certify", "--check", bad) == (1, "")
    assert run_cli("dump", "--kind", "certificate", "--input", bad) == (1, "")


def _twisted_certificate(tmp_path):
    lam = write(tmp_path / "tlam.json", {
        "sector": "twisted", "rank": 1,
        "entries": [[["1", "0"]], [["1/2", "-1"]]]})
    vec = write(tmp_path / "tvec.json", {
        "sector": "twisted", "rank": 1,
        "terms": [{"monomial": "x[1,1/2]*x[1,3/2]", "coeff": "2"}]})
    code, out = run_cli("certify", "--lambda", lam, "--vector", vec)
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("key", ["m", "n"])
@pytest.mark.parametrize("text", ["2/4", "+1/2", "-1/2", "1/3", "1/2 ", "١/2"])
def test_certify_check_step_mode_outside_grammar_exit_1(tmp_path, key, text):
    doc = _twisted_certificate(tmp_path)
    doc["steps"][0][key] = text
    bad = write(tmp_path / "bad.json", doc)
    assert run_cli("certify", "--check", bad) == (1, "")
    assert run_cli("dump", "--kind", "certificate", "--input", bad) == (1, "")


@pytest.mark.parametrize("key", ["m", "n"])
@pytest.mark.parametrize("text,code,valid", [("1/2", 0, "true"),
                                             ("3/2", 3, "false")])
def test_certify_check_canonical_step_mode_kept(tmp_path, key, text, code,
                                                valid):
    doc = _twisted_certificate(tmp_path)
    assert (doc["steps"][0]["m"], doc["steps"][0]["n"]) == ("1/2", "1/2")
    doc["steps"][0][key] = text
    path = write(tmp_path / "cert.json", doc)
    assert run_cli("certify", "--check", path) == (
        code, '{\n  "schema": "certify-check/1",\n  "valid": %s,\n'
              '  "steps": 2\n}\n' % valid)
    code, out = run_cli("dump", "--kind", "certificate", "--input", path)
    assert (code, json.loads(out)) == (0, doc)


@pytest.mark.parametrize("text,exit_code", [("0", 2), ("1", 2), ("9" * 5000, 1)])
def test_certify_check_step_mode_range_and_length(tmp_path, text, exit_code):
    doc = _twisted_certificate(tmp_path)
    doc["steps"][0]["m"] = text
    bad = write(tmp_path / "bad.json", doc)
    assert run_cli("certify", "--check", bad) == (exit_code, "")


def test_certify_check_step_mode_names_its_step(tmp_path):
    doc = _twisted_certificate(tmp_path)
    doc["steps"][1]["n"] = "1"
    bad = write(tmp_path / "bad.json", doc)
    assert run_cli_stderr("certify", "--check", bad) == (
        2, "", "precondition violated: certificate step 1: mode 1 not "
               "twisted\n")


def test_certify_check_on_a_vector_of_another_rank_is_invalid(tmp_path):
    # the replay refuses the disagreeing vector as a verdict, not an error
    doc = _twisted_certificate(tmp_path)
    cert = write(tmp_path / "cert.json", doc)
    vec = write(tmp_path / "vec2.json", {
        "sector": "twisted", "rank": 2,
        "terms": [{"monomial": "x[1,1/2]*x[2,3/2]", "coeff": "2"}]})
    assert run_cli_stderr("certify", "--check", cert, "--vector", vec) == (
        3, '{\n  "schema": "certify-check/1",\n  "valid": false,\n'
           '  "steps": 2\n}\n', "")


@pytest.mark.parametrize("marker", ["no", "true", 1, 0, None, [True]])
def test_fiber_non_boolean_numeric_marker_exit_1(tmp_path, marker):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "numeric": marker, "zeta": [[0.5, 0]]})
    assert run_cli("fiber", "--zeta", zeta, "--l", "1") == (1, "")
    assert run_cli("dump", "--kind", "zeta", "--input", zeta) == (1, "")


def test_fiber_explicit_exact_marker(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "numeric": False, "zeta": ["1/2"]})
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "1", "--exact")
    assert code == 0
    assert all(p["numeric"] is False for p in json.loads(out)["points"])


def test_certify_highest_weight_exit_2(tmp_path):
    lam = write(tmp_path / "hw.json", {
        "sector": "untwisted", "rank": 1, "entries": [[["1", "0"]]]})
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, _ = run_cli("certify", "--lambda", lam, "--vector", vec)
    assert code == 2


def test_certify_element_that_does_not_reduce_exit_3(monkeypatch, tmp_path,
                                                     lambda_file):
    # a broken choice rule is a failed check, not a traceback
    monkeypatch.setattr(certify, "quadratic_act",
                        lambda lam, q, f: FockVector.zero(f.rank, f.sector))
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out, err = run_cli_stderr("certify", "--lambda", lambda_file,
                                    "--vector", vec)
    assert (code, out) == (3, "")
    assert err.startswith("check failed: ") and err.count("\n") == 1


def test_missing_input_file_exit_1(tmp_path):
    code, out, err = run_cli_stderr("type", "--lambda",
                                    str(tmp_path / "missing.json"))
    assert (code, out) == (1, "")
    assert err.startswith("schema error: cannot read ") and err.count("\n") == 1


def test_bare_certify_exit_1():
    assert run_cli_stderr("certify") == (
        1, "", "schema error: certify needs --lambda and --vector "
               "(or --check)\n")


@pytest.mark.parametrize("flag,doc,message", [
    ("--sphere", [["1", "1"]],
     "sphere_point is not on the unit sphere"),
    ("--top", [["2", "0"]],
     "top_vector does not satisfy (T, T) = 2 * zeta_top")])
def test_fiber_exact_point_off_its_quadric_exit_2(tmp_path, flag, doc, message):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    path = write(tmp_path / "p.json", doc)
    assert run_cli_stderr("fiber", "--zeta", zeta, "--l", "2", "--exact",
                          flag, path) == (
        2, "", f"precondition violated: {message}\n")


def test_fiber_exact_number_coordinate_exit_1(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    sphere = write(tmp_path / "s.json", [[1, "0"]])
    assert run_cli_stderr("fiber", "--zeta", zeta, "--l", "2", "--exact",
                          "--sphere", sphere) == (
        1, "", "schema error: sphere[0]: exact coordinates must be scalar "
               "strings, got 1\n")


def test_certify_check_unknown_case_exit_1(tmp_path):
    doc = _twisted_certificate(tmp_path)
    doc["steps"][0]["case"] = "4"
    bad = write(tmp_path / "bad.json", doc)
    assert run_cli_stderr("certify", "--check", bad) == (
        1, "", "schema error: certificate step 0: unknown case tag '4'\n")


def test_fiber_exact_bad_sphere_scalar_names_its_entry(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    sphere = write(tmp_path / "s.json", [["1/2", "x"]])
    assert run_cli_stderr("fiber", "--zeta", zeta, "--l", "2", "--exact",
                          "--sphere", sphere) == (
        1, "", "schema error: sphere[0]: bad scalar 'x'\n")


@pytest.mark.parametrize("kind,doc,message", [
    ("zeta", {"sector": "untwisted", "r": 0, "zeta": ["1/0"]},
     "type zeta[0]: zero denominator in scalar '1/0'"),
    ("vector", {"sector": "untwisted", "rank": 1,
                "terms": [{"monomial": "x[1,1]", "coeff": "1"},
                          {"monomial": "1", "coeff": "1/0"}]},
     "vector term 1: zero denominator in scalar '1/0'")])
def test_dump_bad_scalar_names_its_entry(tmp_path, kind, doc, message):
    path = write(tmp_path / "doc.json", doc)
    assert run_cli_stderr("dump", "--kind", kind, "--input", path) == (
        1, "", f"schema error: {message}\n")


@pytest.mark.parametrize("monomial,line", [
    ("y[1,1]", "schema error: vector term 1: bad monomial factor 'y[1,1]'"),
    ("x[2,1]", "schema error: vector term 1: boson index 2 outside 1..1"),
    ("x[1,1/2]", "precondition violated: vector term 1: mode 1/2 not "
                 "untwisted")])
def test_dump_bad_monomial_names_its_term(tmp_path, monomial, line):
    # a mode of the wrong parity stays a precondition violation (exit 2)
    path = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"},
                  {"monomial": monomial, "coeff": "1"}]})
    code = 2 if line.startswith("precondition") else 1
    assert run_cli_stderr("dump", "--kind", "vector", "--input", path) == (
        code, "", line + "\n")


@pytest.mark.parametrize("sector,epsilon,zeta", [
    ("untwisted", "x", ["0", "2"]), ("untwisted", 0, ["0", "2"]),
    ("untwisted", True, ["0", "2"]), ("twisted", 1, ["2"])])
def test_dump_type_refuses_a_contradicting_epsilon(tmp_path, sector,
                                                   epsilon, zeta):
    path = write(tmp_path / "z.json", {"sector": sector, "r": 1,
                                       "epsilon": epsilon, "zeta": zeta})
    code, out, err = run_cli_stderr("dump", "--kind", "zeta", "--input", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"schema error: type: epsilon {epsilon!r} is not ")


@pytest.mark.parametrize("where,message", [
    ("shift", "certificate step 0: zero denominator in scalar '1/0'"),
    ("terminal", "certificate terminal: zero denominator in scalar '1/0'")])
def test_certify_check_bad_scalar_names_its_entry(tmp_path, where, message):
    doc = _twisted_certificate(tmp_path)
    if where == "shift":
        doc["steps"][0]["shift"] = "1/0"
    else:
        doc["terminal"] = "1/0"
    bad = write(tmp_path / "bad.json", doc)
    assert run_cli_stderr("certify", "--check", bad) == (
        1, "", f"schema error: {message}\n")


def test_certify_check_zero_terminal_exit_3(tmp_path):
    # a certificate must end on a nonzero constant; the verdict goes to
    # stdout like every other replay result
    doc = _twisted_certificate(tmp_path)
    doc["terminal"] = "0"
    code, out, err = run_cli_stderr("certify", "--check",
                                    write(tmp_path / "bad.json", doc))
    assert (code, err) == (3, "")
    assert json.loads(out) == {"schema": "certify-check/1", "valid": False,
                               "steps": 2}


def test_cmn_command():
    code, out = run_cli("cmn", "--order", "4")
    assert code == 0
    doc = json.loads(out)
    assert doc["values"][0][0] == "0"
    assert doc["values"][1][1] == "1/16"
    assert doc["values"][2][1] == doc["values"][1][2]


@pytest.mark.parametrize("argv, cap", [
    (["cmn", "--order"], cli.MAX_CMN_ORDER),
    (["verify", "--lambda", "@lambda", "--bound"], cli.MAX_VERIFY_BOUND),
    (["relations", "--bound", "1", "--trials", "1", "--l"],
     cli.MAX_RELATIONS_RANK),
    (["relations", "--l", "1", "--trials", "1", "--bound"],
     cli.MAX_RELATIONS_BOUND),
    (["relations", "--l", "1", "--bound", "1", "--trials"],
     cli.MAX_RELATIONS_TRIALS),
    (["fiber", "--zeta", "@zeta", "--exact", "--l"], cli.MAX_RANK),
])
def test_integer_flag_cap_edge(argv, cap, lambda_file, zeta_file):
    files = {"@lambda": lambda_file, "@zeta": zeta_file}
    argv = [files.get(a, a) for a in argv]
    code, out = run_cli(*argv, str(cap))
    assert code == 0 and json.loads(out)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv, str(cap + 1))
    assert (code, out) == (2, "")
    assert err.getvalue() == (f"precondition violated: {argv[-1]} {cap + 1} "
                              f"exceeds the maximum {cap}\n")


@pytest.mark.parametrize("sector, entries, low, high", [
    ("untwisted", [[["0", "0"]], [["1", "0"]]], "x[1,1]", "x[1,2]"),
    ("twisted", [[["1", "0"]]], "x[1,1/2]", "x[1,3/2]"),
])
def test_certify_factor_cap_edge(tmp_path, sector, entries, low, high):
    # each step removes one factor from every term, so the factor count of
    # a term, the sum of its exponents, bounds the steps
    cap = cli.MAX_CERTIFY_FACTORS
    lam = write(tmp_path / "lam.json",
                {"sector": sector, "rank": 1, "entries": entries})
    for monomial, code in ((f"{low}^{cap}", 0),
                           (f"{low}^{cap - 1}*{high}^2", 2)):
        vec = write(tmp_path / "vec.json", {
            "sector": sector, "rank": 1,
            "terms": [{"monomial": "1", "coeff": "1"},
                      {"monomial": monomial, "coeff": "1"}]})
        got, out, err = run_cli_stderr("certify", "--lambda", lam,
                                       "--vector", vec)
        assert got == code, err
        if code:
            assert (out, err) == ("", f"precondition violated: factors in a "
                                      f"term {cap + 1} exceeds the maximum "
                                      f"{cap}\n")
        else:
            assert len(json.loads(out)["steps"]) == cap


@pytest.mark.parametrize("sector, entries, low", [
    ("untwisted", [[["0", "0"]], [["1", "0"]]], "x[1,1]"),
    ("twisted", [[["1", "0"]]], "x[1,1/2]"),
])
def test_certify_check_factor_cap_edge(tmp_path, sector, entries, low):
    # a replay on x[1,1]^k costs about five times more per doubling of k:
    # the vector replayed on, the certificate's own or --vector, is capped
    # as the vector to certify is
    cap = cli.MAX_CERTIFY_FACTORS
    lam = write(tmp_path / "lam.json",
                {"sector": sector, "rank": 1, "entries": entries})

    def vector_doc(k):
        return {"sector": sector, "rank": 1,
                "terms": [{"monomial": "1", "coeff": "1"},
                          {"monomial": f"{low}^{k}", "coeff": "1"}]}

    vec = write(tmp_path / "vec.json", vector_doc(cap))
    code, out = run_cli("certify", "--lambda", lam, "--vector", vec)
    assert code == 0
    cert = json.loads(out)
    cert_path = write(tmp_path / "cert.json", cert)
    for argv in ((), ("--vector", vec)):
        code, out, err = run_cli_stderr("certify", "--check", cert_path, *argv)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"schema": "certify-check/1", "valid": True,
                                   "steps": cap}
    long_vec = write(tmp_path / "long.json", vector_doc(cap + 1))
    long_cert = write(tmp_path / "long-cert.json",
                      {**cert, "initial": vector_doc(cap + 1)})
    for argv in (("--check", long_cert), ("--check", cert_path, "--vector",
                                          long_vec)):
        start = time.perf_counter()
        code, out, err = run_cli_stderr("certify", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err == (f"precondition violated: factors in a term {cap + 1} "
                       f"exceeds the maximum {cap}\n")


@pytest.mark.parametrize("monomial", [
    "x[1,1]^100000000000000000000",
    "x[1,1]^" + "9" * 4300 + "*x[1,1]^" + "9" * 4300,
], ids=["ten_to_the_twenty", "too_long_to_write"])
def test_certify_huge_exponent_refused_quickly(tmp_path, lambda_file,
                                               monomial):
    # certifying x[1,1]^(10^20) once ran without bound; two 4,300-digit
    # exponents merge into a count too long to write
    vec = write(tmp_path / "vec.json", _vector_doc((monomial, "1")))
    start = time.perf_counter()
    code, out, err = run_cli_stderr("certify", "--lambda", lambda_file,
                                    "--vector", vec)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("precondition violated: factors in a term ")
    assert err.count("\n") == 1 and len(err) <= 200


def _support_files(tmp_path, r):
    """Rank-1 untwisted lambda data and a type, each with support bound r."""
    return {
        "@lambda": write(tmp_path / "lam.json", {
            "sector": "untwisted", "rank": 1,
            "entries": [[["1", "0"]]] * (r + 1)}),
        "@zeta": write(tmp_path / "zeta.json", {
            "sector": "untwisted", "r": r, "zeta": ["1"] * r + ["1/2"]}),
    }


def _certificate_over(tmp_path, lam_path):
    """A valid certificate whose lambda is replaced by the one at lam_path."""
    lam = write(tmp_path / "small.json", {
        "sector": "untwisted", "rank": 1, "entries": [[["0", "0"]], [["1", "0"]]]})
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lam, "--vector", vec)
    assert code == 0
    doc = json.loads(out)
    doc["lambda"] = json.loads(Path(lam_path).read_text())
    return write(tmp_path / "cert.json", doc)


SUPPORT_COMMANDS = [
    ["type", "--lambda", "@lambda"],
    ["fiber", "--zeta", "@zeta", "--l", "2", "--exact"],
    ["verify", "--lambda", "@lambda", "--bound", "@above"],
    ["certify", "--lambda", "@lambda", "--vector", "@vector"],
    ["certify", "--check", "@certificate"],
]


@pytest.mark.parametrize("argv", SUPPORT_COMMANDS)
def test_support_bound_cap_edge(tmp_path, argv):
    cap = cli.MAX_SUPPORT_BOUND
    for r, code in ((cap, 0), (cap + 1, 2)):
        files = _support_files(tmp_path, r)
        files["@above"] = str(r + 1)
        files["@vector"] = write(tmp_path / "vector.json", {
            "sector": "untwisted", "rank": 1,
            "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
        if "@certificate" in argv:
            if r == cap:
                continue  # replaying the swapped lambda is not the point
            files["@certificate"] = _certificate_over(tmp_path, files["@lambda"])
        err = io.StringIO()
        with redirect_stderr(err):
            got, out = run_cli(*[files.get(a, a) for a in argv])
        assert got == code, (argv, r, err.getvalue())
        if code:
            assert out == ""
            assert err.getvalue() == (f"precondition violated: r {cap + 1} "
                                      f"exceeds the maximum {cap}\n")


def test_dump_keeps_large_support_bound(tmp_path):
    files = _support_files(tmp_path, 2 * cli.MAX_SUPPORT_BOUND)
    for kind, key in (("lambda", "@lambda"), ("zeta", "@zeta")):
        code, out = run_cli("dump", "--kind", kind, "--input", files[key])
        assert code == 0 and json.loads(out)


def test_large_support_bound_refused_quickly(tmp_path):
    # an 8 KB type that used to keep an exact fiber solve busy for minutes
    path = _support_files(tmp_path, 1600)["@zeta"]
    start = time.perf_counter()
    with redirect_stderr(io.StringIO()):
        code, out = run_cli("fiber", "--zeta", path, "--l", "2", "--exact")
    assert (code, out) == (2, "")
    assert time.perf_counter() - start < 5


def _lambda_doc(top):
    return {"sector": "untwisted", "rank": 1,
            "entries": [[["0", "0"]], [[top, "0"]]]}


def _vector_doc(*terms):
    return {"sector": "untwisted", "rank": 1,
            "terms": [{"monomial": m, "coeff": c} for m, c in terms]}


# valid input whose result holds a number past Python's int-to-text limit
# of 4,300 digits; each one once ended in exit 4
NINES = "9" * 4300
TOO_LONG_RESULTS = {
    "type zeta": (["type", "--lambda", "@lambda"],
                  _lambda_doc("1" + "0" * 2200), None),
    "verify row": (["verify", "--lambda", "@lambda", "--bound", "3"],
                   _lambda_doc("1" + "0" * 2200), None),
    "certify shift": (["certify", "--lambda", "@lambda", "--vector", "@vector"],
                      _lambda_doc("1" + "0" * 90),
                      _vector_doc(("x[1,1]^50", "1"))),
    "certify degree": (["certify", "--lambda", "@lambda", "--vector",
                        "@vector"], _lambda_doc("1"),
                       _vector_doc((f"x[1,{NINES}]^2", "1"))),
    "dump exponent": (["dump", "--kind", "vector", "--input", "@vector"], None,
                      _vector_doc((f"x[1,1]^{NINES}*x[1,1]^{NINES}", "1"))),
    "dump coefficient": (["dump", "--kind", "vector", "--input", "@vector"],
                         None, _vector_doc(("x[1,1]", "1/1" + "0" * 4299),
                                           ("x[1,1]", "1/" + NINES))),
}


@pytest.mark.parametrize("argv,lam,vector", TOO_LONG_RESULTS.values(),
                         ids=TOO_LONG_RESULTS.keys())
def test_too_long_result_number_exit_2(tmp_path, argv, lam, vector):
    files = {"@lambda": write(tmp_path / "lam.json", lam),
             "@vector": write(tmp_path / "vec.json", vector)}
    assert run_cli_stderr(*[files.get(a, a) for a in argv]) == (
        2, "", "precondition violated: a number in the result is too long "
               "to write\n")


LONG_INPUT = "1" * 5000


@pytest.mark.parametrize("kind,doc", [
    ("lambda", {"sector": "untwisted", "rank": 1,
                "entries": [[[LONG_INPUT, "0"]]]}),
    ("vector", {"sector": "untwisted", "rank": 1,
                "terms": [{"monomial": "1", "coeff": LONG_INPUT + "z"}]}),
    ("vector", {"sector": "untwisted", "rank": 1,
                "terms": [{"monomial": "x[1,1]" + LONG_INPUT, "coeff": "1"}]}),
    ("lambda", {"sector": "s" * 5000, "rank": 1, "entries": []}),
    ("zeta", {"sector": "untwisted", "r": 0, "zeta": [list(range(3000))]}),
    ("zeta", {"sector": "untwisted", "r": 10 ** 4000, "zeta": ["1"]}),
])
def test_schema_error_quotes_input_briefly(tmp_path, kind, doc):
    path = write(tmp_path / "doc.json", doc)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("dump", "--kind", kind, "--input", path)
    assert (code, out) == (1, "")
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and len(lines[0]) <= 200, lines[0][:300]


@pytest.mark.parametrize("kind,doc", [
    ("lambda", {"sector": "untwisted", "rank": 1, "entries": [[["1", "0"]]]}),
    ("vector", {"sector": "untwisted", "rank": 1,
                "terms": [{"monomial": "x[1,1]", "coeff": "1"}]}),
    ("zeta", {"sector": "untwisted", "r": 1, "zeta": ["1", "1/2"]}),
])
@pytest.mark.parametrize("marker", ["lambda/2", "vector/1", "type/1", 5,
                                    "s" * 5000])
def test_dump_wrong_schema_marker_exit_1(tmp_path, kind, doc, marker):
    own = {"zeta": "type/1"}.get(kind, f"{kind}/1")
    path = write(tmp_path / "doc.json", {**doc, "schema": own})
    assert run_cli("dump", "--kind", kind, "--input", path)[0] == 0
    if marker == own:
        return
    path = write(tmp_path / "doc.json", {**doc, "schema": marker})
    code, out, err = run_cli_stderr("dump", "--kind", kind, "--input", path)
    assert (code, out) == (1, "")
    assert err.startswith("schema error: ") and err.count("\n") == 1, err
    assert "schema marker" in err and len(err) <= 200, err[:300]


def test_certify_check_wrong_schema_marker_exit_1(tmp_path, lambda_file):
    vec = write(tmp_path / "vec.json", {
        "sector": "untwisted", "rank": 1,
        "terms": [{"monomial": "x[1,1]", "coeff": "1"}]})
    code, out = run_cli("certify", "--lambda", lambda_file, "--vector", vec)
    assert code == 0
    doc = json.loads(out)
    path = write(tmp_path / "cert.json", {**doc, "schema": "certificate/2"})
    assert run_cli_stderr("certify", "--check", path) == (
        1, "", "schema error: certificate: schema marker 'certificate/2' "
               "is not 'certificate/1'\n")
    assert run_cli("dump", "--kind", "certificate", "--input", path) == (1, "")


def test_relations_all_pass():
    code, out = run_cli("relations", "--l", "2", "--bound", "3",
                        "--seed", "7", "--trials", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(s["failures"] == 0 for s in doc["suites"].values())


def test_run_suites_counts_failures(monkeypatch):
    passing = sampling.run_suites(7, 2, 3, 10)
    monkeypatch.setattr(sampling, "commutator_check", lambda *args: False)
    failing = sampling.run_suites(7, 2, 3, 10)
    # the check draws nothing, so every suite sees the same inputs
    assert failing["commutator"] == {"checked": 20, "failures": 20}
    assert {k: v for k, v in failing.items() if k != "commutator"} == \
        {k: v for k, v in passing.items() if k != "commutator"}


def test_relations_failure_exit_3(monkeypatch):
    monkeypatch.setattr(sampling, "quadratic_check", lambda *args: False)
    code, out = run_cli("relations", "--l", "2", "--bound", "3",
                        "--seed", "7", "--trials", "10")
    doc = json.loads(out)
    assert code == 3
    assert doc["all_pass"] is False
    quadratic = doc["suites"]["quadratic"]
    assert quadratic["failures"] == quadratic["checked"] > 0


@pytest.mark.parametrize("flag", ["--l", "--bound", "--trials"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_relations_rejects_nonpositive_sizes(flag, value):
    code, out = run_cli("relations", "--trials", "2", flag, value)
    assert (code, out) == (2, "")


def test_unexpected_exception_exit_4(monkeypatch):
    def broken(order):
        raise KeyError(order)

    # cmd_cmn reads cmn_table from its home module when it runs
    monkeypatch.setattr(vertex, "cmn_table", broken)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli("cmn", "--order", "3")
    assert (code, out) == (4, "")
    assert err.getvalue() == "internal error: KeyError: 3\n"


def test_dump_round_trip(tmp_path, lambda_file):
    code, out = run_cli("dump", "--kind", "lambda", "--input", lambda_file)
    assert code == 0
    code2, out2 = run_cli("dump", "--kind", "lambda",
                          "--input", write(tmp_path / "re.json", json.loads(out)))
    assert out2 == out


def test_determinism_byte_identical(tmp_path, lambda_file):
    first = run_cli("relations", "--l", "1", "--bound", "3",
                    "--seed", "11", "--trials", "8")
    second = run_cli("relations", "--l", "1", "--bound", "3",
                     "--seed", "11", "--trials", "8")
    assert first == second
    vec = write(tmp_path / "vec.json", {
        "sector": "twisted", "rank": 1,
        "terms": [{"monomial": "x[1,1/2]*x[1,3/2]", "coeff": "1/2+i"}]})
    lam = write(tmp_path / "lt.json", {
        "sector": "twisted", "rank": 1, "entries": [[["1", "0"]]]})
    runs = {run_cli("certify", "--lambda", lam, "--vector", vec)
            for _ in range(3)}
    assert len(runs) == 1


SRC = Path(__file__).parents[1] / "src"


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages hooks (such as a certifi .pth) out of the process.
    # Neither dataclasses nor inspect (which it pulls in, with ast and dis)
    # is loaded: they cost every command-line start more than the package's
    # own work in most requests.  The subcommands load their modules as they
    # run, so every module of the package is imported here.
    env = dict(os.environ, PYTHONPATH=str(SRC))
    modules = sorted(f"heisenfock.{path.stem}"
                     for path in (SRC / "heisenfock").glob("[!_]*.py"))
    script = (f"import json, sys, {', '.join(modules)}; "
              "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))")
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert loaded - set(sys.stdlib_module_names) <= {"__main__", "heisenfock"}
    assert not loaded & {"dataclasses", "inspect"}


GOLDEN_INPUTS = json.loads(
    (Path(__file__).parent / "data" / "golden_cli.json").read_text())["inputs"]


@pytest.mark.parametrize("argv, present, absent", [
    (["cmn", "--order", "8"], {"vertex"}, {"certify", "whittaker", "sampling"}),
    (["certify", "--lambda", "@lam_u1.json", "--vector", "@vec_u1.json"],
     {"certify"}, {"whittaker", "vertex", "sampling"}),
    (["type", "--lambda", "@lam_u1.json"], {"whittaker"},
     {"certify", "vertex", "sampling"}),
    (["relations", "--l", "1", "--bound", "1", "--trials", "2"],
     {"sampling", "vertex"}, {"whittaker", "certify", "serialize"}),
], ids=["cmn", "certify", "type", "relations"])
def test_subcommand_loads_only_its_modules(tmp_path, argv, present, absent):
    # importing the package loads no module, and each subcommand imports
    # its own as it runs: an eager import would compile the others on every
    # request
    args = [write(tmp_path / a[1:], GOLDEN_INPUTS[a[1:]]) if a.startswith("@")
            else a for a in argv]
    script = ("import io, json, sys\n"
              "from contextlib import redirect_stdout\n"
              "from heisenfock.cli import main\n"
              "with redirect_stdout(io.StringIO()):\n"
              "    code = main(sys.argv[1:])\n"
              "print(json.dumps([code, sorted(m.partition('.')[2] for m in "
              "sys.modules if m.startswith('heisenfock.'))]))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-S", "-c", script, *args], env=env,
                         capture_output=True, text=True, check=True).stdout
    code, loaded = json.loads(out)
    assert code == 0
    assert present <= set(loaded)
    assert not absent & set(loaded)
