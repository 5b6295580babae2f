import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from heisenfock import cli
from heisenfock.cli import main


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def write(path, doc):
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def lambda_file(tmp_path):
    return write(tmp_path / "lam.json", {
        "sector": "untwisted", "rank": 1,
        "entries": [[["0", "0"]], [["2", "0"]]],
    })


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


def test_fiber_rank_one_two_points(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 0, "zeta": ["1/2"]})
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "1", "--exact")
    assert code == 0
    doc = json.loads(out)
    values = [p["lambda"]["entries"][0][0][0] for p in doc["points"]]
    assert sorted(values) == ["-1", "1"]


def test_fiber_numeric(tmp_path):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 1, "zeta": ["1", "1"]})
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["numeric"] is True
    assert doc["residual"] <= 1e-10


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


@pytest.mark.parametrize("top", [[[0, 0]], [[1, [0, 1]]]])
def test_fiber_numeric_isotropic_top_exit_2(tmp_path, top):
    zeta = write(tmp_path / "z.json", {
        "sector": "untwisted", "r": 1, "zeta": ["1", "1"]})
    path = write(tmp_path / "top.json", top)
    code, out = run_cli("fiber", "--zeta", zeta, "--l", "2", "--top", path)
    assert (code, out) == (2, "")


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
])
def test_integer_flag_cap_edge(argv, cap, lambda_file):
    argv = [lambda_file if a == "@lambda" else a for a in argv]
    code, out = run_cli(*argv, str(cap))
    assert code == 0 and json.loads(out)
    err = io.StringIO()
    with redirect_stderr(err):
        code, out = run_cli(*argv, str(cap + 1))
    assert (code, out) == (2, "")
    assert err.getvalue() == (f"precondition violated: {argv[-1]} {cap + 1} "
                              f"exceeds the maximum {cap}\n")


def test_relations_all_pass():
    code, out = run_cli("relations", "--l", "2", "--bound", "3",
                        "--seed", "7", "--trials", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["all_pass"] is True
    assert all(s["failures"] == 0 for s in doc["suites"].values())


@pytest.mark.parametrize("flag", ["--l", "--bound", "--trials"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_relations_rejects_nonpositive_sizes(flag, value):
    code, out = run_cli("relations", "--trials", "2", flag, value)
    assert (code, out) == (2, "")


def test_unexpected_exception_exit_4(monkeypatch):
    def broken(order):
        raise KeyError(order)

    monkeypatch.setattr(cli, "cmn_table", broken)
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


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages hooks (such as a certifi .pth) out of the process.
    # Neither dataclasses nor inspect (which it pulls in, with ast and dis)
    # is loaded: they cost every command-line start more than the package's
    # own work in most requests.
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    script = ("import json, sys, heisenfock.cli; "
              "print(json.dumps(sorted({m.partition('.')[0] for m in sys.modules})))")
    out = subprocess.run([sys.executable, "-S", "-c", script], env=env,
                         capture_output=True, text=True, check=True).stdout
    loaded = set(json.loads(out))
    assert loaded - set(sys.stdlib_module_names) <= {"__main__", "heisenfock"}
    assert not loaded & {"dataclasses", "inspect"}
