"""Bounded fuzz of the command line over mutated input documents.

Each example takes one valid document (lambda data, a vector, a type, a
sphere point, a top vector or a certificate), applies up to three random
mutations to it (replace a value by junk, delete a key or an element,
append junk to a list, and in a certificate rewrite a step's ``m`` or ``n``
into junk mode text) and runs one subcommand that reads it.  Whatever the
input, ``cli.main`` may only exit with 0-3: exit 4 is an internal error.
A ``dump`` that succeeds must reproduce its own output when fed it back.
The integer flags of ``relations``, ``cmn`` and ``verify`` are fuzzed
over small ranges around their lower limits, ``cmn --order`` and
``verify --bound`` also from just below their caps to far above them, and
one flag of ``relations`` at a time from just past its cap to far above
it, with the same rule on exit codes.  A ``relations`` run at its caps
costs seconds, so the fuzz leaves the caps themselves to the edge test.

The junk stays small on purpose: exponents, modes and sizes are a few
units, so every example runs in milliseconds; over-long digit strings
appear only where they cost nothing to reject.  The pinned examples are
inputs that once ended in exit 4: over-long numbers in a monomial, a top
vector or sphere point whose self-pairing overflows, and an exact type
too large for numeric mode; numeric types whose doubled top eigenvalue
overflows, which once ended in a NaN residual (exit 3); and finite numeric
types whose fiber residual overflows to inf or NaN (once exit 3, now the
precondition exit 2).

A second fuzz mutates the document's bytes instead: text that is not
UTF-8, or nesting deeper than the JSON decoder recurses, must end in the
schema exit 1 (both once ended in exit 4).
"""

import copy
import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from heisenfock import certify_cyclic
from heisenfock.cli import (MAX_CMN_ORDER, MAX_RELATIONS_BOUND,
                            MAX_RELATIONS_RANK, MAX_RELATIONS_TRIALS,
                            MAX_VERIFY_BOUND, main)
from heisenfock.serialize import (certificate_to_json, fock_from_json,
                                  lambda_from_json)

LAMBDA = {"sector": "untwisted", "rank": 2,
          "entries": [[["0", "0"], ["1", "0"]], [["1", "0"], ["0", "1/2"]]]}
TWISTED_LAMBDA = {"sector": "twisted", "rank": 1,
                  "entries": [[["1", "0"]], [["1/2", "-1"]]]}
VECTOR = {"sector": "untwisted", "rank": 2,
          "terms": [{"monomial": "x[1,1]^2*x[2,2]", "coeff": "1"},
                    {"monomial": "x[2,1]", "coeff": "-3+i"},
                    {"monomial": "1", "coeff": "1/2"}]}
TWISTED_VECTOR = {"sector": "twisted", "rank": 1,
                  "terms": [{"monomial": "x[1,1/2]*x[1,3/2]", "coeff": "2"}]}
ZETA = {"sector": "untwisted", "r": 1, "zeta": ["0", "2"]}
NUMERIC_ZETA = {"sector": "twisted", "r": 2, "numeric": True,
                "zeta": [[0.5, 0.0], [1.0, 0.0]]}
SPHERE = [[[0.6, 0.0], [0.8, 0.0]]]
TOP = [[[1.0, 0.0], 1.0]]
PARAMS = [[0.5]]


def _certificate(lam_doc, vec_doc):
    lam = lambda_from_json(lam_doc)
    return certificate_to_json(lam, certify_cyclic(lam, fock_from_json(vec_doc)))


CERTIFICATE = _certificate(LAMBDA, VECTOR)
TWISTED_CERTIFICATE = _certificate(TWISTED_LAMBDA, TWISTED_VECTOR)

# Fixed companion files; ``@doc`` in an argv is the mutated document.
FILES = {"lambda": LAMBDA, "vector": VECTOR, "zeta": ZETA,
         "tlambda": TWISTED_LAMBDA, "tvector": TWISTED_VECTOR}

# (argv, the valid document it reads as @doc)
TARGETS = [
    (["dump", "--kind", "lambda", "--input", "@doc"], LAMBDA),
    (["dump", "--kind", "lambda", "--input", "@doc"], TWISTED_LAMBDA),
    (["type", "--lambda", "@doc"], LAMBDA),
    (["type", "--lambda", "@doc"], TWISTED_LAMBDA),
    (["verify", "--lambda", "@doc", "--bound", "3"], LAMBDA),
    (["certify", "--lambda", "@doc", "--vector", "@vector"], LAMBDA),
    (["certify", "--lambda", "@doc", "--vector", "@tvector"], TWISTED_LAMBDA),
    (["dump", "--kind", "vector", "--input", "@doc"], VECTOR),
    (["dump", "--kind", "vector", "--input", "@doc"], TWISTED_VECTOR),
    (["certify", "--lambda", "@lambda", "--vector", "@doc"], VECTOR),
    (["certify", "--lambda", "@tlambda", "--vector", "@doc"], TWISTED_VECTOR),
    (["dump", "--kind", "zeta", "--input", "@doc"], ZETA),
    (["dump", "--kind", "zeta", "--input", "@doc"], NUMERIC_ZETA),
    (["fiber", "--zeta", "@doc", "--l", "2"], ZETA),
    (["fiber", "--zeta", "@doc", "--l", "2", "--exact"], ZETA),
    (["fiber", "--zeta", "@doc", "--l", "1"], NUMERIC_ZETA),
    (["fiber", "--zeta", "@zeta", "--l", "2", "--sphere", "@doc"], SPHERE),
    (["fiber", "--zeta", "@zeta", "--l", "2", "--top", "@doc"], TOP),
    (["fiber", "--zeta", "@zeta", "--l", "2", "--params", "@doc"], PARAMS),
    (["dump", "--kind", "certificate", "--input", "@doc"], CERTIFICATE),
    (["certify", "--check", "@doc"], CERTIFICATE),
    (["certify", "--check", "@doc"], TWISTED_CERTIFICATE),
]

LONG = "9" * 5000
JUNK_TEXT = [
    "", "0", "1", "-1", "1/2", "-3/2", "5/2", "2/0", "1e5", "0.5", "i",
    "1+i", "-1/2-3i", "x[1,1]", "x[2,1/2]", "x[1,3]^2*x[2,1]", "x[1,1]^0",
    "x[0,1]", "x[1,0]", "x[1,-1]", "x[3,1]", "x[1,2]^3", "x[1,1]*x[1,1]",
    "x[١,1]", "x[1,١]", "x[1,1]^٢", "x[1,1]^" + LONG,
    "x[" + LONG + ",1]", LONG, "1/" + LONG, "1" + "0" * 400, "untwisted",
    "twisted", "3a", "3b",
]
JUNK_MODES = [
    "", "0", "1", "3/2", "2/4", "+1/2", "-1/2", "1/3", "01/2", " 1/2", "1/2 ",
    "١/2", "1/", "/2", "1e0", "0.5", LONG, LONG + "/2",
]
junk = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-2, 4),
              st.sampled_from([10 ** 6, 2 ** 64, -10 ** 30]),
              st.floats(), st.sampled_from(JUNK_TEXT), st.text(max_size=6)),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.sampled_from(["sector", "rank", "r"]),
                                            inner, max_size=2)),
    max_leaves=4)


def _paths(doc, prefix=()):
    """Every position in a JSON document, the root included."""
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for idx, value in enumerate(doc):
            yield from _paths(value, prefix + (idx,))


@st.composite
def mutated(draw, base):
    doc = copy.deepcopy(base)
    for _ in range(draw(st.integers(0, 3))):
        steps = doc.get("steps") if isinstance(doc, dict) else None
        if isinstance(steps, list) and steps and draw(st.booleans()):
            step = draw(st.sampled_from(steps))
            if isinstance(step, dict):
                step[draw(st.sampled_from("mn"))] = draw(st.sampled_from(JUNK_MODES))
            continue
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(["replace", "delete", "append"]))
        if not path:
            doc = draw(junk)
            continue
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        node = parent[path[-1]]
        if action == "delete":
            del parent[path[-1]]
        elif action == "append" and isinstance(node, list):
            node.append(draw(junk))
        else:
            parent[path[-1]] = draw(junk)
    return doc


cases = st.sampled_from(TARGETS).flatmap(
    lambda target: st.tuples(st.just(target[0]), mutated(target[1])))


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, doc in FILES.items():
        (path / name).write_text(json.dumps(doc), encoding="utf-8")
    return path


def _run(argv, folder, doc):
    """Run argv with @doc as the document, or as the raw bytes if given."""
    text = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
    (folder / "doc").write_bytes(text)
    args = [str(folder / a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


def _vector(monomial):
    return {"sector": "untwisted", "rank": 1,
            "terms": [{"monomial": monomial, "coeff": "1"}]}


@settings(max_examples=250, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.function_scoped_fixture])
@given(case=cases)
@example(case=(["dump", "--kind", "vector", "--input", "@doc"],
               _vector("x[1,1]^" + LONG)))
@example(case=(["dump", "--kind", "vector", "--input", "@doc"],
               _vector("x[" + LONG + ",1]")))
@example(case=(["fiber", "--zeta", "@zeta", "--l", "2", "--top", "@doc"],
               [[[1.0, 0.0], 1e308]]))
@example(case=(["fiber", "--zeta", "@zeta", "--l", "2", "--sphere", "@doc"],
               [[1e200, 0]]))
@example(case=(["fiber", "--zeta", "@doc", "--l", "2"],
               {"sector": "untwisted", "r": 1, "zeta": ["0", "1" + "0" * 400]}))
@example(case=(["fiber", "--zeta", "@doc", "--l", "2"],
               {"sector": "untwisted", "r": 0, "numeric": True,
                "zeta": [[1e308, 0]]}))
@example(case=(["fiber", "--zeta", "@doc", "--l", "1"],
               {"sector": "untwisted", "r": 1, "numeric": True,
                "zeta": [[1, 0], [1e308, 0]]}))
@example(case=(["fiber", "--zeta", "@doc", "--l", "2"],
               {"sector": "untwisted", "r": 1, "numeric": True,
                "zeta": [[1e308, 0], [1, 0]]}))
@example(case=(["fiber", "--zeta", "@doc", "--l", "2"],
               {"sector": "twisted", "r": 2, "numeric": True,
                "zeta": [[1e308, 1e308], [1, 0]]}))
def test_cli_exits_0_to_3_and_dump_is_idempotent(case, folder):
    argv, doc = case
    code, out = _run(argv, folder, doc)
    assert code in (0, 1, 2, 3), (argv, doc)
    if argv[0] == "dump" and code == 0:
        assert _run(argv, folder, json.loads(out)) == (0, out)


NOT_UTF8 = [b"\xff", b"\xfe\x00", b"\xc3(", b"\xed\xa0\x80", b"\x80"]


@st.composite
def mangled(draw):
    """A case whose document text takes one byte-level mutation: bytes that
    are not UTF-8 put in anywhere, or the text nested in arrays deeper than
    the decoder recurses, closed or left open."""
    argv, doc = draw(cases)
    text = json.dumps(doc).encode()
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        return argv, text[:at] + draw(st.sampled_from(NOT_UTF8)) + text[at:]
    depth = draw(st.sampled_from([10 ** 4, 10 ** 5]))
    closers = b"]" * depth if draw(st.booleans()) else b""
    return argv, b"[" * depth + text + closers


@settings(max_examples=40, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mangled())
@example(case=(["type", "--lambda", "@doc"],
               b"\xff\xfe\x00" + json.dumps(LAMBDA).encode()))
@example(case=(["type", "--lambda", "@doc"], b"[" * 100_000))
def test_undecodable_or_over_deep_text_exits_1(case, folder):
    argv, text = case
    assert _run(argv, folder, text) == (1, ""), argv


def _flag(name, low, high, cap=None):
    """Values from low to high, and for a capped flag from just below its
    cap to far above it."""
    values = st.integers(low, high)
    if cap is not None:
        values = values | st.integers(cap - 1, 100 * cap)
    return values.map(lambda v: [name, str(v)])


RELATIONS_CAPS = {"--l": MAX_RELATIONS_RANK, "--bound": MAX_RELATIONS_BOUND,
                  "--trials": MAX_RELATIONS_TRIALS}


@st.composite
def _relations_flags(draw):
    """Small values, but for at most one flag drawn past its cap."""
    wide = draw(st.sampled_from([None, *RELATIONS_CAPS]))
    argv = ["relations"]
    for name, cap in RELATIONS_CAPS.items():
        values = (st.integers(cap + 1, 100 * cap) if name == wide
                  else st.integers(-1, 3))
        argv += [name, str(draw(values))]
    return argv


flag_cases = st.one_of(
    _relations_flags().map(lambda argv: [argv]),
    st.tuples(st.just(["cmn"]), _flag("--order", -2, 12, MAX_CMN_ORDER)),
    st.tuples(st.just(["verify", "--lambda", "@lambda"]),
              _flag("--bound", -1, 8, MAX_VERIFY_BOUND)),
).map(lambda parts: sum(parts, []))


@settings(max_examples=120, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=flag_cases)
def test_integer_flags_exit_0_to_3(argv, folder):
    args = [str(folder / a[1:]) if a.startswith("@") else a for a in argv]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert main(args) in (0, 1, 2, 3), argv


def test_fixed_documents_are_valid(folder):
    for argv, doc in TARGETS:
        assert _run(argv, folder, doc)[0] == 0, argv
