"""Byte-for-byte guards on command-line outputs and vertex-operator modes.

``data/golden_cli.json`` holds input documents and, for each case, an argv
with its recorded exit code and stdout.  In an argv, ``@name`` stands for
the input document ``name`` written to a temporary directory.  Every case
must reproduce its recording exactly, numeric floats included, so a
refactor that claims unchanged outputs is checked rather than assumed.

``data/golden_modes.json`` holds seeded ``mode_apply`` inputs (lambda data,
vector and state as JSON documents, the mode as text) with the text form of
each recorded output.
The states have one to five factors, derivative factors h(-n) with n >= 2
and mixed factor counts; the ranks are 1-3 with nonzero lambda data; both
sectors appear, always with a mode of the parity the state can reach.
Under its key ``delta_z`` the same file holds seeded ``delta_z_apply``
inputs with the text of each recorded output: ranks 1-3, states of weight
up to 8 with derivative factors h(-n), n up to 4, and single monomials
stored as factor lists such as h(-1)^5, with and without an explicit rank.
The harness turns a factor list [[a, n], ...] into the state
x[a1,n1]*x[a2,n2]*... of that rank, or of the largest boson index listed
when the rank is null.
Under its key ``sampling`` it holds the text of seeded ``random_lambda`` /
``random_fock`` / ``random_mode_pair`` draws (ranks 1-3, both
sectors, the lambda data drawn by ``random_lambda`` or, where a case's
``anisotropic_top`` is set, re-drawn by ``conftest.anisotropic_lambda``
until its top entry is anisotropic) with the lattice facts of each
drawn lambda: ``support_bound``, ``top_doubled``, ``positive_support2`` and
``pair2`` (or the error it raises) for the doubled modes -3..9.
Under its key ``text`` it holds a seeded corpus of scalar strings and of
monomial strings in both sectors (signs, inner spaces, ``/0``, ``i``,
non-ASCII digits, 5000-digit runs, modes ``0`` and ``4/2``, ``^0``,
repeated factors) with the canonical text of each parsed value, or the
class name of the exception the parse raises.
Under its key ``repeated`` it holds more mode cases, on states built of
runs x[a,n]^e of equal factors (e 2-6, n 1-3, one or two runs per monomial,
one or two monomials with complex coefficients), ranks 1-3, both sectors;
twisted modes are integral and half-odd, of the parity the state reaches
and, one time in four, of the other.

After a change that is meant to alter outputs, re-record both files with
``PYTHONPATH=src python tests/test_golden.py --record`` and review the diff.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest

from heisenfock import (FockVector, LambdaSequence, Sector, delta_z_apply,
                        format_scalar, mode_apply, monomial_text,
                        parse_scalar)
from heisenfock.cli import main
from heisenfock.sampling import (random_fock, random_lambda,
                                 random_mode_pair, random_nonzero_scalar,
                                 random_rational, random_scalar)
from heisenfock.serialize import (fock_from_json, fock_to_json,
                                  lambda_from_json, lambda_to_json,
                                  parse_monomial)

from conftest import anisotropic_lambda

DATA = Path(__file__).with_name("data") / "golden_cli.json"
GOLDEN = json.loads(DATA.read_text(encoding="utf-8"))
MODES_DATA = Path(__file__).with_name("data") / "golden_modes.json"
MODES_SEED = 20261018
MODES_COUNT = 80
DELTA_SEED = 20261019
DELTA_COUNT = 100
SAMPLING_SEED = 20261020
SAMPLING_COUNT = 72
TEXT_SEED = 20261021
TEXT_COUNT = 300
REPEATED_SEED = 20261022
REPEATED_COUNT = 48


def write_inputs(folder: Path) -> None:
    for name, doc in GOLDEN["inputs"].items():
        (folder / name).write_text(json.dumps(doc), encoding="utf-8")


def run_case(argv, folder: Path):
    args = [str(folder / a[1:]) if a.startswith("@") else a for a in argv]
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = main(args)
    return code, out.getvalue()


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    write_inputs(path)
    return path


@pytest.mark.parametrize("case", GOLDEN["cases"],
                         ids=[" ".join(c["argv"]) for c in GOLDEN["cases"]])
def test_cli_output_unchanged(case, folder):
    assert run_case(case["argv"], folder) == (case["exit"], case["stdout"])


# -- vertex-operator modes -------------------------------------------------------

def _random_state(rng: Random, rank: int, sector: Sector) -> FockVector:
    """1-3 monomials of 1-5 factors h_a(-n) with n in 1..3.

    A twisted mode of a monomial is half-odd or integral by the parity of
    its factor count, so in the twisted sector all counts share a parity.
    """
    counts = [rng.randint(1, 5) for _ in range(rng.randint(1, 3))]
    if sector is Sector.TWISTED:
        counts = [c if c % 2 == counts[0] % 2 else c - 1 for c in counts]
    state = FockVector.zero(rank)
    for count in counts:
        term = FockVector.constant(random_nonzero_scalar(rng), rank)
        for _ in range(count):
            n = rng.choice((1, 1, 2, 3)) if count < 4 else rng.choice((1, 1, 1, 2))
            term = term.times_variable(rng.randint(1, rank), 2 * n)
        state = state + term
    return state


def draw_mode_cases(seed: int, count: int):
    rng = Random(seed)
    cases = []
    while len(cases) < count:
        sector = (Sector.UNTWISTED, Sector.TWISTED)[len(cases) % 2]
        rank = rng.randint(1, 3)
        lam = random_lambda(rng, rank, sector, max_r=2)
        f = random_fock(rng, rank, sector, max_degree=2, max_terms=3)
        state = _random_state(rng, rank, sector)
        if not state:
            continue
        factors = sum(e for _, _, e in next(iter(state.terms)))
        weight = state.degree2 // 2
        k = Fraction(rng.randint(-1, weight + 1))
        if sector is Sector.TWISTED and factors % 2:
            k += Fraction(1, 2)
        cases.append({"lambda": lambda_to_json(lam), "vector": fock_to_json(f),
                      "state": fock_to_json(state), "k": str(k)})
    return cases


def mode_case_inputs(case):
    return (fock_from_json(case["state"]), Fraction(case["k"]),
            fock_from_json(case["vector"]), lambda_from_json(case["lambda"]))


def apply_mode_case(case) -> str:
    return str(mode_apply(*mode_case_inputs(case)))


MODES = json.loads(MODES_DATA.read_text(encoding="utf-8"))
MODE_CASES = MODES["cases"]


@pytest.mark.parametrize("case", MODE_CASES,
                         ids=[f"{n}-{c['lambda']['sector']}"
                              for n, c in enumerate(MODE_CASES)])
def test_mode_output_unchanged(case):
    assert apply_mode_case(case) == case["out"]


def _run_state(rng: Random, rank: int) -> FockVector:
    """1-2 monomials, each one or two runs x[a,n]^e, e in 2..6, n in 1..3;
    a monomial of two runs has at most 7 factors and weight at most 15."""
    state = FockVector.zero(rank)
    for _ in range(rng.randint(1, 2)):
        term = FockVector.constant(random_nonzero_scalar(rng), rank)
        runs = [(rng.randint(1, rank), rng.randint(1, 3), rng.randint(2, 6))]
        if rng.random() < 0.5:
            a, n = rng.randint(1, rank), rng.randint(1, 3)
            most = min(7 - runs[0][2], (15 - runs[0][1] * runs[0][2]) // n)
            if (a, n) != runs[0][:2] and most >= 2:
                runs.append((a, n, rng.randint(2, most)))
        for a, n, e in runs:
            for _ in range(e):
                term = term.times_variable(a, 2 * n)
        state = state + term
    return state


def draw_repeated_cases(seed: int, count: int):
    """Mode cases on states made of runs of equal factors.

    A twisted mode takes the parity of the first monomial's factor count,
    or the other parity one time in four (that monomial then adds zero).
    """
    rng = Random(seed)
    cases = []
    while len(cases) < count:
        sector = (Sector.UNTWISTED, Sector.TWISTED)[len(cases) % 2]
        rank = rng.randint(1, 3)
        lam = random_lambda(rng, rank, sector, max_r=2)
        f = random_fock(rng, rank, sector, max_degree=2, max_terms=2)
        state = _run_state(rng, rank)
        if not state:
            continue
        factors = sum(e for _, _, e in next(iter(state.terms)))
        k = Fraction(rng.randint(-1, state.degree2 // 2 + 1))
        if sector is Sector.TWISTED and (factors % 2) != (rng.random() < 0.25):
            k += Fraction(1, 2)
        cases.append({"lambda": lambda_to_json(lam), "vector": fock_to_json(f),
                      "state": fock_to_json(state), "k": str(k)})
    return cases


REPEATED_CASES = MODES["repeated"]["cases"]


@pytest.mark.parametrize("case", REPEATED_CASES,
                         ids=[f"{n}-{c['lambda']['sector']}"
                              for n, c in enumerate(REPEATED_CASES)])
def test_repeated_factor_mode_output_unchanged(case):
    assert apply_mode_case(case) == case["out"]


def test_mode_output_same_cold_and_warm():
    # a cached expansion plan gives the vector a freshly built one gives
    from heisenfock import vertex
    for case in MODE_CASES + REPEATED_CASES:
        args = mode_case_inputs(case)
        vertex._plan.cache_clear()
        cold = mode_apply(*args)
        assert mode_apply(*args) == cold
        assert str(cold) == case["out"]


@pytest.mark.parametrize("kept_apart_by, factors, k", [
    ("cap", 3, 1), ("weight", 3, 1), ("variables", 3, 1),
    ("variables", 1, 2), ("variables", 2, 1)],
    ids=["cap", "weight", "variables", "variables-one-factor",
         "variables-two-factors"])
def test_plans_kept_apart(kept_apart_by, factors, k):
    # the same state monomial and mode on two vectors that need different
    # plans: a plan made for the first lacks modes the second needs, for
    # every factor count
    from heisenfock import vertex
    lam = LambdaSequence.make(Sector.UNTWISTED, 1, [[1], [Fraction(1, 2)]])
    x1, x3 = FockVector.variable(1, 1, 1), FockVector.variable(1, 3, 1)
    state = x1
    for _ in range(factors - 1):
        state = state * x1
    if kept_apart_by == "cap":
        vecs = [x3, FockVector.variable(1, 4, 1)]
        assert vecs[0].max_mode2() < vecs[1].max_mode2()
    elif kept_apart_by == "weight":  # the same variables
        vecs = [x3, x3 * x3]
        assert vecs[0].max_mode2() == vecs[1].max_mode2()
    else:  # the same cap and weight
        vecs = [x3, x3 + FockVector.variable(1, 2, 1)]
        assert vecs[0].degree2 == vecs[1].degree2
    alone = []
    for f in vecs:
        vertex._plan.cache_clear()
        alone.append(mode_apply(state, k, f, lam))
    assert alone[1]
    for order in ((0, 1), (1, 0)):
        vertex._plan.cache_clear()
        for i in order:
            assert mode_apply(state, k, vecs[i], lam) == alone[i]


# -- the twisted correction exp(Delta_z) ------------------------------------------

def _weighted_state(rng: Random, rank: int) -> FockVector:
    """1-3 monomials of weight at most 8 in factors h_a(-n), n in 1..4."""
    state = FockVector.zero(rank)
    for _ in range(rng.randint(1, 3)):
        term = FockVector.constant(random_nonzero_scalar(rng), rank)
        budget = rng.randint(1, 8)
        while budget:
            n = rng.randint(1, min(4, budget))
            term = term.times_variable(rng.randint(1, rank), 2 * n)
            budget -= n
        state = state + term
    return state


def draw_delta_cases(seed: int, count: int):
    rng = Random(seed)
    cases = []
    while len(cases) < count:
        rank = rng.randint(1, 3)
        if len(cases) % 4 == 3:
            factors, budget = [], rng.randint(1, 8)
            while budget:
                n = rng.choice((1, 1, 2, 3))
                n = min(n, budget)
                factors.append([rng.randint(1, rank), n])
                budget -= n
            cases.append({"factors": factors,
                          "rank": rank if rng.random() < 0.5 else None})
            continue
        state = _weighted_state(rng, rank)
        if state:
            cases.append({"state": fock_to_json(state)})
    cases.append({"factors": [[1, 1]] * 5, "rank": None})
    return cases


def apply_delta_case(case) -> str:
    if "factors" in case:
        factors = case["factors"]
        rank = case["rank"] or max(a for a, _ in factors)
        u = FockVector.constant(1, rank)
        for a, n in factors:
            u = u.times_variable(a, 2 * n)
    else:
        u = fock_from_json(case["state"])
    out = delta_z_apply(u)
    return "{" + ", ".join(f"{j}: {v}" for j, v in sorted(out.items())) + "}"


DELTA_CASES = MODES["delta_z"]["cases"]


@pytest.mark.parametrize("case", DELTA_CASES,
                         ids=[str(n) for n in range(len(DELTA_CASES))])
def test_delta_z_output_unchanged(case):
    assert apply_delta_case(case) == case["out"]


# -- seeded sampling and the lambda mode lattice ----------------------------------

def draw_sampling_cases(seed: int, count: int):
    """A grid over sector, rank, ``anisotropic_top`` (lambda data drawn by
    ``anisotropic_lambda``), ``max_r`` (0 stands for the zero sequence) and
    ``max_degree``, one draw seed per case."""
    return [{"seed": seed + n,
             "sector": ("untwisted", "twisted")[n % 2],
             "rank": 1 + n // 2 % 3,
             "anisotropic_top": n // 6 % 2 == 1,
             "max_r": n // 12 % 4,
             "max_degree": (0, 1, 2, 6, 8)[n % 5]} for n in range(count)]


def _pair2_text(lam: LambdaSequence, d2: int, i: int) -> str:
    try:
        return str(lam.pair2(d2, i))
    except Exception as exc:  # the error is part of the recorded behaviour
        return f"{type(exc).__name__}: {exc}"


def sample_case(case) -> str:
    rng = Random(case["seed"])
    sector, rank = Sector(case["sector"]), case["rank"]
    scalars = [random_rational(rng), random_scalar(rng),
               random_nonzero_scalar(rng)]
    if case["max_r"]:
        draw = anisotropic_lambda if case["anisotropic_top"] else random_lambda
        lam = draw(rng, rank, sector, max_r=case["max_r"])
    else:
        lam = LambdaSequence.zero(rank, sector)
    f = random_fock(rng, rank, sector, max_degree=case["max_degree"],
                    max_terms=3, nonzero=case["max_degree"] > 0)
    pairs = [random_mode_pair(rng, sector, bound) for bound in (1, 2, 4)]
    pair2 = [_pair2_text(lam, d2, i)
             for d2 in range(-3, 10) for i in range(1, rank + 1)]
    return "\n".join([
        "scalars " + " ".join(map(str, scalars)),
        "lambda " + json.dumps(lambda_to_json(lam)["entries"]),
        f"support_bound {lam.support_bound}",
        f"top_doubled {lam.top_doubled}",
        f"positive_support2 {list(lam.positive_support2())}",
        "pair2 " + " | ".join(pair2),
        f"vector {f}",
        "mode_pairs " + " ".join(f"{m},{n}" for m, n in pairs),
    ])


SAMPLING_CASES = MODES["sampling"]["cases"]


@pytest.mark.parametrize("case", SAMPLING_CASES,
                         ids=[str(n) for n in range(len(SAMPLING_CASES))])
def test_sampling_output_unchanged(case):
    assert sample_case(case) == case["out"]


# -- scalar and monomial text forms ------------------------------------------------

LONG = "9" * 5000
SCALAR_TEXTS = [
    "0", "-0", "+0", "7", "+7", "-7", "007", "1/2", "-1/2", "+1/2", "2/4",
    "0/5", "-0/5", "1/0", "0/0", "1//2", "/2", "1/", "1/-2", "1/+2", "i",
    "+i", "-i", "--i", "+-i", "i+1", "ii", "1i", "0i", "-0i", "3/4i", "-3/4i",
    "1/0i", "1+i", "1-i", "1+-i", "1-+i", "-1-i", "1/2+3/4i", "2/4+6/8i",
    "1/2-3/4i", "-2-5/3i", "1/0+i", "1+1/0i", "1+0i", "0+0i", "1+2", "1+2+3i",
    "1/2/3i", "i2", "2+3j", "1e5", "0.5", "1_0", "", " ", " 1 ", "1 + i",
    "1 +i", " - 1 / 2 - 3 i ", "\t1", "1\t+i", "1\n", "\u00a01", "١", "1+٢i",
    "x", LONG, "-" + LONG, "1/" + LONG, LONG + "i", "1+" + LONG + "i",
    "1/2+1/" + LONG + "i", "1" + "0" * 400 + "+i",
]
MONOMIAL_TEXTS = [
    "1", " 1 ", "", "x", "x[1,1]", "x[1,4/2]", "x[1,0]", "x[1,0/2]",
    "x[1,1/2]", "x[1,3/2]", "x[1,6/4]", "x[1,1/3]", "x[1,-1]", "x[1,+1]",
    "x[1,-1/2]", "x[1,+1/2]", "x[1,2/4]", "x[1,01]", "x[1,01/2]",
    "x[0,1]", "x[01,1]", "x[1,1]^0", "x[1,1]^00", "x[1,1]^1", "x[1,1]^01",
    "x[1,1]^", "x[1,1]^-1", "x[1,1]*x[1,1]", "x[1,1/2]*x[1,1/2]^2",
    "x[2,1]*x[1,1]^2*x[2,1]", "x[1,3]*x[1,2]*x[1,1]", " x[1,1] * x[2,2] ",
    "x[1, 1]", "x[1,1]**x[1,1]", "x[1,1]*", "*x[1,1]", "1*x[1,1]",
    "x[1,1]x[1,2]", "y[1,1]", "x[1]", "x(1,1)", "x[١,1]", "x[1,١]",
    "x[1,1]^٢", "x[1,1/٢]", "x[" + LONG + ",1]", "x[1," + LONG + "]",
    "x[1," + LONG + "/2]", "x[1,1]^" + LONG, "x[1," + "1" + "0" * 400 + "]",
    "x[1,1]^" + "1" + "0" * 30, "x[1,1]\n",
]


def draw_text_cases(seed: int, count: int):
    """The fixed strings above, each monomial in both sectors, then seeded
    random ones: monomials of one to three factors from small index, mode
    and exponent tokens, scalars as a real and an imaginary part drawn from
    valid and broken forms, and scalars of free sign, digit, slash and
    ``i`` tokens."""
    rng = Random(seed)
    cases = [{"kind": "scalar", "text": t} for t in SCALAR_TEXTS]
    cases += [{"kind": sector, "text": t} for t in MONOMIAL_TEXTS
              for sector in ("untwisted", "twisted")]
    tokens = ["", "+", "-", " ", "0", "1", "2", "12", "/", "/0", "/2", "/4",
              "i", "+i", "-i", "1/2", "3/4i"]
    modes = {"untwisted": ["1", "2", "3", "4/2", "01"],
             "twisted": ["1/2", "3/2", "5/2", "01/2"],
             None: ["0", "0/2", "6/4", "-1", "1/3", "+1", "2/4", "1", "1/2"]}
    reals = ["", "0", "1", "-2", "+12", "1/2", "-3/4", "2/0", "/2", "1/"]
    imags = ["", "i", "+i", "-i", "2i", "+3/4i", "-1/2i", "+/2i", "+0i", "-i1"]
    while len(cases) < count:
        if len(cases) % 4 == 1:
            text = rng.choice(reals) + rng.choice(["", "", " "]) + rng.choice(imags)
            cases.append({"kind": "scalar", "text": text})
            continue
        if len(cases) % 4 == 3:
            text = "".join(rng.choice(tokens) for _ in range(rng.randint(1, 5)))
            cases.append({"kind": "scalar", "text": text})
            continue
        sector = rng.choice(["untwisted", "twisted"])
        factors = [f"x[{rng.choice('0123')},"
                   f"{rng.choice(modes[sector if rng.random() < 0.8 else None])}]"
                   + rng.choice(["", "", "", "^0", "^1", "^2", "^03"])
                   for _ in range(rng.randint(1, 3))]
        cases.append({"kind": sector,
                      "text": rng.choice(["*", " * "]).join(factors)})
    return cases


def parse_text_case(case) -> str:
    try:
        if case["kind"] == "scalar":
            return format_scalar(parse_scalar(case["text"]))
        return monomial_text(parse_monomial(case["text"], Sector(case["kind"])))
    except Exception as exc:  # the error class is the recorded behaviour
        return type(exc).__name__


TEXT_CASES = MODES["text"]["cases"]


@pytest.mark.parametrize("case", TEXT_CASES,
                         ids=[str(n) for n in range(len(TEXT_CASES))])
def test_text_output_unchanged(case):
    assert parse_text_case(case) == case["out"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for case in GOLDEN["cases"]:
            case["exit"], case["stdout"] = run_case(case["argv"], Path(tmp))
    DATA.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
    cases = draw_mode_cases(MODES_SEED, MODES_COUNT)
    for case in cases:
        case["out"] = apply_mode_case(case)
    deltas = draw_delta_cases(DELTA_SEED, DELTA_COUNT)
    for case in deltas:
        case["out"] = apply_delta_case(case)
    samples = draw_sampling_cases(SAMPLING_SEED, SAMPLING_COUNT)
    for case in samples:
        case["out"] = sample_case(case)
    texts = draw_text_cases(TEXT_SEED, TEXT_COUNT)
    for case in texts:
        case["out"] = parse_text_case(case)
    repeated = draw_repeated_cases(REPEATED_SEED, REPEATED_COUNT)
    for case in repeated:
        case["out"] = apply_mode_case(case)
    MODES_DATA.write_text(json.dumps(
        {"seed": MODES_SEED, "cases": cases,
         "delta_z": {"seed": DELTA_SEED, "cases": deltas},
         "sampling": {"seed": SAMPLING_SEED, "cases": samples},
         "text": {"seed": TEXT_SEED, "cases": texts},
         "repeated": {"seed": REPEATED_SEED, "cases": repeated}},
        indent=1) + "\n", encoding="utf-8")
