"""Byte-for-byte guards on command-line outputs and vertex-operator modes.

``data/golden_cli.json`` holds input documents and, for each case, an argv
with its recorded exit code and stdout.  In an argv, ``@name`` stands for
the input document ``name`` written to a temporary directory.  Every case
must reproduce its recording exactly, numeric floats included, so a
refactor that claims unchanged outputs is checked rather than assumed.

``data/golden_modes.json`` holds seeded ``mode_apply`` /
``twisted_mode_apply`` inputs (lambda data, vector and state as JSON
documents, the mode as text) with the text form of each recorded output.
The states have one to five factors, derivative factors h(-n) with n >= 2
and mixed factor counts; the ranks are 1-3 with nonzero lambda data; both
sectors appear, always with a mode of the parity the state can reach.
Under its key ``delta_z`` the same file holds seeded ``delta_z_apply``
inputs with the text of each recorded output: ranks 1-3, states of weight
up to 8 with derivative factors h(-n), n up to 4, and ``FreeMonomial``
factor lists such as h(-1)^5, with and without an explicit rank.
Under its key ``sampling`` it holds the text of seeded ``random_lambda`` /
``random_fock`` / ``cli._random_mode_pair`` draws (ranks 1-3, both
sectors, ``anisotropic_top`` on and off) with the lattice facts of each
drawn lambda: ``support_bound``, ``top_doubled``, ``positive_support2`` and
``pair2`` (or the error it raises) for the doubled modes -3..9.

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

from heisenfock import (FockVector, FreeMonomial, LambdaSequence, Sector,
                        delta_z_apply, mode_apply, twisted_mode_apply)
from heisenfock.cli import _random_mode_pair, main
from heisenfock.sampling import (random_fock, random_lambda,
                                 random_nonzero_scalar, random_rational,
                                 random_scalar)
from heisenfock.serialize import (fock_from_json, fock_to_json,
                                  lambda_from_json, lambda_to_json)

DATA = Path(__file__).with_name("data") / "golden_cli.json"
GOLDEN = json.loads(DATA.read_text(encoding="utf-8"))
MODES_DATA = Path(__file__).with_name("data") / "golden_modes.json"
MODES_SEED = 20261018
MODES_COUNT = 80
DELTA_SEED = 20261019
DELTA_COUNT = 100
SAMPLING_SEED = 20261020
SAMPLING_COUNT = 72


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


def apply_mode_case(case) -> str:
    lam = lambda_from_json(case["lambda"])
    apply = mode_apply if lam.sector is Sector.UNTWISTED else twisted_mode_apply
    out = apply(fock_from_json(case["state"]), Fraction(case["k"]),
                fock_from_json(case["vector"]), lam)
    return str(out)


MODES = json.loads(MODES_DATA.read_text(encoding="utf-8"))
MODE_CASES = MODES["cases"]


@pytest.mark.parametrize("case", MODE_CASES,
                         ids=[f"{n}-{c['lambda']['sector']}"
                              for n, c in enumerate(MODE_CASES)])
def test_mode_output_unchanged(case):
    assert apply_mode_case(case) == case["out"]


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
        u = FreeMonomial(tuple(tuple(f) for f in case["factors"]))
        out = delta_z_apply(u, rank=case["rank"])
    else:
        out = delta_z_apply(fock_from_json(case["state"]))
    return "{" + ", ".join(f"{j}: {v}" for j, v in sorted(out.items())) + "}"


DELTA_CASES = MODES["delta_z"]["cases"]


@pytest.mark.parametrize("case", DELTA_CASES,
                         ids=[str(n) for n in range(len(DELTA_CASES))])
def test_delta_z_output_unchanged(case):
    assert apply_delta_case(case) == case["out"]


# -- seeded sampling and the lambda mode lattice ----------------------------------

def draw_sampling_cases(seed: int, count: int):
    """A grid over sector, rank, ``anisotropic_top``, ``max_r`` (0 stands for
    the zero sequence) and ``max_degree``, one draw seed per case."""
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
        lam = random_lambda(rng, rank, sector, max_r=case["max_r"],
                            anisotropic_top=case["anisotropic_top"])
    else:
        lam = LambdaSequence.zero(rank, sector)
    f = random_fock(rng, rank, sector, max_degree=case["max_degree"],
                    max_terms=3, nonzero=case["max_degree"] > 0)
    pairs = [_random_mode_pair(rng, sector, bound) for bound in (1, 2, 4)]
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
    MODES_DATA.write_text(json.dumps(
        {"seed": MODES_SEED, "cases": cases,
         "delta_z": {"seed": DELTA_SEED, "cases": deltas},
         "sampling": {"seed": SAMPLING_SEED, "cases": samples}},
        indent=1) + "\n", encoding="utf-8")
