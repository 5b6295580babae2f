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

from heisenfock import FockVector, Sector, mode_apply, twisted_mode_apply
from heisenfock.cli import main
from heisenfock.sampling import random_fock, random_lambda, random_nonzero_scalar
from heisenfock.serialize import (fock_from_json, fock_to_json,
                                  lambda_from_json, lambda_to_json)

DATA = Path(__file__).with_name("data") / "golden_cli.json"
GOLDEN = json.loads(DATA.read_text(encoding="utf-8"))
MODES_DATA = Path(__file__).with_name("data") / "golden_modes.json"
MODES_SEED = 20261018
MODES_COUNT = 80


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


MODE_CASES = json.loads(MODES_DATA.read_text(encoding="utf-8"))["cases"]


@pytest.mark.parametrize("case", MODE_CASES,
                         ids=[f"{n}-{c['lambda']['sector']}"
                              for n, c in enumerate(MODE_CASES)])
def test_mode_output_unchanged(case):
    assert apply_mode_case(case) == case["out"]


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
    MODES_DATA.write_text(json.dumps({"seed": MODES_SEED, "cases": cases},
                                     indent=1) + "\n", encoding="utf-8")
