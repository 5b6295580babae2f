"""Byte-for-byte guard on command-line outputs.

``data/golden_cli.json`` holds input documents and, for each case, an argv
with its recorded exit code and stdout.  In an argv, ``@name`` stands for
the input document ``name`` written to a temporary directory.  Every case
must reproduce its recording exactly, numeric floats included, so a
refactor that claims unchanged outputs is checked rather than assumed.

After a change that is meant to alter outputs, re-record with
``PYTHONPATH=src python tests/test_golden.py --record`` and review the diff.
"""

import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from heisenfock.cli import main

DATA = Path(__file__).with_name("data") / "golden_cli.json"
GOLDEN = json.loads(DATA.read_text(encoding="utf-8"))


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


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    with tempfile.TemporaryDirectory() as tmp:
        write_inputs(Path(tmp))
        for case in GOLDEN["cases"]:
            case["exit"], case["stdout"] = run_case(case["argv"], Path(tmp))
    DATA.write_text(json.dumps(GOLDEN, indent=1) + "\n", encoding="utf-8")
