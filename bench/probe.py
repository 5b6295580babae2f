"""Child-process entry points of the benchmark.

``python3 bench/probe.py setup WORKLOAD``
    Import the package, make the workload's warm-up call and print the
    monotonic clock.  The parent subtracts its own clock reading from just
    before the spawn: that difference is the workload's set-up time.

``python3 bench/probe.py cli OUT ARG...``
    Run one CLI request ``heisenfock ARG...`` under the tracer and write the
    trace aggregates to the JSON file OUT.  Used by the traced run, which
    keeps one process per CLI request.

This module imports nothing beyond the standard library before the package,
so the set-up time is the package's own.
"""

import io
import os
import sys
import time
from contextlib import redirect_stdout

T_START = time.monotonic()

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def warm_oscillator():
    from fractions import Fraction
    import heisenfock as hf
    lam = hf.LambdaSequence.make(hf.Sector.UNTWISTED, 1, [[0], [1]])
    f = hf.FockVector.variable(1, 1, rank=1)
    hf.commutator_check(1, 1, 1, -1, f, lam)
    q = hf.QuadraticElement.build(lam, 1, 1, 1, 1)
    hf.quadratic_act(lam, q, f)
    hf.act_mode(lam, 1, Fraction(1), f)


def warm_vertex():
    import heisenfock as hf
    one = hf.FockVector.constant(1, 1, hf.Sector.TWISTED)
    lam = hf.LambdaSequence.zero(1, hf.Sector.TWISTED)
    hf.twisted_virasoro_mode(0, one, lam)
    hf.virasoro_mode(0, hf.FockVector.constant(1, 1), hf.LambdaSequence.zero(1))


def warm_certify():
    import json
    import heisenfock as hf
    from heisenfock import serialize
    lam = hf.LambdaSequence.make(hf.Sector.UNTWISTED, 1, [[0], [2]])
    cert = hf.certify_cyclic(lam, hf.FockVector.variable(1, 1, rank=1))
    text = json.dumps(serialize.certificate_to_json(lam, cert))
    lam2, cert2 = serialize.certificate_from_json(json.loads(text))
    hf.verify_certificate(lam2, cert2.initial, cert2)


def warm_cli():
    from heisenfock import cli
    with redirect_stdout(io.StringIO()):
        cli.main(["cmn", "--order", "1"])


WARMUPS = {"oscillator": warm_oscillator, "vertex": warm_vertex,
           "certify": warm_certify, "cli": warm_cli}


def sweep():
    """One small call through every layer in this process (the traced run
    starts with it, so no layer's figures are missing on any workload)."""
    import heisenfock as hf
    warm_oscillator()
    warm_vertex()
    warm_certify()
    lam = hf.LambdaSequence.make(hf.Sector.UNTWISTED, 1, [[0], [2]])
    wt = hf.whittaker_type_of(lam)
    hf.solve_fiber(wt, 1, sphere_point=[1], exact=True)
    hf.verify_whittaker_vector(lam, 4)


def _setup(workload: str) -> int:
    sys.path.insert(0, SRC)
    WARMUPS[workload]()
    print(repr(time.monotonic()))
    return 0


def _cli(out: str, argv) -> int:
    import json

    from tracer import Tracer  # bench/tracer.py, next to this script

    sys.path.insert(0, SRC)
    t0 = time.monotonic()
    from heisenfock import cli
    import_s = time.monotonic() - t0
    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(argv)
        sys.stdout.flush()
    finally:
        tracer.uninstall()
    doc = tracer.dump()
    doc["start"] = T_START
    doc["import_s"] = import_s
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)
    return code


def main(argv) -> int:
    if len(argv) == 2 and argv[0] == "setup" and argv[1] in WARMUPS:
        return _setup(argv[1])
    if len(argv) >= 2 and argv[0] == "cli":
        return _cli(argv[1], argv[2:])
    print("usage: probe.py setup WORKLOAD | probe.py cli OUT ARG...",
          file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
