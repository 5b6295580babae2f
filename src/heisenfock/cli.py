"""Batch command-line front door.

Subcommands::

    type       --lambda FILE                 Whittaker type of lambda data
    fiber      --zeta FILE --l N [--exact]   one fiber point (both points at rank 1)
    verify     --lambda FILE --bound B       Virasoro spectrum report on the cyclic vector
                                             (B <= 1024)
    certify    --lambda FILE --vector FILE   build a reduction certificate
    certify    --check CERT [--vector FILE]  replay/verify a certificate
    relations  [--l N --bound B --seed S --trials T]   randomized identity suites
                                             (N <= 8, B <= 32, T <= 500)
    cmn        --order M                     exact twisted-correction coefficient table
                                             (M <= 128)
    dump       --kind K --input FILE         parse and re-emit a canonical document

All output is JSON on stdout.  Exit status: 0 success, 1 schema error,
2 mathematical precondition violated, 3 identity/verification failure,
4 internal error (an unexpected exception; one line on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from random import Random

from .certify import certify_cyclic, verify_certificate
from .errors import (NumericFailure, PreconditionError, ReductionError,
                     SchemaError)
from .fock import FockVector, Sector
from .heisenberg import (LambdaSequence, QuadraticElement, commutator_check,
                         quadratic_check)
from .sampling import random_fock, random_lambda
from .scalars import Scalar
from .serialize import (certificate_from_json, certificate_to_json,
                        cmn_to_json, fiber_to_json, fock_from_json,
                        fock_to_json, lambda_from_json, lambda_to_json,
                        report_to_json, vectors_from_json,
                        whittaker_type_from_json, whittaker_type_to_json)
from .vertex import (binom_mode_identity_check, cmn_table,
                     virasoro_bracket_check)
from .whittaker import solve_fiber, verify_whittaker_vector, whittaker_type_of

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_PRECONDITION = 2
EXIT_CHECK_FAILED = 3
EXIT_INTERNAL = 4

# above these, the output grows past a few MB for no new information
MAX_VERIFY_BOUND = 1024
MAX_CMN_ORDER = 128
# relations at all three of these runs in a few seconds: its cost grows with
# their product
MAX_RELATIONS_RANK = 8
MAX_RELATIONS_BOUND = 32
MAX_RELATIONS_TRIALS = 500


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path} is not valid UTF-8: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per nested array or object
        raise SchemaError(f"{path} nests too deeply") from exc


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# -- subcommands -----------------------------------------------------------------

def cmd_type(args) -> int:
    lam = lambda_from_json(_load_json(args.lambda_file))
    _emit(whittaker_type_to_json(whittaker_type_of(lam)))
    return EXIT_OK


def _one_vector(path, rank: int, where: str, exact: bool):
    rows = vectors_from_json(_load_json(path), rank, where, numeric=not exact)
    if len(rows) != 1:
        raise SchemaError(f"{where} file must hold exactly one vector")
    return rows[0]


def cmd_fiber(args) -> int:
    zeta = whittaker_type_from_json(_load_json(args.zeta))
    rank = args.l
    sphere = params = top = None
    if args.sphere:
        sphere = _one_vector(args.sphere, rank, "sphere", args.exact)
    if args.top:
        top = _one_vector(args.top, rank, "top", args.exact)
    if args.params:
        params = vectors_from_json(_load_json(args.params), rank - 1, "params",
                                   numeric=not args.exact)
    if rank == 1 and sphere is None and top is None:
        signs = ([Scalar(1)], [Scalar(-1)]) if args.exact \
            else ([1.0 + 0j], [-1.0 + 0j])
        points = [solve_fiber(zeta, 1, sphere_point=s, free_params=params,
                              exact=args.exact) for s in signs]
        _emit({"schema": "fiber-set/1",
               "points": [fiber_to_json(p) for p in points]})
        return EXIT_OK
    point = solve_fiber(zeta, rank, sphere_point=sphere, free_params=params,
                        exact=args.exact, top_vector=top)
    _emit(fiber_to_json(point))
    return EXIT_OK


def _at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise PreconditionError(f"{flag} {value} exceeds the maximum {cap}")


def cmd_verify(args) -> int:
    _at_most("--bound", args.bound, MAX_VERIFY_BOUND)
    lam = lambda_from_json(_load_json(args.lambda_file))
    report = verify_whittaker_vector(lam, args.bound)
    _emit(report_to_json(report))
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_certify(args) -> int:
    if args.check:
        lam, cert = certificate_from_json(_load_json(args.check))
        vector = cert.initial
        if args.vector:
            vector = fock_from_json(_load_json(args.vector))
        valid = verify_certificate(lam, vector, cert)
        _emit({"schema": "certify-check/1", "valid": valid,
               "steps": len(cert.steps)})
        return EXIT_OK if valid else EXIT_CHECK_FAILED
    if not args.lambda_file or not args.vector:
        raise SchemaError("certify needs --lambda and --vector (or --check)")
    lam = lambda_from_json(_load_json(args.lambda_file))
    vector = fock_from_json(_load_json(args.vector))
    cert = certify_cyclic(lam, vector)
    _emit(certificate_to_json(lam, cert))
    return EXIT_OK


def cmd_cmn(args) -> int:
    _at_most("--order", args.order, MAX_CMN_ORDER)
    _emit(cmn_to_json(cmn_table(args.order)))
    return EXIT_OK


def cmd_dump(args) -> int:
    doc = _load_json(args.input)
    if args.kind == "lambda":
        _emit(lambda_to_json(lambda_from_json(doc)))
    elif args.kind == "vector":
        _emit(fock_to_json(fock_from_json(doc)))
    elif args.kind == "zeta":
        _emit(whittaker_type_to_json(whittaker_type_from_json(doc)))
    elif args.kind == "certificate":
        lam, cert = certificate_from_json(doc)
        _emit(certificate_to_json(lam, cert))
    else:  # pragma: no cover - argparse restricts choices
        raise SchemaError(f"unknown kind {args.kind}")
    return EXIT_OK


def cmd_relations(args) -> int:
    if args.l < 1 or args.bound < 1 or args.trials < 1:
        raise PreconditionError(
            "relations needs --l >= 1, --bound >= 1 and --trials >= 1")
    _at_most("--l", args.l, MAX_RELATIONS_RANK)
    _at_most("--bound", args.bound, MAX_RELATIONS_BOUND)
    _at_most("--trials", args.trials, MAX_RELATIONS_TRIALS)
    rng = Random(args.seed)
    both = (Sector.UNTWISTED, Sector.TWISTED)
    light = max(1, args.trials // 5)
    plan = (("commutator", _commutator_trial, both, args.trials),
            ("quadratic", _quadratic_trial, both, args.trials),
            ("virasoro", _virasoro_trial, both, light),
            ("binom", _binom_trial, (Sector.UNTWISTED,), light))
    suites = {}
    for name, trial, sectors, count in plan:
        checked = failures = 0
        for sector in sectors:
            for _ in range(count):
                ok = trial(rng, args, sector)
                if ok is None:
                    continue
                checked += 1
                if not ok:
                    failures += 1
        suites[name] = {"checked": checked, "failures": failures}
    all_pass = all(s["failures"] == 0 for s in suites.values())
    _emit({"schema": "relations-report/1", "seed": args.seed, "l": args.l,
           "bound": args.bound, "suites": suites, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


# Each trial draws its inputs from rng and reports whether its identity held,
# or None when the draw gives nothing to check.

def _commutator_trial(rng, args, sector):
    lam = random_lambda(rng, args.l, sector)
    f = random_fock(rng, args.l, sector, max_degree=6)
    i = rng.randint(1, args.l)
    j = rng.randint(1, args.l)
    m, n = _random_mode_pair(rng, sector, args.bound)
    return commutator_check(i, j, m, n, f, lam)


def _quadratic_trial(rng, args, sector):
    lam = random_lambda(rng, args.l, sector)
    f = random_fock(rng, args.l, sector, max_degree=6)
    m, _ = _random_mode_pair(rng, sector, args.bound)
    n, _ = _random_mode_pair(rng, sector, args.bound)
    m, n = abs(m), abs(n)
    if not m or not n:
        return None
    q = QuadraticElement.build(lam, rng.randint(1, args.l),
                               rng.randint(1, args.l), m, n)
    return quadratic_check(lam, q, f)


def _virasoro_trial(rng, args, sector):
    lam = random_lambda(rng, args.l, sector, max_r=2)
    f = random_fock(rng, args.l, sector, max_degree=4, max_terms=2)
    m = rng.randint(-args.bound, args.bound)
    n = rng.randint(-args.bound, args.bound)
    return virasoro_bracket_check(m, n, f, lam)


def _binom_trial(rng, args, sector):
    bound_m = rng.randint(0, 2)
    lam = LambdaSequence.zero(args.l)
    if bound_m > 0 and rng.random() < 0.7:
        lam = random_lambda(rng, args.l, sector, max_r=bound_m)
    u = random_fock(rng, args.l, sector, max_degree=bound_m,
                    max_terms=2, nonzero=False)
    p, q = rng.randint(0, 2), rng.randint(0, 2)
    n = rng.randint(-2, 2 * bound_m + 2)
    return binom_mode_identity_check(rng.randint(1, args.l),
                                     rng.randint(1, args.l),
                                     p, q, n, u, lam, bound_m)


def _random_mode_pair(rng, sector, bound):
    p = sector.parity
    values = [Fraction(2 * v + p, 2) for v in range(-bound, bound + 1 - p)]
    return rng.choice(values), rng.choice(values)


# -- wiring ------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heisenfock",
        description="Exact Fock-space computations: Whittaker types, fibers, "
                    "and simplicity certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("type", help="Whittaker type of lambda data")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.set_defaults(func=cmd_type)

    p = sub.add_parser("fiber", help="solve the fiber over a type")
    p.add_argument("--zeta", required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--exact", action="store_true")
    p.add_argument("--sphere")
    p.add_argument("--params")
    p.add_argument("--top")
    p.set_defaults(func=cmd_fiber)

    p = sub.add_parser("verify", help="Virasoro spectrum report")
    p.add_argument("--lambda", dest="lambda_file", required=True)
    p.add_argument("--bound", type=int, required=True,
                   help=f"last row, at most {MAX_VERIFY_BOUND}")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("certify", help="build or replay a reduction certificate")
    p.add_argument("--lambda", dest="lambda_file")
    p.add_argument("--vector")
    p.add_argument("--check")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("relations", help="randomized identity suites")
    p.add_argument("--l", type=int, default=2,
                   help=f"rank, at most {MAX_RELATIONS_RANK}")
    p.add_argument("--bound", type=int, default=4,
                   help=f"largest |mode|, at most {MAX_RELATIONS_BOUND}")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=50,
                   help=f"trials per suite, at most {MAX_RELATIONS_TRIALS}")
    p.set_defaults(func=cmd_relations)

    p = sub.add_parser("cmn", help="exact twisted-correction coefficients")
    p.add_argument("--order", type=int, required=True,
                   help=f"largest m and n, at most {MAX_CMN_ORDER}")
    p.set_defaults(func=cmd_cmn)

    p = sub.add_parser("dump", help="parse and re-emit a canonical document")
    p.add_argument("--kind", required=True,
                   choices=("lambda", "vector", "zeta", "certificate"))
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_dump)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except PreconditionError as exc:
        print(f"precondition violated: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except (ReductionError, NumericFailure) as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except Exception as exc:  # a defect, not bad input: keep it apart from 1-3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
