"""Batch command-line front door.

Subcommands::

    type       --lambda FILE                 Whittaker type of lambda data
    fiber      --zeta FILE --l N [--exact]   one fiber point (both points at rank 1)
                                             (N <= 64)
    verify     --lambda FILE --bound B       Virasoro spectrum report on the cyclic vector
                                             (B <= 1024, rank <= 64)
    certify    --lambda FILE --vector FILE   build a reduction certificate
                                             (factors per term <= 128)
    certify    --check CERT [--vector FILE]  replay/verify a certificate
                                             (factors per term <= 128)
    relations  [--l N --bound B --seed S --trials T]   randomized identity suites
                                             (N <= 8, B <= 32, T <= 500)
    cmn        --order M                     exact twisted-correction coefficient table
                                             (M <= 128)
    dump       --kind K --input FILE         parse and re-emit a canonical document

Every subcommand but ``dump`` refuses lambda data or a type whose support
bound r exceeds 64 (exit 2).

All output is JSON on stdout.  Exit status: 0 success, 1 schema error,
2 mathematical precondition violated, 3 identity/verification failure,
4 internal error (an unexpected exception; one line on stderr).

Each subcommand imports the modules it uses when it runs, and importing the
package loads none of them, so a request loads only its own: ``cmn`` never
loads ``certify``, ``whittaker`` or ``sampling``.  Where bytecode is not
cached (``PYTHONDONTWRITEBYTECODE``, or a read-only install), every request
compiles each module it loads from source, and that compile costs a small
request more than its own work.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import (NumericFailure, PreconditionError, ReductionError,
                     SchemaError, _quoted)

EXIT_OK = 0
EXIT_SCHEMA = 1
EXIT_PRECONDITION = 2
EXIT_CHECK_FAILED = 3
EXIT_INTERNAL = 4

# above these, the output grows past a few MB for no new information
MAX_VERIFY_BOUND = 1024
MAX_CMN_ORDER = 128
# the rank of a fiber or of verify's lambda data: an exact fiber at this rank
# takes under a second, its cost growing about as the cube of the rank, and
# verify at this rank and its largest bound takes a fraction of a second
MAX_RANK = 64
# the support bound r of a type or of lambda data: the solves and eigenvalue
# sums grow about as its cube, and at this bound the slowest fiber (--l 64
# --exact) takes under two seconds
MAX_SUPPORT_BOUND = 64
# relations at all three of these runs in a few seconds: its cost grows with
# their product
MAX_RELATIONS_RANK = 8
MAX_RELATIONS_BOUND = 32
MAX_RELATIONS_TRIALS = 500
# the factors in a term of a vector to certify, or of the vector a certificate
# is replayed on, which bound the steps: at the cap a certificate takes about a
# second to build, at twice the cap more than ten, and a replay of x[1,1]^k
# costs about five times more per doubling of k
MAX_CERTIFY_FACTORS = 128


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
    except ValueError as exc:
        # an integer literal past Python's int-string conversion limit
        raise SchemaError(f"{path} holds an integer too long to read") from exc


def _emit(doc) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


# -- subcommands -----------------------------------------------------------------

def cmd_type(args) -> int:
    from .serialize import lambda_from_json, whittaker_type_to_json
    from .whittaker import whittaker_type_of
    lam = lambda_from_json(_load_json(args.lambda_file))
    _at_most("r", lam.support_bound, MAX_SUPPORT_BOUND)
    _emit(whittaker_type_to_json(whittaker_type_of(lam)))
    return EXIT_OK


def _one_vector(path, rank: int, where: str, exact: bool):
    from .serialize import vectors_from_json
    rows = vectors_from_json(_load_json(path), rank, where, exact)
    if len(rows) != 1:
        raise SchemaError(f"{where} file must hold exactly one vector")
    return rows[0]


def cmd_fiber(args) -> int:
    from .serialize import (fiber_to_json, vectors_from_json,
                            whittaker_type_from_json)
    from .whittaker import solve_fiber
    if args.l < 1:  # before the files, whose rows are read at this rank
        raise PreconditionError("fiber needs --l >= 1")
    _at_most("--l", args.l, MAX_RANK)
    zeta = whittaker_type_from_json(_load_json(args.zeta))
    _at_most("r", zeta.r, MAX_SUPPORT_BOUND)
    rank = args.l
    sphere = params = top = None
    if args.sphere:
        sphere = _one_vector(args.sphere, rank, "sphere", args.exact)
    if args.top:
        top = _one_vector(args.top, rank, "top", args.exact)
    if args.params:
        params = vectors_from_json(_load_json(args.params), rank - 1, "params",
                                   args.exact)
    if rank == 1 and sphere is None and top is None:
        points = [solve_fiber(zeta, 1, sphere_point=[s], free_params=params,
                              exact=args.exact) for s in (1, -1)]
        _emit({"schema": "fiber-set/1",
               "points": [fiber_to_json(p) for p in points]})
        return EXIT_OK
    point = solve_fiber(zeta, rank, sphere_point=sphere, free_params=params,
                        exact=args.exact, top_vector=top)
    _emit(fiber_to_json(point))
    return EXIT_OK


def _at_most(flag: str, value: int, cap: int) -> None:
    if value > cap:
        raise PreconditionError(f"{flag} {_quoted(value)} exceeds the maximum {cap}")


def _factors_at_most(vector) -> None:
    """Refuse a vector to certify or replay a certificate on whose largest
    term has more than ``MAX_CERTIFY_FACTORS`` factors."""
    factors = max((sum(e for *_, e in mono) for mono in vector.terms), default=0)
    _at_most("factors in a term", factors, MAX_CERTIFY_FACTORS)


def cmd_verify(args) -> int:
    from .serialize import lambda_from_json, report_to_json
    from .whittaker import verify_whittaker_vector
    _at_most("--bound", args.bound, MAX_VERIFY_BOUND)
    lam = lambda_from_json(_load_json(args.lambda_file))
    _at_most("r", lam.support_bound, MAX_SUPPORT_BOUND)
    _at_most("rank", lam.rank, MAX_RANK)
    report = verify_whittaker_vector(lam, args.bound)
    _emit(report_to_json(report))
    return EXIT_OK if report.all_ok else EXIT_CHECK_FAILED


def cmd_certify(args) -> int:
    from .certify import certify_cyclic, verify_certificate
    from .serialize import (certificate_from_json, certificate_to_json,
                            fock_from_json, lambda_from_json)
    if args.check:
        if args.lambda_file:
            raise SchemaError("certify --check takes its lambda from the "
                              "certificate, not from --lambda")
        lam, cert = certificate_from_json(_load_json(args.check))
        _at_most("r", lam.support_bound, MAX_SUPPORT_BOUND)
        vector = cert.initial
        if args.vector:
            vector = fock_from_json(_load_json(args.vector))
        _factors_at_most(vector)
        valid = verify_certificate(lam, vector, cert)
        _emit({"schema": "certify-check/1", "valid": valid,
               "steps": len(cert.steps)})
        return EXIT_OK if valid else EXIT_CHECK_FAILED
    if not args.lambda_file or not args.vector:
        raise SchemaError("certify needs --lambda and --vector (or --check)")
    lam = lambda_from_json(_load_json(args.lambda_file))
    _at_most("r", lam.support_bound, MAX_SUPPORT_BOUND)
    vector = fock_from_json(_load_json(args.vector))
    _factors_at_most(vector)
    cert = certify_cyclic(lam, vector)
    _emit(certificate_to_json(lam, cert))
    return EXIT_OK


def cmd_cmn(args) -> int:
    from .serialize import cmn_to_json
    from .vertex import cmn_table
    _at_most("--order", args.order, MAX_CMN_ORDER)
    _emit(cmn_to_json(cmn_table(args.order)))
    return EXIT_OK


def cmd_dump(args) -> int:
    from .serialize import (certificate_from_json, certificate_to_json,
                            fock_from_json, fock_to_json, lambda_from_json,
                            lambda_to_json, whittaker_type_from_json,
                            whittaker_type_to_json)
    doc = _load_json(args.input)
    if args.kind == "lambda":
        _emit(lambda_to_json(lambda_from_json(doc)))
    elif args.kind == "vector":
        _emit(fock_to_json(fock_from_json(doc)))
    elif args.kind == "zeta":
        _emit(whittaker_type_to_json(whittaker_type_from_json(doc)))
    else:  # "certificate": argparse allows no other kind
        lam, cert = certificate_from_json(doc)
        _emit(certificate_to_json(lam, cert))
    return EXIT_OK


def cmd_relations(args) -> int:
    from .sampling import run_suites
    if args.l < 1 or args.bound < 1 or args.trials < 1:
        raise PreconditionError(
            "relations needs --l >= 1, --bound >= 1 and --trials >= 1")
    _at_most("--l", args.l, MAX_RELATIONS_RANK)
    _at_most("--bound", args.bound, MAX_RELATIONS_BOUND)
    _at_most("--trials", args.trials, MAX_RELATIONS_TRIALS)
    suites = run_suites(args.seed, args.l, args.bound, args.trials)
    all_pass = all(s["failures"] == 0 for s in suites.values())
    _emit({"schema": "relations-report/1", "seed": args.seed, "l": args.l,
           "bound": args.bound, "suites": suites, "all_pass": all_pass})
    return EXIT_OK if all_pass else EXIT_CHECK_FAILED


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
