"""Acceptance suite: one test per criterion, exact oracles at desk scale.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Every tolerance is pinned here: exact equality for all algebraic
identities, 1e-10 residual for the numeric fiber route, and wall-clock
budgets of 30 s / 60 s for the two bulk suites.
"""

import io
import json
import time
from contextlib import redirect_stdout
from fractions import Fraction
from random import Random

from heisenfock import (FockVector, LambdaSequence, QuadraticElement, Sector,
                        WhittakerType, bilinear, binom_mode_identity_check,
                        binom_transfer_matrix, certify_cyclic, cmn_table,
                        commutator_check, delta_z_apply, mode_apply, omega,
                        quadratic_act, quadratic_check, solve_fiber,
                        twisted_mode_apply,
                        verify_certificate, verify_whittaker_vector,
                        virasoro_bracket_check, virasoro_mode,
                        twisted_virasoro_mode, weighted_partial,
                        whittaker_type_of, fiber_dimension)
from heisenfock.cli import main as cli_main
from heisenfock.sampling import (random_fock, random_lambda,
                                 random_nonzero_scalar)
from heisenfock.whittaker import _type_sums

from conftest import anisotropic_lambda
from test_binom import exact_determinant
from test_cmn import sympy_cmn_oracle

NUMERIC_TOLERANCE = 1e-10
RELATIONS_BUDGET_S = 30.0
CERTIFICATE_BUDGET_S = 60.0
HALF = Fraction(1, 2)


def announce(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_heisenberg_relations():
    start = time.perf_counter()
    checked = 0
    for rank in (1, 2, 3):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            rng = Random(1000 + rank)
            if sector is Sector.UNTWISTED:
                modes = [Fraction(v) for v in range(-5, 6)]
            else:
                modes = [Fraction(2 * v + 1, 2) for v in range(-5, 5)]
            for _ in range(200):
                lam = random_lambda(rng, rank, sector)
                f = random_fock(rng, rank, sector, max_degree=8)
                i, j = rng.randint(1, rank), rng.randint(1, rank)
                for m in modes:
                    for n in modes:
                        assert commutator_check(i, j, m, n, f, lam), \
                            (rank, sector, i, j, m, n)
                        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < RELATIONS_BUDGET_S, f"took {elapsed:.1f}s"
    announce(1, f"oscillator commutators exact on {checked} checks "
                f"({elapsed:.1f}s; |m|,|n|<=5, ranks 1-3, both sectors)")


def test_criterion_2_quadratic_realization():
    rng = Random(2)
    for trial in range(500):
        sector = Sector.UNTWISTED if trial % 2 == 0 else Sector.TWISTED
        rank = rng.randint(1, 3)
        lam = random_lambda(rng, rank, sector)
        f = random_fock(rng, rank, sector, max_degree=8)
        base = 0 if sector is Sector.UNTWISTED else HALF
        m = base + rng.randint(1 if sector is Sector.UNTWISTED else 0, 5)
        n = base + rng.randint(1 if sector is Sector.UNTWISTED else 0, 5)
        q = QuadraticElement.build(lam, rng.randint(1, rank),
                                   rng.randint(1, rank), m, n)
        assert quadratic_check(lam, q, f), (trial, sector)
    announce(2, "differential closed form equals composition minus shift "
                "on 500 random triples, exact")


def test_criterion_3_virasoro_bracket_central_charge():
    rng = Random(3)
    for rank in (1, 2):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for m in range(-4, 5):
                for n in range(-4, 5):
                    for _ in range(2):
                        lam = random_lambda(rng, rank, sector, max_r=2)
                        f = random_fock(rng, rank, sector, max_degree=5,
                                        max_terms=3)
                        assert virasoro_bracket_check(m, n, f, lam), \
                            (rank, sector, m, n)
    # the (2,-2) vacuum case by independent double application
    for rank in (1, 2):
        lam0 = LambdaSequence.zero(rank)
        one = FockVector.constant(1, rank)
        lhs = (virasoro_mode(2, virasoro_mode(-2, one, lam0), lam0)
               - virasoro_mode(-2, virasoro_mode(2, one, lam0), lam0))
        assert lhs == one.scaled_fraction(Fraction(rank, 2))
        lam0t = LambdaSequence.zero(rank, Sector.TWISTED)
        onet = FockVector.constant(1, rank, Sector.TWISTED)
        lhs_t = (twisted_virasoro_mode(2, twisted_virasoro_mode(-2, onet, lam0t), lam0t)
                 - twisted_virasoro_mode(-2, twisted_virasoro_mode(2, onet, lam0t), lam0t))
        # twisted L_0 1 = (rank/16) 1, so [L_2, L_-2] 1 = (rank/4 + rank/2) 1
        assert lhs_t == onet.scaled_fraction(4 * Fraction(rank, 16)
                                             + Fraction(rank, 2))
    announce(3, "Virasoro brackets exact for |m|,|n|<=4, ranks 1-2, both "
                "sectors; central charge equals the rank")


def test_criterion_4_whittaker_types():
    rng = Random(4)
    for sector in (Sector.UNTWISTED, Sector.TWISTED):
        for _ in range(50):
            rank = rng.randint(1, 3)
            lam = anisotropic_lambda(rng, rank, sector)
            wt = whittaker_type_of(lam)
            r, eps = wt.r, wt.epsilon
            report = verify_whittaker_vector(lam, 2 * r + eps + 4)
            assert report.all_ok and report.valid_type
            for row in report.rows:
                if r + 1 <= row.index <= 2 * r + eps:
                    assert row.expected == wt.zeta[row.index - wt.r - 1]
                else:
                    assert row.expected == 0 * wt.zeta[-1]
            one = FockVector.constant(1, rank, sector)
            top = lam.entries[-1]
            half_norm = bilinear(top, top) / 2
            if sector is Sector.UNTWISTED:
                got = mode_apply(omega(rank), 2 * r + 1, one, lam)
            else:
                got = twisted_mode_apply(omega(rank), 2 * r, one, lam)
            assert got == one.scaled(half_norm)
    announce(4, "50 random proper lambda per sector: eigenvalues, "
                "truncation, and top value all exact")


def test_criterion_5_cmn_table_and_shift():
    oracle = sympy_cmn_oracle(6)
    table = cmn_table(6)
    for m in range(7):
        for n in range(7):
            assert table.c(m, n) == oracle[(m, n)]
    assert table.c(0, 0) == 0
    assert table.c(1, 0) == Fraction(-1, 4)
    assert table.c(1, 1) == Fraction(1, 16)
    shifts = {}
    for rank in (1, 2, 3):
        out = delta_z_apply(omega(rank))
        expected_shift = FockVector.constant(1, rank).scaled_fraction(
            rank * Fraction(1, 16))
        assert out == {0: omega(rank), 2: expected_shift}
        shifts[rank] = rank * Fraction(1, 16)
    assert shifts[1] == Fraction(1, 16)
    announce(5, "order-6 coefficient table matches the independent series "
                "oracle; conformal-state correction is rank/16 "
                f"(rank 1: {shifts[1]}, matching the 1/16 reading; computed "
                f"rank-2/3 values {shifts[2]}, {shifts[3]} follow the "
                "rank-proportional reading)")


def test_criterion_6_binomial_mode_identity():
    rng = Random(6)
    checked = 0
    for bound in (0, 1, 2):
        for _ in range(20):
            rank = rng.randint(1, 2)
            if bound and rng.random() < 0.8:
                lam = random_lambda(rng, rank, Sector.UNTWISTED, max_r=bound)
            else:
                lam = LambdaSequence.zero(rank)
            u = random_fock(rng, rank, Sector.UNTWISTED, max_degree=bound,
                            max_terms=2, nonzero=False)
            a, b = rng.randint(1, rank), rng.randint(1, rank)
            for p in range(3):
                for q in range(3):
                    n = rng.randint(-2, 2 * bound + 3)
                    assert binom_mode_identity_check(a, b, p, q, n, u, lam,
                                                     bound), (bound, p, q, n)
                    checked += 1
    for bound in range(3):
        for size in range(1, 7):
            assert exact_determinant(binom_transfer_matrix(bound, size)) != 0
    announce(6, f"transfer identity exact on {checked} configurations; "
                "coefficient-matrix determinants nonzero up to size 6")


def test_criterion_7_simplicity_certificates():
    start = time.perf_counter()
    case2_checked = diagonal_steps = 0
    for sector in (Sector.UNTWISTED, Sector.TWISTED):
        rng = Random(7)
        for _ in range(100):
            rank = rng.randint(1, 3)
            lam = random_lambda(rng, rank, sector)
            a = random_fock(rng, rank, sector, max_degree=10, max_terms=5)
            cert = certify_cyclic(lam, a)
            assert cert.terminal
            degrees = [s.degree_before for s in cert.steps] + [Fraction(0)]
            assert all(x > y for x, y in zip(degrees, degrees[1:])) or \
                len(cert.steps) == 0
            for step in cert.steps:
                assert step.degree_after < step.degree_before
            assert verify_certificate(lam, a, cert)
            current = a
            for step in cert.steps:
                if step.case == "2":
                    assert not weighted_partial(step.element.j,
                                                Fraction(step.element.n2, 2),
                                                current)
                    case2_checked += 1
                # case 3a is the diagonal element: two kernel calls, d_im a and
                # one over it
                diagonal_steps += step.case == "3a"
                current = quadratic_act(lam, step.element, current)
            # the closed-form walk lands where the composition replay did
            assert current == FockVector.constant(cert.terminal, rank, sector)
    elapsed = time.perf_counter() - start
    assert elapsed < CERTIFICATE_BUDGET_S, f"took {elapsed:.1f}s"
    assert diagonal_steps > 0
    announce(7, f"200 certificates built, replayed, and degree-checked "
                f"({elapsed:.1f}s; {case2_checked} low-mode steps with "
                f"exactly vanishing dropped term; {diagonal_steps} diagonal "
                "(3a) steps)")


def test_criterion_8_fiber_solver():
    from heisenfock.scalars import Scalar
    wt_half = WhittakerType(Sector.UNTWISTED, 0, (Scalar(HALF),))
    points = {solve_fiber(wt_half, 1, sphere_point=[s], exact=True)
              .lambda_entries[0][0] for s in (Scalar(1), Scalar(-1))}
    assert points == {Scalar(1), Scalar(-1)}

    rng = Random(8)
    solved = 0
    while solved < 100:
        rank = rng.randint(1, 3)
        r = rng.randint(0, 2)
        zeta = tuple(complex(random_nonzero_scalar(rng)) for _ in range(r + 1))
        wt = WhittakerType(Sector.UNTWISTED, r, zeta, exact=False)
        params = [[complex(random_nonzero_scalar(rng))
                   for _ in range(rank - 1)] for _ in range(r)]
        point = solve_fiber(wt, rank, free_params=params, exact=False)
        assert point.residual <= NUMERIC_TOLERANCE
        # the point's type, recomputed from its lambda slots
        got = _type_sums(point.lambda_entries, 0j)
        assert len(got) == len(zeta)
        assert max(abs(g - z) for g, z in zip(got, zeta)) <= NUMERIC_TOLERANCE
        assert fiber_dimension(rank, r, Sector.UNTWISTED) == \
            (rank - 1, (rank - 1) * r)
        solved += 1
    for rank in (1, 2, 3):
        for r in (1, 2):
            assert fiber_dimension(rank, r, Sector.TWISTED) == \
                (rank - 1, (rank - 1) * (r - 1))

    wt2 = WhittakerType(Sector.UNTWISTED, 1, (Scalar(3), Scalar(2)))
    a = solve_fiber(wt2, 2, free_params=[[Scalar(1)]], exact=True)
    b = solve_fiber(wt2, 2, free_params=[[Scalar(4)]], exact=True)
    assert a.to_lambda() != b.to_lambda()
    assert whittaker_type_of(a.to_lambda()) == whittaker_type_of(b.to_lambda())
    announce(8, "rank-1 fiber has exactly two exact points; 100 numeric "
                "round-trips within 1e-10; dimensions and exact free "
                "parameters all consistent")


def test_criterion_9_cli_determinism(tmp_path):
    def run(*argv):
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(list(argv))
        return code, buf.getvalue()

    runs = {run("relations", "--l", "2", "--bound", "3", "--seed", "13",
                "--trials", "12") for _ in range(3)}
    assert len(runs) == 1
    code, payload = next(iter(runs))
    assert code == 0 and json.loads(payload)["all_pass"]

    lam_path = tmp_path / "lam.json"
    lam_path.write_text(json.dumps({
        "sector": "twisted", "rank": 2,
        "entries": [[["1", "0"], ["0", "1/2"]]]}))
    vec_path = tmp_path / "vec.json"
    vec_path.write_text(json.dumps({
        "sector": "twisted", "rank": 2,
        "terms": [{"monomial": "x[1,1/2]^2*x[2,3/2]", "coeff": "2-i"}]}))
    cert_runs = {run("certify", "--lambda", str(lam_path),
                     "--vector", str(vec_path)) for _ in range(3)}
    assert len(cert_runs) == 1
    announce(9, "repeated CLI runs with a fixed seed are byte-identical")
