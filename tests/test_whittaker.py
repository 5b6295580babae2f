from fractions import Fraction
from random import Random

import pytest

from heisenfock import (FockVector, IsotropicTopError, LambdaSequence,
                        NonSquareError, Scalar, Sector, WhittakerType,
                        bilinear, extract_fiber_data, fiber_dimension,
                        solve_fiber, verify_whittaker_vector,
                        whittaker_type_of)
from heisenfock.errors import NumericFailure, PreconditionError
from heisenfock.sampling import random_nonzero_scalar, random_scalar
from heisenfock.whittaker import (_EXACT, _NUMERIC, TOLERANCE,
                                  _complement_basis, _type_sums)

from conftest import anisotropic_lambda, lam_of, sc

HALF = Fraction(1, 2)


def _largest_gap(point, zeta):
    """Largest |gap| between a numeric point's type, recomputed from its
    lambda slots, and the type ``zeta`` it was solved for."""
    got = _type_sums(point.lambda_entries, 0j)
    assert len(got) == len(zeta)
    return max(abs(g - complex(z)) for g, z in zip(got, zeta))


class TestTypeMap:
    def test_rank_one_example(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [2])
        wt = whittaker_type_of(lam)
        assert wt.r == 1 and wt.epsilon == 1
        assert wt.zeta == (sc(0), sc(2))

    def test_r_zero(self):
        lam = lam_of(Sector.UNTWISTED, 2, [sc(1), sc(2)])
        wt = whittaker_type_of(lam)
        assert wt.r == 0
        assert wt.zeta == (sc(Fraction(5, 2)),)

    def test_twisted_example(self):
        lam = lam_of(Sector.TWISTED, 1, [1])
        wt = whittaker_type_of(lam)
        assert wt.r == 1 and wt.epsilon == 0
        assert wt.zeta == (sc(HALF),)

    def test_isotropic_top_reported(self):
        # (1, i) pairs to 1 + i^2 = 0 under the symmetric form
        lam = lam_of(Sector.UNTWISTED, 2, [0, 0], [sc(1), sc(0, 1)])
        with pytest.raises(IsotropicTopError):
            whittaker_type_of(lam)

    def test_zero_sequence_rejected(self):
        with pytest.raises(PreconditionError):
            whittaker_type_of(LambdaSequence.zero(1))

    def test_matches_engine_eigenvalues(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(10):
                lam = anisotropic_lambda(rng, 2, sector)
                wt = whittaker_type_of(lam)
                last = 2 * wt.r + wt.epsilon
                report = verify_whittaker_vector(lam, last + 3)
                assert report.all_ok and report.valid_type
                for row in report.rows:
                    if wt.r + 1 <= row.index <= last:
                        assert row.expected == wt.zeta[row.index - wt.r - 1]


class TestTypeBySlot:
    def test_slot_sums_match_the_index_formula(self):
        # zeta_i = (1/2) sum over modes m + n = i - 1 of (lambda_m, lambda_n),
        # read through pair2, is entry i - r - 1 of the type; the slots below
        # the top are zero half the time
        rng = Random(30)
        zero_slots = 0
        for sector in Sector:
            p = sector.parity
            for _ in range(40):
                rank, r = rng.randint(1, 3), rng.randint(p, 4)
                rows = [[0] * rank if rng.random() < 0.5
                        else [random_scalar(rng) for _ in range(rank)]
                        for _ in range(r - p)]
                zero_slots += sum(not any(row) for row in rows)
                top = [0] * rank
                while not bilinear(top, top):
                    top = [random_scalar(rng) for _ in range(rank)]
                lam = lam_of(sector, rank, *rows, top)
                assert lam.support_bound == r
                wt = whittaker_type_of(lam)
                assert len(wt.zeta) == r + 1 - p
                for k, value in enumerate(wt.zeta):
                    i = r + 1 + k
                    total = sum(lam.pair2(m2, j) * lam.pair2(2 * i - 2 - m2, j)
                                for m2 in range(p, 2 * i - 1, 2)
                                for j in range(1, rank + 1))
                    assert value == total / 2, (sector, rank, r, k)
        assert zero_slots

    def test_zero_sequence_has_no_slot_sums(self):
        # no slot, no sum: every row expects zero but the twisted row 1,
        # which holds the vacuum energy rank/16, and no type is valid
        for sector in Sector:
            lam = LambdaSequence.zero(2, sector)
            assert _type_sums(lam.entries, sc(0)) == ()
            report = verify_whittaker_vector(lam, 3)
            assert report.all_ok and not report.valid_type
            vacuum = sc(HALF / 4) if sector is Sector.TWISTED else sc(0)
            assert [row.expected for row in report.rows] == [
                vacuum, sc(0), sc(0)]


class TestVerifyReport:
    def test_highest_weight_spectrum(self):
        # single nonzero entry at mode 0: one eigenvalue, all higher modes kill
        lam = lam_of(Sector.UNTWISTED, 1, [3])
        report = verify_whittaker_vector(lam, 5)
        assert report.all_ok
        by_index = {row.index: row for row in report.rows}
        assert by_index[1].expected == sc(Fraction(9, 2))
        for i in range(2, 6):
            assert by_index[i].expected == sc(0)

    def test_twisted_top(self):
        lam = lam_of(Sector.TWISTED, 1, [1])
        report = verify_whittaker_vector(lam, 4)
        assert report.all_ok
        assert report.rows[0].index == 2
        assert report.rows[0].expected == sc(HALF)

    def test_isotropic_top_flagged_not_fatal(self):
        lam = lam_of(Sector.UNTWISTED, 2, [0, 0], [sc(1), sc(0, 1)])
        report = verify_whittaker_vector(lam, 6)
        assert report.all_ok          # the spectrum is still consistent
        assert not report.valid_type  # but no admissible type exists


class TestFiberSolver:
    def test_rank_one_two_points(self):
        wt = WhittakerType(Sector.UNTWISTED, 0, (sc(HALF),))
        plus = solve_fiber(wt, 1, sphere_point=[1], exact=True)
        minus = solve_fiber(wt, 1, sphere_point=[-1], exact=True)
        assert plus.lambda_entries == ((sc(1),),)
        assert minus.lambda_entries == ((sc(-1),),)
        assert plus.residual == 0 and minus.residual == 0

    def test_rank_two_back_substitution(self):
        # zeta = (1, 1), sphere (1, 0), one free parameter t:
        # lambda_1 = sqrt(2) (1,0), lambda_0 = (1/sqrt 2, t)
        wt = WhittakerType(Sector.UNTWISTED, 1, (sc(1), sc(1)))
        t = 5.0
        point = solve_fiber(wt, 2, sphere_point=[1.0, 0.0],
                            free_params=[[t]], exact=False)
        lam1 = point.lambda_entries[1]
        lam0 = point.lambda_entries[0]
        assert abs(lam1[0] - 2 ** 0.5) < 1e-12 and abs(lam1[1]) < 1e-12
        assert abs(lam0[0] - 2 ** -0.5) < 1e-12 and abs(lam0[1] - t) < 1e-12
        assert point.residual <= 1e-12

    def test_exact_round_trip(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(10):
                lam = anisotropic_lambda(rng, 3, sector)
                wt = whittaker_type_of(lam)
                top, params = extract_fiber_data(lam)
                point = solve_fiber(wt, 3, free_params=params, exact=True,
                                    top_vector=top)
                assert point.to_lambda() == lam

    def test_distinct_parameters_distinct_lambda_same_type(self):
        wt = WhittakerType(Sector.UNTWISTED, 1, (sc(3), sc(2)))
        a = solve_fiber(wt, 2, free_params=[[sc(1)]], exact=True)
        b = solve_fiber(wt, 2, free_params=[[sc(2)]], exact=True)
        la, lb = a.to_lambda(), b.to_lambda()
        assert la != lb
        assert whittaker_type_of(la) == whittaker_type_of(lb) == wt

    def test_sphere_sign_flip_same_type(self):
        wt = WhittakerType(Sector.UNTWISTED, 1, (sc(3), sc(2)))
        plus = solve_fiber(wt, 2, sphere_point=[sc(1), sc(0)], exact=True)
        minus = solve_fiber(wt, 2, sphere_point=[sc(-1), sc(0)], exact=True)
        lp, lm = plus.to_lambda(), minus.to_lambda()
        assert lp != lm
        assert whittaker_type_of(lp) == whittaker_type_of(lm) == wt

    def test_numeric_surjectivity(self, rng):
        count = 0
        while count < 60:
            rank = rng.randint(1, 3)
            sector = rng.choice((Sector.UNTWISTED, Sector.TWISTED))
            r = rng.randint(0 if sector is Sector.UNTWISTED else 1, 2)
            eps = 1 if sector is Sector.UNTWISTED else 0
            if r + eps == 0:
                continue
            zeta = tuple(complex(random_nonzero_scalar(rng))
                         for _ in range(r + eps))
            wt = WhittakerType(sector, r, zeta, exact=False)
            params = [[complex(random_nonzero_scalar(rng))
                       for _ in range(rank - 1)]
                      for _ in range(r if eps else r - 1)]
            point = solve_fiber(wt, rank, free_params=params, exact=False)
            assert point.residual <= 1e-10
            assert point.residual == _largest_gap(point, zeta)
            count += 1

    def test_exact_needs_square_or_top(self):
        wt = WhittakerType(Sector.UNTWISTED, 0, (sc(1),))  # 2*zeta = 2: no sqrt
        with pytest.raises(NonSquareError):
            solve_fiber(wt, 1, exact=True)
        with pytest.raises(NonSquareError):  # a given sphere point needs it too
            solve_fiber(wt, 2, sphere_point=[sc(1), sc(0)], exact=True)
        # with no sphere point, rank 2 takes the top ((1+t)/2, i(1-t)/2)
        point = solve_fiber(wt, 2, exact=True)
        assert point.top_vector == (sc(3, 0) / 2, sc(0, -1) / 2)
        assert point.sphere_point is None
        # an exactly scaled top vector sidesteps the square root: (1,1) has
        # self-pairing 2
        point = solve_fiber(wt, 2, exact=True, top_vector=[sc(1), sc(1)])
        lam = point.to_lambda()
        assert (lam.pair2(0, 1), lam.pair2(0, 2)) == (sc(1), sc(1))

    def test_zero_top_rejected(self):
        with pytest.raises(PreconditionError):
            WhittakerType(Sector.UNTWISTED, 1, (sc(1), sc(0)))

    def test_param_shape_validated(self):
        wt = WhittakerType(Sector.UNTWISTED, 1, (sc(1), sc(2)))
        with pytest.raises(PreconditionError):
            solve_fiber(wt, 2, free_params=[[sc(1)], [sc(2)]], exact=True)

    def test_exact_mode_rejects_numeric_type(self):
        wt = WhittakerType(Sector.UNTWISTED, 0, (0.5 + 0j,), exact=False)
        with pytest.raises(PreconditionError):
            solve_fiber(wt, 1, exact=True)

    @pytest.mark.parametrize("top", [[0, 0], [1, 1j], [1, 1e-15 + 1j]])
    def test_numeric_isotropic_top_rejected(self, top):
        # the sphere point's rule: |(T, T)| <= 1e-14 * sum |T_i|^2
        wt = WhittakerType(Sector.UNTWISTED, 1, (1 + 0j, 1 + 0j), exact=False)
        with pytest.raises(IsotropicTopError,
                           match="top_vector pairs to zero with itself"):
            solve_fiber(wt, 2, top_vector=top)

    @pytest.mark.parametrize("key", ["sphere_point", "top_vector"])
    def test_exact_isotropic_top_rejected(self, key):
        wt = WhittakerType(Sector.UNTWISTED, 1, (sc(1), sc(2)))
        with pytest.raises(IsotropicTopError,
                           match=f"{key} pairs to zero with itself"):
            solve_fiber(wt, 2, exact=True, **{key: [sc(1), sc(0, 1)]})

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("key", ["sphere_point", "top_vector"])
    def test_vector_length_checked(self, exact, key):
        wt = WhittakerType(Sector.UNTWISTED, 0, (sc(2),))
        with pytest.raises(PreconditionError):
            solve_fiber(wt, 2, exact=exact, **{key: [sc(2), sc(0), sc(0)]})

    @pytest.mark.parametrize("exact", [False, True])
    def test_sphere_point_with_top_vector_rejected(self, exact):
        # either one fixes the top entry, so together one would be dropped
        wt = WhittakerType(Sector.UNTWISTED, 0, (sc("1/2"),))
        given = {"sphere_point": [sc(1), sc(0)], "top_vector": [sc(0), sc(1)]}
        for key, value in given.items():
            solve_fiber(wt, 2, exact=exact, **{key: value})
        with pytest.raises(PreconditionError):
            solve_fiber(wt, 2, exact=exact, **given)

    def test_short_sphere_point_is_not_isotropic(self):
        # (s, s) = 1e-16 is tiny only because s is short; its direction is fine
        wt = WhittakerType(Sector.UNTWISTED, 0, (0.5 + 0j,), exact=False)
        point = solve_fiber(wt, 1, sphere_point=[1e-8])
        assert point.lambda_entries == ((1 + 0j,),)
        point = solve_fiber(wt, 2, sphere_point=[3e-9, 4e-9])
        assert point.residual <= 1e-10

    @pytest.mark.parametrize("sphere", [[0, 0], [1, 1j], [1e-8, 1e-8j],
                                        [1, 1e-15 + 1j]])
    def test_isotropic_sphere_point_rejected(self, sphere):
        wt = WhittakerType(Sector.UNTWISTED, 0, (0.5 + 0j,), exact=False)
        with pytest.raises(IsotropicTopError,
                           match="sphere_point pairs to zero with itself"):
            solve_fiber(wt, 2, sphere_point=sphere)

    def test_non_finite_residual_fails(self):
        wt = WhittakerType(Sector.UNTWISTED, 0, (complex(float("nan"), 0),),
                           exact=False)
        with pytest.raises(NumericFailure):
            solve_fiber(wt, 2)

    @pytest.mark.parametrize("top, error, message", [
        ((1 + 0j, 1 + 0j), NumericFailure, r"fiber residual 1\.000e\+00 exceeds"),
        # (T, T) = inf - inf: the gaps are (1, NaN), and max() alone would
        # keep the 1
        ((1e200 + 0j, 1e200j), PreconditionError, "the fiber residual overflows"),
    ], ids=["largest-gap", "nan-after-a-number"])
    def test_residual_reports_nan(self, monkeypatch, top, error, message):
        # the solved entries are replaced by (0, top): type entry 0 reads 0
        # against zeta_2 = 1, so its gap is 1
        from heisenfock import whittaker
        solve = whittaker._back_substitute

        def planted(zeta, entries, *rest):
            solve(zeta, entries, *rest)
            entries[:] = [(0j, 0j), top]

        monkeypatch.setattr(whittaker, "_back_substitute", planted)
        wt = WhittakerType(Sector.UNTWISTED, 1, (1 + 0j, 1 + 0j), exact=False)
        with pytest.raises(error, match=message):
            solve_fiber(wt, 2)

    @pytest.mark.parametrize("zeta", [(1e30 + 0j, 3 + 0j),
                                      (1234567 + 0.5j, 2345678 - 1j)],
                             ids=["1e30", "1e6"])
    def test_large_type_holds_relative_to_its_size(self, zeta):
        # the residual is reported absolute, above 1e-10 here, and bounded
        # by the tolerance times the largest |zeta_i|
        wt = WhittakerType(Sector.UNTWISTED, 1, zeta, exact=False)
        point = solve_fiber(wt, 2)
        assert point.residual == _largest_gap(point, zeta)
        assert TOLERANCE < point.residual <= TOLERANCE * max(map(abs, zeta))

    @pytest.mark.parametrize("zeta", [(1 + 0j, 3 + 0j),
                                      (1234567 + 0.5j, 2345678 - 1j)],
                             ids=["1", "1e6"])
    def test_planted_wrong_entry_fails(self, plant_wrong_entry, zeta):
        wt = WhittakerType(Sector.UNTWISTED, 1, zeta, exact=False)
        bound = TOLERANCE * max(1.0, *map(abs, zeta))
        with pytest.raises(NumericFailure,
                           match=f"exceeds tolerance {bound:.3e}"):
            solve_fiber(wt, 2)

    def test_numeric_fibers_hold_at_every_scale(self, rng):
        # a seeded sweep of types of scale 1e3 to 1e12: every one solves
        # within the tolerance times its largest |zeta_i|, where an
        # absolute 1e-10 refuses many
        above = 0
        for trial in range(96):
            scale = 10.0 ** (3 + trial // 2 % 10)
            sector = (Sector.UNTWISTED, Sector.TWISTED)[trial % 2]
            eps = 1 - sector.parity
            rank, r = rng.randint(1, 4), rng.randint(sector.parity, 3)
            zeta = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) * scale
                         for _ in range(r + eps))
            wt = WhittakerType(sector, r, zeta, exact=False)
            point = solve_fiber(wt, rank)
            assert point.residual <= TOLERANCE * max(1.0, *map(abs, zeta))
            above += point.residual > TOLERANCE
        assert above >= 48


class TestPivotFallback:
    """Tops whose isotropic intermediates starve Gram-Schmidt, so the
    complement basis falls back to e_s - (T_s / T_j*) e_j*."""

    @pytest.mark.parametrize("top", [(1, 1, 1j), (1, 1, 1, 1j)])
    @pytest.mark.parametrize("sector", [Sector.UNTWISTED, Sector.TWISTED])
    def test_extract_inverts_solve(self, rng, sector, top):
        rank = len(top)
        top = tuple(sc(int(c.real), int(c.imag)) for c in map(complex, top))
        lower = [[random_nonzero_scalar(rng) for _ in range(rank)]
                 for _ in range(2 - sector.parity)]
        lam = lam_of(sector, rank, *lower, top)
        basis, pivot = _complement_basis(top, _EXACT)
        assert pivot == 0 and len(basis) == rank - 1
        assert _complement_basis(tuple(map(complex, top)), _NUMERIC)[1] == 0

        got_top, params = extract_fiber_data(lam)
        assert got_top == top and len(params) == len(lower)
        # each parameter row spans its entry's residual in the pivot basis,
        # built here from its formula
        pivot_basis = [[sc(1) if c == s else -top[s] / top[0] if c == 0
                        else sc(0) for c in range(rank)]
                       for s in range(1, rank)]
        tt = bilinear(top, top)
        for v, row in zip(reversed(lower), params):
            coef = bilinear(v, top) / tt
            resid = [a - coef * b for a, b in zip(v, top)]
            spanned = [sum((c * w[k] for c, w in zip(row, pivot_basis)), sc(0))
                       for k in range(rank)]
            assert spanned == resid

        wt = whittaker_type_of(lam)
        point = solve_fiber(wt, rank, free_params=params, exact=True,
                            top_vector=top)
        assert point.to_lambda() == lam

        numeric = WhittakerType(sector, wt.r, tuple(map(complex, wt.zeta)),
                                exact=False)
        point = solve_fiber(numeric, rank, top_vector=list(map(complex, top)),
                            free_params=[list(map(complex, row))
                                         for row in params])
        assert point.residual <= TOLERANCE
        for got, want in zip(point.lambda_entries, lam.entries):
            assert all(abs(g - complex(w)) <= TOLERANCE
                       for g, w in zip(got, want))


class TestFiberDimension:
    @pytest.mark.parametrize("rank,r,sector,expected", [
        (1, 0, Sector.UNTWISTED, (0, 0)),
        (1, 3, Sector.UNTWISTED, (0, 0)),
        (3, 2, Sector.UNTWISTED, (2, 4)),
        (2, 1, Sector.TWISTED, (1, 0)),
        (4, 3, Sector.TWISTED, (3, 6)),
    ])
    def test_pairs(self, rank, r, sector, expected):
        assert fiber_dimension(rank, r, sector) == expected

    def test_guards(self):
        with pytest.raises(PreconditionError):
            fiber_dimension(2, 0, Sector.TWISTED)
        with pytest.raises(PreconditionError):
            fiber_dimension(2, -1, Sector.UNTWISTED)
