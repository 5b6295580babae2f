from fractions import Fraction
from hashlib import sha256
from math import comb, factorial

import pytest

from heisenfock import (FockVector, LambdaSequence, Sector,
                        SectorMismatchError, act_mode, mode_apply, omega,
                        twisted_mode_apply, twisted_virasoro_mode,
                        virasoro_bracket_check, virasoro_mode,
                        weighted_partial)
from heisenfock.errors import ModeRangeError
from heisenfock.sampling import random_fock, random_lambda, random_nonzero_scalar
from heisenfock.scalars import ZERO

from conftest import lam_of, one, sc, x


def normal_ordered_virasoro(n, f, lam):
    """Independent route to L_n: the truncated double sum
    (1/2) sum_i sum_m :h_i(-m) h_i(m+n): applied term by term."""
    bound = 0
    if f:
        bound = int(f.degree) + abs(n) + 2
    bound = max(bound, lam.support_bound + abs(n) + 2)
    out = FockVector.zero(f.rank, f.sector)
    for i in range(1, f.rank + 1):
        for m in range(-bound, bound + 1):
            a, b = -m, m + n   # the two oscillator modes
            lo, hi = (a, b) if a <= b else (b, a)
            # normal order: the more negative mode goes left (acts last)
            term = act_mode(lam, i, lo, act_mode(lam, i, hi, f))
            out = out + term.scaled_fraction(Fraction(1, 2))
    return out


class TestModeApply:
    def test_vacuum_state_is_identity(self, rng):
        lam = random_lambda(rng, 2, Sector.UNTWISTED)
        f = random_fock(rng, 2, Sector.UNTWISTED)
        vac = FockVector.constant(1, 2)
        assert mode_apply(vac, -1, f, lam) == f
        for k in (-3, -2, 0, 1, 5):
            assert not mode_apply(vac, k, f, lam)

    def test_creation_property(self, rng):
        # the (-1)-mode on the cyclic vector of the vacuum space returns the state
        lam0 = LambdaSequence.zero(2)
        for _ in range(20):
            u = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5)
            assert mode_apply(u, -1, one(2), lam0) == u

    def test_single_field_is_plain_mode(self, rng):
        u = x(1, 1, 2)
        for _ in range(20):
            lam = random_lambda(rng, 2, Sector.UNTWISTED)
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5)
            for k in range(-4, 5):
                assert mode_apply(u, k, f, lam) == act_mode(lam, 1, k, f)

    def test_derivative_field_mode(self):
        # the field of h(-2)|0> is the z-derivative: its k-th mode is -k h(k-1)
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        u = x(1, 2, 1)
        f = x(1, 1, 1) * x(1, 2, 1)
        for k in range(-3, 4):
            expected = act_mode(lam, 1, k - 1, f).scaled(-k)
            assert mode_apply(u, k, f, lam) == expected

    def test_field_weights_computed_once_per_mode(self, monkeypatch):
        # binom(-d-1, n-1) depends only on (d, n): no pair is computed twice.
        # The cold plan reaches 21 pairs, where the expansion visits about
        # 190,000 nodes; a plan sees f only through its variables, not its
        # monomials, so it also holds modes that f's monomials prune
        from heisenfock import vertex
        vertex._field_weight.cache_clear()
        vertex._plan.cache_clear()
        calls = []
        gbinom = vertex._gbinom

        def counted(top, k):
            calls.append((top, k))
            return gbinom(top, k)

        monkeypatch.setattr(vertex, "_gbinom", counted)
        lam = lam_of(Sector.UNTWISTED, 1, [1], [Fraction(1, 2)], [3])
        x1, x2 = x(1, 1, 1), x(1, 2, 1)
        u = x1 * x1 * x1 * x1 * x2 * x2
        f = x1 * x1 * x2 + x(1, 3, 1) + 2 * one(1)
        assert len(mode_apply(u, 1, f, lam).terms) == 483
        assert len(set(calls)) == len(calls)
        assert len(calls) == 21

    @pytest.mark.parametrize("power, terms, most, digest", [
        (5, 155, 164,
         "d4d93ff2da7818a085dd2c46006971d2983e452e4c02e6d4ef9331a6ff3e1924"),
        (6, 319, 403,
         "aa22adac087bae24585493885d299a607a1f476c4eecd595299002b5bae0a589"),
    ], ids=["x^5", "x^6"])
    def test_equal_factors_expanded_once(self, monkeypatch, power, terms,
                                         most, digest):
        # each multiset of modes of the equal factors is reached once: the
        # kernel runs once per new multiset of annihilators and once per
        # leaf, where an expansion of every ordering makes 6,388 and 63,019
        # calls here.  The digest is that of the output text of the ordered
        # expansion.  A second vector with the same variables reuses the
        # plan: it builds none and makes as many kernel calls.
        from heisenfock import vertex
        vertex._plan.cache_clear()
        calls = []
        kernel = vertex._add_weighted_partial2

        def counted(*args, **kwargs):
            calls.append(args[2])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(vertex, "_add_weighted_partial2", counted)
        lam = lam_of(Sector.UNTWISTED, 1, [1], [Fraction(1, 2)], [3])
        x1 = x(1, 1, 1)
        f = x1 * x1 * x(1, 2, 1) + x(1, 3, 1) + 2 * one(1)
        u = one(1)
        for _ in range(power):
            u = u * x1
        out = mode_apply(u, 1, f, lam)
        assert len(out.terms) == terms
        assert sha256(str(out).encode()).hexdigest() == digest
        assert 0 < len(calls) <= most
        cold, misses = len(calls), vertex._plan.cache_info().misses
        g = 3 * x1 * x1 * x(1, 2, 1) - 5 * x(1, 3, 1) + 7 * one(1)
        assert g.terms.keys() == f.terms.keys()
        out = mode_apply(u, 1, g, lam)
        assert vertex._plan.cache_info().misses == misses
        assert len(calls) == 2 * cold
        assert out == reference_modes_on(((0, u),), 2, g, lam)

    @pytest.mark.parametrize("power, high, nodes, most", [
        (2, 8, 3, 9), (6, 1, 534, 938), (8, 1, 2718, 3627),
        (8, 8, 16383, 5901)])
    def test_vector_bounds_the_plan(self, monkeypatch, power, high, nodes,
                                    most):
        # above lambda's top mode an annihilator only differentiates: it
        # acts only as a variable f holds, and such modes add up to at most
        # their weight in one term of f.  So x[1,1]^p at mode 0 on
        # x[1,8]^h + x[1,1] plans no mode from 2 to 7, and at most h of
        # mode 8.  Planned on the cap alone, the first case held 9 nodes
        # and the last 662,076; the expansion before plans made ``most``
        # kernel calls here
        from heisenfock import vertex
        lam = lam_of(Sector.UNTWISTED, 1, [1], [Fraction(1, 2)])
        f, u = one(1), one(1)
        for _ in range(high):
            f = f * x(1, 8, 1)
        for _ in range(power):
            u = u * x(1, 1, 1)
        f = f + x(1, 1, 1)
        planned, calls = [], []
        plan, kernel = vertex._plan, vertex._add_weighted_partial2

        def counted_plan(*key):
            planned.append(plan(*key))
            return planned[-1]

        def counted_kernel(*args, **kwargs):
            calls.append(args[2])
            return kernel(*args, **kwargs)

        monkeypatch.setattr(vertex, "_plan", counted_plan)
        monkeypatch.setattr(vertex, "_add_weighted_partial2", counted_kernel)
        plan.cache_clear()
        out = mode_apply(u, 0, f, lam)
        assert sum(map(len, planned)) == nodes
        assert len(calls) < most
        assert out == reference_modes_on(((0, u),), 0, f, lam)

    def test_one_vector_per_call(self, monkeypatch):
        # nodes pass term dicts down and the last annihilator writes into
        # the result, so only the result is a FockVector
        lam = lam_of(Sector.UNTWISTED, 2, [1, 2], [Fraction(1, 2), 0], [0, 3])
        u = x(1, 1, 2) * x(1, 2, 2) * x(2, 1, 2)
        f = x(1, 1, 2) * x(2, 2, 2) + 3 * x(1, 3, 2) + 2 * one(2)
        built = []
        init = FockVector.__init__

        def counted(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(FockVector, "__init__", counted)
        out = mode_apply(u, 1, f, lam)
        assert len(built) == 1
        assert len(out.terms) == 44

    @pytest.mark.parametrize("sector", list(Sector))
    def test_creators_merged_without_times_variable(self, rng, monkeypatch,
                                                    sector):
        # the leaf merges the creators' monomial into each term once; one
        # times_variable per creator would rebuild the whole vector each time
        lam = random_lambda(rng, 2, sector, max_r=2)
        f = random_fock(rng, 2, sector, max_degree=4, max_terms=3)
        u = x(1, 1, 2) * x(2, 1, 2) * x(1, 2, 2) + 3 * x(2, 3, 2)
        modes = [Fraction(k, 2) for k in range(-8, 4)]
        if sector is Sector.UNTWISTED:
            modes = [k for k in modes if k.denominator == 1]
        expected = [mode_apply(u, k, f, lam) for k in modes]
        assert sum(1 for out in expected if out.degree > f.degree) >= 3
        calls = []
        original = FockVector.times_variable

        def counted(self, i, d2):
            calls.append((i, d2))
            return original(self, i, d2)

        monkeypatch.setattr(FockVector, "times_variable", counted)
        assert [mode_apply(u, k, f, lam) for k in modes] == expected
        assert not calls

    def test_grading(self, rng):
        lam0 = LambdaSequence.zero(2)
        for _ in range(30):
            u = random_fock(rng, 2, Sector.UNTWISTED, max_degree=4, max_terms=1)
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=5, max_terms=1)
            k = rng.randint(-5, 5)
            out = mode_apply(u, k, f, lam0)
            if out:
                assert out.degree == u.degree + f.degree - k - 1

    @pytest.mark.parametrize("sector", list(Sector))
    def test_sector_mismatch_rejected(self, sector):
        # the sector comes from the data: lambda data of one sector cannot
        # act on a vector of the other, whichever of the two is twisted
        other = Sector.TWISTED if sector is Sector.UNTWISTED else Sector.UNTWISTED
        lam = LambdaSequence.zero(1, sector)
        f = one(1, other)
        with pytest.raises(SectorMismatchError):
            mode_apply(omega(1), 1, f, lam)
        with pytest.raises(SectorMismatchError):
            virasoro_mode(0, f, lam)


def sector_modes(vector):
    return {d2 % 2 for mono in vector.terms for _, d2, _ in mono}


class TestModeParity:
    def test_untwisted_rejects_half_odd_mode(self):
        lam0 = LambdaSequence.zero(1)
        u = x(1, 1, 1) * x(1, 1, 1)
        for k in (Fraction(-1, 2), Fraction(3, 2)):
            with pytest.raises(ModeRangeError):
                mode_apply(u, k, one(1), lam0)

    def test_twisted_wrong_parity_is_zero(self, rng):
        # two twisted factors have half-odd modes summing to an integer, so a
        # half-odd mode of x[1,1]^2 is zero: no monomial of even modes appears
        lam0 = LambdaSequence.zero(1, Sector.TWISTED)
        u = x(1, 1, 1) * x(1, 1, 1)
        assert not twisted_mode_apply(u, Fraction(-3, 2), one(1, Sector.TWISTED), lam0)
        for _ in range(10):
            lam = random_lambda(rng, 2, Sector.TWISTED, max_r=2)
            f = random_fock(rng, 2, Sector.TWISTED, max_degree=3, max_terms=2)
            for k2 in range(-5, 6, 2):
                assert not twisted_mode_apply(omega(2), Fraction(k2, 2), f, lam)

    def test_twisted_mixed_parity_state_keeps_matching_part(self, rng):
        u_odd = x(1, 1, 2) * x(2, 2, 2) * x(1, 1, 2)
        u_even = x(2, 1, 2) * x(1, 2, 2)
        for _ in range(10):
            lam = random_lambda(rng, 2, Sector.TWISTED, max_r=2)
            f = random_fock(rng, 2, Sector.TWISTED, max_degree=3, max_terms=2)
            for k2 in range(-3, 6):
                k = Fraction(k2, 2)
                got = twisted_mode_apply(u_odd + u_even, k, f, lam)
                part = u_odd if k2 % 2 else u_even
                assert got == twisted_mode_apply(part, k, f, lam)
                assert sector_modes(got) <= {1}


def gbinom(top, j):
    num = Fraction(1)
    for s in range(j):
        num *= top - s
    return num / factorial(j)


class TestCommutatorFormula:
    """[h_i(m), u_k] f = sum_{j>=1} binom(m, j) (h_i(j) u)_{m+k-j} f.

    The left side composes oscillator modes with one mode of u; the right
    side takes modes of the states h_i(j) u = j d/dx[i,j] u, with one
    factor fewer, so the two routes share no expansion of u itself.
    """

    @pytest.mark.parametrize("sector", [Sector.UNTWISTED, Sector.TWISTED])
    def test_states_of_three_to_five_factors(self, rng, sector):
        half = Fraction(1, 2) if sector is Sector.TWISTED else 0
        for count in (3, 4, 5, 3, 4, 5):
            rank = rng.randint(1, 2)
            lam = random_lambda(rng, rank, sector, max_r=2)
            f = random_fock(rng, rank, sector, max_degree=2, max_terms=2)
            u = FockVector.zero(rank)
            for _ in range(2):
                term = FockVector.constant(random_nonzero_scalar(rng), rank)
                for slot in range(count):
                    n = rng.choice((1, 2)) if slot < 2 else 1
                    term = term.times_variable(rng.randint(1, rank), 2 * n)
                u = u + term
            weight = u.degree2 // 2
            i = rng.randint(1, rank)
            m = rng.randint(-2, 2) + half
            k = rng.randint(-1, weight) + (half if count % 2 else 0)
            lhs = (act_mode(lam, i, m, mode_apply(u, k, f, lam))
                   - mode_apply(u, k, act_mode(lam, i, m, f), lam))
            rhs = FockVector.zero(rank, sector)
            for j in range(1, weight + 1):
                du = weighted_partial(i, j, u)
                c = gbinom(m, j)
                if du and c:
                    rhs = rhs + mode_apply(du, m + k - j, f, lam).scaled_fraction(c)
            assert lhs == rhs


class TestVirasoro:
    def test_degree_operator_on_vacuum_module(self, rng):
        lam0 = LambdaSequence.zero(2)
        assert virasoro_mode(0, x(1, 2, 2), lam0) == 2 * x(1, 2, 2)
        for _ in range(30):
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=8, max_terms=1)
            assert virasoro_mode(0, f, lam0) == f.scaled_fraction(
                Fraction(f.degree))

    def test_translation_mode(self):
        lam0 = LambdaSequence.zero(1)
        assert virasoro_mode(-1, x(1, 1, 1), lam0) == x(1, 2, 1)

    def test_matches_normal_ordered_double_sum(self, rng):
        for _ in range(15):
            lam = random_lambda(rng, 2, Sector.UNTWISTED, max_r=2)
            f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=4, max_terms=2)
            n = rng.randint(-3, 3)
            assert virasoro_mode(n, f, lam) == normal_ordered_virasoro(n, f, lam)

    def test_bracket_simple(self):
        lam0 = LambdaSequence.zero(1)
        f = x(1, 1, 1)
        lhs = (virasoro_mode(1, virasoro_mode(-1, f, lam0), lam0)
               - virasoro_mode(-1, virasoro_mode(1, f, lam0), lam0))
        assert lhs == 2 * virasoro_mode(0, f, lam0) == 2 * f
        assert virasoro_bracket_check(1, -1, f, lam0)

    def test_central_term_on_vacuum(self):
        for rank in (1, 2, 3):
            lam0 = LambdaSequence.zero(rank)
            f = one(rank)
            lhs = (virasoro_mode(2, virasoro_mode(-2, f, lam0), lam0)
                   - virasoro_mode(-2, virasoro_mode(2, f, lam0), lam0))
            # [L_2, L_-2] 1 = 4 L_0 1 + (rank/2) 1 = (rank/2) 1
            assert lhs == f.scaled_fraction(Fraction(rank, 2))
            assert virasoro_bracket_check(2, -2, f, lam0)

    def test_no_central_term_off_diagonal(self, rng):
        lam = random_lambda(rng, 1, Sector.UNTWISTED, max_r=1)
        f = random_fock(rng, 1, Sector.UNTWISTED, max_degree=3, max_terms=2)
        lhs = (virasoro_mode(3, virasoro_mode(5, f, lam), lam)
               - virasoro_mode(5, virasoro_mode(3, f, lam), lam))
        assert lhs == virasoro_mode(8, f, lam).scaled(-2)

    def test_non_integer_index_is_refused_in_both_sectors(self):
        # L_n exists for integer n only: a twisted L_{1/2} is no operator,
        # not the zero one, and the refusal names n, not n + 1 or a sector
        for sector, mode in ((Sector.TWISTED, Fraction(1, 2)),
                             (Sector.UNTWISTED, 1)):
            lam = lam_of(sector, 1, (1,))
            f = x(1, mode, 1, sector)
            for n in (Fraction(1, 2), Fraction(-3, 2)):
                with pytest.raises(ModeRangeError) as info:
                    virasoro_mode(n, f, lam)
                assert str(info.value) == f"mode {n} is not an integer"
            assert virasoro_mode(Fraction(-2), f, lam) == virasoro_mode(-2, f, lam)

    def test_twisted_omega_parts_built_once(self, rng, monkeypatch):
        from heisenfock import vertex
        vertex._omega_parts.cache_clear()
        ranks = []
        delta = vertex.delta_z_apply

        def counted(u):
            ranks.append(u.rank)
            return delta(u)

        monkeypatch.setattr(vertex, "delta_z_apply", counted)
        lam = random_lambda(rng, 2, Sector.TWISTED, max_r=2)
        f = random_fock(rng, 2, Sector.TWISTED, max_degree=4, max_terms=2)
        for n in range(-4, 5):
            twisted_virasoro_mode(n, f, lam)
        assert ranks == [2]
        assert (vertex._omega_parts(2, Sector.TWISTED)
                == tuple(delta(omega(2)).items()))

    def test_untwisted_omega_is_not_rechecked(self, rng, monkeypatch):
        # untwisted, omega is its field's only part: L_n reads it from the
        # cache, with no state check and no Delta_z, and agrees with the
        # general state mode
        from heisenfock import vertex
        lam = random_lambda(rng, 2, Sector.UNTWISTED, max_r=2)
        f = random_fock(rng, 2, Sector.UNTWISTED, max_degree=4, max_terms=2)
        expected = [mode_apply(omega(2), n + 1, f, lam) for n in range(-4, 5)]
        calls = []
        for name in ("_as_state", "delta_z_apply"):
            monkeypatch.setattr(vertex, name, lambda *args: calls.append(args))
        assert [virasoro_mode(n, f, lam) for n in range(-4, 5)] == expected
        assert not calls
        assert vertex._omega_parts(2, Sector.UNTWISTED) == ((0, omega(2)),)

    def test_omega_builds_one_vector(self, monkeypatch):
        # one pass over the ranks: summing x[i,1]^2/2 vector by vector once
        # copied every term per boson, quadratic in the rank
        built = []
        init = FockVector.__init__

        def counted(self, rank, sector, terms):
            built.append(rank)
            init(self, rank, sector, terms)

        monkeypatch.setattr(FockVector, "__init__", counted)
        state = omega.__wrapped__(5)
        monkeypatch.undo()
        assert built == [5]
        summed = FockVector.zero(5)
        for i in range(1, 6):
            summed = summed + (x(i, 1, 5) * x(i, 1, 5)).scaled_fraction(
                Fraction(1, 2))
        assert state == summed
        assert list(state.terms) == list(summed.terms)

    @pytest.mark.parametrize("sector", list(Sector))
    def test_two_threads_share_the_plan_cache(self, rng, sector):
        # two threads against a cleared cache build and read the same
        # plans; each gets what a serial run gets
        import sys
        import threading
        from heisenfock import vertex
        lams = [random_lambda(rng, 2, sector, max_r=2) for _ in range(2)]
        vecs = [random_fock(rng, 2, sector, max_degree=4, max_terms=3)
                for _ in range(2)]
        modes = range(-4, 5)

        def run(t):
            return [virasoro_mode(n, vecs[t], lams[t]) for n in modes]

        vertex._plan.cache_clear()
        serial = [run(0), run(1)]
        vertex._plan.cache_clear()
        got = [None, None]
        start = threading.Barrier(2)

        def work(t):
            start.wait()
            got[t] = run(t)

        threads = [threading.Thread(target=work, args=(t,)) for t in (0, 1)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch often inside the plan builder
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert got == serial

    def test_bracket_randomized(self, rng):
        # 200 random (f, m, n) samples split over both sectors
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(100):
                lam = random_lambda(rng, 2, sector, max_r=2)
                f = random_fock(rng, 2, sector, max_degree=5, max_terms=2)
                m, n = rng.randint(-4, 4), rng.randint(-4, 4)
                assert virasoro_bracket_check(m, n, f, lam)


class TestOmegaSpectrum:
    def test_untwisted_eigenvalues(self, rng):
        # omega_j on the cyclic vector: (1/2) sum over m+n=j-1 of pairings
        for _ in range(15):
            lam = random_lambda(rng, 2, Sector.UNTWISTED, max_r=3)
            r = lam.support_bound
            v = one(2)
            for j in range(r + 1, 2 * r + 2):
                acc = sc(0)
                for m in range(0, r + 1):
                    n = j - 1 - m
                    if 0 <= n <= r:
                        acc = acc + sum(lam.pair2(2 * m, i) * lam.pair2(2 * n, i)
                                         for i in (1, 2))
                expected = v.scaled(acc / 2)
                assert mode_apply(omega(2), j, v, lam) == expected

    def test_top_eigenvalue(self, rng):
        from heisenfock import bilinear
        for _ in range(15):
            lam = random_lambda(rng, 3, Sector.UNTWISTED, max_r=3)
            r = lam.support_bound
            top = lam.entries[-1]
            got = mode_apply(omega(3), 2 * r + 1, one(3), lam)
            assert got == one(3).scaled(bilinear(top, top) / 2)

    def test_truncation(self, rng):
        for _ in range(10):
            lam = random_lambda(rng, 2, Sector.UNTWISTED, max_r=3)
            r = lam.support_bound
            for j in range(2 * r + 2, 2 * r + 6):
                assert not mode_apply(omega(2), j, one(2), lam)


# -- the engine against the act_mode2-based reference -------------------------

def reference_modes_on(parts, k2, f, lam):
    """The engine as it stood before nodes passed term dicts: every
    annihilator builds a vector through act_mode2, and the leaf merges the
    creators into each of its terms and multiplies by the weight."""
    from heisenfock.fock import _insert_variable, _merge_monomials
    from heisenfock.heisenberg import act_mode2
    from heisenfock.vertex import _field_weight
    acc = {}
    if not f.terms:
        return FockVector(f.rank, f.sector, acc)
    parity = f.sector.parity
    cap2 = max(f.max_mode2(), lam.top_doubled, 0)
    if cap2 % 2 != parity:
        cap2 -= 1

    def leaf(weight, g, creators):
        # summed by Scalar arithmetic, apart from the kernel
        for mono, c in g.terms.items():
            mono = _merge_monomials(mono, creators)
            s = acc.get(mono, ZERO) + c * weight
            if s:
                acc[mono] = s
            else:
                acc.pop(mono, None)

    def expand(runs, t, prev2, block, rest, left2, weight, g, creators):
        a, n, e = runs[0]
        lo2 = left2 - (rest - 1) * cap2
        if t and lo2 < prev2:
            lo2 = prev2
        hi2 = cap2 if len(runs) > 1 else min(cap2, left2 // (e - t))
        for d2 in range(lo2, hi2 + 1, 2):
            w = weight
            if n > 1:
                fw = _field_weight(d2, n)
                if not fw:
                    continue
                w = w.scale(fw)
            if d2 == prev2:
                k = block + 1
            else:
                k = 1
                if block < t:
                    w = w.scale(comb(t, block))
            if d2 < 0:
                h, cr = g, _insert_variable(creators, a, -d2)
            else:
                h, cr = act_mode2(lam, a, d2, g), creators
                if not h:
                    continue
            if t + 1 < e:
                expand(runs, t + 1, d2, k, rest - 1, left2 - d2, w, h, cr)
                continue
            if k < e:
                w = w.scale(comb(e, k))
            if len(runs) == 1:
                leaf(w, h, cr)
            else:
                expand(runs[1:], 0, None, 0, rest - 1, left2 - d2, w, h, cr)

    for j, state in parts:
        for mono, coeff in state.terms.items():
            runs = tuple((a, d2 // 2, e) for a, d2, e in mono)
            count = sum(e for _, _, e in runs)
            target2 = k2 - 2 * j + 2 - 2 * sum(n * e for _, n, e in runs)
            if (target2 - count * parity) % 2:
                continue
            if runs:
                expand(runs, 0, None, 0, count, target2, coeff, f, ())
            elif target2 == 0:
                leaf(coeff, f, ())
    return FockVector(f.rank, f.sector, acc)


def sweep_lambda(rng, rank, sector, kind):
    """Zero lambda, lambda with zero entries, or (untwisted) a lambda whose
    mode-0 entry is nonzero, so that d2 = 0 annihilators act."""
    if kind == "zero":
        return LambdaSequence.zero(rank, sector)
    rows = [[random_nonzero_scalar(rng) if rng.random() < 0.5 else 0
             for _ in range(rank)] for _ in range(rng.randint(1, 3))]
    rows[-1][rng.randrange(rank)] = random_nonzero_scalar(rng)
    if kind == "lambda_0":
        rows[0][rng.randrange(rank)] = random_nonzero_scalar(rng)
    else:
        rows[0] = [0] * rank
    return LambdaSequence.make(sector, rank, rows)


def sweep_state(rng, rank):
    """One or two monomials, each a run x[a,n]^e with e up to 4 and at times
    a second run of one or two factors, and at times a constant term."""
    u = FockVector.constant(random_nonzero_scalar(rng), rank) \
        if rng.random() < 0.3 else FockVector.zero(rank)
    for _ in range(rng.randint(1, 2)):
        term = FockVector.constant(random_nonzero_scalar(rng), rank)
        runs = [(rng.randint(1, 2), rng.randint(1, 4))]
        if rng.random() < 0.5:
            runs.append((rng.randint(1, 2), rng.randint(1, 2)))
        for n, e in runs:
            a = rng.randint(1, rank)
            for _ in range(e):
                term = term.times_variable(a, 2 * n)
        u = u + term
    return u


def sweep_vector(rng, rank, sector, kind):
    if kind == "zero":
        return FockVector.zero(rank, sector)
    if kind == "constant":
        return FockVector.constant(random_nonzero_scalar(rng), rank, sector)
    return random_fock(rng, rank, sector, max_degree=3, max_terms=3)


class TestEngineAgainstReference:
    @pytest.mark.parametrize("sector", list(Sector))
    def test_seeded_sweep(self, sector):
        from random import Random
        from heisenfock.vertex import _modes_on, delta_z_apply
        rng = Random(20261019 + sector.parity)
        lam_kinds = ["zero", "zero_entries"]
        if sector is Sector.UNTWISTED:
            lam_kinds.append("lambda_0")
        seen = {"nonzero": 0, "parts": 0, "zero_f": 0, "constant_f": 0}
        for trial in range(40):
            rank = rng.randint(1, 2)
            lam = sweep_lambda(rng, rank, sector, lam_kinds[trial % len(lam_kinds)])
            f_kind = ("zero", "constant", "random", "random")[trial // 2 % 4]
            f = sweep_vector(rng, rank, sector, f_kind)
            u = sweep_state(rng, rank)
            if sector is Sector.UNTWISTED:
                parts = ((0, u),)
            else:
                parts = tuple(delta_z_apply(u).items())
            for k2 in range(-4 + sector.parity, 5, 2 - sector.parity):
                got = _modes_on(parts, k2, f, lam)
                assert got == reference_modes_on(parts, k2, f, lam)
                if got:
                    seen["nonzero"] += 1
                    seen["parts"] += len(parts) > 1
                    seen["constant_f"] += f_kind == "constant"
            seen["zero_f"] += f_kind == "zero"
        assert seen["nonzero"] > 100 and seen["zero_f"] and seen["constant_f"]
        if sector is Sector.TWISTED:
            assert seen["parts"] > 10
