from fractions import Fraction

import pytest

from heisenfock import (FockVector, HighestWeightError, LambdaSequence,
                        QuadraticElement, Scalar, Sector, certify_cyclic,
                        quadratic_act, reduce_step, verify_certificate,
                        weighted_partial)
from heisenfock import certify
from heisenfock.certify import ReductionCertificate, ReductionStep
from heisenfock.errors import PreconditionError, ReductionError
from heisenfock.sampling import random_fock, random_lambda

from conftest import lam_of, one, sc, x

HALF = Fraction(1, 2)


class TestReduceStep:
    def test_diagonal_case(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        step, b = reduce_step(lam, x(1, 1, 1))
        assert step.case == "3a"
        assert (step.element.i, step.element.j) == (1, 1)
        assert (step.element.m2, step.element.n2) == (2, 2)
        assert b == 2 * one(1)

    def test_off_diagonal_case(self):
        lam = lam_of(Sector.UNTWISTED, 2, [0, 0], [0, 1])
        step, b = reduce_step(lam, x(1, 1, 2))
        assert step.case == "3b"
        assert (step.element.i, step.element.j) == (1, 2)
        assert b == one(2)

    def test_low_mode_case(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1], [0])
        step, b = reduce_step(lam, x(1, 2, 1))
        assert step.case == "2"
        assert (step.element.m2, step.element.n2) == (4, 2)
        assert b == 2 * one(1)

    def test_high_mode_case(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [0], [1])
        step, b = reduce_step(lam, x(1, 1, 1))
        assert step.case == "1"
        assert (step.element.m2, step.element.n2) == (2, 4)
        assert b

    def test_degree_strictly_decreases(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(30):
                lam = random_lambda(rng, 2, sector)
                a = random_fock(rng, 2, sector, max_degree=8)
                if a.degree <= 0:
                    continue
                step, b = reduce_step(lam, a)
                assert b
                assert step.degree_after < step.degree_before == a.degree
                assert b.degree == step.degree_after

    def test_highest_weight_rejected(self):
        lam = lam_of(Sector.UNTWISTED, 1, [5])
        with pytest.raises(HighestWeightError):
            reduce_step(lam, x(1, 1, 1))

    def test_constant_rejected(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        with pytest.raises(PreconditionError):
            reduce_step(lam, one(1))

    def test_element_that_does_not_reduce_is_refused(self, monkeypatch):
        # the post-condition guard: no rule change may record a step to zero
        monkeypatch.setattr(certify, "quadratic_act",
                            lambda lam, q, f: FockVector.zero(f.rank, f.sector))
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        with pytest.raises(ReductionError):
            reduce_step(lam, x(1, 1, 1))

    def test_one_element_per_step(self, rng, monkeypatch):
        # the choice rule needs no second try: one closed-form application
        # per recorded step, in both sectors
        calls = []
        act = certify.quadratic_act

        def counted(lam, q, f):
            calls.append(q)
            return act(lam, q, f)

        monkeypatch.setattr(certify, "quadratic_act", counted)
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            steps = 0
            for _ in range(40):
                lam = random_lambda(rng, 3, sector)
                a = random_fock(rng, 3, sector, max_degree=8, max_terms=5)
                calls.clear()
                cert = certify_cyclic(lam, a)
                assert [s.element for s in cert.steps] == calls
                assert not any(s.retries for s in cert.steps)
                steps += len(cert.steps)
            assert steps > 40


class TestCertify:
    def test_constant_input(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        cert = certify_cyclic(lam, FockVector.constant(5, 1))
        assert cert.steps == ()
        assert cert.terminal == sc(5)
        assert verify_certificate(lam, FockVector.constant(5, 1), cert)

    def test_single_step(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        cert = certify_cyclic(lam, x(1, 1, 1))
        assert len(cert.steps) == 1
        assert cert.terminal == sc(2)

    def test_zero_rejected(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        with pytest.raises(PreconditionError):
            certify_cyclic(lam, FockVector.zero(1))

    def test_randomized_replay(self, rng):
        for sector in (Sector.UNTWISTED, Sector.TWISTED):
            for _ in range(40):
                lam = random_lambda(rng, 2, sector)
                a = random_fock(rng, 2, sector, max_degree=10, max_terms=5)
                cert = certify_cyclic(lam, a)
                assert cert.terminal
                assert verify_certificate(lam, a, cert)
                degrees = [s.degree_before for s in cert.steps]
                assert degrees == sorted(degrees, reverse=True)

    def test_termination_bound(self, rng):
        for sector, min_mode in ((Sector.UNTWISTED, 1), (Sector.TWISTED, HALF)):
            for _ in range(20):
                lam = random_lambda(rng, 2, sector)
                a = random_fock(rng, 2, sector, max_degree=10)
                if a.degree <= 0:
                    continue
                cert = certify_cyclic(lam, a)
                assert len(cert.steps) <= 2 * a.degree / min_mode

    def test_case2_term_vanishes(self, rng):
        # whenever the low-mode case fires, the dropped derivative term is 0
        seen = 0
        for _ in range(200):
            lam = random_lambda(rng, 2, Sector.UNTWISTED, max_r=1)
            a = random_fock(rng, 2, Sector.UNTWISTED, max_degree=8)
            if a.degree <= 0:
                continue
            cert = certify_cyclic(lam, a)
            current = a
            for step in cert.steps:
                if step.case == "2":
                    q = step.element
                    assert not weighted_partial(q.j, Fraction(q.n2, 2), current)
                    seen += 1
                current = quadratic_act(lam, step.element, current)
        assert seen > 0

    def test_isotropic_entries_supported(self):
        # a nonzero top entry pairing to zero with itself still reduces
        lam = lam_of(Sector.UNTWISTED, 2, [0, 0], [sc(1), sc(0, 1)])
        a = x(1, 1, 2) * x(2, 1, 2) + x(1, 2, 2)
        cert = certify_cyclic(lam, a)
        assert cert.terminal
        assert verify_certificate(lam, a, cert)


class TestVerification:
    def _cert(self):
        lam = lam_of(Sector.UNTWISTED, 1, [0], [1])
        a = x(1, 1, 1) * x(1, 1, 1) + x(1, 2, 1)
        return lam, a, certify_cyclic(lam, a)

    def test_round_trip(self):
        lam, a, cert = self._cert()
        assert verify_certificate(lam, a, cert)

    def test_each_vector_degree_is_read_once(self, monkeypatch):
        # a retry-free certificate of s steps scans the monomials of 1 + s
        # vectors for their degree to build (the input and each step's
        # output: reduce_step reads again what certify_cyclic or the step
        # before it measured) and of 1 + s to replay a fresh copy of the input
        lam, a, _ = self._cert()
        scans = []
        degree2 = FockVector.degree2

        class Terms(dict):
            def __iter__(self):
                scans.append(len(self))
                return super().__iter__()

        def counted(f):
            terms, f.terms = f.terms, Terms(f.terms)
            try:
                return degree2.fget(f)
            finally:
                f.terms = terms

        monkeypatch.setattr(FockVector, "degree2", property(counted))
        cert = certify_cyclic(lam, a)
        s = len(cert.steps)
        assert s >= 2 and not any(step.retries for step in cert.steps)
        assert len(scans) <= 1 + s
        scans.clear()
        fresh = FockVector(a.rank, a.sector, dict(a.terms))
        assert verify_certificate(lam, fresh, cert)
        assert len(scans) <= 1 + s

    def test_each_step_scans_its_vector_once_for_modes(self, monkeypatch):
        # the smallest mode and the smallest index carrying it come from one
        # scan
        lam = lam_of(Sector.UNTWISTED, 2, [0, 0], [1, 0], [0, 1])
        a = (x(1, 2, 2) * x(2, 1, 2) * x(1, 1, 2) + 3 * x(2, 1, 2) * x(2, 3, 2)
             + x(1, 2, 2))
        scans = []
        candidates = certify._mode_candidates

        class Terms(dict):
            def __iter__(self):
                scans[-1] += 1
                return super().__iter__()

            def items(self):
                scans[-1] += 1
                return super().items()

        def counted(f):
            scans.append(0)
            terms, f.terms = f.terms, Terms(f.terms)
            try:
                got = candidates(f)
            finally:
                f.terms = terms
            m2 = min(d2 for mono in f.terms for _, d2, _ in mono)
            assert got == (m2, min(i for mono in f.terms
                                   for i, d2, _ in mono if d2 == m2))
            return got

        monkeypatch.setattr(certify, "_mode_candidates", counted)
        cert = certify_cyclic(lam, a)
        assert len(cert.steps) >= 2
        assert scans == [1] * len(cert.steps)

    def test_tampered_shift_fails(self):
        lam, a, cert = self._cert()
        step = cert.steps[0]
        bad_q = QuadraticElement(step.element.i, step.element.j,
                                 step.element.m2, step.element.n2,
                                 step.element.sector, step.element.shift + 1)
        bad = ReductionCertificate(
            cert.initial,
            (ReductionStep(bad_q, step.case, step.degree_before,
                           step.degree_after, step.retries),) + cert.steps[1:],
            cert.terminal)
        assert not verify_certificate(lam, a, bad)

    def test_tampered_terminal_fails(self):
        lam, a, cert = self._cert()
        bad = ReductionCertificate(cert.initial, cert.steps, cert.terminal + 1)
        assert not verify_certificate(lam, a, bad)

    def test_wrong_vector_fails(self):
        lam, a, cert = self._cert()
        other = x(1, 1, 1) * x(1, 1, 1) * 3 + x(1, 2, 1)
        assert not verify_certificate(lam, other, cert)

    def test_rank_mismatch_fails(self):
        lam, a, cert = self._cert()
        assert not verify_certificate(lam, x(1, 1, 2) * x(1, 1, 2), cert)

    @pytest.mark.parametrize("key", ["i", "j"])
    def test_step_index_outside_rank_fails(self, key):
        lam, a, cert = self._cert()
        step = cert.steps[0]
        q = step.element
        bad_q = QuadraticElement(3 if key == "i" else q.i,
                                 3 if key == "j" else q.j,
                                 q.m2, q.n2, q.sector, q.shift)
        bad = ReductionCertificate(
            cert.initial,
            (ReductionStep(bad_q, step.case, step.degree_before,
                           step.degree_after, step.retries),) + cert.steps[1:],
            cert.terminal)
        assert verify_certificate(lam, a, bad) is False

    def test_degree_ledger_checked(self):
        lam, a, cert = self._cert()
        step = cert.steps[0]
        bad = ReductionCertificate(
            cert.initial,
            (ReductionStep(step.element, step.case, step.degree_before,
                           step.degree_after + 1, step.retries),)
            + cert.steps[1:],
            cert.terminal)
        assert not verify_certificate(lam, a, bad)
