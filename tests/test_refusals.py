"""Refusals of the library's checks, each with its error and message.

Each row builds the smallest input that one check refuses; the rest of the
suite reaches these checks through no other input.
"""

from fractions import Fraction

import pytest

from heisenfock import (BosonIndexError, FockVector, IsotropicTopError,
                        LambdaSequence, ModeRangeError, PreconditionError,
                        QuadraticElement, ReductionCertificate, Scalar,
                        Sector, SectorMismatchError, WhittakerType, act_mode,
                        binom_mode_identity_check, binom_transfer_matrix,
                        certify_cyclic, commutator_check, extract_fiber_data,
                        fiber_dimension, mode_apply, omega, quadratic_act,
                        reduce_step, scalar_sqrt, solve_fiber,
                        verify_certificate, virasoro_mode)
from heisenfock.scalars import ONE, ZERO

from conftest import lam_of, one, sc, x

U, T = Sector.UNTWISTED, Sector.TWISTED


@pytest.mark.parametrize("call, error, message", [
    (lambda: x(1, Fraction(1, 3), 1),
     ModeRangeError, "mode 1/3 is not in (1/2)Z"),
    (lambda: FockVector(0, U, {}), BosonIndexError, "rank must be >= 1, got 0"),
    (lambda: LambdaSequence.make(U, 2, [[1]]),
     BosonIndexError, "lambda entry of length 1 does not match rank 2"),
    (lambda: quadratic_act(LambdaSequence.zero(1), QuadraticElement(
        1, 1, 1, 1, T, ZERO), one(1)),
     SectorMismatchError, "quadratic element sector does not match vector"),
    (lambda: reduce_step(LambdaSequence.zero(1), FockVector.zero(1)),
     PreconditionError, "cannot reduce the zero vector"),
    (lambda: mode_apply("x", 0, one(1), LambdaSequence.zero(1)),
     TypeError, "cannot interpret 'x' as a free-boson state"),
    (lambda: mode_apply(one(1, T), 0, one(1), LambdaSequence.zero(1)),
     SectorMismatchError, "free-boson states live in the untwisted sector"),
    (lambda: mode_apply(omega(2), 0, one(1), LambdaSequence.zero(1)),
     BosonIndexError, "state rank 2 does not match 1"),
    (lambda: binom_mode_identity_check(1, 1, 0, 0, 0, one(1, T),
                                       LambdaSequence.zero(1, T), 1),
     SectorMismatchError, "the transfer identity is an untwisted check"),
    (lambda: binom_mode_identity_check(1, 1, -1, 0, 0, one(1),
                                       LambdaSequence.zero(1), 1),
     PreconditionError, "derivative orders p, q must be >= 0"),
    (lambda: binom_transfer_matrix(1, 0),
     PreconditionError, "size must be >= 1"),
    (lambda: solve_fiber(WhittakerType(U, 0, (ONE,)), 1).to_lambda(),
     PreconditionError, "numeric fiber point has no exact lambda"),
    (lambda: fiber_dimension(0, 0, U), PreconditionError, "rank must be >= 1"),
    (lambda: solve_fiber(WhittakerType(U, 0, (ONE,)), 0),
     PreconditionError, "rank must be >= 1"),
    (lambda: extract_fiber_data(LambdaSequence.zero(1)),
     PreconditionError, "zero sequence"),
    (lambda: extract_fiber_data(lam_of(U, 2, (1, sc(0, 1)))),
     IsotropicTopError, "top entry is isotropic"),
])
def test_refusal(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


# every operation on lambda data and a vector, as a call on (lam, f) with f
# untwisted: its modes are read in f's sector
PAIRED = {
    "create": lambda lam, f: act_mode(lam, 1, -1, f),
    "annihilate": lambda lam, f: act_mode(lam, 1, 1, f),
    "commutator_check": lambda lam, f: commutator_check(1, 1, 1, -1, f, lam),
    "quadratic_act": lambda lam, f: quadratic_act(
        lam, QuadraticElement(1, 1, 2, 2, U, ZERO), f),
    "reduce_step": reduce_step,
    "certify_cyclic": certify_cyclic,
    "mode_apply": lambda lam, f: mode_apply(omega(1), 1, f, lam),
    "virasoro_mode": lambda lam, f: virasoro_mode(0, f, lam),
}

# every operation on two vectors
RING = {"+": lambda f, g: f + g, "-": lambda f, g: f - g,
        "*": lambda f, g: f * g}


@pytest.mark.parametrize("name", sorted(PAIRED))
@pytest.mark.parametrize("lam, error, message", [
    (LambdaSequence.zero(2), BosonIndexError,
     "cannot combine rank-2 LambdaSequence and rank-1 FockVector"),
    (LambdaSequence.zero(1, T), SectorMismatchError,
     "cannot combine twisted LambdaSequence and untwisted FockVector"),
])
def test_lambda_and_vector_must_agree(name, lam, error, message):
    # creation and the commutator check included: each refuses before it
    # reads a mode, so a twisted lambda never meets an untwisted mode
    with pytest.raises(error) as info:
        PAIRED[name](lam, x(1, 1, 1))
    assert str(info.value) == message


@pytest.mark.parametrize("name", sorted(RING))
@pytest.mark.parametrize("g, error, message", [
    (one(2), BosonIndexError,
     "cannot combine rank-1 FockVector and rank-2 FockVector"),
    (one(1, T), SectorMismatchError,
     "cannot combine untwisted FockVector and twisted FockVector"),
])
def test_two_vectors_must_agree(name, g, error, message):
    with pytest.raises(error) as info:
        RING[name](x(1, 1, 1), g)
    assert str(info.value) == message


@pytest.mark.parametrize("lam", [LambdaSequence.zero(2),
                                 LambdaSequence.zero(1, T)])
def test_replay_on_a_disagreeing_vector_fails(lam):
    a = x(1, 1, 1)
    assert not verify_certificate(lam, a, ReductionCertificate(a, (), ONE))


def test_entry_beyond_the_support_is_zero():
    lam = lam_of(U, 2, (1, 2))
    assert (lam.pair2(0, 1), lam.pair2(0, 2)) == (ONE, Scalar(2))
    for i in (1, 2):
        assert lam.pair2(2, i) == lam.pair2(40, i) == ZERO


@pytest.mark.parametrize("sector", list(Sector))
def test_replay_refuses_a_foreign_step(sector):
    # a hand-built step whose element names a boson beyond lambda's rank,
    # or lies in the other sector, fails the replay without acting
    p = sector.parity
    lam = lam_of(sector, 1, *[(0,)] * (1 - p), (1,))
    a = x(1, Fraction(2 - p, 2), 1, sector)
    cert = certify_cyclic(lam, a)
    assert verify_certificate(lam, a, cert)
    step = cert.steps[0]
    q = step.element
    other = T if sector is U else U
    for element in (QuadraticElement(2, q.j, q.m2, q.n2, q.sector, q.shift),
                    QuadraticElement(q.i, q.j, 1 + p, 1 + p, other, q.shift)):
        forged = type(step)(element, step.case, step.degree_before,
                            step.degree_after)
        assert not verify_certificate(
            lam, a, type(cert)(a, (forged,), cert.terminal))


def test_no_root_when_the_half_sum_is_not_a_square():
    # 4+3i: n = |4+3i| = 5, and (4 + 5)/2 = 9/2 has no rational root
    assert scalar_sqrt(Scalar(4, 3)) is None
    assert scalar_sqrt(Scalar(3, 4)) == Scalar(2, 1)
