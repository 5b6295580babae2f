"""Vertex-operator modes on the polynomial Fock spaces.

A state of the free-boson algebra is an untwisted ``FockVector``: a
polynomial in the vacuum variables, x[a,n] standing for the creation factor
h_a(-n).  Its field is the normal-ordered product of derivative fields; the
``k``-th mode of that field applied to a concrete Fock vector is a *finite*
sum of ordinary oscillator monomials, because annihilation modes beyond the
vector's weight (and beyond the lambda support) act by zero and creation
modes are then capped by the output weight.  One kernel expands each state
monomial for both sectors, fixing its factors' modes depth-first: each mode
lies between what the remaining factors can still make up and the
annihilation cap, the last factor takes the remainder, a derivative factor's
binomial weight is multiplied in as its mode is fixed (zero skips the mode),
an annihilator acts at once (a zero result prunes the subtree) and the
creators, carried down as one sorted monomial, are merged into each term at
the leaf, after every annihilator (normal ordering).
Equal factors commute, so each run x[a,n]^e of them is expanded once per
multiset of modes: its modes are taken non-decreasing, and as each block of
k equal modes closes the weight gains that block's share of the run's
e!/prod k! orderings (nothing when the run holds one block).  In the last
run the factors still to fix take no less than this one, so its mode is
also capped at their equal share of what is left.  The weight
carried down is the state coefficient itself, and each leaf adds its terms
times that weight straight into the result.

Parity rule: r half-odd twisted modes sum to an integer of the parity of
r, so on twisted vectors a monomial whose factor count cannot reach the
parity of ``k`` contributes zero; untwisted modes are integers, and
``mode_apply`` refuses a half-odd ``k``.

On twisted vectors the field first acquires the lowering correction

    exp( sum_i sum_{m,n} c[m,n] h_i(m) h_i(n) z^(-m-n) )

whose rational coefficients are the Taylor coefficients of
-log(((1+z)^(1/2) + (1+w)^(1/2))/2).  The Euler operator z d/dz + w d/dw
multiplies the (m,n) coefficient by m+n and turns that logarithm into a
product of two binomial series, so ``cmn_table`` reads them off the closed
form c[m,n] = b_m b_n / (2(m+n)), b_k = binom(-1/2, k).  ``delta_z_apply``
applies the (terminating) exponential, and ``twisted_mode_apply`` hands its
parts, the coefficients of z^(-j), to the same kernel, which reads mode
k - j of each.

All Virasoro operators are modes of the quadratic state
omega = (1/2) sum_i x[i,1]^2, so both sectors run through the same engine.

Everything here is a pure function of immutable values; the only shared
state is memoized: the coefficient table, the omega state, the parts of
exp(Delta_z) omega that every twisted Virasoro mode reads (a tuple per
rank) and the field weights, all immutable once built, so concurrent use
is safe.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Dict, List, Tuple, Union

from ._record import Record, _set
from .errors import PreconditionError, SectorMismatchError
from .fock import (FockVector, ModeLike, Monomial, Sector, _accumulate,
                   _doubled_value, _insert_variable, _merge_monomials,
                   doubled_mode, weighted_partial)
from .heisenberg import LambdaSequence, act_mode2
from .scalars import Scalar

__all__ = [
    "CmnTable", "omega", "mode_apply", "twisted_mode_apply", "virasoro_mode",
    "twisted_virasoro_mode", "virasoro_bracket_check", "cmn_table",
    "delta_z_apply", "binom_mode_identity_check", "binom_transfer_matrix",
]


def _gbinom(top: Union[int, Fraction], k: int) -> Fraction:
    """Generalized binomial coefficient (top choose k) for k >= 0."""
    if k < 0:
        raise ValueError("lower index must be nonnegative")
    # top = p/q: the product of (p - s*q) over q^k k!, in integers
    p, q = top.numerator, top.denominator
    num = 1
    for s in range(k):
        num *= p - s * q
    return Fraction(num, q ** k * factorial(k))


@lru_cache(maxsize=None)
def _field_weight(d2: int, n: int) -> Fraction:
    """binom(-d-1, n-1), the weight of mode d = d2/2 in the field of x[a,n]."""
    return _gbinom(Fraction(-d2 - 2, 2), n - 1)


def _as_state(u: FockVector, rank: int) -> FockVector:
    if not isinstance(u, FockVector):
        raise TypeError(f"cannot interpret {u!r} as a free-boson state")
    if u.sector is not Sector.UNTWISTED:
        raise SectorMismatchError("free-boson states live in the untwisted sector")
    if u.rank != rank:
        raise PreconditionError(f"state rank {u.rank} does not match {rank}")
    return u


@lru_cache(maxsize=None)
def omega(rank: int) -> FockVector:
    """The conformal state (1/2) sum_i x[i,1]^2."""
    acc = FockVector.zero(rank)
    for i in range(1, rank + 1):
        xi = FockVector.variable(i, 1, rank)
        acc = acc + (xi * xi).scaled_fraction(Fraction(1, 2))
    return acc


# -- the normal-ordered derivative-field engine --------------------------------

def _modes_on(parts, k2: int, f: FockVector, lam: LambdaSequence) -> FockVector:
    """Sum over the (j, state) parts of mode k - j of the state on f, where
    ``k2`` = 2k; the depth-first expansion of the module docstring."""
    acc: Dict[Monomial, Scalar] = {}
    if not f.terms:
        return FockVector(f.rank, f.sector, acc)
    parity = f.sector.parity
    # no mode above cap2 acts on f; a twisted cap of 0 becomes -1 (no mode 0)
    cap2 = max(f.max_mode2(), lam.top_doubled, 0)
    if cap2 % 2 != parity:
        cap2 -= 1

    def leaf(weight, g, creators):
        for mono, c in g.terms.items():
            _accumulate(acc, _merge_monomials(mono, creators), c * weight)

    def expand(runs, t, prev2, block, rest, left2, weight, g, creators):
        # fix factor t of the run runs[0] = (a, n, e), whose last ``block``
        # factors sit at prev2; ``rest`` factors are left, this one included
        a, n, e = runs[0]
        # the factors after this one take at most cap2 each, and this run's
        # take at least prev2
        lo2 = left2 - (rest - 1) * cap2
        if t and lo2 < prev2:
            lo2 = prev2
        # in the last run the e - t factors left share left2, none below
        # this one (the range keeps the parity of lo2)
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
                if block < t:  # the block at prev2 closes after t factors
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
            if k < e:  # the last block closes with the run
                w = w.scale(comb(e, k))
            if len(runs) == 1:
                leaf(w, h, cr)  # here d2 = left2: the modes add up
            else:
                expand(runs[1:], 0, None, 0, rest - 1, left2 - d2, w, h, cr)

    for j, state in parts:
        for mono, coeff in state.terms.items():
            runs = tuple((a, d2 // 2, e) for a, d2, e in mono)
            count = sum(e for _, _, e in runs)
            # total doubled oscillator mode forced by the z-power bookkeeping
            target2 = k2 - 2 * j + 2 - 2 * sum(n * e for _, n, e in runs)
            # r modes of parity p sum to the parity of r*p; else the mode is 0
            if (target2 - count * parity) % 2:
                continue
            if runs:
                expand(runs, 0, None, 0, count, target2, coeff, f, ())
            elif target2 == 0:  # the vacuum state acts as the identity
                leaf(coeff, f, ())
    return FockVector(f.rank, f.sector, acc)


def mode_apply(u: FockVector, k: ModeLike, f: FockVector,
               lam: LambdaSequence) -> FockVector:
    """The k-th mode of the state u acting on the untwisted vector f."""
    if lam.sector is not Sector.UNTWISTED:
        raise SectorMismatchError("twisted data passed; use twisted_mode_apply")
    lam._check_vector(f)
    k2 = doubled_mode(k, Sector.UNTWISTED)
    return _modes_on(((0, _as_state(u, f.rank)),), k2, f, lam)


def twisted_mode_apply(u: FockVector, k: ModeLike, f: FockVector,
                       lam: LambdaSequence) -> FockVector:
    """The k-th twisted mode of u on f, including the exp(Delta_z) correction."""
    _check_twisted(f, lam)
    parts = delta_z_apply(_as_state(u, f.rank)).items()
    return _modes_on(parts, _doubled_value(k), f, lam)


def _check_twisted(f: FockVector, lam: LambdaSequence) -> None:
    if lam.sector is not Sector.TWISTED:
        raise SectorMismatchError("untwisted data passed; use mode_apply")
    lam._check_vector(f)


# -- Virasoro operators -----------------------------------------------------------

def virasoro_mode(n: int, f: FockVector, lam: LambdaSequence) -> FockVector:
    """L_n on an untwisted vector: the (n+1)-st mode of omega."""
    return mode_apply(omega(f.rank), n + 1, f, lam)


@lru_cache(maxsize=None)
def _twisted_omega_parts(rank: int) -> Tuple[Tuple[int, FockVector], ...]:
    """The parts of exp(Delta_z) omega, built once per rank."""
    return tuple(delta_z_apply(omega(rank)).items())


def twisted_virasoro_mode(n: int, f: FockVector, lam: LambdaSequence) -> FockVector:
    """L_n on a twisted vector; the rank/16 shift enters through Delta_z."""
    _check_twisted(f, lam)
    return _modes_on(_twisted_omega_parts(f.rank), _doubled_value(n + 1), f, lam)


def virasoro_bracket_check(m: int, n: int, f: FockVector,
                           lam: LambdaSequence) -> bool:
    """Exact check of [L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta(m+n) * rank.

    The central charge equals the rank in both sectors.
    """
    ell = (virasoro_mode if lam.sector is Sector.UNTWISTED
           else twisted_virasoro_mode)
    lhs = ell(m, ell(n, f, lam), lam) - ell(n, ell(m, f, lam), lam)
    rhs = ell(m + n, f, lam).scaled(m - n)
    if m + n == 0:
        rhs = rhs + f.scaled_fraction(Fraction(m ** 3 - m, 12) * f.rank)
    return lhs == rhs


# -- the twisted correction -------------------------------------------------------

class CmnTable(Record):
    """Exact rational coefficients c[m,n] of the twisted lowering operator."""

    __slots__ = ("order", "values")

    def __init__(self, order: int, values: Tuple[Tuple[Fraction, ...], ...]):
        _set(self, "order", order)
        _set(self, "values", values)

    def c(self, m: int, n: int) -> Fraction:
        return self.values[m][n]


@lru_cache(maxsize=None)
def cmn_table(order: int) -> CmnTable:
    """Table of c[m,n] for 0 <= m,n <= order.

    The Euler operator z d/dz + w d/dw sends the generating function
    -log(((1+z)^(1/2) + (1+w)^(1/2))/2) to ((1+z)^(-1/2) (1+w)^(-1/2) - 1)/2,
    so (m+n) c[m,n] = b_m b_n / 2 with b_k = binom(-1/2, k): c[m,n] is
    b_m b_n / (2(m+n)), and c[0,0] = 0 (the function vanishes at 0).
    """
    if order < 0:
        raise PreconditionError("order must be >= 0")
    b = [_gbinom(Fraction(-1, 2), k) for k in range(order + 1)]
    values = tuple(tuple(b[m] * b[n] / (2 * (m + n)) if m + n else Fraction(0)
                         for n in range(order + 1))
                   for m in range(order + 1))
    return CmnTable(order, values)


def _variables(v: FockVector) -> List[Tuple[int, int]]:
    """The (boson, mode) pairs of the variables present in v, sorted."""
    return sorted({(i, d2 // 2) for mono in v.terms for i, d2, _ in mono})


def delta_z_apply(u: FockVector) -> Dict[int, FockVector]:
    """exp(Delta_z) u as a map {j: coefficient of z^(-j)}.

    Delta_z = sum_i sum_{m,n >= 1} c[m,n] (m d/dx[i,m]) (n d/dx[i,n]) z^(-m-n)
    lowers the weight by m+n >= 2, so the exponential terminates.  Only the
    variables present in a term are differentiated.
    """
    state = _as_state(u, u.rank)
    result: Dict[int, FockVector] = {0: state}
    if not state:
        return result
    table = cmn_table(state.degree2 // 2)
    term: Dict[int, FockVector] = {0: state}
    k = 0
    while term:
        k += 1
        nxt: Dict[int, FockVector] = {}
        for j, v in term.items():
            for i, n in _variables(v):
                dn = weighted_partial(i, n, v)
                for a, m in _variables(dn):
                    if a != i:
                        continue
                    add = weighted_partial(i, m, dn).scaled_fraction(table.c(m, n))
                    key = j + m + n
                    nxt[key] = nxt.get(key, FockVector.zero(state.rank)) + add
        term = {}
        for j, v in nxt.items():
            v = v.scaled_fraction(Fraction(1, k))
            if v:
                term[j] = v
                result[j] = result.get(j, FockVector.zero(state.rank)) + v
    return {j: v for j, v in result.items() if v or j == 0}


# -- quadratic-state transfer identity ----------------------------------------------

def binom_mode_identity_check(a: int, b: int, p: int, q: int, n: int,
                              u: FockVector, lam: LambdaSequence,
                              ann_bound: int) -> bool:
    """Check the quadratic-state mode against its normal-ordered expansion.

    Both sides act on ``u``; ``ann_bound`` must satisfy h(i) u = 0 for every
    mode i > ann_bound (no variable above it, no lambda entry above it).
    The right-hand side sums n.o. quadratics over i + j = 2*ann_bound - n + p + q
    with binomial weights; agreement is exact.
    """
    if lam.sector is not Sector.UNTWISTED or u.sector is not Sector.UNTWISTED:
        raise SectorMismatchError("the transfer identity is an untwisted check")
    if p < 0 or q < 0:
        raise PreconditionError("derivative orders p, q must be >= 0")
    if u.max_mode2() > 2 * ann_bound or lam.top_doubled > 2 * ann_bound:
        raise PreconditionError(
            f"annihilation bound {ann_bound} is invalid for this vector/lambda")
    state = (FockVector.variable(a, p + 1, u.rank)
             .times_variable(b, 2 * (q + 1)))
    lhs = mode_apply(state, n + 1, u, lam)
    total = 2 * ann_bound - n + p + q
    rhs = FockVector.zero(u.rank)
    for i in range(0, total + 1):
        j = total - i
        w = _gbinom(i - ann_bound - 1, p) * _gbinom(j - ann_bound - 1, q)
        if not w:
            continue
        g = u
        for idx, mode in ((a, ann_bound - i), (b, ann_bound - j)):
            if mode >= 0:
                g = act_mode2(lam, idx, 2 * mode, g)
                if not g:
                    break
        if not g:
            continue
        for idx, mode in ((a, ann_bound - i), (b, ann_bound - j)):
            if mode < 0:
                g = g.times_variable(idx, -2 * mode)
        rhs = rhs + g.scaled_fraction(w)
    return lhs == rhs


def binom_transfer_matrix(ann_bound: int, size: int) -> List[List[Fraction]]:
    """Binomial-weight matrix tying quadratic-state modes to n.o. quadratics.

    Entry (p, i) is binom(i - ann_bound - 1, p) for p, i = 0..size-1: the
    weights the p-th derivative field places on the normal-ordered
    quadratics along one mode diagonal.  Row p is a degree-p polynomial in
    the column abscissa, so the matrix is nonsingular for every bound; its
    invertibility is what lets each normal-ordered quadratic be recovered
    from quadratic-state modes.
    """
    if size < 1:
        raise PreconditionError("size must be >= 1")
    return [[_gbinom(i - ann_bound - 1, pp) for i in range(size)]
            for pp in range(size)]
