"""Vertex-operator modes on the polynomial Fock spaces.

A state of the free-boson algebra is an untwisted ``FockVector``: a
polynomial in the vacuum variables, x[a,n] standing for the creation factor
h_a(-n).  Its field is the normal-ordered product of derivative fields; the
``k``-th mode of that field applied to a concrete Fock vector is a *finite*
sum of ordinary oscillator monomials, because annihilation modes beyond the
vector's weight (and beyond the lambda support) act by zero and creation
modes are then capped by the output weight.  One engine serves both sectors,
in two steps.

Plan.  ``_plan`` fixes a state monomial's factors' modes depth-first: each
mode lies between what the remaining factors can still make up and the
annihilation cap, the last factor takes the remainder, and a derivative
factor's binomial weight is multiplied in as its mode is fixed (zero skips
the mode).  Equal factors commute, so each run x[a,n]^e of them is expanded
once per multiset of modes: its modes are taken non-decreasing, and as each
block of k equal modes closes the weight gains that block's share of the
run's e!/prod k! orderings (nothing when the run holds one block).  In the
last run the factors still to fix take no less than this one, so its mode
is also capped at their equal share of what is left.  An annihilator
above lambda's top mode has no shift and only differentiates: it acts only
as a variable the vector holds, and such modes add up to at most their
weight in one term of the vector.  Without these bounds, a state of many
factors on a vector of a few high modes would plan every creator that
balances annihilators the vector cannot feed.  The expansion depends only
on the monomial, the mode total its factors must reach, the cap, lambda's
top mode, the vector's variables above it and their room, never on a
coefficient, so it is written once as a flat tuple of nodes in
depth-first order and cached under that key.

Execute.  ``_modes_on`` walks the plan of each state monomial on f.
Annihilators commute, so the terms left by a multiset of them depend on
nothing else: each node fills them once per call, from its parent's terms,
and every state monomial and part of the call shares them; a node that
leaves nothing skips its subtree.  A leaf scales the state coefficient by
its weight (one reduction; none for a weight of 1) and writes straight into
the result, the only vector a call builds: a last annihilator adds its
shift lambda times the weight and its derivative scaled by the weight, a
last creator the node's terms times the weight, with the creators merged in
(normal ordering: every annihilator acts before the creators).  Every
write runs through the one weighted derivation kernel of ``fock``.

``mode_apply`` and ``virasoro_mode`` read the sector from their vector and
lambda data, and each reads its mode by one rule.  L_n takes an integer n in
both sectors.  A state's mode k: r half-odd twisted modes sum to an integer
of the parity of r, so on twisted vectors a monomial whose factor count
cannot reach the parity of k contributes zero; untwisted, k is an integer.

On twisted vectors the field first acquires the lowering correction

    exp( sum_i sum_{m,n} c[m,n] h_i(m) h_i(n) z^(-m-n) )

whose rational coefficients are the Taylor coefficients of
-log(((1+z)^(1/2) + (1+w)^(1/2))/2).  The Euler operator z d/dz + w d/dw
multiplies the (m,n) coefficient by m+n and turns that logarithm into a
product of two binomial series, so ``cmn_table`` reads them off the closed
form c[m,n] = b_m b_n / (2(m+n)), b_k = binom(-1/2, k).  ``delta_z_apply``
applies the (terminating) exponential on term dicts, through the same
weighted derivation kernel of ``fock`` with c[m,n]/k as its scale, and
``_field_parts``, the one source of a field's parts (the coefficients of
z^(-j)), hands them to the engine, which reads mode k - j of each.

All Virasoro operators are modes of the quadratic state
omega = (1/2) sum_i x[i,1]^2, so both sectors run through the same engine.

Everything here is a pure function of immutable values; the only shared
state is memoized: the coefficient table, the omega state, the parts of
omega's field that every Virasoro mode reads (a tuple per rank and sector),
the field weights and the expansion plans (at most ``PLAN_CACHE_SIZE``
tuples, least recently used out), all immutable once built, so concurrent
use is safe.  The engine's table of annihilated terms lives for one call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, gcd
from typing import Dict, List, Tuple, Union

from ._record import Record
from .errors import BosonIndexError, PreconditionError, SectorMismatchError
from .fock import (FockVector, ModeLike, Monomial, Sector,
                   _add_weighted_partial2, _check_agree, _check_integer,
                   _doubled_value, _insert_variable, doubled_mode)
from .heisenberg import LambdaSequence, act_mode2
from .scalars import ONE, Scalar, _reduced


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
        raise BosonIndexError(f"state rank {u.rank} does not match {rank}")
    return u


@lru_cache(maxsize=None)
def omega(rank: int) -> FockVector:
    """The conformal state (1/2) sum_i x[i,1]^2."""
    half = Scalar(Fraction(1, 2))
    return FockVector(rank, Sector.UNTWISTED,
                      {((i, 2, 2),): half for i in range(1, rank + 1)})


# -- the normal-ordered derivative-field engine --------------------------------

#: Bound on the expansion plans ``_plan`` keeps, least recently used first
#: out.  A plan depends on the state monomial, its mode total, the
#: annihilation cap and the vector's variables above lambda's top mode
#: only, and real traffic repeats them: a pass of the benchmark's
#: ``vertex`` workload builds about 730 and looks up 1,200.
PLAN_CACHE_SIZE = 1024


@lru_cache(maxsize=PLAN_CACHE_SIZE)
def _plan(runs: Monomial, target2: int, cap2: int, free2: int,
          room2: int, held: frozenset) -> tuple:
    """The depth-first expansion of the state monomial ``runs`` (a run
    x[a,n]^e is the factor (a, 2n, e)) whose modes add up to ``target2``
    halves, each at most ``cap2``, flattened into one tuple.  An
    annihilator above ``free2`` is one of the (a, d2) pairs in ``held``,
    and together such annihilators take at most ``room2`` halves.

    An annihilator before the last factor is a node (a, d2, parent_key,
    key, end): key is the (a, d2) pairs of the annihilators on its path,
    sorted and laid end to end in one tuple, parent_key those above it, and
    end indexes just past its subtree.
    The last factor is a leaf (a, d2, key, creators, num, den): it acts on
    the terms left by key, and creators is the sorted monomial of every
    creator on its path, its own x[a,-d2] included when d2 < 0; the weight
    num/den (den > 0, lowest terms) multiplies the state coefficient.  A
    node whose subtree holds no leaf is left out.  The caller passes only
    totals the factors can reach: of their parity, and at most count * cap2."""
    nodes: list = []
    # one object per equal key or creator monomial: a cached plan holds
    # each once
    shared: dict = {}

    def build(r, t, prev2, block, rest, left2, room2, num, den, key,
              creators):
        # fix factor t of the run runs[r] = (a, 2n, e), whose last ``block``
        # factors sit at prev2; ``rest`` factors are left, this one included
        a, n2, e = runs[r]
        n = n2 // 2
        # the factors after this one take at most cap2 each, and this run's
        # take at least prev2
        lo2 = left2 - (rest - 1) * cap2
        if t and lo2 < prev2:
            lo2 = prev2
        last = rest == 1
        # in the last run the e - t factors left share left2, none below
        # this one (the range keeps the parity of lo2)
        hi2 = cap2 if r + 1 < len(runs) else min(cap2, left2 // (e - t))
        # the rest - 1 factors after this one make up at most free2 each
        # and what room leaves above that, itself at most their cap
        floor2, reach2 = (rest - 1) * free2, (rest - 1) * cap2
        for d2 in range(lo2, hi2 + 1, 2):
            room = room2
            if d2 > free2:
                if d2 > room2:  # and so is every mode after this one
                    break
                if (a, d2) not in held:
                    continue
                room -= d2
            more2 = (room if room < reach2 else reach2) - free2
            if left2 - d2 > (floor2 + more2 if more2 > 0 else floor2):
                continue
            p, q = num, den
            if n > 1:
                fw = _field_weight(d2, n)
                if not fw:
                    continue
                p *= fw.numerator
                q *= fw.denominator
            if d2 == prev2:
                k = block + 1
            else:
                k = 1
                if block < t:  # the block at prev2 closes after t factors
                    p *= comb(t, block)
            if t + 1 == e and k < e:  # the last block closes with the run
                p *= comb(e, k)
            if d2 >= 0:
                cr = creators
            else:
                cr = _insert_variable(creators, a, -d2)
                cr = shared.setdefault(cr, cr)
            if last:  # here d2 = left2: the modes add up
                g = gcd(p, q)
                nodes.append((a, d2, key, cr, p // g, q // g))
                continue
            if d2 >= 0:
                pos = len(key)
                while pos and (key[pos - 2], key[pos - 1]) > (a, d2):
                    pos -= 2
                hkey = key[:pos] + (a, d2) + key[pos:]
                hkey = shared.setdefault(hkey, hkey)
                at = len(nodes)
                nodes.append(None)
            else:
                hkey = key
            if t + 1 < e:
                build(r, t + 1, d2, k, rest - 1, left2 - d2, room, p, q, hkey,
                      cr)
            else:
                build(r + 1, 0, None, 0, rest - 1, left2 - d2, room, p, q,
                      hkey, cr)
            if d2 >= 0:
                if len(nodes) == at + 1:
                    nodes.pop()
                else:
                    nodes[at] = (a, d2, key, hkey, len(nodes))

    build(0, 0, None, 0, sum(e for _, _, e in runs), target2, room2, 1, 1,
          (), ())
    return tuple(nodes)


def _modes_on(parts, k2: int, f: FockVector, lam: LambdaSequence) -> FockVector:
    """Sum over the (j, state) parts of mode k - j of the state on f, where
    ``k2`` = 2k: each state monomial's ``_plan`` run on f, as the module
    docstring describes.  The callers have checked lam against f, so its
    entries are read directly."""
    acc: Dict[Monomial, Scalar] = {}
    if not f.terms:
        return FockVector(f.rank, f.sector, acc)
    # an annihilator above lambda's top mode has no shift: it only
    # differentiates, so it acts only as one of the variables f holds, held,
    # and such modes add up to at most their doubled weight in one term of
    # f, room2
    top2 = lam.top_doubled
    pairs = set()
    room2 = 0
    for mono in f.terms:
        w = 0
        for a, d2, e in mono:
            if d2 > top2:
                pairs.add((a, d2))
                w += d2 * e
        if w > room2:
            room2 = w
    held = frozenset(pairs)
    # no mode above cap2 acts on f; a twisted cap of 0 becomes -1 (no mode 0)
    cap2 = max(max((d2 for _, d2 in held), default=0), top2, 0)
    if cap2 % 2 != f.sector.parity:
        cap2 -= 1
    free2 = min(top2, cap2)
    entries = lam.entries
    # annihilators commute: the terms left by each multiset of them, under
    # its plan key, shared by every part and state monomial
    after: Dict[tuple, Dict[Monomial, Scalar]] = {(): f.terms}

    def pairing(a, d2):
        # (lambda_n, h_a) for n = d2/2 >= 0, or None where it is zero
        slot = d2 // 2
        if slot < len(entries):
            return entries[slot][a - 1] or None
        return None

    for j, state in parts:
        shift2 = k2 - 2 * j + 2
        for mono, coeff in state.terms.items():
            # total doubled oscillator mode forced by the z-power bookkeeping
            target2 = shift2 - sum(d2 * e for _, d2, e in mono)
            if not mono:
                if target2 == 0:  # the vacuum state acts as the identity
                    _add_weighted_partial2(acc, 0, 0, f.terms, coeff)
                continue
            # r modes of parity p sum to the parity of r*p (cap2 has the
            # parity p), and to at most r*cap2; else the mode is 0
            most2 = sum(e for _, _, e in mono) * cap2
            if target2 > most2 or (target2 - most2) % 2:
                continue
            plan = _plan(mono, target2, cap2, free2, room2, held)
            ca, cb, cd = coeff.a, coeff.b, coeff.d
            size = len(plan)
            i = 0
            while i < size:
                node = plan[i]
                i += 1
                if len(node) == 5:  # an annihilator: fill its terms once
                    a, d2, parent, key, end = node
                    h = after.get(key)
                    if h is None:
                        h = after[key] = {}
                        _add_weighted_partial2(h, a, d2, after[parent],
                                               pairing(a, d2))
                    if not h:  # nothing left: skip the subtree
                        i = end
                    continue
                a, d2, key, creators, num, den = node
                w = coeff if num == den else _reduced(ca * num, cb * num,
                                                      cd * den)
                if d2 < 0:  # the result takes g times w and the creators
                    _add_weighted_partial2(acc, a, 0, after[key], w, None,
                                           creators)
                    continue
                # the last annihilator writes into the result
                c = pairing(a, d2)
                if c is not None or d2:
                    _add_weighted_partial2(acc, a, d2, after[key], c, w,
                                           creators)
    return FockVector(f.rank, f.sector, acc)


def _field_parts(state: FockVector, sector: Sector) -> tuple:
    """The parts (j, coefficient of z^(-j)) of a checked state's field: the
    state itself untwisted, those of exp(Delta_z) state twisted."""
    if sector is Sector.UNTWISTED:
        return ((0, state),)
    return tuple(delta_z_apply(state).items())


def mode_apply(u: FockVector, k: ModeLike, f: FockVector,
               lam: LambdaSequence) -> FockVector:
    """The k-th mode of the state u on f, in the sector of f and lam: any k in
    (1/2)Z twisted, an integer untwisted."""
    _check_agree(lam, f)
    k2 = _doubled_value(k) if f.sector.parity else doubled_mode(k, f.sector)
    return _modes_on(_field_parts(_as_state(u, f.rank), f.sector), k2, f, lam)


# -- Virasoro operators -----------------------------------------------------------

def virasoro_mode(n: int, f: FockVector, lam: LambdaSequence) -> FockVector:
    """L_n, n an integer: mode n + 1 of omega, read off omega's parts in the
    sector of f; twisted, the rank/16 shift enters through Delta_z."""
    _check_agree(lam, f)
    k2 = _check_integer(_doubled_value(n)) + 2
    return _modes_on(_omega_parts(f.rank, f.sector), k2, f, lam)


# the benchmark calls the sector-free operators by these names too
twisted_mode_apply = mode_apply
twisted_virasoro_mode = virasoro_mode


@lru_cache(maxsize=None)
def _omega_parts(rank: int, sector: Sector) -> Tuple[Tuple[int, FockVector], ...]:
    """The parts of omega's field in a sector, built once per (rank, sector)."""
    return _field_parts(omega(rank), sector)


def virasoro_bracket_check(m: int, n: int, f: FockVector,
                           lam: LambdaSequence) -> bool:
    """Exact check of [L_m, L_n] = (m-n) L_{m+n} + (m^3-m)/12 delta(m+n) * rank.

    The central charge equals the rank in both sectors.
    """
    ell = virasoro_mode  # L_n
    lhs = ell(m, ell(n, f, lam), lam) - ell(n, ell(m, f, lam), lam)
    rhs = ell(m + n, f, lam).scaled(m - n)
    if m + n == 0:
        rhs = rhs + f.scaled_fraction(Fraction(m ** 3 - m, 12) * f.rank)
    return lhs == rhs


# -- the twisted correction -------------------------------------------------------

class CmnTable(Record):
    """Exact rational coefficients c[m,n] of the twisted lowering operator."""

    __slots__ = ("order", "values")

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


def delta_z_apply(u: FockVector) -> Dict[int, FockVector]:
    """exp(Delta_z) u as a map {j: coefficient of z^(-j)}.

    Delta_z = sum_i sum_{m,n >= 1} c[m,n] (m d/dx[i,m]) (n d/dx[i,n]) z^(-m-n)
    lowers the weight by m+n >= 2, so the exponential terminates.  Only the
    variables present in a term are differentiated.  Each power
    Delta_z^k u / k! passes term dicts, keyed by j, to the next: both
    derivatives run through the weighted derivation kernel, the second with
    c[m,n]/k as its scale, and one vector is built per part, at the end.
    """
    state = _as_state(u, u.rank)
    parts: Dict[int, Dict[Monomial, Scalar]] = {0: state.terms}
    table = cmn_table(state.max_mode2() // 2)
    power = {0: state.terms}
    k = 0
    while power:
        k += 1
        nxt: Dict[int, Dict[Monomial, Scalar]] = {}
        for j, terms in power.items():
            for i, n2 in sorted({(i, d2) for mono in terms for i, d2, _ in mono}):
                dn: Dict[Monomial, Scalar] = {}
                _add_weighted_partial2(dn, i, n2, terms)
                for m2 in sorted({d2 for mono in dn for a, d2, _ in mono
                                  if a == i}):
                    scale = Scalar(table.c(m2 // 2, n2 // 2) / k)
                    _add_weighted_partial2(
                        nxt.setdefault(j + (m2 + n2) // 2, {}), i, m2, dn,
                        None, scale)
        power = {j: terms for j, terms in nxt.items() if terms}
        for j, terms in power.items():
            _add_weighted_partial2(parts.setdefault(j, {}), 0, 0, terms, ONE)
    return {j: FockVector(state.rank, Sector.UNTWISTED, terms)
            for j, terms in parts.items() if terms or j == 0}


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
        # normal order: the larger mode, an annihilator if either is, acts first
        (low, i1), (high, i2) = sorted(((ann_bound - i, a), (ann_bound - j, b)))
        g = act_mode2(lam, i1, 2 * low, act_mode2(lam, i2, 2 * high, u))
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
