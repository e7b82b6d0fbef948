"""Buchberger's algorithm over the rationals and prime fields.

Polynomials are dicts mapping exponent tuples (nonnegative ints) to nonzero
field elements.  The engine exists to decide one question: whether a face
system together with the torus saturation t*x1*...*xn - 1 generates the unit
ideal.  It is deterministic, reentrant, and capped by a pair budget.
A nonzero constant among the generators or as an S-pair remainder settles
that question (weak Nullstellensatz), so the run stops there and returns [1],
the reduced basis of the unit ideal.

Each basis element's leading monomial is computed once and kept beside it.
Pending S-pairs wait in a heap keyed (grevlex key of the lcm of the leading
monomials, i, j): the normal strategy with ties broken by pair index, so a
fixed input reduces the same pairs in the same order, and the budget counts
every popped pair, coprime ones included, up to the first constant.  Grevlex
keys are memoized per call.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from operator import add, le, sub
from typing import Mapping, Sequence

from .errors import BadPrimeError, BudgetExceededError

Exponent = tuple[int, ...]
Poly = dict[Exponent, object]


class RationalField:
    """Arithmetic shim for Fraction coefficients."""

    name = "QQ"
    zero = Fraction(0)

    def coerce(self, v) -> Fraction:
        return Fraction(v)

    def from_int(self, v: int) -> int:
        return v  # an int is an exact rational, and add, sub and mul keep it one

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a


class PrimeField:
    """Arithmetic mod a prime, elements stored as ints in [0, p)."""

    zero = 0

    def __init__(self, p: int):
        self.p = p
        self.name = f"GF({p})"

    def coerce(self, v) -> int:
        v = Fraction(v)
        if v.denominator % self.p == 0:
            raise BadPrimeError(f"bad prime {self.p}: denominator {v.denominator} vanishes")
        return (v.numerator * pow(v.denominator, -1, self.p)) % self.p

    def from_int(self, v: int) -> int:
        return v % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)


def grevlex_key(e: Exponent):
    """Sort key realizing graded reverse lexicographic order."""
    return (sum(e), tuple(-x for x in reversed(e)))


def leading_monomial(p: Poly, key) -> Exponent:
    return max(p, key=key)


def _mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(add, a, b))


def _mono_div(a: Exponent, b: Exponent) -> Exponent:
    """a / b for a monomial b dividing a."""
    return tuple(map(sub, a, b))


def _mono_divides(a: Exponent, b: Exponent) -> bool:
    return all(map(le, a, b))


def _mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(map(max, a, b))


def _sub_scaled(p: Poly, q: Poly, coeff, shift: Exponent, F) -> Poly:
    """p -= coeff * x^shift * q, in place; returns p."""
    for e, c in q.items():
        key = _mono_mul(e, shift)
        s = F.sub(p.get(key, F.zero), F.mul(coeff, c))
        if s:
            p[key] = s
        else:
            p.pop(key, None)
    return p


def _reduce(p: Poly, basis: Sequence[Poly], lms: Sequence[Exponent], key, F) -> Poly:
    """Remainder of multivariate division of p by the basis, whose leading
    monomials are given in lms (leading terms only)."""
    rem: Poly = {}
    work = dict(p)
    divisors = list(zip(lms, basis))
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for glm, g in divisors:
            if _mono_divides(glm, lm):
                glc = g[glm]
                factor = lc if glc == 1 else F.mul(lc, F.inv(glc))
                _sub_scaled(work, g, factor, _mono_div(lm, glm), F)
                break
        else:
            rem[lm] = lc
            del work[lm]
    return rem


def _make_monic(p: Poly, lm: Exponent, F) -> Poly:
    inv = F.inv(p[lm])
    return {e: F.mul(c, inv) for e, c in p.items()}


def groebner_basis(generators: Sequence[Mapping[Exponent, object]], field,
                   max_pairs: int = 20000) -> list[Poly]:
    """Reduced Groebner basis, deterministic for fixed inputs.

    A nonzero constant generator, or an S-pair remainder that is a nonzero
    constant, returns [1] at once: the constant is a combination of the
    generators.  Raises BudgetExceededError once more than max_pairs S-pairs
    have been popped; pairs are counted only until such a constant, so a unit
    ideal can be decided under a budget its run to completion would exceed.
    Callers surface the error as a distinct outcome, not a verdict.
    """
    F = field
    keys: dict[Exponent, tuple] = {}

    def key(e: Exponent):
        k = keys.get(e)
        if k is None:
            k = keys[e] = grevlex_key(e)
        return k

    monic: list[tuple[Exponent, Poly]] = []
    for g in generators:
        g = {tuple(e): F.coerce(c) for e, c in g.items()}
        g = {e: c for e, c in g.items() if c}
        if g:
            lm = leading_monomial(g, key)
            monic.append((lm, _make_monic(g, lm, F)))
    monic.sort(key=lambda t: key(t[0]))
    if monic and not any(monic[0][0]):  # a nonzero constant generator
        return [{monic[0][0]: F.coerce(1)}]
    lms = [lm for lm, _ in monic]
    basis = [g for _, g in monic]

    # normal strategy: smallest lcm of leading monomials first, ties by (i, j)
    pairs = []
    for j in range(len(basis)):
        for i in range(j):
            lcm = _mono_lcm(lms[i], lms[j])
            pairs.append((key(lcm), i, j, lcm))
    heapq.heapify(pairs)
    processed = 0
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        processed += 1
        if processed > max_pairs:
            raise BudgetExceededError(f"Buchberger pair budget {max_pairs} exceeded")
        lmi, lmj = lms[i], lms[j]
        if lcm == _mono_mul(lmi, lmj):
            continue  # coprime leading terms: S-poly reduces to zero
        shift = _mono_div(lcm, lmi)
        s = _sub_scaled({_mono_mul(e, shift): c for e, c in basis[i].items()},
                        basis[j], F.coerce(1), _mono_div(lcm, lmj), F)
        s = _reduce(s, basis, lms, key, F)
        if not s:
            continue
        lm = leading_monomial(s, key)
        if not any(lm):  # a nonzero constant remainder
            return [{lm: F.coerce(1)}]
        new = len(basis)
        for k in range(new):
            lcm = _mono_lcm(lms[k], lm)
            heapq.heappush(pairs, (key(lcm), k, new, lcm))
        basis.append(_make_monic(s, lm, F))
        lms.append(lm)

    # minimalize: drop generators whose leading monomial is divisible by another's
    keep = [i for i in range(len(basis))
            if not any(j != i and _mono_divides(lms[j], lms[i])
                       and (lms[j] != lms[i] or j < i) for j in range(len(basis)))]
    # reduce tails against each other
    reduced = []
    for i in keep:
        others = [k for k in keep if k != i]
        r = _reduce(basis[i], [basis[k] for k in others], [lms[k] for k in others],
                    key, F) if others else basis[i]
        if r:
            reduced.append((lms[i], _make_monic(r, lms[i], F)))
    reduced.sort(key=lambda t: key(t[0]))
    return [g for _, g in reduced]


def is_unit_ideal(basis: Sequence[Poly]) -> bool:
    """A reduced basis generates (1) iff it is the single constant 1."""
    if len(basis) != 1:
        return False
    only = basis[0]
    return len(only) == 1 and all(x == 0 for x in next(iter(only)))
