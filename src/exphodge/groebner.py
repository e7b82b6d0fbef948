"""Buchberger's algorithm over the integers and prime fields.

Polynomials are dicts mapping exponent tuples (nonnegative ints) to nonzero
coefficients.  The engine exists to decide one question: whether a face
system together with the torus saturation t*x1*...*xn - 1 generates the unit
ideal.  It is deterministic, reentrant, and capped by a pair budget.
A nonzero constant among the generators or as an S-pair remainder settles
that question (weak Nullstellensatz), so the run stops there and returns [1],
the reduced basis of the unit ideal.

Over the rationals the run is over Z, on primitive polynomials: each
generator is cleared of its denominators and divided by its content, which
keeps its ideal over QQ.  An S-polynomial or a reduction step is
a*p - b*x^s*g, with a and b the leading coefficients of g and p over their
gcd, and each remainder is divided by its content; no Fraction enters the
loop, and only the returned reduced basis is made monic in Fractions.  Mod
p every polynomial is monic.  One loop serves both fields: the field shim
supplies the cofactors a, b and the normalization (content over Z, monic
mod p).  Scaling changes no leading monomial, so both fields meet the same
pairs in the same order.

Each basis element's leading monomial is computed once and kept beside it.
Pending S-pairs wait in a heap keyed (grevlex key of the lcm of the leading
monomials, i, j): the normal strategy with ties broken by pair index, so a
fixed input reduces the same pairs in the same order, and the budget counts
every popped pair, skipped ones included, up to the first constant.  A
popped pair is skipped when its leading monomials are coprime, or by
Buchberger's chain criterion: some third element's leading monomial divides
their lcm and its pairs with both were popped before.  Every popped pair has
an S-polynomial with a representation below its lcm, the chain's two by
induction on the order of popping (Cox, Little & O'Shea, Ideals, Varieties,
and Algorithms, ch. 2 sec. 10), so the run still ends on a Groebner basis.
Grevlex keys are memoized per call.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from operator import add, le, sub
from typing import Mapping, Sequence

from .errors import BadPrimeError, BudgetExceededError

Exponent = tuple[int, ...]
Poly = dict[Exponent, object]


class RationalField:
    """Arithmetic shim for Fraction coefficients; Buchberger runs over Z."""

    name = "QQ"
    zero = Fraction(0)
    characteristic = 0

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

    def elements(self, g: Mapping) -> Poly:
        """g's nonzero coefficients (ints or Fractions) times the lcm of
        their denominators."""
        g = {tuple(e): c for e, c in g.items() if c}
        den = math.lcm(*(c.denominator for c in g.values()))
        return {e: c.numerator * (den // c.denominator) for e, c in g.items()}

    def normalize(self, p: Poly, lm: Exponent) -> Poly:
        """p divided by its content: a primitive integer polynomial."""
        g = math.gcd(*p.values())
        return p if g == 1 else {e: c // g for e, c in p.items()}

    def cofactors(self, a, b):
        """(b', a') with b' * a == a' * b: the two leading coefficients over
        their gcd, crosswise."""
        g = math.gcd(a, b)
        return b // g, a // g

    def monic(self, p: Poly, lm: Exponent) -> Poly:
        lc = p[lm]
        return {e: Fraction(c, lc) for e, c in p.items()}


class PrimeField:
    """Arithmetic mod a prime, elements stored as ints in [0, p)."""

    zero = 0

    def __init__(self, p: int):
        self.p = p
        self.characteristic = p
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

    def elements(self, g: Mapping) -> Poly:
        """g's coefficients reduced mod p, those that vanish dropped."""
        g = {tuple(e): self.coerce(c) for e, c in g.items()}
        return {e: c for e, c in g.items() if c}

    def normalize(self, p: Poly, lm: Exponent) -> Poly:
        """p made monic."""
        inv = self.inv(p[lm])
        return {e: c * inv % self.p for e, c in p.items()}

    def cofactors(self, a, b):
        """(1, a / b): every basis element is monic, so b is 1."""
        return 1, (a if b == 1 else a * self.inv(b) % self.p)

    monic = normalize


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


def _scaled(p: Poly, u, mod: int) -> Poly:
    """u * p, entries mod `mod` unless it is 0."""
    if u == 1:
        return p
    if mod:
        return {e: c * u % mod for e, c in p.items()}
    return {e: c * u for e, c in p.items()}


def _sub_scaled(p: Poly, q: Poly, v, shift: Exponent, mod: int) -> Poly:
    """p -= v * x^shift * q, in place, entries mod `mod` unless it is 0;
    returns p."""
    get = p.get
    for e, c in q.items():
        key = tuple(map(add, e, shift))
        s = get(key, 0) - v * c
        if mod:
            s %= mod
        if s:
            p[key] = s
        else:
            p.pop(key, None)
    return p


def _reduce(p: Poly, basis: Sequence[Poly], lms: Sequence[Exponent], key, F) -> Poly:
    """A remainder of multivariate division of p by the basis, whose leading
    monomials are given in lms (leading terms only): a nonzero multiple of
    the remainder over the field, since each step scales the work by a
    cofactor."""
    mod = F.characteristic
    rem: Poly = {}
    work = dict(p)
    divisors = list(zip(lms, basis))
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for glm, g in divisors:
            if _mono_divides(glm, lm):
                u, v = F.cofactors(lc, g[glm])
                work, rem = _scaled(work, u, mod), _scaled(rem, u, mod)
                _sub_scaled(work, g, v, _mono_div(lm, glm), mod)
                break
        else:
            rem[lm] = lc
            del work[lm]
    return rem


def groebner_basis(generators: Sequence[Mapping[Exponent, object]], field,
                   max_pairs: int = 20000) -> list[Poly]:
    """Reduced Groebner basis, monic (with Fraction coefficients over QQ),
    deterministic for fixed inputs.

    A nonzero constant generator, or an S-pair remainder that is a nonzero
    constant, returns [1] at once: the constant is a combination of the
    generators.  Raises BudgetExceededError once more than max_pairs S-pairs
    have been popped; pairs are counted only until such a constant, so a unit
    ideal can be decided under a budget its run to completion would exceed.
    Callers surface the error as a distinct outcome, not a verdict.
    """
    F = field
    mod = F.characteristic
    keys: dict[Exponent, tuple] = {}

    def key(e: Exponent):
        k = keys.get(e)
        if k is None:
            k = keys[e] = grevlex_key(e)
        return k

    normal: list[tuple[Exponent, Poly]] = []
    for g in generators:
        g = F.elements(g)
        if g:
            lm = leading_monomial(g, key)
            normal.append((lm, F.normalize(g, lm)))
    normal.sort(key=lambda t: key(t[0]))
    if normal and not any(normal[0][0]):  # a nonzero constant generator
        return [{normal[0][0]: F.coerce(1)}]
    lms = [lm for lm, _ in normal]
    basis = [g for _, g in normal]

    # normal strategy: smallest lcm of leading monomials first, ties by (i, j)
    pairs = []
    for j in range(len(basis)):
        for i in range(j):
            lcm = _mono_lcm(lms[i], lms[j])
            pairs.append((key(lcm), i, j, lcm))
    heapq.heapify(pairs)
    processed = 0
    popped: set[tuple[int, int]] = set()
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        processed += 1
        if processed > max_pairs:
            raise BudgetExceededError(f"Buchberger pair budget {max_pairs} exceeded")
        popped.add((i, j))
        lmi, lmj = lms[i], lms[j]
        if lcm == _mono_mul(lmi, lmj):
            continue  # coprime leading terms: S-poly reduces to zero
        if any(k != i and k != j and _mono_divides(lms[k], lcm)
               and (min(i, k), max(i, k)) in popped and (min(j, k), max(j, k)) in popped
               for k in range(len(basis))):
            continue  # chain criterion: S(i, j) is a combination of S(i, k) and S(j, k)
        gi, gj = basis[i], basis[j]
        u, v = F.cofactors(gi[lmi], gj[lmj])
        shift = _mono_div(lcm, lmi)
        s = _sub_scaled(_scaled({_mono_mul(e, shift): c for e, c in gi.items()}, u, mod),
                        gj, v, _mono_div(lcm, lmj), mod)
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
        basis.append(F.normalize(s, lm))
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
            reduced.append((lms[i], F.monic(r, lms[i])))
    reduced.sort(key=lambda t: key(t[0]))
    return [g for _, g in reduced]


def is_unit_ideal(basis: Sequence[Poly]) -> bool:
    """A reduced basis generates (1) iff it is the single constant 1."""
    if len(basis) != 1:
        return False
    only = basis[0]
    return len(only) == 1 and all(x == 0 for x in next(iter(only)))
