"""Buchberger's algorithm over the rationals and prime fields.

Polynomials are dicts mapping exponent tuples (nonnegative ints) to nonzero
field elements.  The engine exists to decide one question: whether a face
system together with the torus saturation t*x1*...*xn - 1 generates the unit
ideal.  It is deterministic, reentrant, and capped by a pair budget.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .errors import BadPrimeError, BudgetExceededError

Exponent = tuple[int, ...]
Poly = dict[Exponent, object]


class RationalField:
    """Arithmetic shim for Fraction coefficients."""

    name = "QQ"

    def coerce(self, v) -> Fraction:
        return Fraction(v)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        return 1 / a

    def neg(self, a):
        return -a


class PrimeField:
    """Arithmetic mod a prime, elements stored as ints in [0, p)."""

    def __init__(self, p: int):
        self.p = p
        self.name = f"GF({p})"

    def coerce(self, v) -> int:
        v = Fraction(v)
        if v.denominator % self.p == 0:
            raise BadPrimeError(f"bad prime {self.p}: denominator {v.denominator} vanishes")
        return (v.numerator * pow(v.denominator, -1, self.p)) % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        return pow(a, self.p - 2, self.p)

    def neg(self, a):
        return (-a) % self.p


def grevlex_key(e: Exponent):
    """Sort key realizing graded reverse lexicographic order."""
    return (sum(e), tuple(-x for x in reversed(e)))


def leading_monomial(p: Poly, key) -> Exponent:
    return max(p, key=key)


def _mono_mul(a: Exponent, b: Exponent) -> Exponent:
    return tuple(x + y for x, y in zip(a, b))


def _mono_divides(a: Exponent, b: Exponent) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _mono_lcm(a: Exponent, b: Exponent) -> Exponent:
    return tuple(max(x, y) for x, y in zip(a, b))


def _sub_scaled(p: Poly, q: Poly, coeff, shift: Exponent, F) -> Poly:
    """p - coeff * x^shift * q."""
    out = dict(p)
    for e, c in q.items():
        key = _mono_mul(e, shift)
        s = F.sub(out.get(key, F.coerce(0)), F.mul(coeff, c))
        if s == F.coerce(0):
            out.pop(key, None)
        else:
            out[key] = s
    return out


def normal_form(p: Poly, basis: Sequence[Poly], key, F) -> Poly:
    """Remainder of multivariate division by the basis (leading terms only)."""
    rem: Poly = {}
    work = dict(p)
    lms = [(leading_monomial(g, key), g) for g in basis]
    while work:
        lm = leading_monomial(work, key)
        lc = work[lm]
        for glm, g in lms:
            if _mono_divides(glm, lm):
                factor = F.mul(lc, F.inv(g[glm]))
                shift = tuple(a - b for a, b in zip(lm, glm))
                work = _sub_scaled(work, g, factor, shift, F)
                break
        else:
            rem[lm] = lc
            del work[lm]
    return rem


def _make_monic(p: Poly, key, F) -> Poly:
    inv = F.inv(p[leading_monomial(p, key)])
    return {e: F.mul(c, inv) for e, c in p.items()}


def groebner_basis(generators: Sequence[Mapping[Exponent, object]], field,
                   max_pairs: int = 20000) -> list[Poly]:
    """Reduced Groebner basis, deterministic for fixed inputs.

    Raises BudgetExceededError once more than max_pairs S-pairs have been
    reduced; callers surface that as a distinct outcome, not a verdict.
    """
    key = grevlex_key
    F = field
    basis: list[Poly] = []
    for g in generators:
        g = {tuple(e): F.coerce(c) for e, c in g.items() if F.coerce(c) != F.coerce(0)}
        if g:
            basis.append(_make_monic(g, key, F))
    basis.sort(key=lambda g: key(leading_monomial(g, key)))

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    processed = 0
    while pairs:
        # normal strategy: smallest lcm of leading monomials first
        i, j = min(pairs, key=lambda ij: (key(_mono_lcm(
            leading_monomial(basis[ij[0]], key), leading_monomial(basis[ij[1]], key))), ij))
        pairs.discard((i, j))
        processed += 1
        if processed > max_pairs:
            raise BudgetExceededError(f"Buchberger pair budget {max_pairs} exceeded")
        gi, gj = basis[i], basis[j]
        lmi, lmj = leading_monomial(gi, key), leading_monomial(gj, key)
        lcm = _mono_lcm(lmi, lmj)
        if lcm == _mono_mul(lmi, lmj):
            continue  # coprime leading terms: S-poly reduces to zero
        s = _sub_scaled(
            {_mono_mul(e, tuple(a - b for a, b in zip(lcm, lmi))): c for e, c in gi.items()},
            gj, F.coerce(1), tuple(a - b for a, b in zip(lcm, lmj)), F)
        s = normal_form(s, basis, key, F)
        if not s:
            continue
        s = _make_monic(s, key, F)
        basis.append(s)
        new = len(basis) - 1
        pairs.update((k, new) for k in range(new))

    # minimalize: drop generators whose leading monomial is divisible by another's
    lms = [leading_monomial(g, key) for g in basis]
    keep = []
    for i, g in enumerate(basis):
        if not any(j != i and _mono_divides(lms[j], lms[i])
                   and (lms[j] != lms[i] or j < i) for j in range(len(basis))):
            keep.append(g)
    # reduce tails against each other
    reduced = []
    for i, g in enumerate(keep):
        others = keep[:i] + keep[i + 1:]
        r = normal_form(g, others, key, F) if others else g
        if r:
            reduced.append(_make_monic(r, key, F))
    reduced.sort(key=lambda g: key(leading_monomial(g, key)))
    return reduced


def is_unit_ideal(basis: Sequence[Poly]) -> bool:
    """A reduced basis generates (1) iff it is the single constant 1."""
    if len(basis) != 1:
        return False
    only = basis[0]
    return len(only) == 1 and all(x == 0 for x in next(iter(only)))
