import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from conftest import DEGENERATE, SUITE, WIDE_FACE, corpus_inputs
from oracles import full_groebner_basis, normal_form

from exphodge import nondegen
from exphodge.errors import BudgetExceededError
from exphodge.groebner import (PrimeField, RationalField, grevlex_key,
                               groebner_basis, is_unit_ideal)
from exphodge.laurent import make_laurent, parse_laurent
from exphodge.polytope import newton_polytope


def test_grevlex_order():
    # x > y > z; x*z < y^2 under grevlex in three variables
    assert grevlex_key((1, 0, 0)) > grevlex_key((0, 1, 0)) > grevlex_key((0, 0, 1))
    assert grevlex_key((0, 2, 0)) > grevlex_key((1, 0, 1))


def test_already_reduced():
    F = RationalField()
    gens = [{(1, 0): 1, (0, 0): -1}, {(0, 1): 1, (0, 0): -1}]
    basis = groebner_basis(gens, F)
    assert basis == [
        {(0, 1): Fraction(1), (0, 0): Fraction(-1)},
        {(1, 0): Fraction(1), (0, 0): Fraction(-1)},
    ]
    assert not is_unit_ideal(basis)


def test_unit_ideal():
    F = RationalField()
    basis = groebner_basis([{(2,): 1}, {(1,): 1, (0,): -1}], F)
    assert is_unit_ideal(basis)


def test_degenerate_face_system_not_unit():
    # (x+y)^2, x(x+y), y(x+y), saturation t*x*y - 1 over a large prime field
    F = PrimeField(10007)
    gens = [
        {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1},
        {(2, 0, 0): 1, (1, 1, 0): 1},
        {(1, 1, 0): 1, (0, 2, 0): 1},
        {(1, 1, 1): 1, (0, 0, 0): -1},
    ]
    basis = groebner_basis(gens, F)
    assert not is_unit_ideal(basis)


DETERMINISM_GENS = [{(2, 1): 3, (0, 0): 1}, {(1, 2): 5, (1, 0): 1}, {(0, 3): 1, (0, 1): 2}]


def test_determinism():
    F = PrimeField(32003)
    assert groebner_basis(DETERMINISM_GENS, F) == groebner_basis(DETERMINISM_GENS, F)


def test_normal_form_reduces_to_zero_in_ideal():
    F = RationalField()
    gens = [{(1, 0): 1, (0, 1): -1}]  # x - y
    basis = groebner_basis(gens, F)
    # x^2 - y^2 lies in the ideal
    r = normal_form({(2, 0): Fraction(1), (0, 2): Fraction(-1)}, basis, grevlex_key, F)
    assert r == {}


BUDGET_GENS = [
    {(3, 0, 0): 1, (0, 2, 1): 4, (0, 0, 0): 2},
    {(0, 3, 0): 2, (1, 0, 2): 1, (1, 1, 1): 3},
    {(0, 0, 3): 1, (2, 1, 0): 5, (0, 0, 0): 1},
]


def test_budget_exceeded_is_distinct():
    with pytest.raises(BudgetExceededError):
        groebner_basis(BUDGET_GENS, PrimeField(101), max_pairs=2)


# S-pairs with equal lcm pop in (i, j) order; this system needs 10 pairs, not
# 15, when the ties are popped the other way round
TIE_GENS = [{(1, 0): -2, (1, 1): 1, (2, 2): -3}, {(1, 0): -2, (2, 1): -3}, {(0, 0): 1, (0, 2): 3}]


@pytest.mark.parametrize("gens,F,least", [
    (BUDGET_GENS, PrimeField(101), 36),
    (DETERMINISM_GENS, PrimeField(32003), 5),
    (DETERMINISM_GENS, RationalField(), 5),
    (TIE_GENS, PrimeField(101), 15),
], ids=["budget-GF(101)", "determinism-GF(32003)", "determinism-QQ", "ties-GF(101)"])
def test_least_sufficient_pair_budget_is_pinned(gens, F, least):
    """The queue pops pairs in a fixed order, so the smallest budget that
    succeeds is a property of the input; these values pin that order.
    DETERMINISM_GENS generates the unit ideal, so its budget counts the pairs
    popped until the first constant remainder; the two non-unit systems pin
    the order of a run to completion."""
    assert groebner_basis(gens, F, max_pairs=least)
    with pytest.raises(BudgetExceededError):
        groebner_basis(gens, F, max_pairs=least - 1)


@pytest.mark.parametrize("F", [RationalField(), PrimeField(101)], ids=["QQ", "GF(101)"])
def test_chain_criterion_skips_s_polynomials(F, monkeypatch):
    """BUDGET_GENS (not the unit ideal, so both runs go to completion):
    the oracle's Buchberger reduces every pair with non-coprime leading
    monomials, 37 reductions with the tail reductions; the chain criterion
    leaves 23, and the reduced basis is the same."""
    import oracles

    from exphodge import groebner

    counts = Counter()

    def counting(module):
        reduce = module._reduce

        def counted(*args):
            counts[module] += 1
            return reduce(*args)
        return counted

    for module in (groebner, oracles):
        monkeypatch.setattr(module, "_reduce", counting(module))
    basis = groebner_basis(BUDGET_GENS, F)
    assert basis == full_groebner_basis(BUDGET_GENS, F) and not is_unit_ideal(basis)
    assert (counts[groebner], counts[oracles]) == (23, 37)


def _lm(g):
    return max(g, key=grevlex_key)


def _s_poly(g, h, F):
    lg, lh = _lm(g), _lm(h)
    lcm = tuple(max(a, b) for a, b in zip(lg, lh))
    out = {}
    for p, lp, sign in ((g, lg, 1), (h, lh, -1)):
        inv = F.inv(p[lp])
        for e, c in p.items():
            m = tuple(x + l - y for x, l, y in zip(e, lcm, lp))
            v = F.mul(F.mul(c, inv), F.coerce(sign))
            out[m] = F.add(out.get(m, F.coerce(0)), v)
    return {m: c for m, c in out.items() if c != F.coerce(0)}


def _random_system(rng, nvars):
    gens = []
    for _ in range(rng.randint(2, 3)):
        g = {}
        for _ in range(rng.randint(2, 3)):
            e = tuple(rng.randint(0, 2) for _ in range(nvars))
            g[e] = rng.choice([-3, -2, -1, 1, 2, 3])
        gens.append(g)
    return gens


@pytest.mark.parametrize("F", [PrimeField(101), PrimeField(32003), RationalField()],
                         ids=["GF(101)", "GF(32003)", "QQ"])
def test_random_systems_give_reduced_groebner_bases(F):
    """Monic, reduced, contains the input ideal, and Buchberger's criterion:
    every S-pair of the output reduces to zero modulo the output."""
    rng = random.Random(f"groebner:{F.name}")
    for _ in range(25):
        gens = _random_system(rng, rng.randint(2, 3))
        basis = groebner_basis(gens, F)
        lms = [_lm(g) for g in basis]
        assert lms == sorted(lms, key=grevlex_key)
        for g, lm in zip(basis, lms):
            assert g[lm] == 1
            others = [m for m in lms if m != lm]
            assert not any(all(x <= y for x, y in zip(m, e)) for m in others for e in g)
        for g in gens:
            p = {e: F.coerce(c) for e, c in g.items() if F.coerce(c) != F.coerce(0)}
            assert normal_form(p, basis, grevlex_key, F) == {}
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                assert normal_form(_s_poly(basis[i], basis[j], F), basis, grevlex_key, F) == {}


@pytest.mark.parametrize("F", [RationalField(), PrimeField(101)], ids=["QQ", "GF(101)"])
def test_constant_generator_returns_unit_basis_before_any_pair(F):
    gens = [{(1, 1): 1, (0, 0): -1}, {(2, 0): 3, (0, 1): 1}, {(0, 0): 7}]
    assert groebner_basis(gens, F, max_pairs=0) == [{(0, 0): 1}]


def test_generator_constant_only_mod_p():
    # 101*x + 1 is the constant 1 over GF(101) and a line over QQ
    gens = [{(1, 0): 101, (0, 0): 1}, {(1, 0): 1, (0, 1): 1}]
    assert groebner_basis(gens, PrimeField(101), max_pairs=0) == [{(0, 0): 1}]
    over_q = groebner_basis(gens, RationalField())
    assert not is_unit_ideal(over_q)
    assert over_q == full_groebner_basis(gens, RationalField())


@pytest.mark.parametrize("F", [RationalField(), PrimeField(1522523711)],
                         ids=["QQ", "GF(p)"])
def test_exit_agrees_with_the_full_run_on_face_systems(F, monkeypatch):
    """Stopping at the first constant gives the reduced basis the full run
    ends with, on every system a face check passes to groebner_basis:
    running examples, degenerate inputs, the screen supports, and an e = 3
    top face of width 3, empty, that the closed forms pass on."""
    systems = []

    def recording(gens, field, max_pairs):
        systems.append(gens)
        return groebner_basis(gens, field, max_pairs=max_pairs)

    monkeypatch.setattr(nondegen, "groebner_basis", recording)
    texts = [t for t, _ in SUITE] + DEGENERATE + [WIDE_FACE]
    for f in [parse_laurent(t) for t in texts] + corpus_inputs(monkeypatch, "screen", 15, 1):
        for face in newton_polytope(f).proper_faces_excluding_origin():
            if not face.is_vertex:
                nondegen._decide_face(f, face, F, 60000)
    units = nonunits = 0
    for gens in systems:
        basis = groebner_basis(gens, F)
        assert basis == full_groebner_basis(gens, F), gens
        units += is_unit_ideal(basis)
        nonunits += not is_unit_ideal(basis)
    assert units and nonunits


def _large(rng):
    """Numerator in +-[1, 10^6], denominator in [1, 3]: the screen workload's
    coefficients."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 3))


def _large_inputs(seed, count):
    """Seeded supports of 8 to 14 points of {-1,0,1}^3 with large coefficients;
    every third gets s*z*(u*x*y^-1 + v*x^-1*y)^2 planted on the segment from
    (1, -1, 1) to (-1, 1, 1) (a double root when that segment is an edge)."""
    box = [p for p in product((-1, 0, 1), repeat=3) if any(p)]
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        terms = {p: _large(rng) for p in rng.sample(box, rng.randint(8, 14))}
        if len(out) % 3 == 0:
            s, u, v = (rng.choice((-1, 1)) * rng.randint(1, 5) for _ in range(3))
            terms.update({(1, -1, 1): Fraction(s * u * u), (0, 0, 1): Fraction(2 * s * u * v),
                          (-1, 1, 1): Fraction(s * v * v)})
        f = make_laurent(3, terms)
        if newton_polytope(f).dim == 3:
            out.append(f)
    return out


@pytest.mark.parametrize("F", [RationalField(), PrimeField(1522523711)], ids=["QQ", "GF(p)"])
def test_integer_buchberger_matches_the_field_oracle_on_large_coefficients(F, monkeypatch):
    """With numerators up to 10^6 and denominators up to 3, the basis of every
    system a face check passes on (5- to 8-point 2-faces among them), and of
    seeded random systems, equals the full run in the field's own arithmetic."""
    systems = []

    def recording(gens, field, max_pairs):
        systems.append(gens)
        return groebner_basis(gens, field, max_pairs=max_pairs)

    monkeypatch.setattr(nondegen, "groebner_basis", recording)
    for f in _large_inputs(3202, 40):
        for face in newton_polytope(f).proper_faces_excluding_origin():
            if not face.is_vertex:
                nondegen._decide_face(f, face, F, 60000)
    rng = random.Random(f"large:{F.name}")
    for _ in range(40):
        gens = _random_system(rng, rng.randint(2, 3))
        systems.append([{e: c * _large(rng) for e, c in g.items()} for g in gens])
    units = nonunits = 0
    for gens in systems:
        basis = groebner_basis(gens, F)
        assert basis == full_groebner_basis(gens, F), gens
        units += is_unit_ideal(basis)
        nonunits += not is_unit_ideal(basis)
    assert units and nonunits
