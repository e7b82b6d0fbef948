"""Acceptance gate: one test per criterion, exact tolerances, timed budgets.

Every test prints a PASS line on success (visible under pytest -s or in the
failure report otherwise); assertions are exact equalities throughout.
"""

import random
import time
from fractions import Fraction as Q

from oracles import matmul

from exphodge import curve
from exphodge.derham import betti_numbers, build_filtration_level, build_graded_level
from exphodge.laurent import format_laurent, make_laurent, parse_laurent
from exphodge.nondegen import build_face_system, is_nondegenerate
from exphodge.polytope import INFINITE_WEIGHT, newton_polytope
from exphodge.spectrum import (check_symmetry, jump_candidates, spectrum_euler,
                               spectrum_rank)

SUITE = ["x", "x + x^-1", "x^2 + x^-1", "x + y", "x + y + x^-1*y^-1"]
CURVE_SUITE = ["x", "x + x^-1", "x^2 + x^-1"]
EXPECTED_VOLUMES = [1, 2, 3, 1, 3]
EXPECTED_SPECTRA = {
    "x": [(Q(1), 1)],
    "x + x^-1": [(Q(0), 1), (Q(1), 1)],
    "x^2 + x^-1": [(Q(0), 1), (Q(1, 2), 1), (Q(1), 1)],
    "x + y": [(Q(2), 1)],
    "x + y + x^-1*y^-1": [(Q(0), 1), (Q(1), 1), (Q(2), 1)],
}


def _report(num, name):
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_volume_dimension_identity():
    t0 = time.perf_counter()
    for text, expected in zip(SUITE, EXPECTED_VOLUMES):
        f = parse_laurent(text)
        n = f.nvars
        top_dim = betti_numbers(f)[n]
        nvol = newton_polytope(f).normalized_volume()
        assert top_dim == nvol == expected, (text, top_dim, nvol, expected)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"volume identity took {elapsed:.1f}s, budget 10s"
    _report(1, "volume-dimension identity")


def test_criterion_2_concentration():
    for text in SUITE:
        f = parse_laurent(text)
        b = betti_numbers(f)
        assert all(b[i] == 0 for i in range(f.nvars)), (text, b)
    _report(2, "concentration in top degree")


def test_criterion_3_page_one_degeneration():
    for text in SUITE:
        f = parse_laurent(text)
        eu = list(spectrum_euler(f).entries)
        rk = list(spectrum_rank(f).entries)
        assert eu == rk == EXPECTED_SPECTRA[text], (text, eu, rk)
    _report(3, "spectra agree across both routes")


def test_criterion_4_duality_symmetry():
    for text in SUITE:
        f = parse_laurent(text)
        spec = spectrum_rank(f)
        res = check_symmetry(f, spec)
        proper = newton_polytope(f).contains_origin_interior()
        if proper:
            assert res.status == "pass", (text, res.detail)
            n = f.nvars
            assert all(spec.multiplicity(Q(n) - lam) == m for lam, m in spec.entries)
        else:
            assert res.status == "not applicable", text
    x = parse_laurent("x")
    assert check_symmetry(x, spectrum_rank(x)).status == "not applicable"
    _report(4, "spectrum symmetry in the proper case")


def test_criterion_5_curve_three_way_comparison():
    t0 = time.perf_counter()
    for text in CURVE_SUITE:
        f = parse_laurent(text)
        rep = curve.compare_filtrations(f, spectrum_rank(f))
        assert rep.dims_agree, (text, rep)
        assert rep.subspaces_agree, (text, rep)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"curve comparison took {elapsed:.1f}s, budget 30s"
    _report(5, "three-way filtration agreement on the curve")


def test_criterion_6_curve_duality():
    for text in CURVE_SUITE:
        f = parse_laurent(text)
        rep = curve.compare_filtrations(f, spectrum_rank(f))
        assert rep.duality_ok, (text, rep.duality_pairs)
        assert all(a == b for _, a, b in rep.duality_pairs), (text, rep.duality_pairs)
    _report(6, "curve duality pairing dimensions")


def test_criterion_7_injectivity_of_classical_levels():
    for text in CURVE_SUITE:
        f = parse_laurent(text)
        rep = curve.compare_filtrations(f, spectrum_rank(f))
        # image dim of each level in the ambient H^1 = dim H^1 of the level
        flags = [(lam, curve.cech_hypercohomology(curve.deligne_level(f, lam)).h1 == d)
                 for lam, d in zip(rep.jumps, rep.deligne_dims)]
        assert rep.deligne_injective and all(ok for _, ok in flags), (text, flags)
    _report(7, "classical curve levels inject into H^1")


def test_criterion_8_degeneracy_detection():
    f = parse_laurent("x^2 + 2*x*y + y^2", ("x", "y"))
    rep = is_nondegenerate(f)
    assert rep.verdict == "degenerate"
    assert rep.witness is not None
    system = build_face_system(f, rep.witness_face)
    assert all(g.evaluate(rep.witness) == 0 for g in system.laurent_generators)
    assert all(w != 0 for w in rep.witness)

    g = parse_laurent("x + y + x^-1*y^-1")
    certified = is_nondegenerate(g)
    assert certified.verdict == "nondegenerate" and certified.certified

    assert is_nondegenerate(g) == is_nondegenerate(g)
    _report(8, "degeneracy detection with verified witness")


def test_criterion_9_property_suites():
    # connection squares to zero on every built slice of the suite
    for text in SUITE:
        f = parse_laurent(text)
        for lam in jump_candidates(f):
            sl = build_filtration_level(f, lam)
            gr = build_graded_level(f, lam)
            for p in range(f.nvars - 1):
                assert not matmul(sl.mats[p + 1], sl.mats[p]).entries
                assert not matmul(gr.mats[p + 1], gr.mats[p]).entries

    # gauge homogeneity and membership consistency, >= 10^4 random points
    rng = random.Random(20260809)
    polys = [parse_laurent(t) for t in
             ("x + x^-1", "x^2 + x^-1", "x + y + x^-1*y^-1",
              "x + y + z + x^-1*y^-1*z^-1")]
    samples = 0
    for f in polys:
        P = newton_polytope(f)
        cs = [Q(1), Q(3, 2), Q(2)]
        members = {c: set(P.lattice_points_in_dilate(c)) for c in cs}
        for _ in range(2600):
            alpha = tuple(rng.randint(-4, 4) for _ in range(P.nvars))
            w = P.weight(alpha)
            k = rng.randint(0, 3)
            if w is not INFINITE_WEIGHT:
                assert P.weight(tuple(k * a for a in alpha)) == k * w
            elif k > 0:
                assert P.weight(tuple(k * a for a in alpha)) == INFINITE_WEIGHT
            for c in cs:
                assert (w <= c) == (alpha in members[c])
            samples += 1
    assert samples >= 10_000

    # filtration image dims are non-increasing across all jumps
    for text in SUITE:
        f = parse_laurent(text)
        from exphodge.derham import filtration_image_dim

        dims = [filtration_image_dim(f, lam, f.nvars) for lam in jump_candidates(f)]
        assert dims == sorted(dims, reverse=True)

    # cover truncation stability B vs B+5
    for text in CURVE_SUITE:
        f = parse_laurent(text)
        K = curve.divisor_twist_level(f, 0)
        base = curve.cech_hypercohomology(K)
        assert base.dims == curve.cech_hypercohomology(K, base.B + 5).dims

    # parser round-trip on >= 100 randomized polynomials
    done = 0
    while done < 120:
        n = rng.randint(1, 4)
        terms = {}
        for _ in range(rng.randint(1, 7)):
            alpha = tuple(rng.randint(-4, 4) for _ in range(n))
            num = rng.randint(-8, 8)
            if num:
                terms[alpha] = Q(num, rng.randint(1, 6))
        if not terms:
            continue
        f = make_laurent(n, terms)
        assert dict(parse_laurent(format_laurent(f), f.var_names).terms) == dict(f.terms)
        done += 1
    _report(9, "property suites")
