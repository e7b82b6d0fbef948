import io
import os
import subprocess
import sys
import textwrap
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import ceil
from pathlib import Path

import pytest
from oracles import dense, fraction_weight, generic_support, matmul
from test_polytope import _weight_census
from test_spectrum import _random_support_poly

import exphodge
from exphodge.derham import (_block, _insertion_sign, betti_numbers, build_filtration_level,
                             build_graded_level, filtration_image_dim, graded_ranks,
                             top_image_profile)
from exphodge.errors import IntegrityError, NotFullDimensionalError
from exphodge.laurent import parse_laurent
from exphodge.linalg import PRIME, SparseRationalMatrix, exact_rank
from exphodge.polytope import NewtonPolytope, newton_polytope
from exphodge.spectrum import jump_candidates


def test_level0_of_x_plus_xinv():
    f = parse_laurent("x + x^-1")
    sl = build_filtration_level(f, 0)
    assert sl.dims() == (1, 3)
    assert [a for a, _ in sl.bases[1]] == [(-1,), (0,), (1,)]
    assert dense(sl.mats[0]) == [[-1], [0], [1]]


def test_level1_truncates_degree_zero():
    f = parse_laurent("x + x^-1")
    sl = build_filtration_level(f, 1)
    assert sl.dims() == (0, 1)
    assert sl.bases[1][0][0] == (0,)


def test_level0_of_x():
    sl = build_filtration_level(parse_laurent("x"), 0)
    assert [a for a, _ in sl.bases[1]] == [(0,), (1,)]
    assert dense(sl.mats[0]) == [[0], [1]]


def test_graded_level_examples():
    f = parse_laurent("x + x^-1")
    g0 = build_graded_level(f, 0)
    assert g0.dims() == (1, 2)
    assert dense(g0.mats[0]) == [[-1], [1]]
    g1 = build_graded_level(f, 1)
    assert g1.dims() == (0, 1)
    g_half = build_graded_level(parse_laurent("x^2 + x^-1"), Fraction(1, 2))
    assert g_half.dims() == (0, 1)
    assert g_half.bases[1][0][0] == (1,)
    # a graded piece at 0 is no level-0 slice: it has no profile, and its
    # ranks come from its own passes
    assert g0.graded and g0.cohomology() == [0, 1]
    with pytest.raises(ValueError, match="not graded piece 0"):
        g0.top_profile()


def test_level_rejects_above_top_degree():
    with pytest.raises(ValueError, match="top degree"):
        build_filtration_level(parse_laurent("x"), 2)


def test_level_rejects_negative_levels():
    f = parse_laurent("x + x^-1")
    for build in (build_filtration_level, build_graded_level):
        with pytest.raises(ValueError, match="outside"):
            build(f, Fraction(-1, 2))


def test_level_rejects_low_dimensional():
    with pytest.raises(NotFullDimensionalError):
        build_filtration_level(parse_laurent("x*y"), 0)


def test_differential_squares_to_zero(suite_poly):
    for lam in jump_candidates(suite_poly):
        sl = build_filtration_level(suite_poly, lam)
        for p in range(suite_poly.nvars - 1):
            assert not matmul(sl.mats[p + 1], sl.mats[p]).entries
        gr = build_graded_level(suite_poly, lam)
        for p in range(suite_poly.nvars - 1):
            assert not matmul(gr.mats[p + 1], gr.mats[p]).entries


def test_basis_count_identity(suite_poly):
    from math import ceil, comb

    poly = newton_polytope(suite_poly)
    n = suite_poly.nvars
    census = _weight_census(poly, n)
    for lam in jump_candidates(suite_poly):
        sl = build_filtration_level(suite_poly, lam)
        for p in range(n + 1):
            if p < ceil(lam):
                assert len(sl.bases[p]) == 0
                continue
            count = sum(m for w, m in census.items() if w <= Fraction(p) - lam)
            assert len(sl.bases[p]) == comb(n, p) * count


def test_level_bases_nest(suite_poly):
    jumps = jump_candidates(suite_poly)
    for low, high in zip(jumps, jumps[1:]):
        a = build_filtration_level(suite_poly, low)
        b = build_filtration_level(suite_poly, high)
        for p in range(suite_poly.nvars + 1):
            assert set(b.bases[p]) <= set(a.bases[p])


def test_betti_suite():
    assert betti_numbers(parse_laurent("x + x^-1")) == [0, 2]
    assert betti_numbers(parse_laurent("x")) == [0, 1]
    assert betti_numbers(parse_laurent("x + y + x^-1*y^-1")) == [0, 0, 3]
    assert betti_numbers(parse_laurent("x + y")) == [0, 0, 1]


def test_euler_characteristic_is_signed_volume(suite_poly):
    b = betti_numbers(suite_poly)
    n = suite_poly.nvars
    chi = sum((-1) ** i * d for i, d in enumerate(b))
    nvol = newton_polytope(suite_poly).normalized_volume()
    assert chi == (-1) ** n * nvol


def test_image_dim_examples():
    f = parse_laurent("x + x^-1")
    assert filtration_image_dim(f, 1, 1) == 1
    assert filtration_image_dim(f, 0, 1) == 2
    assert filtration_image_dim(parse_laurent("x"), 1, 1) == 1


def test_image_dim_monotone(suite_poly):
    n = suite_poly.nvars
    jumps = jump_candidates(suite_poly)
    dims = [filtration_image_dim(suite_poly, lam, n) for lam in jumps]
    assert dims == sorted(dims, reverse=True)
    assert dims[0] == betti_numbers(suite_poly)[n]


def test_image_dim_below_top_degree_vanishes(suite_poly):
    # concentration: for the nondegenerate suite nothing lives below degree n
    n = suite_poly.nvars
    for i in range(n):
        assert filtration_image_dim(suite_poly, 0, i) == 0


# the suite, two degenerate inputs, an n = 3 simplex and the n = 4 Kloosterman
# input; the one-pass profile must equal the per-level reference exactly
PROFILE_INPUTS = ["x", "x + x^-1", "x^2 + x^-1", "x + y", "x + y + x^-1*y^-1",
                  "x^2 + 2*x*y + y^2 + x^-1*y^-1",
                  "x^4 - 4*x^2*y^2 + 4*y^4 + x^-1*y^-1",
                  "x^3 + y^3 + z^3 + x^-2*y^-2*z^-2",
                  "x + y + z + w + x^-1*y^-1*z^-1*w^-1"]


@pytest.mark.parametrize("text", PROFILE_INPUTS, ids=lambda t: t.replace(" ", ""))
def test_top_image_profile_matches_reference(text):
    f = parse_laurent(text)
    jumps = jump_candidates(f)
    expected = [filtration_image_dim(f, lam, f.nvars) for lam in jumps]
    assert top_image_profile(f, jumps) == expected


def test_top_image_profile_any_level_order():
    f = parse_laurent("x^2 + x^-1")
    levels = [1, Fraction(1, 2), 0, 1]
    assert top_image_profile(f, levels) == [filtration_image_dim(f, lam, 1) for lam in levels]
    assert top_image_profile(f, []) == []


def test_top_image_profile_on_a_subset_and_off_the_jumps(monkeypatch):
    # the profile runs at every jump candidate, not at the levels asked, and
    # a level that is no jump reads the least jump above it: on a strict
    # subset of the jumps and off the jumps the sandwich still closes, with no
    # pass over Q, on the exact value
    from exphodge import derham

    f = parse_laurent("x^3 + y^4 + x^-2*y^-1")
    jumps = jump_candidates(f)
    between, early = (jumps[1] + jumps[2]) / 2, jumps[1] / 2
    assert between not in jumps and early not in jumps
    exact_profiles, prefix_ranks = [], derham.prefix_ranks

    def recording(rows, cuts, modular):
        exact_profiles.extend([] if modular else [rows])
        return prefix_ranks(rows, cuts, modular)
    monkeypatch.setattr(derham, "prefix_ranks", recording)
    for levels in [jumps[1::2], jumps[-2:-1], [between], [jumps[0], between], [early]]:
        build_filtration_level.cache_clear()
        assert top_image_profile(f, levels) == [
            filtration_image_dim(f, lam, 2) for lam in levels], levels
    assert not exact_profiles


def test_top_image_profile_rejects_levels_outside_range():
    f = parse_laurent("x + x^-1")
    with pytest.raises(ValueError):
        top_image_profile(f, [2])
    with pytest.raises(ValueError):
        top_image_profile(f, [Fraction(-1, 2)])


# The per-level construction that the weight blocks replaced, kept as their
# oracle: every level enumerates its own dilate, filtered to exact weight for
# a graded piece, and assembles its own differential, keeping only the
# weight-raising part for a graded piece.

def _oracle_bases(poly, lam, n, exact_weight):
    bases = []
    for p in range(n + 1):
        cap = Fraction(p) - lam
        if p < ceil(lam) or cap < 0:
            bases.append(())
            continue
        points = poly.lattice_points_in_dilate(cap)
        if exact_weight:
            points = [a for a in points if fraction_weight(poly, a) == cap]
        index_sets = list(combinations(range(n), p))
        bases.append(tuple((a, I) for a in points for I in index_sets))
    return tuple(bases)


def _oracle_differential(f, bases, p, graded):
    n = f.nvars
    index = {form: i for i, form in enumerate(bases[p + 1])}
    entries = {}

    def add(row_form, col, value):
        row = index.get(row_form)
        if row is None:
            assert graded or value == 0, f"image form {row_form} missing from basis"
            return
        s = entries.get((row, col), Fraction(0)) + value
        if s == 0:
            entries.pop((row, col), None)
        else:
            entries[(row, col)] = s

    for col, (alpha, I) in enumerate(bases[p]):
        for i in range(n):
            sign, merged = _insertion_sign(i, I)
            if sign == 0:
                continue
            if not graded and alpha[i] != 0:
                add((alpha, merged), col, Fraction(sign * alpha[i]))
            for beta, c in f.terms.items():
                if beta[i] != 0:
                    add((tuple(a + b for a, b in zip(alpha, beta)), merged), col,
                        sign * beta[i] * c)
    return SparseRationalMatrix(len(bases[p + 1]), len(bases[p]), entries)


def _assert_blocks_match_oracle(f):
    poly, n = newton_polytope(f), f.nvars
    jumps = jump_candidates(f)
    assert jumps[-1] == n
    # off the jumps too: at a midpoint (p - lam) D need not be an integer
    for lam in jumps + [(a + b) / 2 for a, b in zip(jumps, jumps[1:])]:
        for block, graded in ((build_filtration_level(f, lam), False),
                              (build_graded_level(f, lam), True)):
            bases = _oracle_bases(poly, lam, n, exact_weight=graded)
            mats = [_oracle_differential(f, bases, p, graded) for p in range(n)]
            assert block.level == lam
            assert block.bases == bases, (lam, graded)
            D = poly.weight_denominator
            assert tuple(tuple(Fraction(k, D) for k in ks) for ks in block.weights) \
                == tuple(tuple(fraction_weight(poly, a) for a, _ in b) for b in bases)
            assert [(m.nrows, m.ncols) for m in block.mats] == [(m.nrows, m.ncols) for m in mats]
            assert [m.entries for m in block.mats] == [m.entries for m in mats], (lam, graded)


INTEGER_TABLE_INPUTS = ["x^2 + x^-1", "x^3 + y^4 + x^-2*y^-1", "x^2*y + x*y^2 + x^-1*y^-1",
                        "2/3*x^2 + y^2 - 5/7*z^2 + x^-1*y^-1*z^-1"]


@pytest.mark.parametrize("text", INTEGER_TABLE_INPUTS, ids=lambda t: t.replace(" ", ""))
def test_jumps_slice_weights_and_graded_keys_are_integers(text):
    f = parse_laurent(text)
    poly = newton_polytope(f)
    D = poly.weight_denominator
    assert D > 1
    slice0 = build_filtration_level(f, 0)
    assert all(type(j) is int for j in poly.jumps)
    assert all(type(k) is int for ks in slice0.weights for k in ks)
    assert all(type(k) is int for ks in build_filtration_level(f, 1).weights for k in ks)
    table = graded_ranks(slice0)
    assert list(table) == list(poly.jumps) and all(type(j) is int for j in table)
    assert jump_candidates(f) == [Fraction(j, D) for j in poly.jumps]


@pytest.mark.parametrize("text", INTEGER_TABLE_INPUTS, ids=lambda t: t.replace(" ", ""))
def test_off_jump_levels_match_fraction_oracle(text):
    # at lam = (j + 1/2) / D no weight equals p - lam, so a level keeps the
    # numerators k <= floor((p - lam) D) and a graded piece keeps nothing; the
    # bases are the Fraction oracle's, and the profile the per-level one
    f = parse_laurent(text)
    poly, n = newton_polytope(f), f.nvars
    D = poly.weight_denominator
    levels = [Fraction(2 * j + 1, 2 * D) for j in range(n * D)]
    for lam in levels:
        block = build_filtration_level(f, lam)
        assert block.bases == _oracle_bases(poly, lam, n, exact_weight=False), lam
        assert [[Fraction(k, D) for k in ks] for ks in block.weights] \
            == [[fraction_weight(poly, a) for a, _ in b] for b in block.bases]
        assert build_graded_level(f, lam).dims() == (0,) * (n + 1)
    assert top_image_profile(f, levels) == [filtration_image_dim(f, lam, n) for lam in levels]


def test_blocks_match_per_level_construction(suite_poly):
    _assert_blocks_match_oracle(suite_poly)


@pytest.mark.parametrize("make", [
    lambda: parse_laurent("x^3 + y^3 + z^3 + x^-2*y^-2*z^-2"),
    lambda: _random_support_poly(1),
    lambda: _random_support_poly(2),
    lambda: _random_support_poly(3),
    lambda: _random_support_poly(2, nvars=3),
], ids=["n3-simplex", "generic-1", "generic-2", "generic-3", "generic-n3"])
def test_blocks_match_per_level_construction_off_suite(make):
    _assert_blocks_match_oracle(make())


def test_blocks_enumerate_no_lattice_points(monkeypatch):
    f = parse_laurent("x^3 + y^3 + x^-2*y^-1 + 2*x^-1*y^-2")
    jumps = jump_candidates(f)
    build_filtration_level(f, 0)
    calls = []
    enumerate_dilate = NewtonPolytope.lattice_points_in_dilate
    monkeypatch.setattr(NewtonPolytope, "lattice_points_in_dilate",
                        lambda poly, c: calls.append(c) or enumerate_dilate(poly, c))
    for lam in jumps:
        build_filtration_level(f, lam)
        build_graded_level(f, lam)
    top_image_profile(f, jumps)
    betti_numbers(f)
    assert calls == []


def test_block_check_catches_d_leaving_the_level():
    # give the image x dlog x of the degree-0 form weight 2: d then leaves
    # level 0 (weight above 0 + 1), and the one pass over the level-0 entries
    # that both the level block and the graded block start from raises; the
    # copy made by replace starts with no buckets of the good slice
    slice0 = build_filtration_level(parse_laurent("x + x^-1"), 0)
    assert slice0.bases[1][2] == ((1,), (0,)) and slice0.mats[0].entries[(2, 0)] == 1
    assert _block(slice0, Fraction(0), True).bases[1] == (((-1,), (0,)), ((1,), (0,)))
    D = newton_polytope(slice0.f).weight_denominator
    assert [Fraction(k, D) for k in slice0.weights[1]] == [1, 0, 1]
    bad = replace(slice0, weights=(slice0.weights[0], (D, 0, 2 * D)))
    for graded in (False, True):
        with pytest.raises(IntegrityError, match="maps level 0 to"):
            _block(bad, Fraction(0), graded)


def _assert_negated_matches_fresh_build(f):
    slice0 = build_filtration_level(f, 0)
    before = [dict(m.entries) for m in slice0.mats]
    flipped = slice0.negated()
    fresh = build_filtration_level.__wrapped__(-f, 0)  # _differential run on -f itself
    assert flipped.f == fresh.f == -f and flipped.level == fresh.level == 0
    assert flipped.bases == fresh.bases and flipped.weights == fresh.weights
    assert [(m.nrows, m.ncols) for m in flipped.mats] == [(m.nrows, m.ncols) for m in fresh.mats]
    assert [m.entries for m in flipped.mats] == [m.entries for m in fresh.mats]
    # both are written by one loop from -f's coefficients; the residues of the
    # flip are the ones that the GF(PRIME) passes read
    assert [_reduced(m.residues) for m in flipped.mats] == [_reduced(m.residues) for m in fresh.mats]
    # the flip leaves f's slice alone, starts with no ranks of its own, and
    # carries f's buckets and graded table: the ones the flipped slice
    # computes for itself
    assert [m.entries for m in slice0.mats] == before
    carried = dict(flipped._memo)
    assert set(carried) == {"buckets", "graded"}
    flipped._memo.clear()
    assert graded_ranks(flipped) == carried["graded"]
    assert flipped._memo["buckets"] == carried["buckets"]
    # every graded entry raises weight, so it is a df entry: -f's graded
    # blocks are entrywise the negatives of f's, and f's ranks bound both
    for lam in jump_candidates(f):
        ours, theirs = _block(slice0, lam, True), _block(flipped, lam, True)
        assert ours.bases == theirs.bases
        assert [{k: -v for k, v in m.entries.items()} for m in ours.mats] \
            == [m.entries for m in theirs.mats]


def _reduced(residues):
    """Residues as elements of GF(PRIME), each mark (an entry with no
    residue) kept as it is."""
    return {key: v % PRIME if type(v) is int else v for key, v in residues.items()}


def test_negated_slice_matches_fresh_build(suite_poly):
    _assert_negated_matches_fresh_build(suite_poly)


@pytest.mark.parametrize("make", [
    lambda: _random_support_poly(1),
    lambda: _random_support_poly(2),
    lambda: _random_support_poly(3),
    lambda: _random_support_poly(2, nvars=3),
    lambda: parse_laurent("2/3*x^2 + y^2 - 5/7*z^2 + x^-1*y^-1*z^-1"),
], ids=["generic-1", "generic-2", "generic-3", "generic-n3", "n3-rational"])
def test_negated_slice_matches_fresh_build_off_suite(make):
    _assert_negated_matches_fresh_build(make())


# the inputs whose denominators or coefficients PRIME divides, as in CI
PRIME_INPUTS = ["x + 1/2147483647*x^-1", "x + y + 1/2147483647*x^-1*y^-1",
                "x + y + z + 1/2147483647*x^-1*y^-1*z^-1", "x + y + 2147483647*x^-1*y^-1"]


def _assert_residues_reduce_the_exact_entries(f):
    # on the same keys, every residue is its exact entry mod PRIME, and the
    # mark (the exact entry itself, whose row the GF(PRIME) passes leave
    # out) stands exactly where PRIME divides the denominator
    slice0 = build_filtration_level.__wrapped__(f, 0)
    for sl in (slice0, slice0.negated()):
        for m in sl.mats:
            assert m.residues.keys() == m.entries.keys()
            for key, v in m.residues.items():
                exact = Fraction(m.entries[key])
                if exact.denominator % PRIME:
                    assert type(v) is int, (sl.f, key)
                    assert v % PRIME == exact.numerator * pow(exact.denominator, -1, PRIME) % PRIME
                else:
                    assert v == exact and type(v) is not int, (sl.f, key)


def test_residues_reduce_the_exact_entries(suite_poly):
    _assert_residues_reduce_the_exact_entries(suite_poly)


@pytest.mark.parametrize("make", [lambda text=text: parse_laurent(text) for text in PRIME_INPUTS]
                         + [lambda: generic_support(1, 10, 3, 2)],
                         ids=[t.replace(" ", "") for t in PRIME_INPUTS] + ["generic-n3"])
def test_residues_reduce_the_exact_entries_off_suite(make):
    f = make()
    _assert_residues_reduce_the_exact_entries(f)
    marks = [v for m in build_filtration_level.__wrapped__(f, 0).mats
             for v in m.residues.values() if type(v) is not int]
    assert bool(marks) == any(c.denominator % PRIME == 0 for c in f.terms.values())


def _exact_matrices_built(text, monkeypatch):
    """Whether each level-0 differential of f, and of -f, holds its exact
    entries after ``analyze`` on a fresh cache."""
    from exphodge import derham
    from exphodge.spectrum import analyze

    flipped, negate = [], derham.ComplexSlice.negated
    monkeypatch.setattr(derham.ComplexSlice, "negated",
                        lambda self: flipped.append(negate(self)) or flipped[-1])
    f = parse_laurent(text)
    build_filtration_level.cache_clear()
    analyze(f)
    return [["entries" in vars(m) for m in sl.mats]
            for sl in [build_filtration_level(f, 0)] + flipped]


@pytest.mark.parametrize("text", ["x^2 + x^-1", "x^3 + y^4 + x^-2*y^-1",
                                  "2/3*x^2 + y^2 - 5/7*z^2 + x^-1*y^-1*z^-1",
                                  "x + y + 2147483647*x^-1*y^-1"])
def test_certified_input_builds_no_exact_matrix(text, monkeypatch):
    assert _exact_matrices_built(text, monkeypatch) == [[False] * parse_laurent(text).nvars] * 2


def test_prime_denominator_builds_only_the_exact_matrices_it_reads(monkeypatch):
    # f's d_0 and d_1 are ranked exactly for the Betti numbers and its B by
    # the exact profile; -f's exact profile reads its B, and nothing else of
    # -f is read over Q
    text = "x + y + z + 1/2147483647*x^-1*y^-1*z^-1"
    assert _exact_matrices_built(text, monkeypatch) == [[True, True, True], [False, False, True]]


@pytest.mark.parametrize("betti_first", [True, False], ids=["betti-first", "profile-first"])
def test_top_differential_is_reduced_once_in_either_order(betti_first, monkeypatch):
    # the Betti numbers take r'(B) from the profile's GF(PRIME) pass, which
    # the slice makes once, whichever asks first
    from exphodge import derham
    from exphodge.spectrum import spectrum_rank

    f = parse_laurent("x^3 + y^3 + z^3 + x^-2*y^-2*z^-2")
    build_filtration_level.cache_clear()
    top = build_filtration_level(f, 0).mats[2]
    b_rows = sorted(sorted(row.items()) for row in top.residue_rows())
    passes, prefix_ranks = [], derham.prefix_ranks

    def recording(rows, cuts, modular):
        passes.append(modular and sorted(sorted(row.items()) for row in rows) == b_rows)
        return prefix_ranks(rows, cuts, modular)
    monkeypatch.setattr(derham, "prefix_ranks", recording)
    steps = [betti_numbers, spectrum_rank]
    for step in steps if betti_first else reversed(steps):
        step(f)
    assert passes.count(True) == 1 and len(passes) > 1
    assert betti_numbers(f) == [0, 0, 0, 81]


def test_profile_passes_are_made_once_per_slice(monkeypatch):
    # a degenerate input falls back to the pass over Q; a second profile of
    # the slice reads both passes from it and reduces nothing
    from exphodge import derham

    build_filtration_level.cache_clear()
    slice0 = build_filtration_level(parse_laurent("x^4 - 4*x^2*y^2 + 4*y^4 + x^-1*y^-1"), 0)
    first = slice0.top_profile()
    assert {"profile", "exact profile"} <= set(slice0._memo)
    passes = []
    monkeypatch.setattr(derham, "prefix_ranks", lambda *args: passes.append(args))
    assert slice0.top_profile() == first and passes == []


@pytest.mark.parametrize("text", ["x^2 + x^-1", "x + y + x^-1*y^-1",
                                  "2/3*x^2 + y^2 - 5/7*z^2 + x^-1*y^-1*z^-1"])
def test_analyze_reads_one_cached_slice(text):
    # one analyze reads its level-0 slice 4 times and keeps no other entry;
    # the bound leaves room for the level-by-level tests
    from exphodge.spectrum import analyze

    build_filtration_level.cache_clear()
    analyze(parse_laurent(text))
    info = build_filtration_level.cache_info()
    assert (info.hits, info.misses, info.currsize, info.maxsize) == (3, 1, 1, 16)


def test_differential_writes_each_entry_once():
    # f with a constant term: every entry is one term, the d term when the
    # row exponent is the column's, else the df term of their difference beta
    f = parse_laurent("x^2*y + x*y^-1 + x^-2 + 3")
    slice0 = build_filtration_level.__wrapped__(f, 0)
    _assert_blocks_match_oracle(f)
    for p, m in enumerate(slice0.mats):
        source, target = slice0.bases[p], slice0.bases[p + 1]
        for (r, c), v in m.entries.items():
            (alpha, I), (gamma, J) = source[c], target[r]
            (i,) = set(J) - set(I)
            sign, _ = _insertion_sign(i, I)
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            expected = alpha[i] if gamma == alpha else beta[i] * f.terms[beta]
            assert v == sign * expected


def test_rank_route_leaves_rank_of_top_differential_on_the_slice(monkeypatch):
    # the profile's pass takes every row of d_{n-1}.  Over GF(PRIME) it proves
    # every level-0 rank by saturation, so the Betti numbers eliminate
    # nothing; when PRIME divides a denominator the exact echelon records
    # rank d_{n-1}, and the Betti numbers eliminate only the lower differentials
    from exphodge import derham

    ranked = []
    monkeypatch.setattr(derham, "exact_rank", lambda m: ranked.append(m) or exact_rank(m))
    for text, betti, exact in [
            ("x^3 + y^3 + z^3 + x^-2*y^-2*z^-2", [0, 0, 0, 81], False),
            ("x + y + z + 1/2147483647*x^-1*y^-1*z^-1", [0, 0, 0, 4], True)]:
        f = parse_laurent(text)
        build_filtration_level.cache_clear()
        slice0 = build_filtration_level(f, 0)
        top_image_profile(f, jump_candidates(f))
        assert set(slice0._memo["ranks"]) == ({2} if exact else {0, 1, 2})
        ranked.clear()
        assert betti_numbers(f) == betti
        assert ranked == ([slice0.mats[0], slice0.mats[1]] if exact else [])
        assert all(slice0._memo["ranks"][p] == exact_rank(m) for p, m in enumerate(slice0.mats))
        # a copy made by replace starts with no memo
        assert not replace(slice0, level=Fraction(0))._memo


@pytest.mark.parametrize("make,exact", [
    (lambda: parse_laurent("x^3 + y^3 + z^3 + x^-2*y^-2*z^-2"), False),
    (lambda: generic_support(2, 10, 3, 2), False),
    (lambda: parse_laurent("x + y + z + 1/2147483647*x^-1*y^-1*z^-1"), True),
], ids=["n3-nvol81", "generic-n3-nvol108", "prime-denominator"])
def test_betti_numbers_alone_are_proven_by_saturation(make, exact, monkeypatch):
    # with no rank route before them, the Betti numbers take the GF(PRIME)
    # ranks of the level-0 differentials, which saturation proves; when PRIME
    # divides a denominator every differential is eliminated exactly
    from exphodge import derham

    f = make()
    ranked = []
    monkeypatch.setattr(derham, "exact_rank", lambda m: ranked.append(m) or exact_rank(m))
    build_filtration_level.cache_clear()
    betti = betti_numbers(f)
    slice0 = build_filtration_level(f, 0)
    assert ranked == (list(slice0.mats) if exact else [])
    ranks = [0] + [exact_rank(m) for m in slice0.mats] + [0]
    assert betti == [d - ranks[p] - ranks[p + 1] for p, d in enumerate(slice0.dims())]


def test_graded_blocks_read_one_bucketing_per_slice(suite_poly):
    slice0 = build_filtration_level(suite_poly, 0)
    blocks = [build_graded_level(suite_poly, lam) for lam in jump_candidates(suite_poly)]
    buckets = slice0._memo["buckets"]
    assert [build_graded_level(suite_poly, lam).bases for lam in jump_candidates(suite_poly)] \
        == [b.bases for b in blocks]
    assert slice0._memo["buckets"] is buckets
    # every level-0 entry is a graded entry of exactly one level, or keeps weight
    raised = sum(len(v) for bucket in buckets for v in bucket.values())
    assert raised == sum(m.nnz for b in blocks for m in b.mats)


def test_differential_refuses_two_terms_in_one_entry(monkeypatch):
    # send every insertion into dlog x: the x^-1*y^-1 term under i = 0 and
    # under i = 1 then lands on one entry, which the write count catches
    from exphodge import derham

    f = parse_laurent("x + y + x^-1*y^-1")
    bases = build_filtration_level(f, 0).bases
    monkeypatch.setattr(derham, "_insertion_sign", lambda i, index_set: (1, (0,)))
    with pytest.raises(IntegrityError, match="two terms of d met in one entry"):
        derham._differential(f, bases, 0)


def test_differential_refuses_two_terms_in_one_entry_under_optimization():
    # the same corrupted write in a fresh interpreter under python -O, which
    # strips assert statements: the check still raises
    code = textwrap.dedent("""
        from exphodge import derham
        from exphodge.errors import IntegrityError
        from exphodge.laurent import parse_laurent
        f = parse_laurent("x + y + x^-1*y^-1")
        bases = derham.build_filtration_level(f, 0).bases
        derham._insertion_sign = lambda i, index_set: (1, (0,))
        try:
            print(len(derham._differential(f, bases, 0).residues))
        except IntegrityError as exc:
            print(type(exc).__name__, exc)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(exphodge.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "IntegrityError two terms of d met in one entry"


def test_negative_cohomology_raises(monkeypatch):
    # five d-part entries of B = d_{n-1}, spread over them, multiplied by 3:
    # d o d = 0 breaks, and the ranks give H^2 = -2, which the slice refuses
    # and on which the CLI exits 5
    from exphodge import derham
    from exphodge.cli import run
    from exphodge.errors import IntegrityError

    differential = derham._differential

    def corrupted(f, bases, p):
        m = differential(f, bases, p)
        if p < f.nvars - 1:
            return m
        source, target = bases[p], bases[p + 1]
        d_part = [key for key in m.entries if target[key[0]][0] == source[key[1]][0]]
        chosen = set(d_part[::len(d_part) // 5][:5])
        return SparseRationalMatrix(m.nrows, m.ncols, {
            key: 3 * v if key in chosen else v for key, v in m.entries.items()})
    text = "x^3+y^3+z^3+x^-2*y^-2*z^-2"
    monkeypatch.setattr(derham, "_differential", corrupted)
    try:
        build_filtration_level.cache_clear()
        with pytest.raises(IntegrityError, match=r"negative cohomology dimension \[0, 0, -2, 79\]"):
            betti_numbers(parse_laurent(text))
        build_filtration_level.cache_clear()
        err = io.StringIO()
        assert run(["betti", text], io.StringIO(), err) == 5
        assert "negative cohomology" in err.getvalue()
    finally:
        build_filtration_level.cache_clear()  # no corrupted slice outlives the test
