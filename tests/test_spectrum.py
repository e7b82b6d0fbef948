import random
from fractions import Fraction as Q

import pytest

from oracles import apply_matrix, random_unimodular

from exphodge.derham import betti_numbers
from exphodge.errors import NotFullDimensionalError
from exphodge.laurent import make_laurent, parse_laurent
from exphodge.nondegen import is_nondegenerate
from exphodge.polytope import newton_polytope
from exphodge.spectrum import (HodgeSpectrum, analyze, check_degeneration,
                               check_symmetry, jump_candidates, spectrum_euler,
                               spectrum_rank)

EXPECTED = {
    "x": [(Q(1), 1)],
    "x + x^-1": [(Q(0), 1), (Q(1), 1)],
    "x^2 + x^-1": [(Q(0), 1), (Q(1, 2), 1), (Q(1), 1)],
    "x + y": [(Q(2), 1)],
    "x + y + x^-1*y^-1": [(Q(0), 1), (Q(1), 1), (Q(2), 1)],
}


def test_jump_candidates_examples():
    assert jump_candidates(parse_laurent("x + x^-1")) == [Q(0), Q(1)]
    assert jump_candidates(parse_laurent("x")) == [Q(0), Q(1)]
    jumps = jump_candidates(parse_laurent("x^2 + x^-1"))
    assert set(jumps) >= {Q(0), Q(1, 2), Q(1)}
    assert all(Q(0) <= j <= Q(1) for j in jumps)


@pytest.mark.parametrize("text,expected", EXPECTED.items(), ids=lambda v: str(v)[:12])
def test_spectrum_euler(text, expected):
    if not isinstance(expected, list):
        pytest.skip("id entry")
    assert list(spectrum_euler(parse_laurent(text)).entries) == expected


@pytest.mark.parametrize("text,expected", EXPECTED.items(), ids=lambda v: str(v)[:12])
def test_spectrum_rank(text, expected):
    if not isinstance(expected, list):
        pytest.skip("id entry")
    assert list(spectrum_rank(parse_laurent(text)).entries) == expected


def test_spectrum_total_is_volume(suite_poly):
    from exphodge.polytope import newton_polytope

    spec = spectrum_rank(suite_poly)
    assert spec.total == newton_polytope(suite_poly).normalized_volume()


def test_sign_invariance(suite_poly):
    assert spectrum_euler(suite_poly).entries == spectrum_euler(-suite_poly).entries


def test_check_degeneration(suite_poly):
    res = check_degeneration(suite_poly, spectrum_euler(suite_poly), spectrum_rank(suite_poly))
    assert res.ok, res.detail


def _check_symmetry(text):
    f = parse_laurent(text)
    return check_symmetry(f, spectrum_rank(f))


def test_check_symmetry_statuses():
    assert _check_symmetry("x + x^-1").status == "pass"
    assert _check_symmetry("x^2 + x^-1").status == "pass"
    assert _check_symmetry("x + y + x^-1*y^-1").status == "pass"
    res = _check_symmetry("x")
    assert res.status == "not applicable"
    # informative negative control: the spectrum itself is asymmetric
    spec = spectrum_rank(parse_laurent("x"))
    assert spec.multiplicity(1) != spec.multiplicity(0)


def test_check_degeneration_fails_on_perturbed_rank_spectrum():
    f = parse_laurent("x + y + x^-1*y^-1")
    rank = spectrum_rank(f)
    perturbed = HodgeSpectrum(2, tuple((lam, m + (lam == 1)) for lam, m in rank.entries))
    res = check_degeneration(f, spectrum_euler(f), perturbed)
    assert res.status == "fail"
    # the graded slices still vanish below top degree: the spectra disagree
    assert all(b == 0 for below in res.detail["graded_cohomology_below_top"].values()
               for b in below)


def test_check_symmetry_fails_on_asymmetric_spectrum():
    f = parse_laurent("x + y + x^-1*y^-1")
    asymmetric = HodgeSpectrum(2, ((Q(0), 1), (Q(1), 1), (Q(2), 2)))
    res = check_symmetry(f, asymmetric)
    assert res.status == "fail"
    assert res.detail["symmetric"] is False


def test_spectrum_entries_validate():
    with pytest.raises(ValueError):
        HodgeSpectrum(1, ((Q(1), 1), (Q(0), 1)))
    with pytest.raises(ValueError):
        HodgeSpectrum(1, ((Q(0), 0),))


def test_analyze_full_report():
    rep = analyze(parse_laurent("x + x^-1"))
    assert rep.nvol == 2
    assert rep.betti == [0, 2]
    assert rep.spectra["euler"].entries == rep.spectra["rank"].entries
    assert rep.checks["degeneration"].ok
    assert rep.checks["symmetry"].ok
    assert rep.checks["curve_comparison"].ok
    assert rep.checks["curve_duality"].ok
    assert not rep.warnings
    doc = rep.to_json()
    assert doc["spectrum"]["rank"] == [{"lambda": "0", "mult": 1},
                                       {"lambda": "1", "mult": 1}]


def test_analyze_degenerate_is_flagged():
    # the edge zero of (x + y)^2 is rational; (x^2 - 2y^2)^2 has its edge
    # zeros over GF(7) only, and the exact basis proves its claim
    for text, certificate in [("x^2 + 2*x*y + y^2", "rational witness"),
                              ("x^4 - 4*x^2*y^2 + 4*y^4 + x^-1*y^-1", "exact basis")]:
        rep = analyze(parse_laurent(text))
        assert rep.nondegeneracy.verdict == "degenerate"
        assert rep.nondegeneracy.certificate == certificate
        assert "euler" not in rep.spectra
        assert "rank" in rep.spectra
        assert any("unsupported" in w for w in rep.warnings)
        assert not any("not certified" in w for w in rep.warnings)
        assert "degeneration" not in rep.checks


def test_analyze_rejects_subtorus():
    with pytest.raises(NotFullDimensionalError) as exc:
        analyze(parse_laurent("x*y"))
    assert "1" in str(exc.value) and "2" in str(exc.value)


@pytest.mark.parametrize("text,rank_calls", [
    ("x^3 + y^4 + x^-2*y^-1", 2),  # f, and -f in the symmetry check
    ("x^2 + x^-1", 2),             # the same: the curve comparison takes f's
])
def test_analyze_computes_each_spectrum_once(text, rank_calls, monkeypatch):
    from exphodge import curve, spectrum

    f = parse_laurent(text)
    jumps = jump_candidates(f)
    calls = dict.fromkeys(["spectrum_rank", "spectrum_euler", "build_graded_level"], 0)
    for name in calls:
        fn = getattr(spectrum, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in (spectrum, curve):  # counts a curve module that ranks f itself
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counting)
    rep = analyze(f)
    assert rep.checks and all(check.ok for check in rep.checks.values())
    assert calls == {"spectrum_rank": rank_calls, "spectrum_euler": 1,
                     "build_graded_level": len(jumps)}


DEGENERATE_WARNING = ("input is degenerate: the spectrum below is the raw filtration "
                      "rank output, unsupported by the degeneration theorem")
SUPPRESSED_WARNING = "combinatorial route suppressed for degenerate input"


@pytest.mark.parametrize("text,mode,spectra,checks,warnings", [
    ("x + y + x^-1*y^-1", "euler", ["euler"], ["degeneration", "symmetry"], []),
    ("x + y + x^-1*y^-1", "rank", ["rank"], ["degeneration", "symmetry"], []),
    ("x + y + x^-1*y^-1", "both", ["rank", "euler"], ["degeneration", "symmetry"], []),
    ("x^2 + 2*x*y + y^2 + x^-1*y^-1", "euler", [], [],
     [DEGENERATE_WARNING, SUPPRESSED_WARNING]),
    ("x^2 + 2*x*y + y^2 + x^-1*y^-1", "rank", ["rank"], [], [DEGENERATE_WARNING]),
    ("x^2 + 2*x*y + y^2 + x^-1*y^-1", "both", ["rank"], [],
     [DEGENERATE_WARNING, SUPPRESSED_WARNING]),
])
def test_analyze_modes(text, mode, spectra, checks, warnings):
    rep = analyze(parse_laurent(text), mode=mode)
    assert list(rep.spectra) == spectra
    assert list(rep.checks) == checks
    assert rep.warnings == warnings
    assert all(check.ok for check in rep.checks.values())


@pytest.mark.parametrize("mode", ["bogus", "", "Both", None])
def test_analyze_rejects_unknown_mode(mode):
    with pytest.raises(ValueError, match="mode"):
        analyze(parse_laurent("x + y + x^-1*y^-1"), mode=mode)


@pytest.mark.parametrize("text", ["3*x^3 + 5*y^4 - 7*x^-2*y^-1", "3*x^2 - 5*x^-1"])
def test_analyze_enumerates_the_dilate_once(text, monkeypatch):
    """The census, the jumps, the de Rham bases and the toric generators of
    f and -f all read the one weight table of the hull."""
    from exphodge.derham import build_filtration_level
    from exphodge.polytope import NewtonPolytope

    calls = []
    enumerate_dilate = NewtonPolytope.lattice_points_in_dilate
    monkeypatch.setattr(NewtonPolytope, "lattice_points_in_dilate",
                        lambda poly, c: calls.append(c) or enumerate_dilate(poly, c))
    build_filtration_level.cache_clear()
    f = parse_laurent(text)
    rep = analyze(f)
    assert rep.checks and all(check.ok for check in rep.checks.values())
    assert calls == [f.nvars]


# f and g in disjoint variables: the spectrum of f + g is the convolution of
# the two spectra, jumps adding and multiplicities multiplying
THOM_SEBASTIANI = [
    ("x^3 + x^-2", "y^2 + y^-3"),
    ("x^2 + x^-1", "y^2 + z^2 + y^-1*z^-1"),
    ("x^3 + x^-2", "y^2 + z^2 + y^-1*z^-1"),
    ("x + x^-1", "y + z + y^-1*z^-1"),
    ("x^2 + y^2 + x^-1*y^-1", "z^3 + z^-1"),
]


def _convolve(a: HodgeSpectrum, b: HodgeSpectrum) -> tuple:
    out = {}
    for la, ma in a.entries:
        for lb, mb in b.entries:
            out[la + lb] = out.get(la + lb, 0) + ma * mb
    return tuple(sorted(out.items()))


@pytest.mark.parametrize("left,right", THOM_SEBASTIANI,
                         ids=lambda t: t.replace(" ", ""))
def test_thom_sebastiani_convolution(left, right):
    f, g = parse_laurent(left), parse_laurent(right)
    h = parse_laurent(f"{left} + {right}")
    assert h.nvars == f.nvars + g.nvars
    assert spectrum_rank(h).entries == _convolve(spectrum_rank(f), spectrum_rank(g))
    assert spectrum_euler(h).entries == _convolve(spectrum_euler(f), spectrum_euler(g))


def test_routes_agree_beyond_the_suite():
    # richer examples, including dense fractional jumps and n = 3
    for text in ("x + y + z + x^-1*y^-1*z^-1",
                 "x^2*y + x*y^2 + x^-1*y^-1",
                 "x^3 + y^3 + x^-2*y^-2"):
        f = parse_laurent(text)
        assert spectrum_euler(f).entries == spectrum_rank(f).entries, text


def test_fractional_jump_regression():
    spec = spectrum_euler(parse_laurent("x^2*y + x*y^2 + x^-1*y^-1"))
    assert [(str(l), m) for l, m in spec.entries] == [
        ("0", 1), ("2/3", 1), ("1", 1), ("4/3", 1), ("2", 1)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_kloosterman_closed_form(n):
    # x1 + ... + xn + 1/(x1...xn): jumps 0..n, each of multiplicity 1
    terms = {tuple(int(i == k) for i in range(n)): 1 for k in range(n)}
    terms[(-1,) * n] = 1
    f = make_laurent(n, terms)
    expected = tuple((Q(k), 1) for k in range(n + 1))
    assert spectrum_euler(f).entries == expected
    assert spectrum_rank(f).entries == expected


def test_degenerate_rank_route_still_sums_to_volume():
    # no theorem backs the spectrum here, but the raw image dims are defined
    # and the level-0 dimension still equals the volume
    from exphodge.polytope import newton_polytope

    f = parse_laurent("x^2 - 2*x*y + y^2 + x^-1*y^-1")
    spec = spectrum_rank(f)
    assert spec.total == newton_polytope(f).normalized_volume() == 8


# (input, unimodular A): the exponent change alpha -> A alpha is a torus
# automorphism, so the volume, the verdict, the Betti numbers and both
# spectra must not move; off-axis images test the hull and the census
GL_N_Z = [
    ("x^4 + y^4 + x^-2*y^-2", ((1, 1), (0, 1))),
    ("x^3 + y^4 + x^-2*y^-1", ((2, 1), (1, 1))),
    ("x^2 + y^2 + z^2 + x^-1*y^-1*z^-1", ((1, 0, 1), (0, 1, 0), (0, 0, 1))),
    ("x^2 + 2*x*y + y^2 + x^-1*y^-1", ((1, -1), (0, 1))),
    ("x + y + z + x^-1*y^-1*z^-1", ((0, 1, 0), (1, 0, 0), (1, 1, 1))),
]


def _invariants(f):
    return (newton_polytope(f).normalized_volume(), is_nondegenerate(f).verdict,
            betti_numbers(f), spectrum_euler(f).entries, spectrum_rank(f).entries)


@pytest.mark.parametrize("text,A", GL_N_Z, ids=[t.replace(" ", "") for t, _ in GL_N_Z])
def test_gl_n_z_invariance(text, A):
    f = parse_laurent(text)
    g = make_laurent(f.nvars, {tuple(sum(r * a for r, a in zip(row, alpha)) for row in A): c
                               for alpha, c in f.terms.items()}, f.var_names)
    assert g.terms.keys() != f.terms.keys()
    assert _invariants(g) == _invariants(f)


@pytest.mark.parametrize("text", ["x^3 + y^4 + x^-2*y^-1", "x + y + z + x^-1*y^-1*z^-1"])
def test_spectra_invariant_under_seeded_gl_n_z(text):
    """Both spectra stay put under three seeded unimodular exponent maps."""
    f = parse_laurent(text)
    euler, rank = spectrum_euler(f).entries, spectrum_rank(f).entries
    assert euler == rank
    rng = random.Random(f.nvars)
    for _ in range(3):
        A = random_unimodular(rng, f.nvars)
        g = make_laurent(f.nvars, {apply_matrix(A, alpha): c for alpha, c in f.terms.items()},
                         f.var_names)
        assert g.terms.keys() != f.terms.keys()
        assert spectrum_euler(g).entries == euler
        assert spectrum_rank(g).entries == rank


def _random_support_poly(seed: int):
    """8 terms in [-3, 3]^2 with the origin interior, random integer
    coefficients: a generic support, unlike the simplices above."""
    rng = random.Random(seed)
    points = [(a, b) for a in range(-3, 4) for b in range(-3, 4) if (a, b) != (0, 0)]
    while True:
        support = rng.sample(points, 8)
        f = make_laurent(2, {a: rng.choice([-1, 1]) * rng.randint(1, 9) for a in support})
        if newton_polytope(f).contains_origin_interior():
            return f


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_random_generic_supports_both_routes(seed):
    f = _random_support_poly(seed)
    rep = analyze(f)
    assert rep.nondegeneracy.verdict == "nondegenerate" and rep.nondegeneracy.certified
    euler, rank = rep.spectra["euler"], rep.spectra["rank"]
    assert euler.entries == rank.entries
    assert rank.total == rep.nvol == newton_polytope(f).normalized_volume()
    assert all(rank.multiplicity(2 - lam) == m for lam, m in rank.entries)
    assert all(check.status == "pass" for check in rep.checks.values())
