import random
from collections import Counter
from fractions import Fraction as Q

import pytest

from oracles import apply_matrix, generic_support, random_unimodular

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
    # a jump whose mirror 2 - 1/2 is missing
    unmatched = HodgeSpectrum(2, ((Q(0), 1), (Q(1, 2), 1), (Q(2), 1)))
    assert check_symmetry(f, unmatched).detail["symmetric"] is False


def test_spectrum_entries_validate():
    with pytest.raises(ValueError):
        HodgeSpectrum(1, ((Q(1), 1), (Q(0), 1)))
    with pytest.raises(ValueError):
        HodgeSpectrum(1, ((Q(0), 0),))
    with pytest.raises(ValueError):
        HodgeSpectrum(1, ((Q(1, 2), 1), (Q(1, 2), 2)))
    spec = HodgeSpectrum(2, ((Q(0), 1), (Q(2, 3), 2), (Q(2), 1)))
    assert [spec.multiplicity(l) for l in (0, Q(2, 3), "2/3", 1, 2, 3)] == [1, 2, 2, 0, 1, 0]


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


def test_analyze_warns_when_nondegeneracy_is_undecided(monkeypatch):
    # a face check over budget leaves the verdict undecided; the degenerate
    # input still gets both spectra and passing checks, and the warning says
    # that the degeneration theorem's hypothesis is unproven
    from exphodge import nondegen

    monkeypatch.setattr(nondegen, "_check_face_exact", lambda f, face: "budget exceeded")
    rep = analyze(parse_laurent("x^2 - 2*x*y + y^2 + x^-1*y^-1"))
    assert rep.nondegeneracy.verdict == "undecided"
    assert list(rep.spectra) == ["rank", "euler"]
    assert rep.warnings == [
        "nondegeneracy not certified: a face check exceeded its budget, so the "
        "degeneration theorem's hypothesis is unproven for the spectra and checks below"]


def test_analyze_rejects_subtorus():
    with pytest.raises(NotFullDimensionalError) as exc:
        analyze(parse_laurent("x*y"))
    assert "1" in str(exc.value) and "2" in str(exc.value)


# PRIME = 2^31 - 1 divides a coefficient's denominator: the GF(PRIME) ranks
# leave out every row that holds it, and what they cannot prove is exact
PRIME_DENOMINATOR = "x + y + 1/2147483647*x^-1*y^-1"


@pytest.mark.parametrize("text,rank_calls", [
    ("x^3 + y^4 + x^-2*y^-1", 2),  # f, and -f in the symmetry check
    ("x^2 + x^-1", 2),             # the same: the curve comparison takes f's
    (PRIME_DENOMINATOR, 2),        # the same, on the exact path for most ranks
], ids=["x^3 + y^4 + x^-2*y^-1-2", "x^2 + x^-1-2", "prime-denominator"])
def test_analyze_computes_each_spectrum_once(text, rank_calls, monkeypatch):
    """f and -f are each ranked once, by the top profile of a level-0 slice;
    only f's slice is assembled (n differentials), -f's is its sign flip.

    Certified input: each level-0 differential is eliminated once over
    GF(PRIME) per sign (d_{n-1} by the profile), the graded blocks of each
    degree in one pass for both signs, and nothing exactly.  When PRIME
    divides a denominator the same GF(PRIME) passes run, the exact path
    after them: the Betti numbers read rank(d_{n-1}) from the exact
    profile's pass, and every graded block whose GF(PRIME) ranks do not
    saturate it is built and ranked exactly."""
    from exphodge import curve, derham, spectrum

    f = parse_laurent(text)
    n, jumps = f.nvars, jump_candidates(f)
    certified = text != PRIME_DENOMINATOR
    calls = dict.fromkeys(["spectrum_euler", "_block", "_differential"], 0)
    for name in calls:
        module = spectrum if name == "spectrum_euler" else derham
        fn = getattr(module, name)

        def counting(*args, _fn=fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for owner in (module, curve):  # counts a curve module that ranks f itself
            if getattr(owner, name, None) is fn:
                monkeypatch.setattr(owner, name, counting)
    ranked, negated, eliminated, passes = Counter(), [], [], Counter()
    profile, negate = derham.ComplexSlice.top_profile, derham.ComplexSlice.negated

    def counting_profile(self):
        ranked[self.f] += 1
        return profile(self)

    def recording_negate(self):
        negated.append(negate(self))
        return negated[-1]

    def recording_rank(m, _rank=derham.exact_rank):
        eliminated.append(m)
        return _rank(m)

    def counting_prefix(rows, cuts, modular, _ranks=derham.prefix_ranks):
        passes["modular prefix" if modular else "exact prefix"] += 1
        return _ranks(rows, cuts, modular)
    monkeypatch.setattr(derham.ComplexSlice, "top_profile", counting_profile)
    monkeypatch.setattr(derham.ComplexSlice, "negated", recording_negate)
    monkeypatch.setattr(derham, "exact_rank", recording_rank)
    monkeypatch.setattr(derham, "prefix_ranks", counting_prefix)
    derham.build_filtration_level.cache_clear()
    rep = analyze(f)
    assert rep.checks and all(check.ok for check in rep.checks.values())
    tops = [derham.build_filtration_level(f, 0).mats[n - 1]] + [s.mats[n - 1] for s in negated]
    assert ranked == {f: 1, -f: 1} and sum(ranked.values()) == rank_calls
    assert len(tops) == 2
    assert not any(m is top for m in eliminated for top in tops)
    # the profiles of f and of -f, d_0 .. d_{n-2} for each, and one pass per
    # degree over the graded blocks of every jump
    modular = {"modular prefix": 2 + 2 * (n - 1) + n}
    if certified:
        assert calls == {"spectrum_euler": 1, "_block": 0, "_differential": n}
        assert passes == modular
        assert eliminated == []
    else:
        # the graded pieces at the two top jumps saturate on the rows that
        # the denominator misses; it keeps every lower one from saturating
        assert calls == {"spectrum_euler": 1, "_block": len(jumps) - 2, "_differential": n}
        # every exact_rank of the run ranks such a graded block or a lower
        # level-0 differential
        assert len(eliminated) == n * (len(jumps) - 2) + n - 1
        assert passes == {**modular, "exact prefix": 2}  # the exact profile of f and of -f


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
    f and -f all read one scan of the n-dilate: the de Rham bases build the
    weight table first, keeping the points, and the census counts its values."""
    from exphodge.derham import build_filtration_level
    from exphodge.polytope import NewtonPolytope

    scans, enumerations = [], []
    scan = NewtonPolytope._scan_dilate
    enumerate_dilate = NewtonPolytope.lattice_points_in_dilate
    monkeypatch.setattr(NewtonPolytope, "_scan_dilate",
                        lambda poly, keep_points: scans.append(keep_points)
                        or scan(poly, keep_points))
    monkeypatch.setattr(NewtonPolytope, "lattice_points_in_dilate",
                        lambda poly, c: enumerations.append(c) or enumerate_dilate(poly, c))
    build_filtration_level.cache_clear()
    f = parse_laurent(text)
    rep = analyze(f)
    assert rep.checks and all(check.ok for check in rep.checks.values())
    assert scans == [True] and enumerations == []


def test_a_screen_step_builds_no_weight_table(monkeypatch):
    """The face checks, the volume and the Euler spectrum of fresh screen
    inputs count the census in one scan that keeps no point: the weight
    table is never built and the dilate never enumerated."""
    from conftest import corpus_inputs

    from exphodge import _kernels
    from exphodge.polytope import NewtonPolytope

    scans, boxes = [], []
    scan = NewtonPolytope._scan_dilate
    enumerate_box = _kernels.enumerate_box_filtered
    monkeypatch.setattr(NewtonPolytope, "_scan_dilate",
                        lambda poly, keep_points: scans.append(keep_points)
                        or scan(poly, keep_points))
    monkeypatch.setattr(_kernels, "enumerate_box_filtered",
                        lambda *args: boxes.append(args) or enumerate_box(*args))
    spectra = 0
    for f in corpus_inputs(monkeypatch, "screen", 4243, 1):
        poly = newton_polytope(f)
        if not is_nondegenerate(f).is_degenerate:
            spectrum_euler(f)
            spectra += 1
        poly.normalized_volume()
        assert "dilate_weights" not in vars(poly)
    assert spectra and scans == [False] * spectra and boxes == []


# f and g in disjoint variables: the spectrum of f + g is the convolution of
# the two spectra, jumps adding and multiplicities multiplying
THOM_SEBASTIANI = [
    ("x^3 + x^-2", "y^2 + y^-3"),
    ("x^2 + x^-1", "y^2 + z^2 + y^-1*z^-1"),
    ("x^3 + x^-2", "y^2 + z^2 + y^-1*z^-1"),
    ("x + x^-1", "y + z + y^-1*z^-1"),
    ("x^2 + y^2 + x^-1*y^-1", "z^3 + z^-1"),
    # totals in 4 variables with D > 1
    ("x^2 + y^2 + x^-1*y^-1", "z^3 + w^2 + z^-1*w^-1"),
    ("x^2*y + x*y^2 + x^-1*y^-1", "z^3 + w^3 + z^-2*w^-2"),
    ("x^2 + x^-1", "y^3 + z^2 + w^2 + y^-1*z^-1*w^-1"),
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


# Forced fallbacks: a GF(PRIME) rank is used only when a proof closes on it,
# so each input below runs the exact path for at least one rank, and its
# report must equal the one of a run on the exact path alone.

def _report_json(f):
    from exphodge import derham

    derham.build_filtration_level.cache_clear()  # the ranks live on the cached slice
    out = analyze(f).to_json()
    out.pop("timing_ms")
    return out


def _exact_report_json(f, monkeypatch):
    """The report with every GF(PRIME) rank 0: a valid lower bound that
    proves no rank but those of empty pieces, so every other rank is exact."""
    from exphodge import derham

    prefix_ranks = derham.prefix_ranks
    with monkeypatch.context() as patch:
        patch.setattr(derham, "prefix_ranks", lambda rows, cuts, modular:
                      [0] * len(cuts) if modular else prefix_ranks(rows, cuts, modular))
        return _report_json(f)


def _count_exact_profiles(monkeypatch):
    """The f of every slice whose top profile makes its pass over Q."""
    from exphodge import derham

    slices, profiled = [], []
    profile, prefix_ranks = derham.ComplexSlice.top_profile, derham.prefix_ranks

    def recording(rows, cuts, modular):
        if not modular:
            slices.append(profiled[-1])
        return prefix_ranks(rows, cuts, modular)
    monkeypatch.setattr(derham.ComplexSlice, "top_profile",
                        lambda self: profiled.append(self.f) or profile(self))
    monkeypatch.setattr(derham, "prefix_ranks", recording)
    return slices


def _count_exact_ranks(monkeypatch):
    """The matrices that the de Rham slices rank exactly."""
    from exphodge import derham

    ranked, exact_rank = [], derham.exact_rank
    monkeypatch.setattr(derham, "exact_rank", lambda m: ranked.append(m) or exact_rank(m))
    return ranked


def test_prime_denominator_takes_the_exact_path(monkeypatch):
    f = parse_laurent(PRIME_DENOMINATOR)
    expected = _exact_report_json(f, monkeypatch)
    profiled, ranked = _count_exact_profiles(monkeypatch), _count_exact_ranks(monkeypatch)
    out = _report_json(f)
    assert out == expected and profiled == [f, -f]
    # d_0 of level 0 and the graded block at 0; the pieces at 1 and 2
    # saturate on the rows without the denominator
    assert len(ranked) == 3
    # the oracle: any nonzero c gives x + y + c/(xy) the spectrum of nvol 3
    spectrum = [{"lambda": str(k), "mult": 1} for k in range(3)]
    assert out["spectrum"] == {"rank": spectrum, "euler": spectrum}
    assert out["betti"] == [0, 0, 3] and out["polytope"]["nvol"] == 3
    assert all(check["status"] == "pass" for check in out["checks"].values())


@pytest.mark.parametrize("text,exact_ranks,exact_profiles", [
    # PRIME divides a denominator: the rows that hold it are left out, which
    # in n = 3 leaves the lower graded pieces and the sandwich open, and for
    # x + c/x still closes both proofs
    ("x + y + z + 1/2147483647*x^-1*y^-1*z^-1", 8, 2),
    ("x + 1/2147483647*x^-1", 0, 0),
    # a coefficient that PRIME divides vanishes mod PRIME but not over Q:
    # its rows lose an entry, and still both proofs close
    ("x + y + 2147483647*x^-1*y^-1", 0, 0),
    ("x^2 + y^2 + 2147483647*x*y + x^-1*y^-1", 0, 0),
    ("x + y + z + 4294967294*x^-1*y^-1*z^-1", 0, 0),
])
def test_prime_in_a_coefficient_keeps_the_exact_report(text, exact_ranks, exact_profiles,
                                                       monkeypatch):
    # the GF(PRIME) ranks stay lower bounds: whatever they prove, the report
    # is the one of the exact path
    f = parse_laurent(text)
    expected = _exact_report_json(f, monkeypatch)
    profiled, ranked = _count_exact_profiles(monkeypatch), _count_exact_ranks(monkeypatch)
    out = _report_json(f)
    assert out == expected
    assert (len(ranked), len(profiled)) == (exact_ranks, exact_profiles)
    # the oracle: a nondegenerate spectrum depends only on the Newton
    # polytope, so the support with every coefficient 1 has the same numbers
    ones = _report_json(make_laurent(f.nvars, dict.fromkeys(f.terms, 1)))
    assert out["nondegeneracy"]["verdict"] == "nondegenerate"
    assert out["spectrum"]["rank"] == out["spectrum"]["euler"] == ones["spectrum"]["rank"]
    assert out["betti"] == ones["betti"] and out["polytope"] == ones["polytope"]
    assert all(check["status"] == "pass" for check in out["checks"].values())


def test_unsaturated_degenerate_input_takes_the_exact_path(monkeypatch):
    from exphodge.derham import (build_filtration_level, build_graded_level,
                                 filtration_image_dim, graded_ranks)
    from exphodge.linalg import exact_rank, saturated_ranks

    f = parse_laurent("x^4-4*x^2*y^2+4*y^4+x^-1*y^-1")
    expected = _exact_report_json(f, monkeypatch)
    profiled = _count_exact_profiles(monkeypatch)
    out = _report_json(f)
    assert out == expected and profiled == [f]
    slice0 = build_filtration_level(f, 0)
    dims, ranks = graded_ranks(slice0)[0]
    assert saturated_ranks(ranks, dims) is None  # the graded piece at 0 has H^1

    def exact_cohomology(s):
        exact = [0] + [exact_rank(m) for m in s.mats] + [0]
        return [d - exact[p] - exact[p + 1] for p, d in enumerate(s.dims())]
    # the oracles: exact ranks of the level-0 complex, and the per-level images
    assert out["betti"] == exact_cohomology(slice0)
    jumps = jump_candidates(f)
    images = [filtration_image_dim(f, lam, 2) for lam in jumps] + [0]
    assert out["spectrum"]["rank"] == [
        {"lambda": str(lam), "mult": images[k] - images[k + 1]}
        for k, lam in enumerate(jumps) if images[k] > images[k + 1]]
    # the degeneration check ranks the unsaturated graded piece exactly; its
    # block starts with its GF(PRIME) ranks from the graded table
    from exphodge import derham

    rank, reduced = spectrum_rank(f), []
    monkeypatch.setattr(derham, "prefix_ranks", lambda *args: reduced.append(args))
    check = check_degeneration(f, rank, rank)
    assert reduced == []
    below = {str(lam): exact_cohomology(build_graded_level(f, lam))[:2] for lam in jumps}
    assert check.detail["graded_cohomology_below_top"] == below and below["0"] != [0, 0]
    assert check.status == "fail"


@pytest.mark.parametrize("short", ["saturation chain", "B row pass"])
def test_rank_one_short_over_gf_p_takes_the_exact_path(short, monkeypatch):
    # a GF(PRIME) rank one below the rank over Q, as when PRIME divides a
    # minor: saturation fails in the chain; in the B row pass the lower bound
    # drops below the upper bound.  Either way the exact echelon decides.
    from exphodge import derham

    f = parse_laurent("x^3 + y^4 + x^-2*y^-1")
    expected = _exact_report_json(f, monkeypatch)
    if short == "saturation chain":
        # d_0 as its GF(PRIME) pass reads it: its residue rows, shortest first
        d0 = sorted(derham.build_filtration_level.__wrapped__(f, 0).mats[0].residue_rows(), key=len)
        ranks = derham.prefix_ranks
        monkeypatch.setattr(derham, "prefix_ranks", lambda rows, cuts, modular: [
            r - (modular and rows == d0) for r in ranks(rows, cuts, modular)])
    else:
        ranks = derham.prefix_ranks

        def short_prefix(rows, cuts, modular):
            out = ranks(rows, cuts, modular)
            if modular:
                k = next(k for k, r in enumerate(out) if r)  # not the whole of B
                out[k] -= 1
            return out
        monkeypatch.setattr(derham, "prefix_ranks", short_prefix)
    profiled = _count_exact_profiles(monkeypatch)
    out = _report_json(f)
    assert out == expected
    assert profiled == ([f] if short == "saturation chain" else [f, -f])
    assert out["spectrum"]["rank"] == out["spectrum"]["euler"]
    assert out["betti"] == [0, 0, out["polytope"]["nvol"]]


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


def _random_support_poly(seed: int, nvars: int = 2):
    """8 terms in [-3, 3]^2, or 5 terms in {-1, 0, 1}^3, with the origin
    interior and random integer coefficients: a generic support, unlike the
    simplices above."""
    nterms, radius = {2: (8, 3), 3: (5, 1)}[nvars]
    return generic_support(seed, nterms, nvars, radius)


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


def _assert_both_routes(f, nvol):
    rep = analyze(f)
    assert rep.nondegeneracy.verdict == "nondegenerate" and rep.nondegeneracy.certified
    assert {name: check.status for name, check in rep.checks.items()} == {
        "degeneration": "pass", "symmetry": "pass"}
    euler, rank = rep.spectra["euler"], rep.spectra["rank"]
    assert euler.entries == rank.entries
    assert rank.total == rep.nvol == nvol


def test_generic_n3_support_both_routes():
    # (seed 1, k 10, n 3, r 2): 10 terms in [-2, 2]^3, nvol 94
    _assert_both_routes(generic_support(1, 10, 3, 2), 94)


@pytest.mark.parametrize("args,nvol", [
    ((2, 10, 3, 2), 108),  # 10 terms in [-2, 2]^3
    ((5, 10, 4, 1), 75),   # 10 terms in {-1, 0, 1}^4
    ((4, 9, 4, 1), 60),    # 9 terms in {-1, 0, 1}^4
], ids=["n3-nvol108", "n4-nvol75", "n4-nvol60"])
def test_generic_support_both_routes(args, nvol):
    _assert_both_routes(generic_support(*args), nvol)
