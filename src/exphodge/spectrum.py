"""Hodge spectra by two independent routes, plus the global analysis driver.

Route one (combinatorial): the graded complex at level lam is concentrated in
top degree for nondegenerate f, so its dimension there equals the signed
Euler characteristic

    h^lam = (-1)^n * sum_p (-1)^p * C(n, p) * N(p - lam),

with N(c) the number of lattice points of exact weight c.  The census N is
the hull's (``NewtonPolytope.weight_census``): counted off its weight table
when the de Rham bases have built it, otherwise by one scan of the dilate
that keeps no point, so no weight is computed twice for one support and the
Euler route alone builds no table.  The jump candidates p - w come from the
hull's one list of them (``NewtonPolytope.jumps``).  Both hold integers over
the hull's one denominator D: the census keys D w and the jumps
j = (p - w) D, so the census counts integers; a jump becomes the Fraction
j / D only in a spectrum entry or a report.  Route two (rank): h^lam is the drop of the
filtration image dimension

    dim im(H^n(level lam) -> H^n(level 0))
        = |S_lam| + rank(rows of B outside S_lam) - rank(B)

between consecutive jumps, where B is the level-0 differential into top
degree and S_lam the top forms of weight at most n - lam.  The sets S_lam are
nested, so one incremental echelon over the rows of B, in descending weight,
gives the dimension at every jump: a rank computation, never a count.  Every
rank is owned by the level-0 slice (``derham.ComplexSlice``), which takes it
over GF(PRIME), PRIME = 2^31 - 1, as a lower bound (never None, in the one
rank loop ``linalg.prefix_ranks``), and counts it only through a proof:
saturation of the level-0 complex proves every level-0 rank, and each
dimension is read only where its lower bound from the rows of B meets its
upper bound from the graded pieces in top degree; they meet when the
filtration is strict (Deligne, Theorie de Hodge II, 1.3.2).  Otherwise the
same loop decides over Q.  Either way the pass leaves the rank of B on the
slice, and ``analyze`` computes the Betti numbers after the rank route so
that B is not reduced again.  Agreement of the two routes is the numerical
shadow of the degeneration of the spectral sequence at its first page; the
analysis report never hides a disagreement.

``analyze`` computes each spectrum of f once and hands it to the checks:
``check_degeneration(f, euler, rank)`` compares the two and adds the graded
vanishing below top degree, which the level-0 slice proves
(``ComplexSlice.graded_below_top``).  ``check_symmetry(f, rank)`` tests the
given spectrum for h^lam = h^(n-lam), ranking only the second input -f
itself.  It ranks -f through the same profile code, on the sign flip of f's
level-0 slice (``ComplexSlice.negated``), so no differential of -f is
assembled, and that slice starts with f's graded table, since -f's graded
blocks are the negatives of f's.  No rank or proof passes through this
module.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import itemgetter
from .derham import ComplexSlice, betti_numbers, build_filtration_level
from .errors import IntegrityError
from .laurent import LaurentPolynomial, format_laurent
from .nondegen import NondegeneracyReport, is_nondegenerate
from .polytope import NewtonPolytope, newton_polytope


@dataclass(frozen=True)
class HodgeSpectrum:
    """Sorted (jump, multiplicity) pairs for one cohomology degree."""

    degree: int
    entries: tuple[tuple[Fraction, int], ...]

    def __post_init__(self):
        if any(a >= b for (a, _), (b, _) in zip(self.entries, self.entries[1:])):
            raise ValueError("jumps must be strictly increasing")
        if any(m <= 0 for _, m in self.entries):
            raise ValueError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def multiplicity(self, lam) -> int:
        lam = Fraction(lam)
        i = bisect_left(self.entries, lam, key=itemgetter(0))
        return self.entries[i][1] if i < len(self.entries) and self.entries[i][0] == lam else 0

    def to_json(self) -> list[dict]:
        return [{"lambda": str(l), "mult": m} for l, m in self.entries]

    def __str__(self):
        body = ", ".join(f"({l}, {m})" for l, m in self.entries)
        return f"{{{body}}}"


def jump_candidates(f: LaurentPolynomial) -> list[Fraction]:
    """All values p - weight(alpha) in [0, n]: the only places the filtration
    can jump, as listed once by the hull (as numerators over its D)."""
    poly = newton_polytope(f)
    return [Fraction(j, poly.weight_denominator) for j in poly.jumps]


def spectrum_euler(f: LaurentPolynomial) -> HodgeSpectrum:
    """Top-degree spectrum from the weight census alone."""
    n = f.nvars
    poly = newton_polytope(f)
    D, census = poly.weight_denominator, poly.weight_census
    sign = (-1) ** n
    entries = []
    for j in poly.jumps:
        h = sign * sum((-1) ** p * comb(n, p) * census[p * D - j] for p in range(n + 1))
        if h < 0:
            raise IntegrityError(
                f"negative graded dimension {h} at level {Fraction(j, D)}: "
                "input is degenerate or a computation is wrong")
        if h > 0:
            entries.append((Fraction(j, D), h))
    return HodgeSpectrum(n, tuple(entries))


def spectrum_rank(f: LaurentPolynomial) -> HodgeSpectrum:
    """Top-degree spectrum from proven filtration image dimensions; completely
    independent of the Euler route."""
    return _rank_route(build_filtration_level(f, Fraction(0)))


def _rank_route(slice0: ComplexSlice) -> HodgeSpectrum:
    """The rank spectrum read off the top profile of a level-0 slice: f's
    own, or its sign flip for -f."""
    n, poly = slice0.nvars, newton_polytope(slice0.f)
    dims = slice0.top_profile()
    dims.append(0)  # above the top jump the level is empty
    entries = []
    for k, j in enumerate(poly.jumps):
        h = dims[k] - dims[k + 1]
        if h:
            lam = Fraction(j, poly.weight_denominator)
            if h < 0:
                raise IntegrityError(f"filtration image dimension increased at {lam}")
            entries.append((lam, h))
    return HodgeSpectrum(n, tuple(entries))


@dataclass(frozen=True)
class CheckResult:
    status: str                  # "pass" | "fail" | "not applicable"
    detail: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def to_json(self):
        return {"status": self.status, **{k: v for k, v in self.detail.items()}}


def check_degeneration(f: LaurentPolynomial, euler: HodgeSpectrum,
                       rank: HodgeSpectrum) -> CheckResult:
    """The given Euler and rank spectra of f agree entrywise AND every graded
    slice has cohomology only in top degree (``ComplexSlice.graded_below_top``)."""
    detail = {"euler": euler.to_json(), "rank": rank.to_json()}
    slice0 = build_filtration_level(f, Fraction(0))
    poly = newton_polytope(f)
    graded_dims = {str(Fraction(j, poly.weight_denominator)): slice0.graded_below_top(j)
                   for j in poly.jumps}
    detail["graded_cohomology_below_top"] = graded_dims
    vanishing = all(b == 0 for below in graded_dims.values() for b in below)
    status = "pass" if (euler.entries == rank.entries and vanishing) else "fail"
    return CheckResult(status, detail)


def check_symmetry(f: LaurentPolynomial, rank: HodgeSpectrum) -> CheckResult:
    """h^lam = h^(n-lam) for the given rank spectrum of f, and the rank
    spectrum of -f equals it, in the proper case (origin interior to the
    polytope); skipped otherwise."""
    poly = newton_polytope(f)
    if not poly.contains_origin_interior():
        note = {"reason": "origin not interior to the Newton polytope; "
                          "cohomology and compactly supported cohomology differ"}
        return CheckResult("not applicable", note)
    n = f.nvars
    slice0 = build_filtration_level(f, Fraction(0))
    rk_neg = _rank_route(slice0.negated())
    detail = {"rank": rank.to_json(), "rank_negated": rk_neg.to_json()}
    sign_invariant = rank.entries == rk_neg.entries
    symmetric = rank.entries == tuple((n - lam, m) for lam, m in reversed(rank.entries))
    detail["sign_invariance"] = sign_invariant
    detail["symmetric"] = symmetric
    return CheckResult("pass" if (sign_invariant and symmetric) else "fail", detail)


@dataclass
class AnalysisReport:
    f: LaurentPolynomial
    polytope: NewtonPolytope
    nvol: int
    nondegeneracy: NondegeneracyReport
    betti: list[int]
    spectra: dict[str, HodgeSpectrum]
    checks: dict[str, CheckResult]
    warnings: list[str]
    timing_ms: int

    def to_json(self) -> dict:
        poly = self.polytope.summary()
        poly["nvol"] = self.nvol
        poly["origin_interior"] = self.polytope.contains_origin_interior()
        return {
            "input": {
                "poly": format_laurent(self.f),
                "vars": list(self.f.var_names),
                "n": self.f.nvars,
            },
            "polytope": poly,
            "nondegeneracy": self.nondegeneracy.to_json(),
            "betti": list(self.betti),
            "spectrum": {k: v.to_json() for k, v in self.spectra.items()},
            "checks": {k: v.to_json() for k, v in self.checks.items()},
            "warnings": list(self.warnings),
            "timing_ms": self.timing_ms,
        }


def analyze(f: LaurentPolynomial, mode: str = "both") -> AnalysisReport:
    """Full pipeline: polytope, nondegeneracy, Betti numbers, spectra, and
    consequence checks.  Each spectrum is computed once and handed to the
    checks; for one variable the rank spectrum also goes to
    ``curve.compare_filtrations``, which measures the three H^1 filtrations
    and the duality in one pass.  Failed checks are reported, never dropped."""
    if mode not in ("euler", "rank", "both"):
        raise ValueError(f"mode must be euler, rank or both, not {mode!r}")
    t0 = time.perf_counter()
    poly = newton_polytope(f)
    poly.require_full_dim()
    warnings: list[str] = []
    report = is_nondegenerate(f)
    nvol = poly.normalized_volume()
    spectra: dict[str, HodgeSpectrum] = {}
    checks: dict[str, CheckResult] = {}
    degenerate = report.is_degenerate
    # the checks of a nondegenerate input need both spectra, whatever the mode
    rank = None if degenerate and mode == "euler" else spectrum_rank(f)
    # after the rank route, which leaves rank(d_{n-1}) on the level-0 slice
    betti = betti_numbers(f)
    euler = None if degenerate else spectrum_euler(f)
    if degenerate:
        warnings.append(
            "input is degenerate: the spectrum below is the raw filtration "
            "rank output, unsupported by the degeneration theorem")
    elif report.verdict == "undecided":
        warnings.append(
            "nondegeneracy not certified: a face check exceeded its budget, so the "
            "degeneration theorem's hypothesis is unproven for the spectra and checks below")
    if mode in ("rank", "both"):
        spectra["rank"] = rank
    if mode in ("euler", "both"):
        if degenerate:
            warnings.append("combinatorial route suppressed for degenerate input")
        else:
            spectra["euler"] = euler
    if not degenerate:
        checks["degeneration"] = check_degeneration(f, euler, rank)
        checks["symmetry"] = check_symmetry(f, rank)
        if f.nvars == 1:
            from . import curve

            curve_report = curve.compare_filtrations(f, rank)
            checks["curve_comparison"] = curve.comparison_check(curve_report)
            checks["curve_duality"] = curve.duality_summary(curve_report)
    elapsed = int((time.perf_counter() - t0) * 1000)
    return AnalysisReport(f, poly, nvol, report, betti, spectra, checks, warnings, elapsed)
