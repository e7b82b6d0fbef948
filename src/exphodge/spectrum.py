"""Hodge spectra by two independent routes, plus the global analysis driver.

Route one (combinatorial): the graded complex at level lam is concentrated in
top degree for nondegenerate f, so its dimension there equals the signed
Euler characteristic

    h^lam = (-1)^n * sum_p (-1)^p * C(n, p) * N(p - lam),

with N(c) the number of lattice points of exact weight c.  The census N is
read from the hull's one weight table (``NewtonPolytope.dilate_weights``),
which the de Rham bases read too, so no weight is computed twice for one
support, and the jump candidates p - w from the hull's one list of them
(``NewtonPolytope.jumps``).  Route two (rank): h^lam is the drop of the
filtration image dimension

    dim im(H^n(level lam) -> H^n(level 0))
        = |S_lam| + rank(rows of B outside S_lam) - rank(B)

between consecutive jumps, where B is the level-0 differential into top
degree and S_lam the top forms of weight at most n - lam.  The sets S_lam are
nested, so one incremental exact echelon over the rows of B, in descending
weight, gives the dimension at every jump: an exact rank computation, never a
count.  Agreement of the two routes is the numerical shadow of the
degeneration of the spectral sequence at its first page; the analysis report
never hides a disagreement.

``analyze`` computes each spectrum of f once and hands it to the checks:
``check_degeneration(f, euler, rank)`` compares the two and adds the graded
vanishing below top degree, and ``check_symmetry(f, rank)`` tests the given
spectrum for h^lam = h^(n-lam), ranking only the second input -f itself.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from .derham import betti_numbers, build_graded_level, top_image_profile
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
        lams = [l for l, _ in self.entries]
        if lams != sorted(set(lams)):
            raise ValueError("jumps must be strictly increasing")
        if any(m <= 0 for _, m in self.entries):
            raise ValueError("multiplicities must be positive")

    @property
    def total(self) -> int:
        return sum(m for _, m in self.entries)

    def multiplicity(self, lam) -> int:
        lam = Fraction(lam)
        for l, m in self.entries:
            if l == lam:
                return m
        return 0

    def to_json(self) -> list[dict]:
        return [{"lambda": str(l), "mult": m} for l, m in self.entries]

    def __str__(self):
        body = ", ".join(f"({l}, {m})" for l, m in self.entries)
        return f"{{{body}}}"


def jump_candidates(f: LaurentPolynomial) -> list[Fraction]:
    """All values p - weight(alpha) in [0, n]: the only places the filtration
    can jump, as listed once by the hull."""
    return list(newton_polytope(f).jumps)


def spectrum_euler(f: LaurentPolynomial) -> HodgeSpectrum:
    """Top-degree spectrum from the weight census alone."""
    n = f.nvars
    poly = newton_polytope(f)
    census = Counter(poly.dilate_weights.values())
    sign = (-1) ** n
    entries = []
    for lam in poly.jumps:
        h = sign * sum((-1) ** p * comb(n, p) * census[p - lam] for p in range(n + 1))
        if h < 0:
            raise IntegrityError(
                f"negative graded dimension {h} at level {lam}: "
                "input is degenerate or a computation is wrong")
        if h > 0:
            entries.append((lam, h))
    return HodgeSpectrum(n, tuple(entries))


def spectrum_rank(f: LaurentPolynomial) -> HodgeSpectrum:
    """Top-degree spectrum from exact filtration image dimensions; completely
    independent of the Euler route."""
    n = f.nvars
    jumps = jump_candidates(f)
    dims = top_image_profile(f, jumps)
    dims.append(0)  # above the top jump the level is empty
    entries = []
    for k, lam in enumerate(jumps):
        h = dims[k] - dims[k + 1]
        if h < 0:
            raise IntegrityError(f"filtration image dimension increased at {lam}")
        if h > 0:
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
    slice has cohomology only in top degree."""
    detail = {"euler": euler.to_json(), "rank": rank.to_json()}
    n = f.nvars
    graded_dims = {str(lam): build_graded_level(f, lam).cohomology()[:n]
                   for lam in jump_candidates(f)}
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
    rk_neg = spectrum_rank(-f)
    detail = {"rank": rank.to_json(), "rank_negated": rk_neg.to_json()}
    sign_invariant = rank.entries == rk_neg.entries
    symmetric = all(rank.multiplicity(Fraction(n) - lam) == m for lam, m in rank.entries)
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
    betti = betti_numbers(f)
    nvol = poly.normalized_volume()
    spectra: dict[str, HodgeSpectrum] = {}
    checks: dict[str, CheckResult] = {}
    degenerate = report.is_degenerate
    # the checks of a nondegenerate input need both spectra, whatever the mode
    rank = None if degenerate and mode == "euler" else spectrum_rank(f)
    euler = None if degenerate else spectrum_euler(f)
    if degenerate:
        warnings.append(
            "input is degenerate: the spectrum below is the raw filtration "
            "rank output, unsupported by the degeneration theorem")
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
