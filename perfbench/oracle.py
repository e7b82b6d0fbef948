"""Output checks for the pipeline benchmark.

Every operation is checked against
  * the stored reference of its shape (``reference.json``: normalized volume,
    degeneracy class, spectrum), written once by ``make_reference.py`` and
    accepted there only where the Euler and rank routes agree;
  * the identities Euler = rank, total = normalized volume (Kouchnirenko;
    Adolphson-Sperber 1989) and h^lam = h^(n-lam) when the origin is interior;
  * the Kloosterman closed form: jumps 0, 1, ..., n, each of multiplicity 1
    (Fresan-Sabbah-Yu);
  * the constructed verdict of the members that are degenerate by construction.

A check that the program itself reports as "fail" is an error too.  Each
checker returns (errors, undecided): a list of what disagreed, and whether the
answer is a budget outcome rather than a verdict.
"""

from __future__ import annotations

from fractions import Fraction


def spectrum_json(spec) -> list[list]:
    return [[str(lam), m] for lam, m in spec.entries]


def _undecided(nondegeneracy) -> bool:
    return any(c.verdict == "budget exceeded" for c in nondegeneracy.faces)


def _check_spectrum(spec, ref: dict, n: int, nvol: int, interior: bool,
                    kind: str, errors: list[str]) -> None:
    if ref["spectrum"] is not None and spectrum_json(spec) != ref["spectrum"]:
        errors.append(f"spectrum {spectrum_json(spec)} != reference {ref['spectrum']}")
    if spec.total != nvol:
        errors.append(f"spectrum total {spec.total} != normalized volume {nvol}")
    if interior and any(spec.multiplicity(Fraction(n) - lam) != m for lam, m in spec.entries):
        errors.append("spectrum is not symmetric under lam -> n - lam")
    if kind == "kloosterman" and spec.entries != tuple((Fraction(k), 1) for k in range(n + 1)):
        errors.append(f"Kloosterman spectrum {spectrum_json(spec)} is not 0..{n} with multiplicity 1")


def check_analysis(shape, ref: dict, report) -> tuple[list[str], bool]:
    """Checks on an ``AnalysisReport``."""
    errors: list[str] = []
    n = shape.nvars
    if report.nvol != ref["nvol"]:
        errors.append(f"nvol {report.nvol} != reference {ref['nvol']}")
    if report.nondegeneracy.is_degenerate != ref["degenerate"]:
        errors.append(f"verdict {report.nondegeneracy.verdict!r} but the input is "
                      f"{'degenerate' if ref['degenerate'] else 'nondegenerate'}")
    for name, check in report.checks.items():
        if check.status == "fail":
            errors.append(f"check {name} reports fail")
    rank = report.spectra.get("rank")
    if rank is None:
        errors.append("no rank spectrum")
    elif ref["degenerate"]:
        if "euler" in report.spectra:
            errors.append("Euler route ran on a degenerate input")
        if ref["spectrum"] is not None and spectrum_json(rank) != ref["spectrum"]:
            errors.append(f"rank spectrum {spectrum_json(rank)} != reference {ref['spectrum']}")
    else:
        euler = report.spectra.get("euler")
        if euler is None or euler.entries != rank.entries:
            errors.append("Euler and rank spectra differ")
        interior = report.polytope.contains_origin_interior()
        _check_spectrum(rank, ref, n, report.nvol, interior, shape.kind, errors)
    return errors, _undecided(report.nondegeneracy)


def check_screen(shape, ref: dict, nondegeneracy, nvol: int, spectrum,
                 interior: bool) -> tuple[list[str], bool]:
    """Checks on one screening step: certified verdict, volume, Euler spectrum."""
    errors: list[str] = []
    undecided = _undecided(nondegeneracy)
    if nvol != ref["nvol"]:
        errors.append(f"nvol {nvol} != reference {ref['nvol']}")
    if ref["degenerate"]:
        if not nondegeneracy.is_degenerate:
            errors.append(f"verdict {nondegeneracy.verdict!r} on an input degenerate by construction")
    elif nondegeneracy.is_degenerate:
        errors.append("verdict 'degenerate' on a generic input")
    elif nondegeneracy.verdict != "nondegenerate" and not undecided:
        errors.append(f"certified screening returned {nondegeneracy.verdict!r}")
    if spectrum is not None:
        _check_spectrum(spectrum, ref, shape.nvars, nvol, interior, shape.kind, errors)
    elif not nondegeneracy.is_degenerate:
        errors.append("no Euler spectrum for a nondegenerate input")
    return errors, undecided
