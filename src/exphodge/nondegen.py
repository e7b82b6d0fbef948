"""Nondegeneracy testing: face systems, saturated Groebner checks, witnesses.

For every proper face not through the origin we ask whether the face
polynomial and its logarithmic derivatives share a torus zero.  Vertex faces
pass outright (a monomial never vanishes on the torus).  Every other face is
decided by one check: an exact Groebner basis over the rationals under
certification, otherwise a basis modulo each of a few seeded wordsize primes
(fast, probabilistic).  Under certification the primes serve only as the
fallback for a face whose exact check exceeds its budget.  A degeneracy claim
comes with a witness or an exact basis, but only two of them prove it: a
rational witness verified by substitution, or an exact non-unit Groebner
basis.  A finite-field witness shows a zero modulo its prime alone, so the
claim it backs is not certified by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import _kernels
from ._primes import SMALL_PRIMES, random_primes
from .errors import (BadPrimeError, BudgetExceededError, ExpHodgeError,
                     NotFullDimensionalError)
from .groebner import PrimeField, RationalField, groebner_basis, is_unit_ideal
from .laurent import LaurentPolynomial, Monomial, face_restriction, log_derivative
from .polytope import Face, newton_polytope

DEFAULT_SEED = 1918
_SCAN_POINT_CAP = 3_000_000  # witness scans stay below this many torus points


@dataclass(frozen=True)
class FaceSystem:
    """Face polynomial system cleared to ordinary polynomials.

    Each generator is shifted by its own exponent minimum (a torus unit), so
    all exponents are nonnegative; the shifts are recorded.
    """

    face: Face
    laurent_generators: tuple[LaurentPolynomial, ...]
    generators: tuple[tuple[tuple[Monomial, Fraction], ...], ...]
    shifts: tuple[Monomial, ...]


@dataclass(frozen=True)
class FaceCheck:
    face: Face
    verdict: str                    # "empty" | "nonempty" | "budget exceeded"
    primes: tuple[int, ...] = ()
    note: str = ""


@dataclass(frozen=True)
class NondegeneracyReport:
    verdict: str                    # "nondegenerate" | "degenerate" | "likely-nondegenerate"
    certified: bool
    faces: tuple[FaceCheck, ...]
    primes: tuple[int, ...]
    witness: Optional[tuple[Fraction, ...]] = None
    witness_field: Optional[str] = None
    witness_face: Optional[Face] = None

    @property
    def is_degenerate(self) -> bool:
        return self.verdict == "degenerate"

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "certified": self.certified,
            "primes": list(self.primes),
            "faces": [
                {"face": str(c.face), "verdict": c.verdict, "note": c.note}
                for c in self.faces
            ],
        }
        if self.witness is not None:
            out["witness"] = [str(w) for w in self.witness]
            out["witness_field"] = self.witness_field
            out["witness_face"] = str(self.witness_face)
        return out


def build_face_system(f: LaurentPolynomial, face: Face) -> FaceSystem:
    f_delta = face_restriction(f, face)
    gens = [f_delta]
    for i in range(1, f.nvars + 1):
        g = log_derivative(f_delta, i)
        if not g.is_zero:
            gens.append(g)
    shifted = []
    shifts = []
    for g in gens:
        mins = tuple(min(a[i] for a in g.terms) for i in range(f.nvars))
        shift = tuple(-m for m in mins)
        shifts.append(shift)
        shifted.append(tuple(sorted(g.shift(shift).terms.items())))
    return FaceSystem(face, tuple(gens), tuple(shifted), tuple(shifts))


def _saturated_generators(system: FaceSystem, nvars: int):
    """Shifted generators plus t*x1*...*xn - 1 in n+1 variables."""
    gens = []
    for poly in system.generators:
        gens.append({alpha + (0,): c for alpha, c in poly})
    gens.append({tuple([1] * nvars + [1]): Fraction(1), tuple([0] * (nvars + 1)): Fraction(-1)})
    return gens


def check_face(f: LaurentPolynomial, face: Face, p: int,
               max_pairs: int = 20000) -> FaceCheck:
    """Is the saturated face ideal the unit ideal over GF(p)?

    Vertex faces short-circuit: their system contains a single monomial.
    """
    if face.is_vertex:
        return FaceCheck(face, "empty", (), "vertex face: monomial has no torus zero")
    system = build_face_system(f, face)
    gens = _saturated_generators(system, f.nvars)
    try:
        basis = groebner_basis(gens, PrimeField(p), max_pairs=max_pairs)
    except BudgetExceededError:
        return FaceCheck(face, "budget exceeded", (p,))
    return FaceCheck(face, "empty" if is_unit_ideal(basis) else "nonempty", (p,))


def _check_face_exact(f: LaurentPolynomial, face: Face, max_pairs: int = 60000) -> str:
    system = build_face_system(f, face)
    gens = _saturated_generators(system, f.nvars)
    try:
        basis = groebner_basis(gens, RationalField(), max_pairs=max_pairs)
    except BudgetExceededError:
        return "budget exceeded"
    return "empty" if is_unit_ideal(basis) else "nonempty"


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def _eval_mod(g: LaurentPolynomial, point: Sequence[int], q: int) -> int:
    total = 0
    for alpha, c in g.terms.items():
        if c.denominator % q == 0:
            raise BadPrimeError(f"bad prime {q}")
        v = (c.numerator * pow(c.denominator, -1, q)) % q
        for x, e in zip(point, alpha):
            v = v * pow(x % q, e % (q - 1) if e < 0 else e, q) % q
        total = (total + v) % q
    return total


def _scan_prime(system: FaceSystem, nvars: int, q: int) -> Optional[tuple[int, ...]]:
    if (q - 1) ** nvars > _SCAN_POINT_CAP:
        return None
    exps, coeffs, offsets = [], [], [0]
    F = PrimeField(q)
    try:
        for poly in system.generators:
            for alpha, c in poly:
                exps.append(alpha)
                coeffs.append(F.coerce(c))
            offsets.append(len(exps))
    except BadPrimeError:
        return None
    return _kernels.torus_common_zero(exps, coeffs, offsets, nvars, q)


def find_witness(f: LaurentPolynomial, face: Face):
    """Search a torus zero of the face system, preferring a rational one.

    Scans small prime fields exhaustively, then attempts a centered-integer
    lift of the modular hit.  Returns (point, field_name) or (None, None).
    """
    system = build_face_system(f, face)
    nvars = f.nvars
    for q in SMALL_PRIMES:
        hit = _scan_prime(system, nvars, q)
        if hit is None:
            continue
        centered = tuple(w if w <= q // 2 else w - q for w in hit)
        if all(c != 0 for c in centered):
            point = tuple(Fraction(c) for c in centered)
            if all(g.evaluate(point) == 0 for g in system.laurent_generators):
                return point, "QQ"
        if all(_eval_mod(g, hit, q) == 0 for g in system.laurent_generators):
            return tuple(Fraction(w) for w in hit), f"GF({q})"
    return None, None


# ---------------------------------------------------------------------------
# Top-level verdict
# ---------------------------------------------------------------------------

def _modular_verdict(f: LaurentPolynomial, face: Face, prime_list) -> str:
    """check_face over the sampled primes: one "nonempty" decides, then
    "budget exceeded"; a prime dividing a denominator is skipped."""
    usable = []
    for p in prime_list:
        try:
            usable.append(check_face(f, face, p).verdict)
        except BadPrimeError:
            pass
    if not usable:
        raise ExpHodgeError(
            f"prime exhaustion: every sampled prime divides a coefficient "
            f"denominator on face {face}")
    for verdict in ("nonempty", "budget exceeded"):
        if verdict in usable:
            return verdict
    return "empty"


def is_nondegenerate(f: LaurentPolynomial, primes: int = 3, seed: int = DEFAULT_SEED,
                     certify: bool = False) -> NondegeneracyReport:
    """Decide nondegeneracy of f with respect to its Newton polytope.

    Each non-vertex face is decided once: by the exact rational check under
    certify=True, otherwise by the sampled primes.  Under certify the primes
    decide a face only when its exact check runs out of budget, and the face
    note says so.  A nonempty face gets a witness search; a modular "nonempty"
    with no witness is settled by the exact check.  "degenerate" is certified
    when a rational witness or an exact non-unit basis proves it.
    "nondegenerate" is claimed only under certify with every face decided
    exactly, otherwise the positive outcome is "likely-nondegenerate".
    """
    poly = newton_polytope(f)
    if poly.dim != f.nvars:
        raise NotFullDimensionalError(poly.dim, f.nvars)
    prime_list = tuple(random_primes(primes, seed))
    witness = witness_field = witness_face = None
    checks: list[FaceCheck] = []
    degenerate = proven = False
    all_exact = True
    for face in poly.proper_faces_excluding_origin():
        if face.is_vertex:
            checks.append(FaceCheck(face, "empty", (), "vertex face: monomial has no torus zero"))
            continue
        exact = _check_face_exact(f, face) if certify else None
        if exact == "empty":
            checks.append(FaceCheck(face, "empty", (), "exact"))
            continue
        used, note = (), ""
        if exact != "nonempty":  # no certify, or the exact check ran out of budget
            all_exact = False
            used, modular = prime_list, _modular_verdict(f, face, prime_list)
            if exact == "budget exceeded":
                note = "exact check exceeded its budget"
            if modular != "nonempty":
                checks.append(FaceCheck(face, modular, used, note))
                continue
        point, fieldname = find_witness(f, face)
        if point is None and exact is None:
            exact = _check_face_exact(f, face)
            if exact == "empty":
                checks.append(FaceCheck(face, "empty", used, "modular check was a false alarm"))
                continue
        if point is None and exact != "nonempty":
            checks.append(FaceCheck(face, "budget exceeded", used, note))
            continue
        degenerate = True
        proven = proven or fieldname == "QQ" or exact == "nonempty"
        if exact == "nonempty" and fieldname != "QQ":
            note = "exact basis is not the unit ideal"
        if point is not None:
            note = "; ".join(filter(None, (note, f"witness over {fieldname}")))
            if witness is None or (witness_field != "QQ" and fieldname == "QQ"):
                witness, witness_field, witness_face = point, fieldname, face
        checks.append(FaceCheck(face, "nonempty", used, note))

    if degenerate:
        verdict, certified = "degenerate", proven
    elif certify and all_exact:
        verdict, certified = "nondegenerate", True
    else:
        verdict, certified = "likely-nondegenerate", False
    return NondegeneracyReport(verdict, certified, tuple(checks),
                               prime_list, witness, witness_field, witness_face)
