"""Nondegeneracy testing: face systems, row-reduced Groebner checks, witnesses.

For every proper face not through the origin we ask whether the face
polynomial and its logarithmic derivatives share a torus zero.  Vertex faces
pass outright (a monomial never vanishes on the torus).  Every other face is
decided by one check: exactly over the rationals under certification,
otherwise modulo each of a few seeded wordsize primes (fast, probabilistic).
The check row-reduces the face system over its field: the face polynomial
and its log derivatives are the rows of a coefficient-scaled exponent
matrix, and invertible row operations keep their ideal.  A reduced row with
a single term is a monomial, which proves the face empty with no Groebner
run; over QQ that settles every face whose terms sit at affinely
independent points.  Any other face gets a saturated Groebner basis of the
reduced rows, which stops at the first nonzero constant in the ideal.
Under certification the primes serve only as the fallback for a face
whose exact check exceeds its budget.  A degeneracy claim comes with a
witness or an exact basis, but only two of them prove it: a rational witness
verified by substitution, or an exact non-unit Groebner basis.  A
finite-field witness shows a zero modulo its prime alone, so the claim it
backs is not certified by itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Optional, Sequence

from . import _kernels
from ._primes import SMALL_PRIMES, random_primes
from .errors import BadPrimeError, BudgetExceededError, ExpHodgeError
from .groebner import PrimeField, RationalField, groebner_basis, is_unit_ideal
from .laurent import LaurentPolynomial, Monomial, face_restriction, log_derivative
from .polytope import Face, _dot, newton_polytope

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
    # what proves a certified verdict: "rational witness" or "exact basis"
    # for "degenerate", "exact bases" for "nondegenerate"; None uncertified
    certificate: Optional[str] = None

    @property
    def is_degenerate(self) -> bool:
        return self.verdict == "degenerate"

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "certified": self.certified,
            "certificate": self.certificate,
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


def _vertex_check(face: Face) -> FaceCheck:
    return FaceCheck(face, "empty", (), "vertex face: monomial has no torus zero")


def _row_reduce(rows: list[list], F) -> list[list]:
    """The nonzero rows of a row echelon form of rows over the field F in
    which each pivot is the only nonzero entry of its column, so each row is
    a nonzero multiple of a row of the reduced row echelon form.  Rows are
    combined by F.mul and F.sub alone, with no division, so integer entries
    stay integers over QQ."""
    rank = 0
    for col in range(len(rows[0])):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        p = top[col]
        for i, row in enumerate(rows):
            m = row[col]
            if i != rank and m:
                rows[i] = [F.sub(F.mul(p, a), F.mul(m, b)) for a, b in zip(row, top)]
        rank += 1
    return rows[:rank]


def _decide_face(f: LaurentPolynomial, face: Face, field, max_pairs: int) -> str:
    """Does the face system have a torus zero over the algebraic closure of
    the field?  "empty" when not, "nonempty" when it has, "budget exceeded"
    when its Groebner basis needs more than max_pairs S-pairs.

    With c the face's coefficients in the field (those that vanish there
    dropped) and A the matrix with the rows 1, alpha_1, ..., alpha_n of their
    exponents, the face system f_face, theta_1 f_face, ..., theta_n f_face
    is the rows of A diag(c).  A row reduction R = S A over the field (S
    invertible) keeps their ideal as that of the rows of R diag(c).  A row
    of R with one nonzero entry is a monomial, a unit on the torus, so the
    face is empty with no Groebner run.  Over QQ this decides every face
    whose terms sit at affinely independent points, a 2-point edge for one.
    Otherwise each row is shifted by its exponent minimum, t*x1*...*xn - 1
    is appended in one more variable, and the face is empty exactly when
    these generate the unit ideal.
    """
    F = field
    P = face.polytope
    eqs = [(P.facets[j].normal, -P.facets[j].level) for j in face.active_facets]
    terms = []  # the support lies in P, so the face's equalities select its terms
    for alpha, c in f.terms.items():
        if all(_dot(u, alpha) == b for u, b in eqs):
            c = F.coerce(c)
            if c:
                terms.append((alpha, c))
    A = [[F.from_int(1)] * len(terms)] + [[F.from_int(alpha[i]) for alpha, _ in terms]
                                          for i in range(f.nvars)]
    R = _row_reduce(A, F)
    if any(sum(1 for v in row if v) == 1 for row in R):
        return "empty"
    gens = []
    for row in R:
        poly = {alpha: F.mul(v, c) for v, (alpha, c) in zip(row, terms) if v}
        mins = [min(alpha[i] for alpha in poly) for i in range(f.nvars)]
        gens.append({tuple(map(sub, alpha, mins)) + (0,): c for alpha, c in poly.items()})
    gens.append({(1,) * (f.nvars + 1): F.coerce(1), (0,) * (f.nvars + 1): F.coerce(-1)})
    try:
        basis = groebner_basis(gens, F, max_pairs=max_pairs)
    except BudgetExceededError:
        return "budget exceeded"
    return "empty" if is_unit_ideal(basis) else "nonempty"


def check_face(f: LaurentPolynomial, face: Face, p: int,
               max_pairs: int = 20000) -> FaceCheck:
    """Does the face system have a torus zero over the algebraic closure of GF(p)?

    Vertex faces short-circuit: their system contains a single monomial.
    """
    if face.is_vertex:
        return _vertex_check(face)
    return FaceCheck(face, _decide_face(f, face, PrimeField(p), max_pairs), (p,))


def _check_face_exact(f: LaurentPolynomial, face: Face, max_pairs: int = 60000) -> str:
    """Does the face system have a torus zero over the algebraic closure of QQ?"""
    return _decide_face(f, face, RationalField(), max_pairs)


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def _eval_mod(g: LaurentPolynomial, point: Sequence[int], q: int) -> int:
    F = PrimeField(q)
    total = 0
    for alpha, c in g.terms.items():
        v = F.coerce(c)
        for x, e in zip(point, alpha):
            v = v * pow(x % q, e % (q - 1) if e < 0 else e, q) % q
        total = (total + v) % q
    return total


def _scan_prime(system: FaceSystem, nvars: int, q: int) -> Optional[tuple[int, ...]]:
    if (q - 1) ** nvars > _SCAN_POINT_CAP:
        return None
    F = PrimeField(q)
    try:
        gens = [[(F.coerce(c), alpha) for alpha, c in poly] for poly in system.generators]
    except BadPrimeError:
        return None
    return _kernels.torus_common_zero(gens, nvars, q)


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
    if primes < 1:
        raise ValueError(f"need at least one prime, got primes={primes}")
    poly = newton_polytope(f)
    poly.require_full_dim()
    prime_list = tuple(random_primes(primes, seed))
    witness = witness_field = witness_face = None
    checks: list[FaceCheck] = []
    degenerate = False
    certificate = None
    all_exact = True
    for face in poly.proper_faces_excluding_origin():
        if face.is_vertex:
            checks.append(_vertex_check(face))
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
        if fieldname == "QQ":
            certificate = "rational witness"
        elif exact == "nonempty" and certificate is None:
            certificate = "exact basis"
        if exact == "nonempty" and fieldname != "QQ":
            note = "exact basis is not the unit ideal"
        if point is not None:
            note = "; ".join(filter(None, (note, f"witness over {fieldname}")))
            if witness is None or (witness_field != "QQ" and fieldname == "QQ"):
                witness, witness_field, witness_face = point, fieldname, face
        checks.append(FaceCheck(face, "nonempty", used, note))

    if degenerate:
        verdict = "degenerate"
    elif certify and all_exact:
        verdict, certificate = "nondegenerate", "exact bases"
    else:
        verdict = "likely-nondegenerate"
    return NondegeneracyReport(verdict, certificate is not None, tuple(checks),
                               prime_list, witness, witness_field, witness_face,
                               certificate)
