"""Nondegeneracy testing: face systems, closed forms, Groebner checks, witnesses.

For every proper face not through the origin we ask whether the face
polynomial and its logarithmic derivatives share a torus zero.  Vertex faces
pass outright (a monomial never vanishes on the torus).  Every other face is
decided by one exact check over the rationals.  A torus zero is a vector
(c_j x^alpha_j) in the kernel of the face's exponent matrix [1; alpha], so
the check reads the kernel's dimension e = k - d - 1 (k terms on a d-face)
first.  A simplex face (e = 0) is empty by its count alone.  A circuit face
(e = 1) is empty unless its one relation holds, a closed form in integers.
Any other face, and a circuit whose relation holds, is row-reduced: the
face polynomial and its log derivatives are the rows of a
coefficient-scaled exponent matrix, and invertible row operations keep
their ideal.  A reduced row with a single term is a monomial, which proves
the face empty.  Otherwise the face gets a saturated Groebner basis of the
reduced rows, over Z on primitive polynomials, which stops at the first
nonzero constant in the ideal; so every nonempty face is proven by a basis.
A face whose basis needs more S-pairs than its budget is reported as
"budget exceeded", an outcome of its own and never a guess.  A nonempty face
gets a witness search over small prime fields.  Each degeneracy claim is
proven by a rational witness verified by substitution, or else by the exact
non-unit basis; a finite-field witness shows a zero modulo its prime alone
and is reported beside that proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import sub
from typing import Optional, Sequence

from . import _kernels
from .errors import BadPrimeError, BudgetExceededError
from .groebner import PrimeField, RationalField, groebner_basis, is_unit_ideal
from .laurent import LaurentPolynomial, Monomial, face_restriction, log_derivative
from .polytope import Face, _dot, newton_polytope

_PAIR_BUDGET = 60000  # S-pairs one exact face check may take
_SCAN_POINT_CAP = 3_000_000  # witness scans stay below this many torus points
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101)  # fields of the witness scans


@dataclass(frozen=True)
class FaceSystem:
    """Face polynomial system cleared to ordinary polynomials.

    Each generator is shifted by its own exponent minimum (a torus unit), so
    all exponents are nonnegative.
    """

    laurent_generators: tuple[LaurentPolynomial, ...]
    generators: tuple[tuple[tuple[Monomial, Fraction], ...], ...]


@dataclass(frozen=True)
class FaceCheck:
    face: Face
    verdict: str                    # "empty" | "nonempty" | "budget exceeded"
    note: str = ""


@dataclass(frozen=True)
class NondegeneracyReport:
    verdict: str                    # "nondegenerate" | "degenerate" | "undecided"
    faces: tuple[FaceCheck, ...]
    witness: Optional[tuple[Fraction, ...]] = None
    witness_field: Optional[str] = None
    witness_face: Optional[Face] = None
    # what proves the verdict: "rational witness" or "exact basis" for
    # "degenerate", "exact bases" for "nondegenerate"; None when "undecided"
    certificate: Optional[str] = None

    @property
    def certified(self) -> bool:
        return self.certificate is not None

    @property
    def is_degenerate(self) -> bool:
        return self.verdict == "degenerate"

    def to_json(self) -> dict:
        out = {
            "verdict": self.verdict,
            "certified": self.certified,
            "certificate": self.certificate,
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
    for g in gens:
        shift = tuple(-min(a[i] for a in g.terms) for i in range(f.nvars))
        shifted.append(tuple(sorted(g.shift(shift).terms.items())))
    return FaceSystem(tuple(gens), tuple(shifted))


def _vertex_check(face: Face) -> FaceCheck:
    return FaceCheck(face, "empty", "vertex face: monomial has no torus zero")


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


def _circuit_relation_holds(R: list[list[int]], coeffs: Sequence[Fraction]) -> bool:
    """For a circuit face over QQ: R is the integer row reduction of its
    A = [1; alpha], each row a pivot plus the one free column (the last), and
    coeffs its coefficients.  The primitive kernel vector m of A (sum m_j = 0,
    sum m_j alpha_j = 0) spans the integer relations among the columns, so
    c_j x^alpha_j = t m_j has a torus solution iff
    prod_j (m_j / c_j)^(m_j) = 1 (Gel'fand, Kapranov & Zelevinsky,
    Discriminants, Resultants and Multidimensional Determinants, 1994, ch. 9).
    The product is compared cross-multiplied, in integers."""
    free = [-row[-1] for row in R]  # m_i * pivot_i = -row_i[-1] * m_free
    scale = math.lcm(*(row[i] for i, row in enumerate(R)))
    m = [q * (scale // row[i]) for i, (q, row) in enumerate(zip(free, R))] + [scale]
    g = math.gcd(*m)
    lhs = rhs = 1
    for mj, c in zip(m, coeffs):
        mj //= g
        num, den = mj * c.denominator, c.numerator  # m_j / c_j = num / den
        if mj > 0:
            lhs *= num ** mj
            rhs *= den ** mj
        else:
            lhs *= den ** -mj
            rhs *= num ** -mj
    return lhs == rhs


def _decide_face(f: LaurentPolynomial, face: Face, field, max_pairs: int) -> str:
    """Does the face system have a torus zero over the algebraic closure of
    the field?  "empty" when not, "nonempty" when it has, "budget exceeded"
    when its Groebner basis needs more than max_pairs S-pairs.

    With c the face's coefficients in the field (those that vanish there
    dropped) and A the matrix with the rows 1, alpha_1, ..., alpha_n of their
    exponents, the face system f_face, theta_1 f_face, ..., theta_n f_face
    is the rows of A diag(c): a torus zero x is a vector (c_j x^alpha_j) in
    the kernel of A.  Over QQ the face is decided by the dimension
    e = k - d - 1 of that kernel, k terms on a d-face:

    - e = 0 (a simplex: the terms sit at affinely independent points) leaves
      only the zero vector, so the face is empty; this is read off the count
      before any coefficient is coerced.
    - e = 1 (a circuit) has a zero iff the circuit relation holds
      (``_circuit_relation_holds``); when it fails the face is empty, and when
      it holds the face goes on to the basis below, which proves it nonempty.
    - e >= 2, and every face over GF(p), where the rank of A can drop, go on
      to the basis.

    A row reduction R = S A over the field (S invertible) keeps the ideal of
    the face system as that of the rows of R diag(c).  A row of R with one
    nonzero entry is a monomial, a unit on the torus, so the face is empty
    with no Groebner run.  Otherwise each row is shifted by its exponent
    minimum, t*x1*...*xn - 1 is appended in one more variable, and the face
    is empty exactly when these generate the unit ideal (over QQ, a basis
    over Z of primitive polynomials).
    """
    F = field
    exact = F.characteristic == 0
    # the support lies in P, where each pairing with an active facet's normal
    # is at least its bound: the face's terms are where their sums meet
    active = [face.polytope.facets[j] for j in face.active_facets]
    normal = [sum(col) for col in zip(*(fc.normal for fc in active))]
    bound = -sum(fc.level for fc in active)
    terms = [(alpha, c) for alpha, c in f.terms.items() if _dot(normal, alpha) == bound]
    if exact and len(terms) == face.dim + 1:
        return "empty"
    terms = [(alpha, F.coerce(c)) for alpha, c in terms]
    terms = [(alpha, c) for alpha, c in terms if c]
    A = [[F.from_int(1)] * len(terms)] + [[F.from_int(alpha[i]) for alpha, _ in terms]
                                          for i in range(f.nvars)]
    R = _row_reduce(A, F)
    if any(sum(1 for v in row if v) == 1 for row in R):
        return "empty"
    if exact and len(terms) == face.dim + 2 and not _circuit_relation_holds(
            R, [c for _, c in terms]):
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
    No pipeline code calls this; it is kept only because the benchmark's
    tracer (perfbench/tracer.py) wraps it by name.
    """
    if face.is_vertex:
        return _vertex_check(face)
    return FaceCheck(face, _decide_face(f, face, PrimeField(p), max_pairs))


def _check_face_exact(f: LaurentPolynomial, face: Face, max_pairs: int = _PAIR_BUDGET) -> str:
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

def is_nondegenerate(f: LaurentPolynomial, *, certify: bool = True) -> NondegeneracyReport:
    """Decide nondegeneracy of f with respect to its Newton polytope.

    Each non-vertex face is decided once, by the exact rational check.  A
    nonempty face gets a witness search, and "degenerate" is proven by a
    rational witness or by the exact non-unit basis.  "nondegenerate" is
    proven by the exact bases of every face.  A face whose exact check
    exceeds its budget reads "budget exceeded", with no witness search; with
    no nonempty face the verdict is then "undecided", the one verdict that
    is not certified.  ``certify`` accepts only True, since every face is
    decided exactly; False raises ValueError.
    """
    if not certify:
        raise ValueError("certify=False was removed: every face is decided exactly")
    poly = newton_polytope(f)
    poly.require_full_dim()
    witness = witness_field = witness_face = None
    checks: list[FaceCheck] = []
    certificate = None
    for face in poly.proper_faces_excluding_origin():
        if face.is_vertex:
            checks.append(_vertex_check(face))
            continue
        exact = _check_face_exact(f, face)
        if exact == "empty":
            checks.append(FaceCheck(face, "empty", "exact"))
            continue
        if exact == "budget exceeded":
            checks.append(FaceCheck(
                face, exact, f"exact check exceeded its budget of {_PAIR_BUDGET} S-pairs"))
            continue
        point, fieldname = find_witness(f, face)
        if fieldname == "QQ":
            certificate, note = "rational witness", "witness over QQ"
        else:
            certificate = certificate or "exact basis"
            note = "exact basis is not the unit ideal"
            if point is not None:
                note += f"; witness over {fieldname}"
        if point is not None and (witness is None or (witness_field != "QQ" and fieldname == "QQ")):
            witness, witness_field, witness_face = point, fieldname, face
        checks.append(FaceCheck(face, "nonempty", note))

    if certificate is not None:
        verdict = "degenerate"
    elif any(c.verdict == "budget exceeded" for c in checks):
        verdict = "undecided"
    else:
        verdict, certificate = "nondegenerate", "exact bases"
    return NondegeneracyReport(verdict, tuple(checks), witness, witness_field, witness_face,
                               certificate)
