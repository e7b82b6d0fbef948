"""Nondegeneracy testing: face systems, closed forms, Groebner checks, witnesses.

For every proper face not through the origin we ask whether the face
polynomial and its logarithmic derivatives share a torus zero.  Vertex faces
pass outright (a monomial never vanishes on the torus).  On any other face,
``_face_terms`` gives the k terms' exponents alpha_j and their coefficients
c_j cleared into integers; the system is the rows of A diag(c), A with the
rows 1, alpha_1, ..., alpha_n, and a torus zero is a vector (c_j x^alpha_j)
in the kernel of A.  One exact check over the rationals reads the kernel's
dimension e = k - d - 1 (on a d-face) first.  A simplex face (e = 0) is
empty by its count alone.  A face with e = 1 (a circuit) or e = 2 is
decided by one Gale test: a saturated basis of the integer relations among
its exponents, read off the same lattice echelon that gives the hull its
dimension, turns the system into one form per relation, a constant for
e = 1 (the circuit relation, in integers) and a binary form in one
projective variable for e = 2, read off a gcd of two integer polynomials;
the face is empty unless the forms share a zero where no kernel coordinate
vanishes.  A 2-face with e >= 3 that spans at most 3 values in one
coordinate of its own lattice is read as g(y1, y2) = a + y2 b + y2^2 c with
a, b, c in y1 alone: each torus zero makes y2 a double root of g, so its y1
is a common root of the discriminant b^2 - 4ac (Gel'fand, Kapranov &
Zelevinsky 1994) and of E, 4c^2 theta_1 g at that double root (of a and b
when c = 0), and the face is empty when their gcd has no nonzero root.
This test is sound but not exact: a shared root need not lift to a zero.
Any other face, and a face whose forms share a zero or whose gcd keeps a
nonzero root, is row-reduced; invertible row operations keep the ideal,
and a reduced row with a single term is a monomial, which proves the face
empty.  The reduced rows then get a saturated Groebner basis, over Z on
primitive polynomials, which stops at the first nonzero constant in the
ideal; so every nonempty face is proven by a basis.  A face whose basis
needs more S-pairs than its budget is reported as "budget exceeded", an
outcome of its own and never a guess.  A nonempty face gets a witness scan
of the same rows over small prime fields.  Each degeneracy claim is proven
by a rational witness verified by substitution, or else by the exact
non-unit basis; a finite-field witness shows a zero modulo its prime alone
and is reported beside that proof.  ``check_face`` is the check of one face,
and ``is_nondegenerate`` runs it once on every proper face off the origin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import mul, sub
from typing import Optional, Sequence

from . import _kernels
from .errors import BudgetExceededError
from .groebner import groebner_basis, is_unit_ideal
from .laurent import LaurentPolynomial, Monomial
from .polytope import Face, _row_lattice_basis, newton_polytope

_PAIR_BUDGET = 60000  # S-pairs one exact face check may take
_SCAN_POINT_CAP = 3_000_000  # witness scans stay below this many torus points
SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
                59, 61, 67, 71, 73, 79, 83, 89, 97, 101)  # fields of the witness scans


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


def _face_terms(f: LaurentPolynomial, face: Face) -> tuple[list[Monomial], list[int], int]:
    """The face's terms, those of f at ``face.points``: their exponents,
    and their coefficients times L, the lcm of their denominators, as ints;
    and L.  Scaling by L changes no zero set and, since sum m_j = 0, no
    circuit relation."""
    terms = [(alpha, c) for alpha, c in f.terms.items() if alpha in face.points]
    lcm = math.lcm(*(c.denominator for _, c in terms))
    return ([alpha for alpha, _ in terms],
            [c.numerator * (lcm // c.denominator) for _, c in terms], lcm)


def _shifted(row: Sequence, exps: Sequence[Monomial]) -> list[tuple[object, Monomial]]:
    """The terms (v, alpha) of sum_j row_j x^alpha_j with row_j nonzero,
    each exponent less their minimum: the row's polynomial times a torus
    unit, with nonnegative exponents."""
    kept = [(v, alpha) for v, alpha in zip(row, exps) if v]
    mins = [min(col) for col in zip(*(alpha for _, alpha in kept))]
    return [(v, tuple(map(sub, alpha, mins))) for v, alpha in kept]


def _row_reduce(rows: list[list[int]]) -> list[list[int]]:
    """The nonzero rows of a row echelon form over QQ of the integer rows in
    which each pivot is the only nonzero entry of its column, so each row is
    a nonzero multiple of a row of the reduced row echelon form.  Rows are
    combined by products and differences alone, with no division, so every
    entry stays an integer."""
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
                rows[i] = [p * a - m * b for a, b in zip(row, top)]
        rank += 1
    return rows[:rank]


def _relation_basis(exps: Sequence[Monomial]) -> list[list[int]]:
    """A basis of the integer relations m (sum m_j = 0, sum m_j alpha_j = 0)
    among the exponents: the rows of the echelon lattice basis of (A^T | I)
    that vanish on A^T, read on I.  A lattice vector that vanishes on A^T
    has a zero coefficient on every row pivoting in A^T, so these rows span
    every integer relation, a saturated lattice."""
    width = 1 + len(exps[0])
    rows = [(1, *alpha, *(int(i == j) for i in range(len(exps)))) for j, alpha in enumerate(exps)]
    return [b[width:] for b in _row_lattice_basis(rows) if not any(b[:width])]


def _poly_mul(a: list[int], b: list[int]) -> list[int]:
    """Product of two polynomials in s, coefficient lists lowest degree first."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _trimmed(a: list[int]) -> list[int]:
    """a less its zero leading coefficients, divided by its content ([] for
    the zero polynomial): a polynomial in s up to a nonzero constant."""
    while a and not a[-1]:
        a.pop()
    g = math.gcd(*a)
    return [x // g for x in a] if g > 1 else a


def _poly_gcd(a: list[int], b: list[int]) -> list[int]:
    """A gcd in Q[s] of two integer polynomials: the primitive remainder
    sequence, every pseudo-remainder divided by its content."""
    a, b = _trimmed(list(a)), _trimmed(list(b))
    while b:
        while len(a) >= len(b):
            la, lb, shift = a[-1], b[-1], len(a) - len(b)
            a = [x * lb for x in a]
            for i, y in enumerate(b):
                a[i + shift] -= la * y
            a = _trimmed(a)
        a, b = b, a
    return a


def _relations_empty(exps: Sequence[Monomial], coeffs: Sequence[int]) -> bool:
    """For a face over QQ with e = 1 or 2 (k = d + 1 + e terms on a d-face):
    True when it has no torus zero, by the Gale dual of its system
    (Gel'fand, Kapranov & Zelevinsky, Discriminants, Resultants and
    Multidimensional Determinants, 1994, ch. 9; Bihan & Sottile, Ann. Inst.
    Fourier 58, 2008); False when the forms below share a zero, which the
    caller proves or refutes by a basis.

    With m^1, ..., m^e a basis of the integer relations, the kernel vectors
    of A = [1; alpha] are y_j = l_j: the constant m^1_j for e = 1, and
    m^1_j s + m^2_j t for e = 2.  A torus zero x gives y_j = c_j x^alpha_j;
    conversely such y with every l_j nonzero comes from a torus point iff
    prod_j (y_j / c_j)^m_j = 1 for every relation m, since the relations cut
    out the image of the torus (the face misses the origin, so
    sum m_j alpha_j = 0 forces sum m_j = 0).  For each basis relation m
    this is the form
    prod_{m_j>0} l_j^m_j prod_{m_j<0} c_j^-m_j - prod_{m_j<0} l_j^-m_j prod_{m_j>0} c_j^m_j
    vanishing.  A coordinate with m_j = 0 in every relation is 0 on the
    whole kernel, so the face is empty.  For e = 1 the form is a constant,
    the circuit relation cross-multiplied, and the face is empty iff it is
    nonzero.  For e = 2 the face is empty iff the two binary forms share no
    zero in P^1 off every l_j = 0: their gcd at t = 1, stripped of each
    factor l_j(s, 1), is a constant, and (1 : 0) is not a common zero off
    the l_j.  The relations of a finite-index sublattice would cut out a
    larger set, so "empty" would stay sound; the saturated basis of
    ``_relation_basis`` makes "not empty" exact as well."""
    basis = _relation_basis(exps)
    lines = [col[::-1] for col in zip(*basis)]  # l_j(s, 1), lowest degree first
    if not all(map(any, lines)):
        return True
    forms = []
    for m in basis:
        sides, consts = [[1], [1]], [1, 1]  # the l_j with m_j > 0, with m_j < 0
        for mj, c, line in zip(m, coeffs, lines):
            side = int(mj < 0)
            for _ in range(abs(mj)):
                sides[side] = _poly_mul(sides[side], line)
            consts[1 - side] *= c ** abs(mj)
        forms.append([consts[0] * x - consts[1] * y for x, y in zip(*sides)])
    if len(forms) == 1:
        return forms[0] != [0]
    if all(a for _, a in lines) and not any(form[-1] for form in forms):
        return False  # (1 : 0) is a common zero: each form there is its top coefficient
    g = _poly_gcd(*forms)
    for b, a in set(lines):
        if a:
            h = math.gcd(a, b)
            while len(g) > 1:
                q = _divide_linear(g, b // h, a // h)
                if q is None:
                    break
                g = q
    return len(g) == 1


def _divide_linear(g: list[int], b: int, a: int) -> Optional[list[int]]:
    """g / (a s + b) for a primitive a s + b that divides g in Q[s], None
    when it does not.  By Gauss's lemma the quotient of an integer g is an
    integer polynomial, so a step that is not exact shows the remainder."""
    carry = list(g)
    q = [0] * (len(g) - 1)
    for i in range(len(g) - 1, 0, -1):
        if carry[i] % a:
            return None
        q[i - 1] = carry[i] // a
        carry[i - 1] -= b * q[i - 1]
    return q if carry[0] == 0 else None


def _plane_coordinates(exps: Sequence[Monomial]) -> list[tuple[int, int]]:
    """The exponents of a 2-face as (p_j, q_j), alpha_j - alpha_0 =
    p_j b1 + q_j b2 in the echelon basis b1, b2 of the lattice spanned by
    the alpha_j - alpha_0, read on b1's pivot and then on b2's (b2 is 0 on
    b1's pivot)."""
    diffs = [tuple(map(sub, alpha, exps[0])) for alpha in exps]
    b1, b2 = _row_lattice_basis(diffs)
    i = next(i for i, x in enumerate(b1) if x)
    j = next(j for j, x in enumerate(b2) if x)
    coords = []
    for diff in diffs:
        p = diff[i] // b1[i]
        coords.append((p, (diff[j] - p * b1[j]) // b2[j]))
    return coords


def _poly_sum(*polys: list[int]) -> list[int]:
    out = [0] * max(map(len, polys))
    for poly in polys:
        for i, x in enumerate(poly):
            out[i] += x
    return out


def _theta(a: list[int]) -> list[int]:
    """y d/dy of a polynomial in y."""
    return [i * x for i, x in enumerate(a)]


def _narrow_face_gcd(exps: Sequence[Monomial], coeffs: Sequence[int]) -> Optional[list[int]]:
    """For a 2-face over QQ: a polynomial in one coordinate y1 (lowest degree
    first, each power of y1 divided out) that vanishes at the y1 of every
    torus zero of the face system, or None when the face spans 4 or more
    values in both of its coordinates.  The face is empty when it is a
    nonzero constant.

    In the coordinates of ``_plane_coordinates``, y = (x^b1, x^b2) maps the
    torus onto (C*)^2 (b1, b2 are independent), and f_face is
    x^alpha_0 g(y) with g = sum_j c_j y1^p_j y2^q_j, so the face system is
    g = theta_1 g = theta_2 g = 0 on (C*)^2.  Name y2 the coordinate that
    spans fewer values, at most 3, and shift both to start at 0:
    g = a(y1) + y2 b(y1) + y2^2 c(y1).  At a torus zero with c(y1) != 0,
    theta_2 g = y2 (b + 2c y2) makes y2 = -b / 2c a double root of g in y2,
    so the discriminant Delta = b^2 - 4ac vanishes (Gel'fand, Kapranov &
    Zelevinsky, Discriminants, Resultants and Multidimensional
    Determinants, 1994, ch. 12), and so does 4c^2 theta_1 g at that y2,
    E = 4c^2 theta(a) - 2bc theta(b) + b^2 theta(c) with theta = y1 d/dy1.
    At a zero with c(y1) = 0, theta_2 g gives b = 0 and then g gives a = 0,
    so Delta and E vanish there too.  When c is 0 (y2 spans 2 values) a
    zero is a common root of a and b.  Either way the gcd vanishes at the
    y1 of each torus zero, so a gcd with no nonzero root leaves none.
    Delta = 0 forces E = 0 (g is then c times a square in y2), and the gcd 0
    decides nothing."""
    coords = _plane_coordinates(exps)
    ps, qs = zip(*coords)
    if max(ps) - min(ps) < max(qs) - min(qs):
        coords, ps, qs = [(q, p) for p, q in coords], qs, ps
    if max(qs) - min(qs) > 2:
        return None
    p0, q0 = min(ps), min(qs)
    rows = [[0] * (max(ps) - p0 + 1) for _ in range(3)]
    for (p, q), cj in zip(coords, coeffs):
        rows[q - q0][p - p0] = cj
    a, b, c = rows
    if not any(c):
        g = _poly_gcd(a, b)
    else:
        bb = _poly_mul(b, b)
        delta = _poly_sum(bb, _poly_mul(a, [-4 * x for x in c]))
        e = _poly_sum(_poly_mul(_poly_mul(c, c), [4 * x for x in _theta(a)]),
                      _poly_mul(_poly_mul(b, c), [-2 * x for x in _theta(b)]),
                      _poly_mul(bb, _theta(c)))
        g = _poly_gcd(delta, e)
    while g and not g[0]:
        g = g[1:]
    return g


def _decide_face(f: LaurentPolynomial, face: Face, max_pairs: int) -> str:
    """Does the face system have a torus zero over the algebraic closure of
    QQ?  "empty" when not, "nonempty" when it has, "budget exceeded" when its
    Groebner basis needs more than max_pairs S-pairs.

    With c the face's coefficients from ``_face_terms``, cleared into
    integers, and A the matrix with the rows 1, alpha_1, ..., alpha_n of
    their exponents, the face system f_face, theta_1 f_face, ...,
    theta_n f_face is the rows of A diag(c).  The face is decided by the
    dimension e = k - d - 1 of the kernel of A, k terms on a d-face:

    - e = 0 (a simplex: the terms sit at affinely independent points) leaves
      only the zero vector, so the face is empty; this is read off the count.
      On a face that misses the origin the hull's points are exactly its
      terms, so a simplex face is read off ``face.points`` before any term.
    - e = 1 (a circuit) and e = 2 are decided by one Gale test
      (``_relations_empty``) on a saturated basis of the integer relations,
      read off the hull's lattice echelon: each relation, read on the kernel
      vectors, gives a form, a constant for e = 1 (the circuit relation) and
      a binary form for e = 2.  When the forms share no zero off the lines
      where a kernel coordinate vanishes the face is empty; otherwise it goes
      on to the basis below, which proves it nonempty.  A saturated basis
      makes the basis run happen exactly on the nonempty faces.
    - e >= 3 on a 2-face: one univariate gcd (``_narrow_face_gcd``) when
      the face spans at most 3 values in one coordinate of the lattice its
      exponents span.  With g the face polynomial in those coordinates,
      g = a(y1) + y2 b(y1) + y2^2 c(y1), every torus zero has its y1 a
      common root of Delta = b^2 - 4ac and E = 4c^2 theta(a) -
      2bc theta(b) + b^2 theta(c) (of a and b when c = 0), so a gcd with no
      nonzero root proves the face empty.  The converse fails (at a common
      root where b vanishes no torus point y2 is a double root of g), so a
      face whose gcd keeps a nonzero root, or is 0, goes on to the basis,
      which alone proves it nonempty; so does a face that spans 4 or more
      values in both coordinates.
    - e >= 3 on faces of dimension 3 or more go on to the basis.

    Only a face that gets past these tests is row-reduced.  A row reduction
    R = S A over QQ (S invertible) keeps the ideal of the face system as
    that of the rows of R diag(c).  A row of R with one nonzero entry is a
    monomial, a unit on the torus, so the face is empty with no Groebner run
    (a coordinate that is 0 on the whole kernel, which the Gale test already
    reads for e <= 2).  Otherwise each row is shifted by its exponent
    minimum, t*x1*...*xn - 1 is appended in one more variable, and the face
    is empty exactly when these generate the unit ideal, decided by a basis
    over Z of primitive polynomials.
    """
    if len(face.points) == face.dim + 1 and not face.contains_origin:
        return "empty"
    exps, coeffs, _ = _face_terms(f, face)
    e = len(exps) - face.dim - 1
    if e == 0 or (e <= 2 and _relations_empty(exps, coeffs)):
        return "empty"
    if e >= 3 and face.dim == 2:
        g = _narrow_face_gcd(exps, coeffs)
        if g is not None and len(g) == 1:
            return "empty"
    R = _row_reduce([[1] * len(exps)] + [[alpha[i] for alpha in exps] for i in range(f.nvars)])
    if any(sum(1 for v in row if v) == 1 for row in R):
        return "empty"
    gens = [{alpha + (0,): v for v, alpha in _shifted(list(map(mul, row, coeffs)), exps)}
            for row in R]
    gens.append({(1,) * (f.nvars + 1): 1, (0,) * (f.nvars + 1): -1})
    try:
        basis = groebner_basis(gens, max_pairs=max_pairs)
    except BudgetExceededError:
        return "budget exceeded"
    return "empty" if is_unit_ideal(basis) else "nonempty"


def _check_face_exact(f: LaurentPolynomial, face: Face, max_pairs: int = _PAIR_BUDGET) -> str:
    """Does the face system have a torus zero over the algebraic closure of QQ?"""
    return _decide_face(f, face, max_pairs)


_NOTES = {"empty": "exact", "nonempty": "exact basis is not the unit ideal",
          "budget exceeded": f"exact check exceeded its budget of {_PAIR_BUDGET} S-pairs"}


def check_face(f: LaurentPolynomial, face: Face) -> FaceCheck:
    """The exact check of one proper face: does the face system have a
    torus zero over the algebraic closure of QQ?

    A vertex face short-circuits, since its system contains a single
    monomial; any other face is decided by ``_check_face_exact``.  The note
    names what decided the face: the exact check, the exact non-unit basis,
    or the pair budget it exceeded.
    """
    if face.is_vertex:
        return FaceCheck(face, "empty", "vertex face: monomial has no torus zero")
    verdict = _check_face_exact(f, face)
    return FaceCheck(face, verdict, _NOTES[verdict])


# ---------------------------------------------------------------------------
# Witness search
# ---------------------------------------------------------------------------

def find_witness(f: LaurentPolynomial, face: Face):
    """Search a torus zero of the face system, preferring a rational one.

    Scans small prime fields exhaustively on the rows of A diag(c), each
    shifted by its exponent minimum, skipping a prime that divides the
    denominators, then attempts a centered-integer lift of the modular hit.
    Returns (point, field_name) or (None, None).
    """
    exps, coeffs, lcm = _face_terms(f, face)
    rows = [_shifted([a * c for a, c in zip(row, coeffs)], exps)
            for row in ([1] * len(exps), *zip(*exps))]
    rows = [row for row in rows if row]
    nvars = f.nvars
    for q in SMALL_PRIMES:
        if (q - 1) ** nvars > _SCAN_POINT_CAP:
            break
        if lcm % q == 0:
            continue
        hit = _kernels.torus_common_zero([[(c % q, e) for c, e in row] for row in rows], nvars, q)
        if hit is None:
            continue
        centered = tuple(w if w <= q // 2 else w - q for w in hit)
        if all(sum(c * math.prod(map(pow, centered, e)) for c, e in row) == 0 for row in rows):
            return tuple(map(Fraction, centered)), "QQ"
        return tuple(map(Fraction, hit)), f"GF({q})"
    return None, None


# ---------------------------------------------------------------------------
# Top-level verdict
# ---------------------------------------------------------------------------

def is_nondegenerate(f: LaurentPolynomial, *, certify: bool = True) -> NondegeneracyReport:
    """Decide nondegeneracy of f with respect to its Newton polytope.

    Each proper face off the origin goes through ``check_face`` once, so
    each non-vertex face is decided once, by the exact rational check.  A
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
        check = check_face(f, face)
        if check.verdict == "nonempty":
            point, fieldname = find_witness(f, face)
            if fieldname == "QQ":
                certificate, note = "rational witness", "witness over QQ"
            else:
                certificate = certificate or "exact basis"
                note = check.note if point is None else f"{check.note}; witness over {fieldname}"
            if point is not None and (witness is None
                                      or (witness_field != "QQ" and fieldname == "QQ")):
                witness, witness_field, witness_face = point, fieldname, face
            check = FaceCheck(face, "nonempty", note)
        checks.append(check)

    if certificate is not None:
        verdict = "degenerate"
    elif any(c.verdict == "budget exceeded" for c in checks):
        verdict = "undecided"
    else:
        verdict, certificate = "nondegenerate", "exact bases"
    return NondegeneracyReport(verdict, tuple(checks), witness, witness_field, witness_face,
                               certificate)
