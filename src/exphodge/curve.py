"""The projective-line engine (one torus variable).

Every sheaf in sight is a line bundle O(a[0] + b[oo]) on P^1, and the
logarithmic one-forms are globally trivialized by dlog x, so a two-term
twisted complex is just a pair of point divisors plus the connection.  Its
hypercohomology is computed from the standard two-chart cover: chart section
spaces are monomial ranges, truncated symmetrically at B.  Two lemmas fix
B and the classical ambient; in each, a quotient complex is triangular with
a nonzero diagonal, hence acyclic.

* For B >= required_truncation(K), the largest |m| over the coefficients m
  of d0 and d1, every chart range at B reaches its truncated end, so T_B is
  a subcomplex of T_(B+1) and the quotient is one 1-2-1 piece per chart
  end.  At the + end, with hi the top exponent of x f' and t its coefficient
  (hi = 0 and t = k = B+1 if x f' has no positive exponent; the - end is the
  mirror image), a_(B+1) -> -c_(B+1) + t p_(B+1+hi) and
  (c, p) -> (-t c - p) r_(B+1+hi), or p -> -r alone with no degree-0 term.
  So T_B computes the hypercohomology, that of the union of all T_B.  The
  hypotheses are checked where a model is built: B against
  required_truncation, every connection image against its range (so the
  lower terms of nabla a_(B+1) lie in T_B), and x f' for a constant term.
* From level -M to level -(M+1) of the classical filtration, the degree-0
  and the degree-1 term each gain 1 + m_0 monomials at 0 (m_0 the pole
  order), and the lowest term of nabla maps the first onto the second with
  diagonal the lowest coefficient of x f' (k when m_0 = 0); oo is alike.
  So every level -M, M >= 0, has the same hypercohomology.

Three filtrations are realized on H^1 and compared inside one ambient model:

* the divisor-twist filtration with degree-p twist floor((p - lam) P);
* the classical curve filtration given by the recursion
      level lam of O for -1 < lam <= 0:  O(S - ceil(lam P)),
      level lam for lam <= -1:           (level lam+1)(S + P),
      level lam of Omega^1:              Omega^1 (x) (level lam-1 of O),
  whose level-(-1) term serves as the exhaustive ambient;
* the compactly supported variant, twisting everything by -T where
  T = S - red(P).

``compare_filtrations(f, rank)`` is the one entry point: it measures each
filtration once and checks the duality h^lam(f) = h_c^(1-lam)(-f).  The
twist dimensions come from the classical ambient, where they are compared
with the other families; the compactly supported side of -f is measured in
its own models.  Each complex K sits at its own truncation
B_K = required_truncation(K), and yields one model, cached by
``_build_model``; equal complexes share it.  Its image in an ambient's H^1
needs no common truncation: every level's divisors are at most its
ambient's, and so is B_K, so each label range
      a in [-d0.m0, B], b in [-B, d0.m_inf], c in [-B, B],
      p in [-d1.m0, B + hi], q in [-B + lo, d1.m_inf], r in [-B + lo, B + hi]
of the level's model nests in the ambient's.  Shared labels have the same
formulas, so T_(B_K)(K) is a subcomplex of the ambient's model, and by the
truncation lemma its H^1 is H^1(K).  A model assembles d0 and d1 by columns
once, integral entries as ``int``, checks d1 d0 = 0 exactly, and keeps
neither matrix.

H^1 is computed in the free coordinates F of ker d1, with no elimination:
d1(c, p, q) = q - p - nabla c, so row r_k holds -1 at p_k and +1 at q_k, and
no other row holds either.  Row r_k pivots at p_k, or at q_k when p_k is out
of range, so rank d1 counts the rows with a pivot, F is every ("c", k) and
each ("q", k) whose p_k is in range, and z_f = e_f - sum_r v_r s_r e_piv(r)
(v_r the entry of f in row r, s_r = +-1 its pivot entry) has z_f[f] = 1 and
z_f[f'] = 0 at every other free f': restriction to F is an isomorphism
ker d1 -> Q^F.  A row with neither p nor q is a class of H^1(P^1, O(d1)),
zero when deg d1 = d1.m0 + d1.m_inf >= -1 (Hartshorne, III.5); a model with
a degree-0 term requires this, and without one such a row counts in h2.
Every boundary is a cocycle (d1 d0 = 0), hence
H^1 = Q^F / (im d0 restricted to F).  The boundaries restricted to F are
eliminated once, rarest column first, giving rank d0 and
h1 = |F| - rank d0; the z_f whose f is no pivot of that echelon are an H^1
basis.  Each boundary of an "a" section restricts to a unit vector, and
the echelon keeps primitive integer rows, so no fraction is built.

Image dimensions in the ambient H^1 are exact ranks, taken by restricting
vectors to F and reducing them on a copy of the ambient's boundary echelon,
brought to reduced form the first time the model serves as an ambient.  So
``quotient_rank`` takes only cocycles of the model: a vector that is not one
has no class, and its restriction would stand for another vector's.  A level
whose labels nest in the ambient's has its boundaries among the ambient's,
so the image of its cocycles is the image of its H^1 basis, and only the
basis is mapped.  A model builds its cocycles on first read, so the
classical ambient, which serves only ``quotient_rank``, builds none.
Injectivity of the classical levels into H^1 (the page-one collapse on
curves) is checked directly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import floor
from typing import Optional

from .errors import IntegrityError
from .laurent import LaurentPolynomial
from .linalg import Echelon, reduced_echelon
from .polytope import newton_polytope
from .spectrum import CheckResult, HodgeSpectrum, jump_candidates


@dataclass(frozen=True)
class PointDivisor:
    """Divisor a[0] + b[oo] on P^1."""

    m0: int
    m_inf: int

    def __add__(self, other):
        return PointDivisor(self.m0 + other.m0, self.m_inf + other.m_inf)

    def __sub__(self, other):
        return PointDivisor(self.m0 - other.m0, self.m_inf - other.m_inf)

    def scale_floor(self, t) -> "PointDivisor":
        """floor(t D) for a rational t (an int or a Fraction), in integers."""
        n, d = t.numerator, t.denominator
        return PointDivisor(n * self.m0 // d, n * self.m_inf // d)


S_DIVISOR = PointDivisor(1, 1)
ZERO_DIVISOR = PointDivisor(0, 0)


def pole_divisor(f: LaurentPolynomial) -> PointDivisor:
    """Pole orders of f at 0 and oo."""
    if f.nvars != 1:
        raise ValueError("curve engine needs one variable")
    exps = [a[0] for a in f.terms]
    if not exps:
        return ZERO_DIVISOR
    return PointDivisor(max(0, -min(exps)), max(0, max(exps)))


def reduced(D: PointDivisor) -> PointDivisor:
    return PointDivisor(int(D.m0 > 0), int(D.m_inf > 0))


@dataclass(frozen=True)
class TwoTermComplex:
    """[O(d0) --nabla--> O(d1) dlog x]; d0 = None drops the degree-0 term."""

    d0: Optional[PointDivisor]
    d1: PointDivisor
    f: LaurentPolynomial


def _theta_terms(f: LaurentPolynomial) -> dict[int, Fraction]:
    """x f'(x) as exponent -> coefficient, an int where it is integral: the
    term c x^k of f gives k c x^k."""
    out = {}
    for (k,), c in f.terms.items():
        if k:
            v = k * c
            out[k] = v.numerator if v.denominator == 1 else v
    return out


def required_truncation(K: TwoTermComplex) -> int:
    """The least B of the truncation lemma: the largest |m| over d0 and d1."""
    need = [abs(K.d1.m0), abs(K.d1.m_inf)]
    if K.d0 is not None:
        need += [abs(K.d0.m0), abs(K.d0.m_inf)]
    return max(need + [0])


class CechModel:
    """Total complex of the two-chart cover of a two-term complex.

    T^0 = G(U0, K0) + G(U1, K0);  T^1 = G(U01, K0) + G(U0, K1) + G(U1, K1);
    T^2 = G(U01, K1);  d0(a, b) = (b - a, Da, Db);  d1(c, p, q) = q - p - Dc.

    Labels: ("a", k), ("b", k) in T^0; ("c", k), ("p", k), ("q", k) in T^1;
    ("r", k) in T^2, where k is the monomial exponent.
    """

    def __init__(self, K: TwoTermComplex, B: int):
        if B < required_truncation(K):
            raise ValueError(f"truncation {B} below required {required_truncation(K)}")
        self.complex = K
        self.B = B
        self._theta = _theta_terms(K.f)
        # lowest and highest exponent of x f', the range widened to contain 0
        lo, hi = min([0, *self._theta]), max([0, *self._theta])

        def rng(a, b):
            return list(range(a, b + 1)) if a <= b else []

        if K.d0 is not None:
            a_rng = rng(-K.d0.m0, B)
            b_rng = rng(-B, K.d0.m_inf)
            c_rng = rng(-B, B)
            self._check_maps(K, lo, hi)
        else:
            a_rng = b_rng = c_rng = []
        p_rng = rng(-K.d1.m0, B + hi)
        q_rng = rng(-B + lo, K.d1.m_inf)
        r_rng = rng(-B + lo, B + hi)

        self.labels0 = [("a", k) for k in a_rng] + [("b", k) for k in b_rng]
        self.labels1 = ([("c", k) for k in c_rng] + [("p", k) for k in p_rng]
                        + [("q", k) for k in q_rng])
        self.labels2 = [("r", k) for k in r_rng]
        d0_columns, d1_columns = self._assemble()
        self._check_square_zero(d0_columns, d1_columns)

        # d1 read from the labels: row r_k pivots at p_k, else at q_k, with
        # entry s = -1 or +1; the free columns give the cocycles on first read
        idx1 = {lab: j for j, lab in enumerate(self.labels1)}
        pivot_of = {r: (idx1[("p", k)], -1) if k >= -K.d1.m0 else (idx1[("q", k)], 1)
                    for r, (_, k) in enumerate(self.labels2) if k >= -K.d1.m0 or k <= K.d1.m_inf}
        d1_pivots = {j for j, _ in pivot_of.values()}
        free = [j for j in range(len(self.labels1)) if j not in d1_pivots]
        self._d1_free = ([(fc, d1_columns[fc]) for fc in free], pivot_of)
        self._cocycles: Optional[list[dict]] = None
        # the boundaries restricted to F, eliminated once; F's columns rarest
        # in the boundaries first, and every other T^1 label maps to None
        count = Counter(j for col in d0_columns for j in col if j not in d1_pivots)
        order = sorted(free, key=lambda j: (count[j], j))
        position = dict(zip(order, range(len(order))))
        self._coordinate = {lab: position.get(j) for j, lab in enumerate(self.labels1)}
        self._boundary_echelon = Echelon()
        for col in d0_columns:
            self._boundary_echelon.add({position[j]: v for j, v in col.items() if j in position})
        self._boundaries_reduced = False
        self._h1_basis: Optional[list[dict]] = None

        rank_d0 = self._boundary_echelon.rank
        self.h0 = len(self.labels0) - rank_d0
        self.h1 = len(free) - rank_d0
        self.h2 = len(self.labels2) - len(pivot_of)
        if self.h0 < 0 or self.h1 < 0 or self.h2 < 0:
            raise IntegrityError("negative cohomology dimension in the cover model")

    def _assemble(self) -> tuple[list[dict], list[dict]]:
        """Columns of d0 and of d1, index-keyed, integral entries as int."""
        th = self._theta
        if 0 in th:  # nabla's parts would collide
            raise IntegrityError("x f' has a constant term")
        idx1 = {lab: i for i, lab in enumerate(self.labels1)}
        idx2 = {lab: i for i, lab in enumerate(self.labels2)}

        images: dict[int, dict] = {}

        def nabla(k) -> dict[int, object]:
            # x^k goes to (k + x f') x^k; a_k, b_k and c_k share one image
            out = images.get(k)
            if out is None:
                out = images[k] = {k + e: c for e, c in th.items()}
                if k:
                    out[k] = k
            return out

        d0_columns = []
        for side, k in self.labels0:
            col = {idx1[("c", k)]: -1 if side == "a" else 1}
            out_side = "p" if side == "a" else "q"
            for j, c in nabla(k).items():
                row = idx1.get((out_side, j))
                if row is None:
                    raise IntegrityError(
                        f"connection image x^{j} escapes the {out_side}-range")
                col[row] = c
            d0_columns.append(col)
        d1_columns = []
        for side, k in self.labels1:
            if side == "c":
                d1_columns.append({idx2[("r", j)]: -c for j, c in nabla(k).items()})
            else:
                d1_columns.append({idx2[("r", k)]: -1 if side == "p" else 1})
        return d0_columns, d1_columns

    @staticmethod
    def _check_maps(K: TwoTermComplex, lo: int, hi: int):
        # a row of d1 with neither p nor q would need an elimination
        degree = K.d1.m0 + K.d1.m_inf
        if degree < -1:
            raise ValueError(f"degree-1 sheaf of degree {degree} < -1 under a degree-0 term")
        # basis monomial check: nabla sends chart sections of O(d0) into the
        # chart sections of the degree-1 sheaf
        if -K.d0.m0 + min(0, lo) < -K.d1.m0:
            raise ValueError("connection does not map into the degree-1 sheaf at 0")
        if K.d0.m_inf + max(0, hi) > K.d1.m_inf:
            raise ValueError("connection does not map into the degree-1 sheaf at oo")

    def _check_square_zero(self, d0_columns: list[dict], d1_columns: list[dict]):
        """d1 d0 = 0, exactly: every boundary is a cocycle, which the H^1
        computation in the free coordinates of ker d1 rests on."""
        for col, lab in zip(d0_columns, self.labels0):
            image: dict[int, object] = {}
            for j, v in col.items():
                for r, w in d1_columns[j].items():
                    image[r] = image.get(r, 0) + v * w
            if any(image.values()):
                raise IntegrityError(f"d1 d0 != 0 on the column of {lab}")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    @cached_property
    def label_sets(self) -> tuple[frozenset, frozenset]:
        """The T^0 and the T^1 labels as sets, for nesting tests (built once)."""
        return frozenset(self.labels0), frozenset(self.labels1)

    def cocycles(self) -> list[dict]:
        """Basis of ker d1, as label-keyed sparse vectors: one z_f = e_f -
        sum v s e_piv per free column f of d1, in label order, 1 at f and 0
        at every other free column (built once, on first read)."""
        if self._cocycles is None:
            columns, pivot_of = self._d1_free
            labels = self.labels1
            self._cocycles = []
            for fc, column in columns:
                z = {labels[fc]: 1}
                for r, v in column.items():
                    j, s = pivot_of[r]
                    z[labels[j]] = -v * s
                self._cocycles.append(z)
            del self._d1_free
        return self._cocycles

    def h1_basis(self) -> list[dict]:
        """Cocycles whose classes form a basis of H^1 (computed once): the z_f
        whose free column f is no pivot of the restricted boundary echelon."""
        if self._h1_basis is None:
            pivots = self._boundary_echelon.pivots
            free = [k for k in map(self._coordinate.get, self.labels1) if k is not None]
            basis = [z for z, k in zip(self.cocycles(), free) if k not in pivots]
            if len(basis) != self.h1:
                raise IntegrityError(
                    f"H^1 basis has {len(basis)} classes, the ranks give {self.h1}")
            self._h1_basis = basis
        return self._h1_basis

    def boundary_echelon(self) -> Echelon:
        """A copy of the reduced echelon of im d0 restricted to the free
        coordinates, for reductions modulo boundaries."""
        if not self._boundaries_reduced:
            self._boundary_echelon = reduced_echelon(self._boundary_echelon)
            self._boundaries_reduced = True
        return self._boundary_echelon.copy()

    def quotient_rank(self, vecs, echelon: Optional[Echelon] = None) -> int:
        """Dimension of the span of label-keyed cocycles of this model modulo
        im d0.  Each vector is restricted to the free coordinates of ker d1,
        which determine a cocycle.  Given an echelon from
        ``boundary_echelon``, reduce on it and keep there the vectors that
        raise its rank."""
        if echelon is None:
            echelon = self.boundary_echelon()
        coordinate = self._coordinate
        return sum(echelon.add({k: v for lab, v in vec.items()
                                if (k := coordinate[lab]) is not None}) for vec in vecs)


@lru_cache(maxsize=512)
def _build_model(K: TwoTermComplex, B: int) -> CechModel:
    return CechModel(K, B)


def cech_hypercohomology(K: TwoTermComplex) -> CechModel:
    """The cover model at truncation required_truncation(K), from which on
    every truncation gives the same hypercohomology."""
    return _build_model(K, required_truncation(K))


def _image_generators(sub: CechModel, ambient: CechModel) -> list[dict]:
    """Cocycles of sub that span its image in H^1(ambient) under the
    componentwise inclusion (label spaces must nest).  When the T^0 labels
    nest too, im d0(sub) lies in im d0(ambient) and the H^1 basis suffices."""
    sub0, sub1 = sub.label_sets
    amb0, amb1 = ambient.label_sets
    if not sub1 <= amb1:
        missing = sorted(sub1 - amb1)[:3]
        raise ValueError(f"subcomplex labels escape the ambient model: {missing}")
    if sub0 <= amb0:
        return sub.h1_basis()
    return sub.cocycles()


def h1_image_dim(sub: CechModel, ambient: CechModel) -> int:
    """Dimension of the image of H^1(sub) in H^1(ambient), via the
    componentwise inclusion (label spaces must nest)."""
    return ambient.quotient_rank(_image_generators(sub, ambient))


# ---------------------------------------------------------------------------
# The three filtrations on H^1
# ---------------------------------------------------------------------------

def divisor_twist_level(f: LaurentPolynomial, lam) -> TwoTermComplex:
    """Level lam of the divisor-twist filtration, degree-0 term dropped for
    lam > 0."""
    lam = Fraction(lam)
    P = pole_divisor(f)
    d1 = P.scale_floor(1 - lam)
    if lam > 0:
        return TwoTermComplex(None, d1, f)
    return TwoTermComplex(P.scale_floor(-lam), d1, f)


def deligne_level(f: LaurentPolynomial, lam) -> TwoTermComplex:
    """Level lam (0 <= lam <= 1) of the classical curve filtration: above 0
    the degree-0 term vanishes and the level is the divisor-twist level."""
    if lam > 0:
        return divisor_twist_level(f, lam)
    if lam != 0:
        raise ValueError("levels below 0 are served by deligne_ambient")
    return TwoTermComplex(S_DIVISOR, S_DIVISOR + pole_divisor(f), f)


def deligne_ambient(f: LaurentPolynomial, M: int) -> TwoTermComplex:
    """Level -M (integer M >= 0): O((M+1)S + MP) -> Omega_log((M+1)(S+P));
    every M has the same H^1, and M = 0 is cF^0 itself."""
    P = pole_divisor(f)
    d0 = S_DIVISOR.scale_floor(M + 1) + P.scale_floor(M)
    d1 = (S_DIVISOR + P).scale_floor(M + 1)
    return TwoTermComplex(d0, d1, f)


def compact_level(f: LaurentPolynomial, lam) -> TwoTermComplex:
    """Level lam of the compactly supported filtration: the divisor-twist
    level twisted by -T, T = S - red(P)."""
    K = divisor_twist_level(f, lam)
    T = S_DIVISOR - reduced(pole_divisor(f))
    if K.d0 is None:
        return TwoTermComplex(None, K.d1 - T, f)
    return TwoTermComplex(K.d0 - T, K.d1 - T, f)


def _filtration_dims(levels, ambient: TwoTermComplex):
    """(dim of the image in H^1(ambient), dim H^1) of each level, every model
    at its own truncation; and the ambient's model."""
    amb = cech_hypercohomology(ambient)
    out = []
    for K in levels:
        sub = cech_hypercohomology(K)
        out.append((h1_image_dim(sub, amb), sub.h1))
    return out, amb


# Level of the classical ambient: every level -M, M >= 0, has the same H^1,
# but level 0 is cF^0 itself, whose injectivity would be a tautology.
_AMBIENT_M = 1


# ---------------------------------------------------------------------------
# Comparisons and duality
# ---------------------------------------------------------------------------

def _toric_generators(f: LaurentPolynomial, lam: Fraction) -> list[dict]:
    """Global level-lam one-forms as hypercocycles (0, g, g) of the cover:
    x^k dlog x for every lattice point k of weight at most 1 - lam, that is
    of numerator at most floor((1 - lam) D)."""
    poly = newton_polytope(f)
    cap = floor((1 - lam) * poly.weight_denominator)
    return [{("p", k): 1, ("q", k): 1} for (k,), w in poly.dilate_weights.items() if w <= cap]


@dataclass(frozen=True)
class CurveFiltrationReport:
    jumps: tuple[Fraction, ...]
    twist_dims: tuple[int, ...]
    deligne_dims: tuple[int, ...]
    compact_dims: tuple[int, ...]
    toric_dims: tuple[int, ...]
    dims_agree: bool
    subspaces_agree: bool
    deligne_injective: bool
    duality_ok: bool
    duality_pairs: tuple[tuple[Fraction, int, int], ...]  # (lam, h^lam, h_c^(1-lam) of -f)

    def to_json(self) -> dict:
        return {
            "jumps": [str(j) for j in self.jumps],
            "twist_dims": list(self.twist_dims),
            "deligne_dims": list(self.deligne_dims),
            "compact_dims": list(self.compact_dims),
            "toric_dims": list(self.toric_dims),
            "dims_agree": self.dims_agree,
            "subspaces_agree": self.subspaces_agree,
            "deligne_injective": self.deligne_injective,
            "duality_ok": self.duality_ok,
            "duality_pairs": [
                {"lambda": str(l), "h": a, "h_c_dual": b} for l, a, b in self.duality_pairs
            ],
        }


def _graded(dims: list[int]) -> list[int]:
    """Graded dimensions of a filtration given by its dims at consecutive jumps."""
    return [d - d_next for d, d_next in zip(dims, dims[1:] + [0])]


def compare_filtrations(f: LaurentPolynomial, rank: HodgeSpectrum) -> CurveFiltrationReport:
    """Three-way agreement of the filtrations on H^1, at the level of both
    dimensions and subspaces of one ambient model, against the given rank
    spectrum of f; plus the duality h^lam(f) = h_c^(1-lam)(-f)."""
    if f.nvars != 1:
        raise ValueError("curve comparison needs one variable")
    jumps = jump_candidates(f)
    neg = -f
    ambient = deligne_ambient(f, _AMBIENT_M)
    twist = [divisor_twist_level(f, lam) for lam in jumps]
    deligne = [deligne_level(f, lam) for lam in jumps]
    compact = [compact_level(f, lam) for lam in jumps]
    compact_neg = [compact_level(neg, lam) for lam in jumps]
    # each model at its own truncation: its labels nest in its ambient's
    deligne_measured, amb = _filtration_dims(deligne, ambient)
    deligne_dims = [d for d, _ in deligne_measured]
    compact_measured, _ = _filtration_dims(compact, compact_level(f, 0))
    twist_dims = []
    toric_dims = []
    subspace_ok = True
    _, ambient_labels = amb.label_sets
    for lam, Kp, Kd, dd in zip(jumps, twist, deligne, deligne_dims):
        Zp = _image_generators(cech_hypercohomology(Kp), amb)
        # above 0 the classical level is the twist level: Zp covers it
        Zd = [] if Kd == Kp else _image_generators(cech_hypercohomology(Kd), amb)
        Zt = _toric_generators(f, lam)
        for vec in Zt:
            stray = vec.keys() - ambient_labels
            if stray:
                raise IntegrityError(f"toric generator escapes the ambient model: {stray}")
        joint = amb.boundary_echelon()
        dp = amb.quotient_rank(Zp, joint)
        dt = amb.quotient_rank(Zt)
        twist_dims.append(dp)
        toric_dims.append(dt)
        # the joint rank continues from the echelon that took Zp
        if not (dp == dd == dt == dp + amb.quotient_rank(Zd + Zt, joint)):
            subspace_ok = False
    partial = [sum(m for l, m in rank.entries if l >= lam) for lam in jumps]
    dims_agree = (twist_dims == deligne_dims == toric_dims == partial)
    # h^lam(f) from the twist dims just measured, h_c^(1-lam)(-f) from the
    # models of -f; the jumps are symmetric under lam -> 1 - lam
    neg_measured, _ = _filtration_dims(compact_neg, compact_level(neg, 0))
    gr = _graded(twist_dims)
    gr_c = dict(zip(jumps, _graded([d for d, _ in neg_measured])))
    pairs = tuple((lam, a, gr_c.get(1 - lam, 0)) for lam, a in zip(jumps, gr))
    return CurveFiltrationReport(
        tuple(jumps), tuple(twist_dims), tuple(deligne_dims),
        tuple(d for d, _ in compact_measured),
        tuple(toric_dims), dims_agree, subspace_ok,
        all(d == h1 for d, h1 in deligne_measured),
        all(a == b for _, a, b in pairs), pairs)


# ---------------------------------------------------------------------------
# Check adapters for the analysis report
# ---------------------------------------------------------------------------

def comparison_check(rep: CurveFiltrationReport) -> CheckResult:
    ok = rep.dims_agree and rep.subspaces_agree and rep.deligne_injective
    return CheckResult("pass" if ok else "fail", {"report": rep.to_json()})


def duality_summary(rep: CurveFiltrationReport) -> CheckResult:
    detail = {"pairs": [{"lambda": str(l), "h": a, "h_c_dual": b}
                        for l, a, b in rep.duality_pairs]}
    return CheckResult("pass" if rep.duality_ok else "fail", detail)
