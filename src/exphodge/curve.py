"""The projective-line engine (one torus variable).

Every sheaf in sight is a line bundle O(a[0] + b[oo]) on P^1, and the
logarithmic one-forms are globally trivialized by dlog x, so a two-term
twisted complex is just a pair of point divisors plus the connection.  Its
hypercohomology is computed from the standard two-chart cover: chart section
spaces are monomial ranges, truncated symmetrically at B with a mandatory
stability assertion (dims must not move under B -> B+5).

Three filtrations are realized on H^1 and compared inside one ambient model:

* the divisor-twist filtration with degree-p twist floor((p - lam) P);
* the classical curve filtration given by the recursion
      level lam of O for -1 < lam <= 0:  O(S - ceil(lam P)),
      level lam for lam <= -1:           (level lam+1)(S + P),
      level lam of Omega^1:              Omega^1 (x) (level lam-1 of O),
  whose level-(-M) terms serve as the exhaustive ambient;
* the compactly supported variant, twisting everything by -T where
  T = S - red(P).

Image dimensions in the ambient H^1 are exact ranks; injectivity of the
classical levels into H^1 (the page-one collapse on curves) is checked
directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import floor
from typing import Optional

from .errors import IntegrityError
from .laurent import LaurentPolynomial, log_derivative, make_laurent
from .linalg import SparseRationalMatrix, exact_rank, image_dim_over, nullspace_basis
from .spectrum import CheckResult, spectrum_rank


@dataclass(frozen=True)
class PointDivisor:
    """Divisor a[0] + b[oo] on P^1."""

    m0: int
    m_inf: int

    def __add__(self, other):
        return PointDivisor(self.m0 + other.m0, self.m_inf + other.m_inf)

    def __sub__(self, other):
        return PointDivisor(self.m0 - other.m0, self.m_inf - other.m_inf)

    def __neg__(self):
        return PointDivisor(-self.m0, -self.m_inf)

    def scale_floor(self, t) -> "PointDivisor":
        t = Fraction(t)
        return PointDivisor(floor(t * self.m0), floor(t * self.m_inf))

    def times(self, k: int) -> "PointDivisor":
        return PointDivisor(k * self.m0, k * self.m_inf)

    @property
    def is_effective(self) -> bool:
        return self.m0 >= 0 and self.m_inf >= 0


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
    label: str = ""


def _theta_terms(f: LaurentPolynomial) -> dict[int, Fraction]:
    """x f'(x) as exponent -> coefficient."""
    th = log_derivative(f, 1)
    return {a[0]: c for a, c in th.terms.items()}


def required_truncation(K: TwoTermComplex) -> int:
    th = _theta_terms(K.f)
    lo = min([0] + [e for e in th]) if th else 0
    hi = max([0] + [e for e in th]) if th else 0
    need = [K.d1.m0 - lo, K.d1.m_inf - hi, abs(K.d1.m0), abs(K.d1.m_inf)]
    if K.d0 is not None:
        need += [abs(K.d0.m0), abs(K.d0.m_inf)]
    return max(need + [0])


def default_truncation(f: LaurentPolynomial) -> int:
    P = pole_divisor(f)
    return 4 * (P.m0 + P.m_inf + 2) + 10


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
        th = _theta_terms(K.f)
        lo = min([0] + list(th)) if th else 0
        hi = max([0] + list(th)) if th else 0

        def rng(a, b):
            return list(range(a, b + 1)) if a <= b else []

        if K.d0 is not None:
            a_rng = rng(-K.d0.m0, B)
            b_rng = rng(-B, K.d0.m_inf)
            c_rng = rng(-B, B)
            self._check_maps(K, th)
        else:
            a_rng = b_rng = c_rng = []
        p_rng = rng(-K.d1.m0, B + hi)
        q_rng = rng(-B + lo, K.d1.m_inf)
        r_rng = rng(-B + lo, B + hi)

        self.labels0 = [("a", k) for k in a_rng] + [("b", k) for k in b_rng]
        self.labels1 = ([("c", k) for k in c_rng] + [("p", k) for k in p_rng]
                        + [("q", k) for k in q_rng])
        self.labels2 = [("r", k) for k in r_rng]
        idx0 = {lab: i for i, lab in enumerate(self.labels0)}
        idx1 = {lab: i for i, lab in enumerate(self.labels1)}
        idx2 = {lab: i for i, lab in enumerate(self.labels2)}

        def nabla(k) -> dict[int, Fraction]:
            out: dict[int, Fraction] = {}
            if k != 0:
                out[k] = Fraction(k)
            for e, c in th.items():
                j = k + e
                s = out.get(j, Fraction(0)) + c
                if s == 0:
                    out.pop(j, None)
                else:
                    out[j] = s
            return out

        d0_entries: dict[tuple[int, int], Fraction] = {}
        for lab in self.labels0:
            side, k = lab
            col = idx0[lab]
            sign = Fraction(-1) if side == "a" else Fraction(1)
            d0_entries[(idx1[("c", k)], col)] = sign
            out_side = "p" if side == "a" else "q"
            for j, c in nabla(k).items():
                row = idx1.get((out_side, j))
                if row is None:
                    raise IntegrityError(
                        f"connection image x^{j} escapes the {out_side}-range")
                d0_entries[(row, col)] = c
        self.d0 = SparseRationalMatrix(len(self.labels1), len(self.labels0), d0_entries)

        d1_entries: dict[tuple[int, int], Fraction] = {}
        for lab in self.labels1:
            side, k = lab
            col = idx1[lab]
            if side == "p":
                d1_entries[(idx2[("r", k)], col)] = Fraction(-1)
            elif side == "q":
                d1_entries[(idx2[("r", k)], col)] = Fraction(1)
            else:
                for j, c in nabla(k).items():
                    d1_entries[(idx2[("r", j)], col)] = -c
        self.d1 = SparseRationalMatrix(len(self.labels2), len(self.labels1), d1_entries)

        rank_d0 = exact_rank(self.d0)
        rank_d1 = exact_rank(self.d1)
        self.h0 = len(self.labels0) - rank_d0
        self.h1 = (len(self.labels1) - rank_d1) - rank_d0
        self.h2 = len(self.labels2) - rank_d1
        if self.h0 < 0 or self.h1 < 0 or self.h2 < 0:
            raise IntegrityError("negative cohomology dimension in the cover model")

    @staticmethod
    def _check_maps(K: TwoTermComplex, th: dict[int, Fraction]):
        # basis monomial check: nabla sends chart sections of O(d0) into the
        # chart sections of the degree-1 sheaf
        lo = min([0] + list(th)) if th else 0
        hi = max([0] + list(th)) if th else 0
        if -K.d0.m0 + min(0, lo) < -K.d1.m0:
            raise ValueError("connection does not map into the degree-1 sheaf at 0")
        if K.d0.m_inf + max(0, hi) > K.d1.m_inf:
            raise ValueError("connection does not map into the degree-1 sheaf at oo")

    @property
    def dims(self) -> tuple[int, int, int]:
        return (self.h0, self.h1, self.h2)

    def cocycles(self) -> list[dict]:
        """Basis of ker d1, as label-keyed sparse vectors."""
        out = []
        for vec in nullspace_basis(self.d1):
            out.append({self.labels1[j]: v for j, v in vec.items()})
        return out

    def boundaries(self) -> list[dict]:
        """Generators of im d0, label-keyed."""
        cols = self.d0.columns()
        return [{self.labels1[j]: v for j, v in col.items()} for col in cols if col]


@lru_cache(maxsize=512)
def _build_model(K: TwoTermComplex, B: int) -> CechModel:
    return CechModel(K, B)


def cech_hypercohomology(K: TwoTermComplex, B: Optional[int] = None) -> CechModel:
    """Build the cover model at truncation B (default from the pole divisor)
    and assert the dimensions are stable under B -> B+5."""
    if B is None:
        B = max(default_truncation(K.f), required_truncation(K) + 10)
    model = _build_model(K, B)
    probe = _build_model(K, B + 5)
    if model.dims != probe.dims:
        raise IntegrityError(
            f"truncation unstable: dims {model.dims} at B={B} vs {probe.dims} at B={B + 5}")
    return model


def h1_image_dim(sub: CechModel, ambient: CechModel) -> int:
    """Dimension of the image of H^1(sub) in H^1(ambient), via the
    componentwise inclusion (label spaces must nest)."""
    missing = set(sub.labels1) - set(ambient.labels1)
    if missing:
        raise ValueError(f"subcomplex labels escape the ambient model: {sorted(missing)[:3]}")
    return image_dim_over(sub.cocycles(), ambient.boundaries())


# ---------------------------------------------------------------------------
# The three filtrations on H^1
# ---------------------------------------------------------------------------

def curve_jumps(f: LaurentPolynomial) -> list[Fraction]:
    """Candidate jumps in [0, 1]: multiples of the reciprocal pole orders."""
    P = pole_divisor(f)
    out = {Fraction(0), Fraction(1)}
    for e in (P.m0, P.m_inf):
        for k in range(0, e + 1):
            if e:
                out.add(Fraction(k, e))
    return sorted(out)


def divisor_twist_level(f: LaurentPolynomial, lam) -> TwoTermComplex:
    """Level lam of the divisor-twist filtration, degree-0 term dropped for
    lam > 0."""
    lam = Fraction(lam)
    P = pole_divisor(f)
    d1 = P.scale_floor(1 - lam)
    if lam > 0:
        return TwoTermComplex(None, d1, f, f"F^{lam}")
    return TwoTermComplex(P.scale_floor(-lam), d1, f, f"F^{lam}")


def deligne_level(f: LaurentPolynomial, lam) -> TwoTermComplex:
    """Level lam (0 <= lam <= 1) of the classical curve filtration."""
    lam = Fraction(lam)
    P = pole_divisor(f)
    if lam > 0:
        # degree-0 term vanishes; degree-1 term coincides with the
        # divisor-twist filtration at this level
        return TwoTermComplex(None, P.scale_floor(1 - lam), f, f"cF^{lam}")
    if lam != 0:
        raise ValueError("levels below 0 are served by deligne_ambient")
    return TwoTermComplex(S_DIVISOR, S_DIVISOR + P, f, "cF^0")


def deligne_ambient(f: LaurentPolynomial, M: int) -> TwoTermComplex:
    """Level -M (integer M >= 1): O((M+1)S + MP) -> Omega_log((M+1)(S+P))."""
    P = pole_divisor(f)
    d0 = S_DIVISOR.times(M + 1) + P.times(M)
    d1 = (S_DIVISOR + P).times(M + 1)
    return TwoTermComplex(d0, d1, f, f"cF^-{M}")


def compact_level(f: LaurentPolynomial, lam) -> TwoTermComplex:
    """Level lam of the compactly supported filtration: twist by -T,
    T = S - red(P)."""
    lam = Fraction(lam)
    P = pole_divisor(f)
    T = S_DIVISOR - reduced(P)
    d1 = P.scale_floor(1 - lam) - T
    if lam > 0:
        return TwoTermComplex(None, d1, f, f"cptF^{lam}")
    return TwoTermComplex(P.scale_floor(-lam) - T, d1, f, f"cptF^{lam}")


def _shared_truncation(f: LaurentPolynomial, complexes, override: Optional[int]) -> int:
    B = max([default_truncation(f)] + [required_truncation(K) + 10 for K in complexes])
    if override is not None:
        B = max(B, override)
    return B


def _filtration_dims(f: LaurentPolynomial, levels, ambient: TwoTermComplex,
                     truncation: Optional[int]):
    B = _shared_truncation(f, [ambient] + [K for _, K in levels], truncation)
    amb = cech_hypercohomology(ambient, B)
    out = []
    for lam, K in levels:
        sub = cech_hypercohomology(K, B)
        out.append((lam, h1_image_dim(sub, amb), sub.h1))
    return out, amb


def divisor_twist_filtration_on_H1(f: LaurentPolynomial,
                           truncation: Optional[int] = None) -> list[tuple[Fraction, int]]:
    """Induced filtration dims on H^1 from the divisor-twist levels."""
    P = pole_divisor(f)
    if P == ZERO_DIVISOR:
        raise ValueError("f must be nonconstant")
    levels = [(lam, divisor_twist_level(f, lam)) for lam in curve_jumps(f)]
    dims, _ = _filtration_dims(f, levels, divisor_twist_level(f, 0), truncation)
    return [(lam, d) for lam, d, _ in dims]


def _deligne_stable_M(f: LaurentPolynomial, truncation: Optional[int]) -> int:
    """Smallest doubling level whose ambient H^1 dim repeats twice."""
    history = []
    M = 2
    while M <= 32:
        amb = deligne_ambient(f, M)
        B = _shared_truncation(f, [amb], truncation)
        model = cech_hypercohomology(amb, B)
        history.append((M, model.h1))
        if len(history) >= 3 and history[-1][1] == history[-2][1] == history[-3][1]:
            return M
        M *= 2
    raise IntegrityError("stabilization failure: ambient H^1 keeps moving up to M=32")


def _deligne_data(f: LaurentPolynomial, truncation: Optional[int]):
    M = _deligne_stable_M(f, truncation)
    ambient = deligne_ambient(f, M)
    levels = [(lam, deligne_level(f, lam)) for lam in curve_jumps(f)]
    dims, amb = _filtration_dims(f, levels, ambient, truncation)
    filt = [(lam, d) for lam, d, _ in dims]
    injective = [(lam, d == h1) for lam, d, h1 in dims]
    return filt, injective, amb


def deligne_filtration_on_H1(f: LaurentPolynomial,
                             truncation: Optional[int] = None) -> list[tuple[Fraction, int]]:
    """Induced filtration dims on H^1 from the classical curve levels, using
    a stabilized exhaustive ambient."""
    filt, _, _ = _deligne_data(f, truncation)
    return filt


def deligne_injectivity(f: LaurentPolynomial,
                        truncation: Optional[int] = None) -> list[tuple[Fraction, bool]]:
    """Page-one collapse on curves: every level maps injectively into H^1."""
    _, injective, _ = _deligne_data(f, truncation)
    return injective


def compact_filtration_on_H1(f: LaurentPolynomial,
                             truncation: Optional[int] = None) -> list[tuple[Fraction, int]]:
    """Induced filtration dims on compactly supported H^1."""
    levels = [(lam, compact_level(f, lam)) for lam in curve_jumps(f)]
    dims, _ = _filtration_dims(f, levels, compact_level(f, 0), truncation)
    return [(lam, d) for lam, d, _ in dims]


# ---------------------------------------------------------------------------
# Comparisons and duality
# ---------------------------------------------------------------------------

def _toric_generators(f: LaurentPolynomial, lam: Fraction) -> list[dict]:
    """Global level-lam one-forms as hypercocycles (0, g, g) of the cover."""
    from .polytope import newton_polytope

    poly = newton_polytope(f)
    gens = []
    for alpha in poly.lattice_points_in_dilate(Fraction(1) - lam):
        k = alpha[0]
        gens.append({("p", k): Fraction(1), ("q", k): Fraction(1)})
    return gens


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


def _gr_dims(filtration: list[tuple[Fraction, int]]) -> dict[Fraction, int]:
    gr = {}
    for (lam, d), (_, d_next) in zip(filtration, filtration[1:] + [(None, 0)]):
        gr[lam] = d - d_next
    return gr


def duality_check_curve(f: LaurentPolynomial, truncation: Optional[int] = None):
    """h^lam(f) = h_c^(1-lam)(-f) at every jump, both sides computed by
    independent cover models."""
    jumps = curve_jumps(f)
    gr = _gr_dims(divisor_twist_filtration_on_H1(f, truncation))
    gr_c = _gr_dims(compact_filtration_on_H1(-f, truncation))
    pairs = []
    ok = True
    for lam in jumps:
        a = gr.get(lam, 0)
        b = gr_c.get(Fraction(1) - lam, 0)
        pairs.append((lam, a, b))
        if a != b:
            ok = False
    return ok, tuple(pairs)


def compare_filtrations(f: LaurentPolynomial,
                        truncation: Optional[int] = None) -> CurveFiltrationReport:
    """Three-way agreement of the filtrations on H^1, at the level of both
    dimensions and subspaces of one ambient model, plus the duality check."""
    if f.nvars != 1:
        raise ValueError("curve comparison needs one variable")
    jumps = curve_jumps(f)
    filt_d, injective, amb = _deligne_data(f, truncation)
    B = amb.B
    boundaries = amb.boundaries()

    def image_rank(vecs: list[dict]) -> int:
        return image_dim_over(vecs, boundaries)

    twist_dims = []
    deligne_dims = [d for _, d in filt_d]
    compact = compact_filtration_on_H1(f, truncation)
    rank_spec = spectrum_rank(f)
    toric_dims = []
    subspace_ok = True
    ambient_labels = set(amb.labels1)
    for lam in jumps:
        sub_p = cech_hypercohomology(divisor_twist_level(f, lam), B)
        Zp = [{lab: v for lab, v in z.items()} for z in sub_p.cocycles()]
        dp = image_rank(Zp)
        twist_dims.append(dp)
        Zt = _toric_generators(f, lam)
        for vec in Zt:
            stray = set(vec) - ambient_labels
            if stray:
                raise IntegrityError(f"toric generator escapes the ambient model: {stray}")
        dt = image_rank(Zt)
        toric_dims.append(dt)
        sub_d = cech_hypercohomology(deligne_level(f, lam), B)
        Zd = sub_d.cocycles()
        dd = image_rank(Zd)
        joint = image_rank(Zp + Zd + Zt)
        if not (dp == dd == dt == joint):
            subspace_ok = False
    partial = []
    for lam in jumps:
        partial.append(sum(m for l, m in rank_spec.entries if l >= lam))
    dims_agree = (twist_dims == deligne_dims == toric_dims == partial)
    dual_ok, pairs = duality_check_curve(f, truncation)
    return CurveFiltrationReport(
        tuple(jumps), tuple(twist_dims), tuple(deligne_dims),
        tuple(d for _, d in compact), tuple(toric_dims),
        dims_agree, subspace_ok, all(flag for _, flag in injective),
        dual_ok, pairs)


def divisor_shift_invariance(f: LaurentPolynomial, D: PointDivisor, E: PointDivisor,
                             truncation: Optional[int] = None) -> bool:
    """Adding an effective divisor supported on the poles leaves the
    hypercohomology dims of [O(D) -> Omega_log(D + P)] unchanged."""
    if not E.is_effective:
        raise ValueError("E must be effective")
    P = pole_divisor(f)
    rp = reduced(P)
    if (E.m0 and not rp.m0) or (E.m_inf and not rp.m_inf):
        raise ValueError("E must be supported on the poles of f")
    K1 = TwoTermComplex(D, D + P, f, "shift-base")
    K2 = TwoTermComplex(D + E, D + E + P, f, "shift-up")
    B = _shared_truncation(f, [K1, K2], truncation)
    return cech_hypercohomology(K1, B).dims == cech_hypercohomology(K2, B).dims


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


def untwisted_fixture() -> TwoTermComplex:
    """[O -> Omega_log] with the plain differential; exercises the cover
    plumbing against classical values (1, 1, 0)."""
    zero = make_laurent(1, {})
    return TwoTermComplex(ZERO_DIVISOR, ZERO_DIVISOR, zero, "untwisted")
