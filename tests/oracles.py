"""Reference forms the tests check exphodge against, kept out of the package
because no pipeline code needs them: dense form and product of sparse
matrices, the Čech differentials of a model as matrices, the untwisted
two-term complex, the Groebner normal form and a Groebner basis over QQ
run to completion (both in Fraction arithmetic, where the package runs over
Z), the face system of f on a face read off each active facet's equality,
with its evaluation over QQ and mod q, the face check on the saturated face
system with no row reduction, the divisor-shift invariance of the Čech
dimensions, the convex hull by brute force over d-subsets, the weight of a
lattice point with one Fraction per facet, seeded unimodular maps and seeded
generic supports."""

import functools
import heapq
import math
import random
from fractions import Fraction
from itertools import combinations, product

from exphodge import curve
from exphodge.groebner import (_mono_div, _mono_divides, _mono_lcm, _mono_mul,
                               grevlex_key, is_unit_ideal, leading_monomial)
from exphodge.laurent import make_laurent
from exphodge.linalg import SparseRationalMatrix
from exphodge.polytope import _dot, _hyperplane_normal, newton_polytope


def dense(m: SparseRationalMatrix) -> list[list[Fraction]]:
    out = [[Fraction(0)] * m.ncols for _ in range(m.nrows)]
    for (r, c), v in m.entries.items():
        out[r][c] = v
    return out


def from_dense(rows) -> SparseRationalMatrix:
    rows = [list(r) for r in rows]
    return SparseRationalMatrix(len(rows), len(rows[0]) if rows else 0,
                                {(i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)})


def matmul(a: SparseRationalMatrix, b: SparseRationalMatrix) -> SparseRationalMatrix:
    """The product a b; the constructor drops the entries that cancel."""
    if a.ncols != b.nrows:
        raise ValueError("shape mismatch")
    by_row = b.rows()
    acc: dict[tuple[int, int], Fraction] = {}
    for (r, k), v in a.entries.items():
        for c, w in by_row[k].items():
            acc[(r, c)] = acc.get((r, c), 0) + v * w
    return SparseRationalMatrix(a.nrows, b.ncols, acc)


def cech_d0(model: curve.CechModel) -> SparseRationalMatrix:
    columns, _ = model._assemble()
    return SparseRationalMatrix(len(model.labels1), len(model.labels0), {
        (r, c): v for c, col in enumerate(columns) for r, v in col.items()})


def cech_d1(model: curve.CechModel) -> SparseRationalMatrix:
    _, columns = model._assemble()
    return SparseRationalMatrix(len(model.labels2), len(model.labels1), {
        (r, c): v for c, col in enumerate(columns) for r, v in col.items()})


def cech_boundaries(model: curve.CechModel) -> list[dict]:
    """Generators of im d0, label-keyed."""
    columns, _ = model._assemble()
    return [{model.labels1[j]: v for j, v in col.items()} for col in columns]


def untwisted_complex() -> curve.TwoTermComplex:
    """[O -> Omega_log] with the plain differential (f = 0), whose
    hypercohomology has the classical dims (1, 1, 0)."""
    return curve.TwoTermComplex(curve.ZERO_DIVISOR, curve.ZERO_DIVISOR, make_laurent(1, {}))


def _sub_scaled(p, q, coeff, shift):
    """p -= coeff * x^shift * q in Fractions, in place; returns p."""
    for e, c in q.items():
        key = _mono_mul(e, shift)
        s = p.get(key, 0) - coeff * c
        if s:
            p[key] = s
        else:
            p.pop(key, None)
    return p


def _reduce(p, basis, lms, key):
    """Remainder of multivariate division of p by the basis, whose leading
    monomials are given in lms (leading terms only), in Fractions."""
    rem = {}
    work = dict(p)
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for glm, g in zip(lms, basis):
            if _mono_divides(glm, lm):
                _sub_scaled(work, g, Fraction(lc, g[glm]), _mono_div(lm, glm))
                break
        else:
            rem[lm] = lc
            del work[lm]
    return rem


def _make_monic(p, lm):
    lc = p[lm]
    return {e: Fraction(c, lc) for e, c in p.items()}


def normal_form(p, basis, key):
    """Remainder of multivariate division by the basis (leading terms only)."""
    return _reduce(p, basis, [leading_monomial(g, key) for g in basis], key)


def full_groebner_basis(generators, stop_at_constant=False):
    """Reduced Groebner basis over QQ by Buchberger run to completion on
    monic polynomials in Fractions, then minimalized and tail-reduced:
    `groebner.groebner_basis` without its exit at the first nonzero
    constant, its pair budget, its chain criterion or its arithmetic over Z,
    with the same pair order.  With stop_at_constant the run returns [1] at
    the first nonzero constant remainder, which settles only whether the
    ideal is the unit ideal (`saturated_face_check`'s question)."""
    key = functools.lru_cache(maxsize=None)(grevlex_key)  # one memo per call
    monic = []
    for g in generators:
        g = {tuple(e): Fraction(c) for e, c in g.items() if c}
        if g:
            lm = leading_monomial(g, key)
            monic.append((lm, _make_monic(g, lm)))
    monic.sort(key=lambda t: key(t[0]))
    lms = [lm for lm, _ in monic]
    basis = [g for _, g in monic]
    pairs = [(key(_mono_lcm(lms[i], lms[j])), i, j, _mono_lcm(lms[i], lms[j]))
             for j in range(len(basis)) for i in range(j)]
    heapq.heapify(pairs)
    while pairs:
        _, i, j, lcm = heapq.heappop(pairs)
        if lcm == _mono_mul(lms[i], lms[j]):
            continue
        shift = _mono_div(lcm, lms[i])
        s = _sub_scaled({_mono_mul(e, shift): c for e, c in basis[i].items()},
                        basis[j], 1, _mono_div(lcm, lms[j]))
        s = _reduce(s, basis, lms, key)
        if not s:
            continue
        lm = leading_monomial(s, key)
        if stop_at_constant and not any(lm):
            return [{lm: Fraction(1)}]
        for k in range(len(basis)):
            lcm = _mono_lcm(lms[k], lm)
            heapq.heappush(pairs, (key(lcm), k, len(basis), lcm))
        basis.append(_make_monic(s, lm))
        lms.append(lm)
    keep = [i for i in range(len(basis))
            if not any(j != i and _mono_divides(lms[j], lms[i])
                       and (lms[j] != lms[i] or j < i) for j in range(len(basis)))]
    reduced = []
    for i in keep:
        others = [k for k in keep if k != i]
        r = _reduce(basis[i], [basis[k] for k in others], [lms[k] for k in others],
                    key) if others else basis[i]
        if r:
            reduced.append((lms[i], _make_monic(r, lms[i])))
    reduced.sort(key=lambda t: key(t[0]))
    return [g for _, g in reduced]


def face_system(f, face):
    """[f_face, theta_1 f_face, ..., theta_n f_face] as term maps, the zero
    ones dropped: f_face keeps the terms of f on every active facet's
    hyperplane <u, alpha> = -level."""
    P = face.polytope
    on = {alpha: c for alpha, c in f.terms.items()
          if all(sum(u * a for u, a in zip(P.facets[j].normal, alpha)) == -P.facets[j].level
                 for j in face.active_facets)}
    thetas = [{alpha: alpha[i] * c for alpha, c in on.items() if alpha[i]}
              for i in range(f.nvars)]
    return [g for g in [on] + thetas if g]


def evaluate(g, point):
    """The term map g at a point of the torus, in Fractions."""
    return sum(c * math.prod(Fraction(x) ** e for x, e in zip(point, alpha))
               for alpha, c in g.items())


def evaluate_mod(g, point, q):
    """The term map g at a point of (GF(q)*)^n; q divides no denominator."""
    return sum(c.numerator * pow(c.denominator, -1, q)
               * math.prod(pow(x, e, q) for x, e in zip(point, alpha))
               for alpha, c in g.items()) % q


def saturated_face_check(f, face):
    """The face check on f_face, theta_1 f_face, ..., theta_n f_face as they
    are, with no row reduction, no closed form and no pair budget: "empty"
    when they, each shifted by its exponent minimum, and t*x1*...*xn - 1
    generate the unit ideal over QQ, by `full_groebner_basis` up to its
    first constant, "nonempty" otherwise."""
    gens = []
    for g in face_system(f, face):
        low = [min(col) for col in zip(*g)]
        gens.append({tuple(a - m for a, m in zip(alpha, low)) + (0,): c
                     for alpha, c in g.items()})
    n = f.nvars
    gens.append({(1,) * (n + 1): Fraction(1), (0,) * (n + 1): Fraction(-1)})
    unit = is_unit_ideal(full_groebner_basis(gens, stop_at_constant=True))
    return "empty" if unit else "nonempty"


def shared_truncation(complexes) -> int:
    """One truncation for every given complex of f (or of -f, which has the
    same pole divisor and exponents): the largest of their own."""
    return max(curve.required_truncation(K) for K in complexes)


def divisor_shift_invariance(f, D: curve.PointDivisor, E: curve.PointDivisor) -> bool:
    """Adding an effective divisor E supported on the poles of f leaves the
    hypercohomology dims of [O(D) -> Omega_log(D + P)] unchanged."""
    P = curve.pole_divisor(f)
    K1 = curve.TwoTermComplex(D, D + P, f)
    K2 = curve.TwoTermComplex(D + E, D + E + P, f)
    B = shared_truncation([K1, K2])
    return curve._build_model(K1, B).dims == curve._build_model(K2, B).dims


def brute_force_hull(points):
    """(vertex index list, facet list) of conv(points), the points affinely
    spanning R^d: one hyperplane per d-subset, kept as a facet (u, b), meaning
    <u, x> >= b, when every point lies on one side.  A point is a vertex when
    it is the only point on every facet through it."""
    d = len(points[0])
    facets = {}
    for comb in combinations(range(len(points)), d):
        u = _hyperplane_normal([points[i] for i in comb])
        if u is None:
            continue
        vals = [_dot(u, p) for p in points]
        v0 = _dot(u, points[comb[0]])
        if v0 == min(vals):
            facets[(u, v0)] = None
        if v0 == max(vals):
            facets[(tuple(-x for x in u), -v0)] = None
    facet_list = sorted(facets)
    incidences = [frozenset(i for i, p in enumerate(points) if _dot(u, p) == b)
                  for (u, b) in facet_list]
    vertex_idx = []
    for i in range(len(points)):
        common = frozenset(range(len(points)))
        for s in incidences:
            if i in s:
                common &= s
        if common == {i}:
            vertex_idx.append(i)
    return vertex_idx, facet_list


def fraction_weight(P, alpha):
    """min{c >= 0 : alpha in c*P} as the largest Fraction s/level over the
    facets with a positive pairing s = -<u, alpha>, or math.inf when such a
    facet has level 0."""
    w = Fraction(0)
    for f in P.facets:
        s = -_dot(f.normal, alpha)
        if s > 0:
            if f.level == 0:
                return math.inf
            w = max(w, Fraction(s, f.level))
    return w


def random_unimodular(rng, n):
    """A product of 2n elementary matrices I + c*E_ij: det 1, small entries."""
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        c = rng.choice([-2, -1, 1, 2])
        m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def apply_matrix(m, point):
    return tuple(sum(a * x for a, x in zip(row, point)) for row in m)


def generic_support(seed, k, n, r):
    """k terms drawn from the nonzero points of [-r, r]^n, each with a random
    nonzero integer coefficient in [-9, 9], drawn again until the origin is
    interior: a generic support, unlike the simplices of the benchmark."""
    box = [p for p in product(range(-r, r + 1), repeat=n) if any(p)]
    rng = random.Random(seed)
    while True:
        pts = rng.sample(box, k)
        f = make_laurent(n, {p: rng.choice((-1, 1)) * rng.randint(1, 9) for p in pts})
        if newton_polytope(f).contains_origin_interior():
            return f
