import math
import random
from fractions import Fraction

import pytest

from exphodge.errors import NotFullDimensionalError
from exphodge.laurent import make_laurent, parse_laurent
from exphodge.polytope import INFINITE_WEIGHT, newton_polytope


def test_newton_segment():
    P = newton_polytope(parse_laurent("x + x^-1"))
    assert P.dim == 1
    assert set(P.vertices) == {(-1,), (1,)}
    ineqs = {(f.normal, f.level) for f in P.facets}
    assert ineqs == {((1,), 1), ((-1,), 1)}


def test_newton_triangle():
    P = newton_polytope(parse_laurent("x + y + x^-1*y^-1"))
    assert P.dim == 2
    assert set(P.vertices) == {(1, 0), (0, 1), (-1, -1)}
    # the edge conv{(1,0),(0,1)} is cut out by <(-1,-1), a> >= -1
    assert ((-1, -1), 1) in {(f.normal, f.level) for f in P.facets}


def test_newton_degenerate_segment():
    P = newton_polytope(parse_laurent("x*y"))
    assert P.dim == 1
    assert set(P.vertices) == {(0, 0), (1, 1)}


def test_normalized_volume_suite():
    assert newton_polytope(parse_laurent("x + x^-1")).normalized_volume() == 2
    assert newton_polytope(parse_laurent("x + y + x^-1*y^-1")).normalized_volume() == 3
    assert newton_polytope(parse_laurent("x + y")).normalized_volume() == 1


def test_normalized_volume_requires_full_dim():
    with pytest.raises(NotFullDimensionalError):
        newton_polytope(parse_laurent("x*y")).normalized_volume()


def _pick_area_doubled(P) -> int:
    """2 * area by Pick's theorem: independent volume oracle for n = 2."""
    pts = P.lattice_points_in_dilate(1)
    boundary = 0
    for alpha in pts:
        if any((-sum(u * a for u, a in zip(f.normal, alpha))) == f.level for f in P.facets):
            boundary += 1
    interior = len(pts) - boundary
    return 2 * interior + boundary - 2


def test_volume_matches_pick_oracle():
    rng = random.Random(11)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(2, 6)):
            alpha = (rng.randint(-3, 3), rng.randint(-3, 3))
            terms[alpha] = Fraction(1)
        f = make_laurent(2, terms)
        P = newton_polytope(f)
        if P.dim != 2:
            continue
        assert P.normalized_volume() == _pick_area_doubled(P)


def test_proper_faces_examples():
    seg = newton_polytope(parse_laurent("x + x^-1"))
    faces = seg.proper_faces_excluding_origin()
    assert sorted(fc.vertices[0] for fc in faces) == [(-1,), (1,)]

    tri = newton_polytope(parse_laurent("x^2 + 2*x*y + y^2", ("x", "y")))
    faces = tri.proper_faces_excluding_origin()
    kinds = sorted((fc.dim, fc.vertices) for fc in faces)
    assert kinds == [(0, ((0, 2),)), (0, ((2, 0),)), (1, ((0, 2), (2, 0)))]

    half = newton_polytope(parse_laurent("x"))
    faces = half.proper_faces_excluding_origin()
    assert len(faces) == 1 and faces[0].vertices == ((1,),)


def test_weight_examples():
    P = newton_polytope(parse_laurent("x^2 + x^-1"))
    assert P.weight((1,)) == Fraction(1, 2)
    assert P.weight((-1,)) == 1
    assert P.weight((3,)) == Fraction(3, 2)
    assert newton_polytope(parse_laurent("x")).weight((-1,)) == INFINITE_WEIGHT
    assert newton_polytope(parse_laurent("x + y + x^-1*y^-1")).weight((1, 1)) == 2


def test_lattice_points_examples():
    assert newton_polytope(parse_laurent("x + x^-1")).lattice_points_in_dilate(1) == \
        [(-1,), (0,), (1,)]
    simplex = newton_polytope(parse_laurent("x + y"))
    assert len(simplex.lattice_points_in_dilate(2)) == 6
    tri = newton_polytope(parse_laurent("x + y + x^-1*y^-1"))
    assert len(tri.lattice_points_in_dilate(2)) == 10


def test_weight_census_examples():
    seg = newton_polytope(parse_laurent("x + x^-1"))
    assert seg.weight_census(2) == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 2}
    mixed = newton_polytope(parse_laurent("x^2 + x^-1"))
    assert mixed.weight_census(1) == {Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): 2}
    tri = newton_polytope(parse_laurent("x + y + x^-1*y^-1"))
    assert tri.weight_census(2) == {Fraction(0): 1, Fraction(1): 3, Fraction(2): 6}


def test_contains_origin_interior():
    assert newton_polytope(parse_laurent("x + x^-1")).contains_origin_interior()
    assert not newton_polytope(parse_laurent("x")).contains_origin_interior()
    assert newton_polytope(parse_laurent("x + y + x^-1*y^-1")).contains_origin_interior()
    assert not newton_polytope(parse_laurent("x*y")).contains_origin_interior()


def test_weight_of_origin_and_vertices(suite_poly):
    P = newton_polytope(suite_poly)
    assert P.weight((0,) * P.nvars) == 0
    for v in P.vertices:
        if any(v):
            assert P.weight(v) == 1


def test_gauge_homogeneity_and_membership():
    """w(k*a) = k*w(a) and (w(a) <= c) iff a is enumerated, randomized."""
    rng = random.Random(99)
    polys = [
        parse_laurent("x + x^-1"),
        parse_laurent("x^2 + x^-1"),
        parse_laurent("x + y + x^-1*y^-1"),
        parse_laurent("x + y"),
        parse_laurent("x + y + z + x^-1*y^-1*z^-1", ("x", "y", "z")),
    ]
    samples = 0
    for f in polys:
        P = newton_polytope(f)
        n = P.nvars
        cs = [Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]
        members = {c: set(P.lattice_points_in_dilate(c)) for c in cs}
        for _ in range(2500):
            alpha = tuple(rng.randint(-5, 5) for _ in range(n))
            w = P.weight(alpha)
            k = rng.randint(0, 3)
            scaled = tuple(k * a for a in alpha)
            if w is not INFINITE_WEIGHT:
                assert P.weight(scaled) == k * w
            elif k > 0:
                assert P.weight(scaled) == INFINITE_WEIGHT
            for c in cs:
                assert (w <= c) == (alpha in members[c])
            samples += 1
    assert samples >= 10_000


def test_floor_equivalence():
    """<u, a> >= -floor(c*level) agrees with the weight condition."""
    P = newton_polytope(parse_laurent("x^2 + x^-1"))
    for c in (Fraction(1, 2), Fraction(2, 3), Fraction(1), Fraction(7, 4)):
        for a in range(-8, 8):
            by_floor = all(
                sum(u * x for u, x in zip(f.normal, (a,))) >= -math.floor(c * f.level)
                for f in P.facets)
            assert by_floor == (P.weight((a,)) <= c)


def test_volume_additive_over_triangulation():
    from exphodge.polytope import _int_det, _triangulate

    P = newton_polytope(parse_laurent("x + y + x^-1*y^-1"))
    simplices = _triangulate(list(P.vertices))
    parts = []
    for s in simplices:
        rows = [[a - b for a, b in zip(p, s[0])] for p in s[1:]]
        parts.append(abs(_int_det(rows)))
    assert sum(parts) == P.normalized_volume()
    assert all(p > 0 for p in parts)


def test_unit_simplex_volume():
    for n, text in ((1, "x"), (2, "x + y"), (3, "x + y + z")):
        f = parse_laurent(text)
        assert newton_polytope(f).normalized_volume() == 1


def test_one_hull_per_input(monkeypatch):
    """The screen path builds the hull of f once; -f reuses it; another input
    with the same support builds its own."""
    from exphodge.nondegen import is_nondegenerate
    from exphodge.polytope import NewtonPolytope
    from exphodge.spectrum import spectrum_euler

    built = []
    init = NewtonPolytope.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(NewtonPolytope, "__init__", counting_init)
    f = parse_laurent("x + 2*y + 3*z + x^-1*y^-1*z^-1")
    assert is_nondegenerate(f, certify=True).verdict == "nondegenerate"
    P = newton_polytope(f)
    spectrum_euler(f)
    assert built == [P]
    assert newton_polytope(-f) is P
    assert len(built) == 1
    g = make_laurent(3, {alpha: 5 * c for alpha, c in f.terms.items()})
    assert g.support == f.support and g != f
    assert newton_polytope(g) is not P
    assert newton_polytope(g) == P
    assert len(built) == 2


def _gauss_normal(points):
    """The former Fraction Gauss-elimination hyperplane normal, kept as the
    oracle of the integer cofactor normal."""
    d = len(points[0])
    if d == 1:
        return (1,)
    rows = [[Fraction(a - b) for a, b in zip(p, points[0])] for p in points[1:]]
    pivots = []
    r = 0
    for c in range(d):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if r != d - 1:
        return None
    free = next(c for c in range(d) if c not in pivots)
    sol = [Fraction(0)] * d
    sol[free] = Fraction(1)
    for row, c in zip(rows[:r], pivots):
        sol[c] = -row[free]
    lcm = 1
    for x in sol:
        lcm = lcm * x.denominator // math.gcd(lcm, x.denominator)
    ints = [int(x * lcm) for x in sol]
    g = 0
    for x in ints:
        g = math.gcd(g, abs(x))
    return tuple(x // g for x in ints)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_integer_normal_matches_gauss_oracle(monkeypatch, n):
    from exphodge import polytope

    rng = random.Random(700 + n)
    for _ in range(200):
        pts = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n)]
        ours, oracle = polytope._hyperplane_normal(pts), _gauss_normal(pts)
        assert ours == oracle or (ours is not None and oracle is not None
                                  and ours == tuple(-x for x in oracle))
    supports = []
    for size in range(n + 1, n + 9):
        supports.append([tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(size)])
    built = [polytope.NewtonPolytope(n, pts) for pts in supports]
    monkeypatch.setattr(polytope, "_hyperplane_normal", _gauss_normal)
    for pts, P in zip(supports, built):
        Q = polytope.NewtonPolytope(n, pts)
        assert (P.dim, P.vertices, P.facets) == (Q.dim, Q.vertices, Q.facets)
        assert P._hull_facets == Q._hull_facets
        if P.dim == n:
            assert P.normalized_volume() == Q.normalized_volume()


def _fraction_det(rows):
    """Determinant by Fraction Gauss elimination: the oracle of _int_det."""
    mat = [[Fraction(x) for x in r] for r in rows]
    det = Fraction(1)
    for c in range(len(mat)):
        piv = next((i for i in range(c, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            mat[c], mat[piv] = mat[piv], mat[c]
            det = -det
        det *= mat[c][c]
        for i in range(c + 1, len(mat)):
            f = mat[i][c] / mat[c][c]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[c])]
    return det


def test_int_det_matches_fraction_oracle():
    from exphodge.polytope import _int_det

    rng = random.Random(31)
    assert _int_det([]) == 1
    for _ in range(400):
        n = rng.randint(1, 6)
        # small entries with many zeros, so pivots vanish and matrices are singular
        rows = [[rng.choice([0, 0, 0, 1, -1, 2, -3, 5]) for _ in range(n)] for _ in range(n)]
        assert _int_det(rows) == _fraction_det(rows)
