import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from conftest import corpus_inputs
from oracles import apply_matrix, brute_force_hull, fraction_weight, random_unimodular

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


def test_skewed_dilate_is_the_mapped_dilate():
    """The 3-dilate after a unimodular map whose bounding box holds 22,594
    points is the image of the unmapped dilate's 35 points."""
    A = [[1, -2, 2], [0, -15, 11], [0, 4, -3]]
    f = parse_laurent("x + y + z + x^-1*y^-1*z^-1", ("x", "y", "z"))
    g = make_laurent(3, {apply_matrix(A, a): c for a, c in f.terms.items()})
    pts = newton_polytope(g).lattice_points_in_dilate(3)
    assert len(pts) == 35
    assert pts == sorted(apply_matrix(A, a) for a in newton_polytope(f).lattice_points_in_dilate(3))


def _weight_census(P, c_max):
    """The former per-call weight census, kept as the oracle of the weight
    table: counts of lattice points by exact weight value, up to c_max."""
    c_max = Fraction(c_max)
    census = {}
    for alpha in P.lattice_points_in_dilate(c_max):
        w = P.weight(alpha)
        if w <= c_max:
            census[w] = census.get(w, 0) + 1
    return census


def test_weight_census_examples():
    seg = newton_polytope(parse_laurent("x + x^-1"))
    assert _weight_census(seg, 2) == {Fraction(0): 1, Fraction(1): 2, Fraction(2): 2}
    mixed = newton_polytope(parse_laurent("x^2 + x^-1"))
    assert _weight_census(mixed, 1) == {Fraction(0): 1, Fraction(1, 2): 1, Fraction(1): 2}
    tri = newton_polytope(parse_laurent("x + y + x^-1*y^-1"))
    assert _weight_census(tri, 2) == {Fraction(0): 1, Fraction(1): 3, Fraction(2): 6}
    # at c = n the census is the weight table's, counted
    for P in (mixed, tri):
        assert Counter(P.dilate_weights.values()) == _weight_census(P, P.nvars)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_weight_table_matches_enumeration_and_census(n):
    """Keys are the n-dilate in enumeration order, values the weights, and
    the counted values the census at c = n."""
    rng = random.Random(4100 + n)
    checked = 0
    for _ in range(10):
        pts = _random_points(rng, n, rng.randint(n + 1, n + 3), r=2 if n < 4 else 1)
        P = newton_polytope(make_laurent(n, {p: 1 for p in pts}))
        if P.dim != n:
            continue
        table = P.dilate_weights
        assert list(table) == P.lattice_points_in_dilate(n)
        assert all(w == P.weight(a) for a, w in table.items())
        assert Counter(table.values()) == _weight_census(P, n)
        assert P.dilate_weights is table
        checked += 1
    assert checked >= 5


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
    from exphodge.polytope import _int_det, _pulling_triangulation

    rng = random.Random(5)
    shapes = [parse_laurent("x + y + x^-1*y^-1"), parse_laurent("x^2 + y^2 + x^-1*y^-1")]
    for n in (2, 3, 4):
        shapes += [make_laurent(n, {p: 1 for p in _random_points(rng, n, 2 * n + 2)})
                   for _ in range(4)]
    checked = 0
    for f in shapes:
        P = newton_polytope(f)
        if P.dim != f.nvars:
            continue
        whole = frozenset(range(len(P.vertices)))
        dims = {frozenset(fc.vertex_indices): fc.dim for fc in P.all_proper_faces()}
        dims[whole] = P.dim
        parts = []
        for s in _pulling_triangulation(whole, dims):
            assert len(s) == P.dim + 1
            rows = [[a - b for a, b in zip(P.vertices[i], P.vertices[s[0]])] for i in s[1:]]
            parts.append(abs(_int_det(rows)))
        assert all(p > 0 for p in parts)
        assert sum(parts) == P.normalized_volume()
        checked += 1
    assert checked >= 10


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
    assert is_nondegenerate(f).verdict == "nondegenerate"
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


def test_one_face_list_per_hull(monkeypatch):
    """The nondegeneracy check and the volume of a non-simplex share one face
    list, and every caller gets a list of its own."""
    from exphodge import polytope
    from exphodge.nondegen import is_nondegenerate

    calls = []
    face_sets = polytope._face_vertex_sets
    monkeypatch.setattr(polytope, "_face_vertex_sets",
                        lambda sets: calls.append(sets) or face_sets(sets))
    f = parse_laurent("x + y + 2*x^-1 + 3*y^-1 + x*y")
    P = newton_polytope(f)
    assert len(P.vertices) > P.dim + 1
    assert not is_nondegenerate(f).is_degenerate
    assert P.normalized_volume() == 5
    assert len(calls) == 1
    faces = P.all_proper_faces()
    faces.clear()
    assert P.all_proper_faces() and P.all_proper_faces() is not P.all_proper_faces()
    assert len(calls) == 1


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


def _random_points(rng, n, k, r=2):
    return [tuple(rng.randint(-r, r) for _ in range(n)) for _ in range(k)]


def _triangulate(points):
    """The former recursive fan triangulation, kept as the volume oracle: it
    builds a new hull in lattice coordinates for every facet and subface."""
    from exphodge.polytope import _dot, _full_dim_hull, _row_lattice_basis, _solve_in_basis

    points = sorted(set(points))
    base = points[0]
    diffs = [tuple(a - b for a, b in zip(p, base)) for p in points]
    basis = _row_lattice_basis(diffs)
    d = len(basis)
    if d == 0:
        return []
    red = [tuple(int(c) for c in _solve_in_basis(basis, v)) for v in diffs]
    back = dict(zip(red, points))
    vidx, facets = _full_dim_hull(red)
    verts = [red[i] for i in vidx]
    if len(verts) == d + 1:
        return [tuple(back[v] for v in sorted(verts))]
    apex = sorted(verts)[0]
    simplices = []
    for (u, b) in facets:
        if _dot(u, apex) == b:
            continue
        for sub in _triangulate([v for v in verts if _dot(u, v) == b]):
            simplices.append((back[apex],) + tuple(back[v] for v in sub))
    return simplices


def _oracle_volume(P):
    from exphodge.polytope import _int_det

    total = 0
    for s in _triangulate(list(P.vertices)):
        total += abs(_int_det([[a - b for a, b in zip(p, s[0])] for p in s[1:]]))
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
def test_volume_matches_recursive_triangulation_oracle(n):
    rng = random.Random(800 + n)
    sizes = [n + 1 + (i % 9) for i in range(30)]
    if n == 4:
        sizes += [12, 14]
    checked = 0
    for k in sizes:
        P = newton_polytope(make_laurent(n, {p: 1 for p in _random_points(rng, n, k)}))
        if P.dim != n:
            continue
        assert P.normalized_volume() == _oracle_volume(P)
        checked += 1
    assert checked >= 20
    if n == 4:
        assert P.dim == 4 and len(P._points) >= 12  # the last, 14-point support


def _face_census(P):
    census = {}
    for fc in P.all_proper_faces():
        census[fc.dim] = census.get(fc.dim, 0) + 1
    return census


@pytest.mark.parametrize("n", [2, 3, 4])
def test_gl_n_z_invariance(n):
    """nvol, the vertex count and the census of face dimensions do not move
    under a unimodular change of coordinates."""
    rng = random.Random(900 + n)
    checked = 0
    for _ in range(12):
        pts = _random_points(rng, n, rng.randint(n + 1, n + 6))
        P = newton_polytope(make_laurent(n, {p: 1 for p in pts}))
        if P.dim != n:
            continue
        g = random_unimodular(rng, n)
        moved = [apply_matrix(g, p) for p in pts]
        Q = newton_polytope(make_laurent(n, {p: 1 for p in moved}))
        assert Q.dim == n
        assert Q.normalized_volume() == P.normalized_volume()
        assert len(Q.vertices) == len(P.vertices)
        census = _face_census(P)
        assert _face_census(Q) == census
        # Euler-Poincare: f_0 - f_1 + ... + (-1)^(n-1) f_(n-1) = 1 - (-1)^n
        assert census[0] == len(P.vertices)
        assert sum((-1) ** k * census[k] for k in range(n)) == 1 - (-1) ** n
        checked += 1
    assert checked >= 8


def test_faces_and_containment_need_full_dimension():
    P = newton_polytope(parse_laurent("x*y"))
    assert (P.dim, P.facets) == (1, ())
    with pytest.raises(NotFullDimensionalError):
        P.all_proper_faces()
    with pytest.raises(NotFullDimensionalError):
        P.proper_faces_excluding_origin()
    with pytest.raises(NotFullDimensionalError):
        P.contains_point((1, 1))


# ---------------------------------------------------------------------------
# The beneath-beyond hull against the brute force over d-subsets
# ---------------------------------------------------------------------------

def _affine_dim(points):
    from exphodge.polytope import _row_lattice_basis

    base = points[0]
    return len(_row_lattice_basis([tuple(a - b for a, b in zip(p, base)) for p in points]))


def _box(*ranges):
    return list(itertools.product(*(range(lo, hi + 1) for lo, hi in ranges)))


# dense boxes: most of their points are coplanar with others or interior
DENSE_BOXES = {
    1: [_box((-3, 3)), _box((0, 5))],
    2: [_box((-3, 3), (-3, 3)), _box((-1, 2), (0, 3))],
    3: [_box((-1, 1), (-1, 1), (-1, 1)), _box((0, 2), (0, 2), (0, 1))],
    4: [_box((0, 1), (0, 1), (0, 1), (0, 1)), _box((-1, 1), (0, 1), (0, 1), (0, 1))],
}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hull_matches_brute_force_oracle(n):
    """Equal (vertex indices, facets) on seeded supports in {-r..r}^n for
    r = 1, 2, 3, each in sorted and in shuffled order, and on dense boxes."""
    from exphodge.polytope import _full_dim_hull

    rng = random.Random(1600 + n)
    lo, hi = {1: (2, 6), 2: (3, 14), 3: (4, 16), 4: (5, 14)}[n]
    supports = [sorted(set(_random_points(rng, n, rng.randint(lo, hi), r)))
                for r in (1, 2, 3) for _ in range(12)]
    supports += DENSE_BOXES[n]
    checked = 0
    for pts in supports:
        if _affine_dim(pts) != n:
            continue
        vidx, facets = brute_force_hull(pts)
        assert _full_dim_hull(pts) == (vidx, facets)
        # the hull does not depend on the order the points come in
        shuffled = rng.sample(pts, len(pts))
        at = {p: i for i, p in enumerate(shuffled)}
        assert _full_dim_hull(shuffled) == (sorted(at[pts[i]] for i in vidx), facets)
        checked += 1
    assert checked >= 30


def _embed(rng, k, n):
    """A random integer n x k matrix of rank k: Z^k into a sublattice of Z^n."""
    while True:
        m = [[rng.randint(-2, 2) for _ in range(k)] for _ in range(n)]
        if _affine_dim([(0,) * n] + [tuple(row[j] for row in m) for j in range(k)]) == k:
            return m


@pytest.mark.parametrize("n", [2, 3, 4])
def test_newton_polytopes_match_brute_force_hull(monkeypatch, n):
    """Full-dimensional supports and supports of lower dimension, whose hull
    is built in reduced coordinates, give the same polytope under either hull."""
    from exphodge import polytope

    rng = random.Random(1700 + n)
    supports = [_random_points(rng, n, rng.randint(n, n + 8)) for _ in range(8)]
    for k in range(1, n):
        m = _embed(rng, k, n)
        for _ in range(4):
            supports.append([apply_matrix(m, p) for p in _random_points(rng, k, rng.randint(k, k + 6))])
    built = [polytope.NewtonPolytope(n, pts) for pts in supports]
    monkeypatch.setattr(polytope, "_full_dim_hull", brute_force_hull)
    dims = set()
    for pts, P in zip(supports, built):
        Q = polytope.NewtonPolytope(n, pts)
        assert (P.dim, P.vertices, P.facets) == (Q.dim, Q.vertices, Q.facets)
        dims.add(P.dim)
    assert set(range(1, n + 1)) <= dims


def _inverse_transpose(g):
    """g^-T of a determinant-1 integer matrix: its cofactor matrix."""
    from exphodge.polytope import _int_det

    n = len(g)
    assert _int_det(g) == 1
    return [[(-1) ** (i + j) * _int_det([r[:j] + r[j + 1:] for k, r in enumerate(g) if k != i])
             for j in range(n)] for i in range(n)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_hull_facets_move_by_the_inverse_transpose(n):
    """Under x -> g x with g in SL_n(Z), the facet <u, x> >= b goes to
    <g^-T u, y> >= b and the vertex indices stay."""
    from exphodge.polytope import _full_dim_hull

    rng = random.Random(1800 + n)
    checked = 0
    for _ in range(10):
        pts = sorted(set(_random_points(rng, n, rng.randint(n + 2, n + 9))))
        if _affine_dim(pts) != n:
            continue
        g = random_unimodular(rng, n)
        g_inv_t = _inverse_transpose(g)
        vidx, facets = _full_dim_hull(pts)
        moved = _full_dim_hull([apply_matrix(g, p) for p in pts])
        assert moved == (vidx, sorted((apply_matrix(g_inv_t, u), b) for u, b in facets))
        checked += 1
    assert checked >= 8


# ---------------------------------------------------------------------------
# The integer weight table against one Fraction per facet
# ---------------------------------------------------------------------------

def _check_weight_table(monkeypatch, f):
    """The weight table, the jumps and nvol against a polytope built by the
    brute-force hull, whose n-dilate is read off its bounding box by the
    Fraction weight oracle."""
    from exphodge import polytope

    n = f.nvars
    P = newton_polytope(f)
    with monkeypatch.context() as m:
        m.setattr(polytope, "_full_dim_hull", brute_force_hull)
        Q = polytope.NewtonPolytope(n, f.support)
    assert (P.vertices, P.facets) == (Q.vertices, Q.facets)
    box = [(n * min(v[i] for v in Q.vertices), n * max(v[i] for v in Q.vertices))
           for i in range(n)]
    oracle = {a: w for a in _box(*box) if (w := fraction_weight(Q, a)) <= n}
    assert list(P.dilate_weights.items()) == list(oracle.items())
    assert all(type(x) is int for a in P.dilate_weights for x in a)
    jumps = sorted({p - w for w in oracle.values() for p in range(n + 1) if 0 <= p - w <= n})
    assert P.jumps == tuple(jumps)
    assert P.normalized_volume() == Q.normalized_volume()


def test_weight_table_matches_fraction_oracle(monkeypatch, suite_poly):
    _check_weight_table(monkeypatch, suite_poly)


@pytest.mark.parametrize("text", ["x^5 + x^-3", "x^3 + y^4 + x^-2*y^-1",
                                  "x^2 + y^2 + z^2 + x^-1*y^-1*z^-1",
                                  "x + y + z + w + x^-1*y^-1*z^-1*w^-1"])
def test_weight_table_matches_fraction_oracle_beyond_the_suite(monkeypatch, text):
    _check_weight_table(monkeypatch, parse_laurent(text))


@pytest.mark.parametrize("workload", ["curve_n1", "toric_rank", "screen"])
def test_weight_table_matches_fraction_oracle_on_the_corpus(monkeypatch, workload):
    for f in corpus_inputs(monkeypatch, workload, 4242, 2):
        _check_weight_table(monkeypatch, f)
