"""Newton polytopes: exact hulls, faces, weights, lattice enumeration.

The polytope of a Laurent polynomial is the convex hull of the origin and the
support.  Facets are stored as primitive integer inequalities <u, a> >= -c
with level c >= 0 (the origin always satisfies them).  The weight of a lattice
point a of the n-dilate is the least c >= 0 with a in c*Delta; its
denominators divide facet levels, so it lies in (1/D)Z, with D the lcm of
the positive facet levels (``weight_denominator``).

One exact hull is the only geometric computation: vertices, faces and the
normalized volume are all read from its facet incidence sets.  It is built by
beneath-beyond in integers, so its cost follows the facets, not the d-subsets
of the support.  The hull keeps four tables, each built on first use: its
face list, which the nondegeneracy check and the volume share; its weight
table, D times the weight of every lattice point of the n-dilate, which the
de Rham bases and the curve's toric generators read; its weight census, the
number of points of each weight, which the Euler route reads; and the jump
candidates p - w, as the numerators (p - w) D, read off the census once.
Weights are computed in one lex scan of the dilate (``_scan_dilate``),
which carries each facet pairing down the prefix of leading coordinates and
reads the weights of a line as one max over arithmetic progressions.  The
census is counted off the table once the table is built, and otherwise by a
scan that keeps no point, so certifying an input and reading its Euler
spectrum build no table.  All hold integers, so no lattice point meets a
Fraction.
Faces, containment, weights and the volume need a full-dimensional polytope
(``require_full_dim`` is the one guard); a lower-dimensional one keeps only
its dimension and vertices, its hull built in integers on the pivot
coordinates of the lattice echelon (``_row_lattice_basis``) that gives the
dimension; that echelon also gives each face its integer relations.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import chain, repeat
from operator import mul
from types import MappingProxyType
from typing import Iterable, Mapping, Optional, Sequence

from . import _kernels
from .errors import NotFullDimensionalError
from .laurent import LaurentPolynomial, Monomial


# ---------------------------------------------------------------------------
# Small exact integer linear algebra
# ---------------------------------------------------------------------------

def _int_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss
    elimination: every division is exact)."""
    mat = [list(r) for r in rows]
    n = len(mat)
    sign, prev = 1, 1
    for k in range(n - 1):
        if mat[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if mat[i][k] != 0), None)
            if piv is None:
                return 0
            mat[k], mat[piv] = mat[piv], mat[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                mat[i][j] = (mat[i][j] * mat[k][k] - mat[i][k] * mat[k][j]) // prev
        prev = mat[k][k]
    return sign * mat[-1][-1] if n else 1


def _row_lattice_basis(vectors: Sequence[Monomial]) -> list[list[int]]:
    """Echelon basis of the integer lattice generated by the input rows: each
    row is zero left of its pivot, a positive entry right of the last row's."""
    rows = [list(v) for v in vectors if any(v)]
    basis: list[list[int]] = []
    for col in range(len(vectors[0]) if vectors else 0):
        live = [r for r in rows if r[col] != 0]
        if not live:
            continue
        rows = [r for r in rows if r[col] == 0]
        while len(live) > 1:
            live.sort(key=lambda r: abs(r[col]))
            a = live[0]
            rest = []
            for r in live[1:]:
                q = r[col] // a[col]
                r2 = [x - q * y for x, y in zip(r, a)]
                if r2[col] != 0:
                    rest.append(r2)
                elif any(r2):
                    rows.append(r2)
            live = [a] + rest
        pivot_row = live[0]
        if pivot_row[col] < 0:
            pivot_row = [-x for x in pivot_row]
        basis.append(pivot_row)
    return basis


def _dot(u: Sequence[int], v: Sequence[int]) -> int:
    return sum(map(mul, u, v))


def _primitive(u: Sequence[int]) -> tuple[int, ...]:
    g = math.gcd(*u)
    return tuple(x // g for x in u)


def _hyperplane_normal(points: Sequence[Monomial]) -> Optional[tuple[int, ...]]:
    """Primitive normal of the hyperplane through d points of Z^d (None when
    they do not affinely span one): the signed (d-1)-minors of the difference
    rows, written out as the perpendicular in d = 2 and the cross product in
    d = 3."""
    rows = [[a - b for a, b in zip(p, points[0])] for p in points[1:]]
    d = len(points[0])
    if d == 2:
        (x, y), = rows
        u = [y, -x]
    elif d == 3:
        (a1, a2, a3), (b1, b2, b3) = rows
        u = [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]
    else:
        u = [(-1) ** i * _int_det([r[:i] + r[i + 1:] for r in rows]) for i in range(d)]
    if not any(u):
        return None
    return _primitive(u)


# ---------------------------------------------------------------------------
# Exact full-dimensional hulls
# ---------------------------------------------------------------------------

def _affinely_independent(points: Sequence[Monomial], indices: Sequence[int], k: int) -> list[int]:
    """The first k indices, taken greedily in the given order, whose points
    are affinely independent (fewer when the points do not allow k).  The
    points are distinct, so for k = 2 (a ridge in d = 3) the first two are."""
    if k == 2:
        return list(indices[:2])
    chosen = list(indices[:1])
    for i in indices[1:]:
        if len(chosen) >= k:
            break
        base = points[chosen[0]]
        rows = [[a - b for a, b in zip(points[j], base)] for j in chosen[1:] + [i]]
        if len(_row_lattice_basis(rows)) == len(rows):
            chosen.append(i)
    return chosen


def _facet_through(points: Sequence[Monomial], through: Sequence[int], inside: int,
                   on: Iterable[int]):
    """((u, b), incidence set) of the hyperplane through the given d points,
    oriented so that the point `inside`, off it, satisfies <u, x> > b; the
    incidence set is the points of `on` that lie on it."""
    u = _hyperplane_normal([points[j] for j in through])
    b = _dot(u, points[through[0]])
    if _dot(u, points[inside]) < b:
        u, b = tuple(-x for x in u), -b
    return (u, b), frozenset(j for j in on if _dot(u, points[j]) == b)


def _full_dim_hull(points: list[Monomial]):
    """(vertex index list, facet list) of conv(points) when the points
    affinely span R^d.  Facets are (primitive u, b) meaning <u, x> >= b.

    Beneath-beyond in exact integers (Edelsbrunner, Algorithms in
    Combinatorial Geometry, 1987, ch. 8; Seidel 1981): start from a
    d-simplex of the points and add the others, farthest from the origin
    first, so that the points inside the hull of those before them, which
    cost one pass over the facets, come last.  A new point sees the facets
    it lies strictly beneath; every ridge between a seen and an unseen facet
    spans a new facet with it, and the seen facets go.  Two facets meet in a
    ridge when the points they share span d - 2 dimensions: for d <= 3 when
    they share d - 1 points, above that by one rank.  The new facet through
    the ridge of F (seen) and G (unseen) is oriented by a point of F off the
    ridge, and its points are the new point and those of G on it: the old
    hull meets its hyperplane in the ridge or in all of G.  Facets are keyed
    by (u, b), so a new facet coplanar with G replaces it.  A point is a
    vertex when it is the only point on every facet through it.

    Each facet keeps the set of kept points on it: the simplex and every
    point that sees a facet.  A point that sees none lies in the hull of the
    points before it, so it is never a vertex and each face is the hull of
    the kept points on it without it; it is left out of every set.  A kept
    point on the hyperplane of an unseen facet G lies outside G, beyond one
    of its ridges, and the facet across that ridge is seen: the new facet
    through that ridge is coplanar with G and replaces G's set with one that
    holds the point.  So no set needs a point added by hand.  The facets are
    those of conv(points) whatever the insertion order, and the vertices are
    read off them in index order, so the output does not depend on it.
    """
    d = len(points[0])
    order = sorted(range(len(points)), key=lambda i: -_dot(points[i], points[i]))
    simplex = _affinely_independent(points, order, d + 1)
    facets: dict[tuple[tuple[int, ...], int], frozenset[int]] = dict(
        _facet_through(points, [k for k in simplex if k != j], j, simplex) for j in simplex)
    in_simplex = set(simplex)
    for i in order:
        if i in in_simplex:
            continue
        p = points[i]
        seen = [key for key in facets if _dot(key[0], p) < key[1]]
        if not seen:
            continue
        seen_set = set(seen)
        new = []
        for F in seen:
            inc_f = facets[F]
            for G, inc in facets.items():
                if G in seen_set:
                    continue
                ridge = inc_f & inc
                if len(ridge) < d - 1:
                    continue
                through = _affinely_independent(points, sorted(ridge), d - 1)
                if len(through) < d - 1:
                    continue
                new.append(_facet_through(points, [i] + through, next(iter(inc_f - ridge)),
                                          [*inc, i]))
        for key in seen:
            del facets[key]
        facets.update(new)
    facet_list = sorted(facets)
    incidences = list(facets.values())
    vertex_idx = []
    for i in range(len(points)):
        common = frozenset(range(len(points)))
        for s in incidences:
            if i in s:
                common &= s
        if common == {i}:
            vertex_idx.append(i)
    return vertex_idx, facet_list


def _face_vertex_sets(facet_sets: Sequence[frozenset[int]]) -> list[frozenset[int]]:
    """All proper nonempty faces as vertex-index sets: intersection closure
    of the facet incidence sets."""
    closed = set(fs for fs in facet_sets if fs)
    frontier = list(closed)
    while frontier:
        nxt = []
        for a in frontier:
            for b in facet_sets:
                c = a & b
                if c and c not in closed:
                    closed.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(closed, key=lambda s: (len(s), sorted(s)))


def _pulling_triangulation(face: frozenset[int], dims: dict[frozenset[int], int]
                           ) -> list[tuple[int, ...]]:
    """Simplices (vertex-index tuples) of a pulling triangulation of a face,
    given the dimension of every face by its vertex set: a simplex as it is,
    otherwise the least vertex coned over the triangulations of the facets
    of the face that miss it."""
    d = dims[face]
    if len(face) == d + 1:
        return [tuple(sorted(face))]
    apex = min(face)
    return [(apex,) + simplex
            for sub, k in dims.items() if k == d - 1 and apex not in sub and sub < face
            for simplex in _pulling_triangulation(sub, dims)]


# ---------------------------------------------------------------------------
# Public types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Facet:
    """Inequality <normal, a> >= -level; the level is the pole order of f
    along the corresponding toric boundary divisor."""

    normal: tuple[int, ...]
    level: int


@dataclass(frozen=True)
class Face:
    """A proper face: its active facets and the hull's points on all of them."""

    polytope: "NewtonPolytope" = field(repr=False)
    vertex_indices: tuple[int, ...]
    dim: int
    active_facets: tuple[int, ...]
    points: frozenset[Monomial]

    @property
    def contains_origin(self) -> bool:
        return (0,) * self.polytope.nvars in self.points

    @property
    def vertices(self) -> tuple[Monomial, ...]:
        return tuple(self.polytope.vertices[i] for i in self.vertex_indices)

    @property
    def is_vertex(self) -> bool:
        return self.dim == 0

    def __str__(self):
        return "conv{" + ", ".join(str(v) for v in self.vertices) + "}"


class NewtonPolytope:
    """Convex hull of the origin and the support of a Laurent polynomial."""

    def __init__(self, nvars: int, points: Sequence[Monomial]):
        self.nvars = nvars
        pts = sorted(set(tuple(p) for p in points) | {(0,) * nvars})
        self._points = pts
        basis = _row_lattice_basis(pts)
        self.dim = len(basis)
        self.facets: tuple[Facet, ...] = ()
        if self.dim == 0:
            self.vertices: tuple[Monomial, ...] = ((0,) * nvars,)
        else:
            # the pivot columns of the echelon basis (all n on a full-dimensional
            # polytope) map its span injectively: the same vertex indices
            pivots = [next(i for i, x in enumerate(b) if x) for b in basis]
            vidx, hull_facets = _full_dim_hull([tuple(p[i] for i in pivots) for p in pts])
            self.vertices = tuple(pts[i] for i in vidx)
            if self.dim == nvars:
                self.facets = tuple(Facet(u, -b) for (u, b) in hull_facets)

    def __eq__(self, other):
        if not isinstance(other, NewtonPolytope):
            return NotImplemented
        return self.nvars == other.nvars and self._points == other._points

    def __hash__(self):
        return hash((self.nvars, tuple(self._points)))

    # -- basic predicates ---------------------------------------------------

    def require_full_dim(self):
        """Raise NotFullDimensionalError unless the polytope spans R^n."""
        if self.dim != self.nvars:
            raise NotFullDimensionalError(self.dim, self.nvars)

    # -- faces ---------------------------------------------------------------

    def all_proper_faces(self) -> list[Face]:
        self.require_full_dim()
        return list(self._faces)

    @cached_property
    def _faces(self) -> tuple[Face, ...]:
        """The proper faces, built once per hull from the facet incidences:
        the hull's points on each facet, tested once, and its vertices among
        them."""
        facet_points = [frozenset(a for a in self._points if _dot(f.normal, a) == -f.level)
                        for f in self.facets]
        facet_sets = [frozenset(i for i, v in enumerate(self.vertices) if v in on)
                      for on in facet_points]
        out = []
        for vset in _face_vertex_sets(facet_sets):
            vtuple = tuple(sorted(vset))
            base = self.vertices[vtuple[0]]
            # up to three vertices of a polytope are affinely independent
            fdim = len(vtuple) - 1 if len(vtuple) <= 3 else len(_row_lattice_basis(
                [tuple(a - b for a, b in zip(self.vertices[i], base)) for i in vtuple]))
            active = tuple(j for j, fs in enumerate(facet_sets) if vset <= fs)
            points = frozenset.intersection(*(facet_points[j] for j in active))
            out.append(Face(self, vtuple, fdim, active, points))
        return tuple(out)

    def proper_faces_excluding_origin(self) -> list[Face]:
        return [f for f in self.all_proper_faces() if not f.contains_origin]

    # -- weights and lattice enumeration -------------------------------------

    def lattice_points_in_dilate(self, c) -> list[Monomial]:
        """All alpha with weight <= c, ascending lex.

        Since <u, alpha> is an integer, alpha in c*Delta is equivalent to
        <u, alpha> >= -floor(c * level) facet by facet; the floor absorbs the
        rounding in the divisor twists exactly.
        """
        self.require_full_dim()
        c = Fraction(c)
        if c < 0:
            return []
        lo = [math.ceil(c * min(v[i] for v in self.vertices)) for i in range(self.nvars)]
        hi = [math.floor(c * max(v[i] for v in self.vertices)) for i in range(self.nvars)]
        normals = [f.normal for f in self.facets]
        bounds = [-math.floor(c * f.level) for f in self.facets]
        return _kernels.enumerate_box_filtered(lo, hi, normals, bounds)

    @cached_property
    def weight_denominator(self) -> int:
        """D, the lcm of the positive facet levels: every weight of the hull
        lies in (1/D)Z."""
        return math.lcm(*(f.level for f in self.facets if f.level > 0))

    def _scan_dilate(self, keep_points: bool) -> dict:
        """One lex scan of the n-dilate, in the order and on the box of
        ``lattice_points_in_dilate(n)``: the weight table (point -> D times
        its weight) when keep_points, else the census of its values, a
        Counter, with no point built.

        A weight s / level is the numerator s * (D // level), the pairing
        with the normal scaled by -(D // level), largest over the facets.  A
        level-0 facet (s <= 0 on the dilate) contributes the constant 0, and
        with none the origin is interior, so the largest pairing is never
        negative.  Each facet's pairing with the leading coordinates is
        carried down the prefix, one multiply-add a facet a coordinate.  On
        the line of one prefix the facets with a nonzero last normal entry
        bound the last coordinate to an interval, a facet with last entry 0
        may empty it, and each facet's numerators along it form one
        arithmetic progression, so the weights of the line are one map of
        max over those progressions."""
        self.require_full_dim()
        n, D, facets = self.nvars, self.weight_denominator, self.facets
        lo = [n * min(v[i] for v in self.vertices) for i in range(n)]
        hi = [n * max(v[i] for v in self.vertices) for i in range(n)]
        lines = [((), [0] * len(facets))]
        for k in range(n - 1):
            col = [f.normal[k] for f in facets]
            lines = [(prefix + (v,), [p + u * v for p, u in zip(pairs, col)])
                     for prefix, pairs in lines for v in range(lo[k], hi[k] + 1)]
        # each facet: its last normal entry u, its bound <u, a> >= b on the
        # dilate, its factor c = -(D // level) and the slope c u of its
        # numerators along the last coordinate
        rows = []
        for f in facets:
            u, c = f.normal[-1], -(D // f.level) if f.level else 0
            rows.append((u, -n * f.level, c, c * u))
        parts = []
        for prefix, pairs in lines:
            first, last = lo[-1], hi[-1]
            for p, (u, b, _, _) in zip(pairs, rows):
                if u > 0:
                    first = max(first, -((p - b) // u))
                elif u < 0:
                    last = min(last, (b - p) // u)
                elif p < b:
                    break
            else:
                if first > last:
                    continue
                count = last - first + 1
                seqs = []
                for p, (_, _, c, t) in zip(pairs, rows):
                    w = c * p + t * first
                    seqs.append(range(w, w + t * count, t) if t else repeat(w, count))
                weights = map(max, *seqs)
                parts.append(zip([prefix + (x,) for x in range(first, last + 1)], weights)
                             if keep_points else weights)
        items = chain.from_iterable(parts)
        return dict(items) if keep_points else Counter(items)

    @cached_property
    def dilate_weights(self) -> Mapping[Monomial, int]:
        """D times the weight of every lattice point of the n-dilate, keys
        ascending lex: the one weight table of the hull, built on first use
        by one scan (``_scan_dilate``).  The de Rham bases and the curve's
        toric generators read it; the census reads it once it is built."""
        return MappingProxyType(self._scan_dilate(keep_points=True))

    @cached_property
    def weight_census(self) -> Mapping[int, int]:
        """How many points of the n-dilate have each weight numerator (0 for
        one that none has): the table's values counted when the table is
        built, otherwise one scan of the dilate that keeps no point."""
        if "dilate_weights" in self.__dict__:
            return MappingProxyType(Counter(self.dilate_weights.values()))
        return MappingProxyType(self._scan_dilate(keep_points=False))

    @cached_property
    def jumps(self) -> tuple[int, ...]:
        """Every numerator j = p*D - k in [0, n*D] over the numerators k of
        the census, ascending: the levels j / D are the only places the
        filtration can jump."""
        D, n = self.weight_denominator, self.nvars
        return tuple(sorted({p * D - k for k in self.weight_census
                             for p in range(n + 1) if 0 <= p * D - k <= n * D}))

    def contains_origin_interior(self) -> bool:
        if self.dim != self.nvars:
            return False
        return all(f.level > 0 for f in self.facets)

    # -- volume ---------------------------------------------------------------

    def normalized_volume(self) -> int:
        """n! times the Euclidean volume, summed over a pulling triangulation
        read off the face lattice (a simplex never builds it)."""
        self.require_full_dim()
        whole = frozenset(range(len(self.vertices)))
        dims = {whole: self.dim}
        if len(whole) > self.dim + 1:
            dims.update((frozenset(fc.vertex_indices), fc.dim) for fc in self.all_proper_faces())
        total = 0
        for simplex in _pulling_triangulation(whole, dims):
            apex = self.vertices[simplex[0]]
            rows = [[a - b for a, b in zip(self.vertices[i], apex)] for i in simplex[1:]]
            total += abs(_int_det(rows))
        return total

    def summary(self) -> dict:
        return {
            "vertices": [list(v) for v in self.vertices],
            "facets": [{"normal": list(f.normal), "level": f.level} for f in self.facets],
            "dim": self.dim,
        }


def newton_polytope(f: LaurentPolynomial) -> NewtonPolytope:
    """Hull of {0} and the support of f.

    The hull is built on the first call and stored on f itself, so every later
    call on f (or on -f, which inherits it) returns the same object.  It is
    never shared through the support: two inputs with one support and other
    coefficients each build their own.
    """
    if f._hull is None:
        if f.is_zero:
            raise ValueError("f must be nonzero")
        object.__setattr__(f, "_hull", NewtonPolytope(f.nvars, f.support))
    return f._hull
