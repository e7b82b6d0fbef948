"""Twisted de Rham complexes on the torus, filtered by the Newton polytope.

A filtration level lam is materialized degree by degree: the degree-p term is
spanned by the monomial log-forms x^alpha dlog x_I with |I| = p and
weight(alpha) <= p - lam, and the whole complex is truncated below degree
ceil(lam).  The connection acts by

    x^alpha dlog x_I  |->  sum_i alpha_i x^alpha dlog x_i ^ dlog x_I
                         + sum_beta c(beta) sum_i beta_i x^(alpha+beta)
                               dlog x_i ^ dlog x_I,

expanded in the wedge basis with dlog x_I sorted ascending and the sign of an
insertion given by its position parity.  All entries are exact rationals.

The graded piece at level lam keeps only the forms of exact weight p - lam
and the weight-raising part of the connection.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import ceil

from .errors import NotFullDimensionalError
from .laurent import LaurentPolynomial, Monomial
from .linalg import (Echelon, SparseRationalMatrix, exact_rank, image_dim_over,
                     nullspace_basis)
from .polytope import NewtonPolytope, newton_polytope

# a basis form (alpha, I): the log-form x^alpha dlog x_I, I ascending 0-based
BasisForm = tuple[Monomial, tuple[int, ...]]


def _insertion_sign(i: int, index_set: tuple[int, ...]):
    """(position parity sign, merged index set) for dlog x_i ^ dlog x_I,
    or (0, ()) when i already occurs."""
    if i in index_set:
        return 0, ()
    pos = sum(1 for j in index_set if j < i)
    merged = tuple(sorted(index_set + (i,)))
    return (-1) ** pos, merged


@dataclass(frozen=True)
class ComplexSlice:
    """One filtration level or graded piece: bases and differentials, degree
    by degree."""

    f: LaurentPolynomial
    level: Fraction
    bases: tuple[tuple[BasisForm, ...], ...]      # index p in 0..n
    mats: tuple[SparseRationalMatrix, ...]        # mats[p]: degree p -> p+1

    @property
    def nvars(self) -> int:
        return self.f.nvars

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)


def _level_bases(poly: NewtonPolytope, lam: Fraction, n: int,
                 exact_weight: bool) -> tuple[tuple[BasisForm, ...], ...]:
    bases: list[tuple[BasisForm, ...]] = []
    for p in range(n + 1):
        if p < ceil(lam):
            bases.append(())
            continue
        cap = Fraction(p) - lam
        if cap < 0:
            bases.append(())
            continue
        points = poly.lattice_points_in_dilate(cap)
        if exact_weight:
            points = [a for a in points if poly.weight(a) == cap]
        index_sets = list(combinations(range(n), p))
        bases.append(tuple((a, I) for a in points for I in index_sets))
    return tuple(bases)


def _differential(f: LaurentPolynomial, bases, p: int,
                  graded: bool) -> SparseRationalMatrix:
    n = f.nvars
    source = bases[p]
    target = bases[p + 1] if p + 1 <= n else ()
    index = {form: i for i, form in enumerate(target)}
    entries: dict[tuple[int, int], Fraction] = {}

    def add(row_form: BasisForm, col: int, value: Fraction):
        row = index.get(row_form)
        if row is None:
            # weight bound guarantees membership in the full slice; graded
            # slices drop the off-step part here
            if not graded and value != 0:
                raise AssertionError(f"image form {row_form} missing from basis")
            return
        key = (row, col)
        s = entries.get(key, Fraction(0)) + value
        if s == 0:
            entries.pop(key, None)
        else:
            entries[key] = s

    for col, (alpha, I) in enumerate(source):
        for i in range(n):
            sign, merged = _insertion_sign(i, I)
            if sign == 0:
                continue
            if not graded and alpha[i] != 0:
                add((alpha, merged), col, Fraction(sign * alpha[i]))
            for beta, c in f.terms.items():
                if beta[i] == 0:
                    continue
                target_alpha = tuple(a + b for a, b in zip(alpha, beta))
                add((target_alpha, merged), col, sign * beta[i] * c)
    return SparseRationalMatrix(len(target), len(source), entries)


def _check_level(f: LaurentPolynomial, lam) -> tuple[NewtonPolytope, Fraction]:
    lam = Fraction(lam)
    poly = newton_polytope(f)
    if poly.dim != f.nvars:
        raise NotFullDimensionalError(poly.dim, f.nvars)
    if lam > f.nvars:
        raise ValueError(f"level {lam} above top degree {f.nvars}")
    return poly, lam


@lru_cache(maxsize=256)
def build_filtration_level(f: LaurentPolynomial, lam) -> ComplexSlice:
    """The level-lam subcomplex of the twisted de Rham complex."""
    poly, lam = _check_level(f, lam)
    n = f.nvars
    bases = _level_bases(poly, lam, n, exact_weight=False)
    mats = tuple(_differential(f, bases, p, graded=False) for p in range(n))
    return ComplexSlice(f, lam, bases, mats)


@lru_cache(maxsize=256)
def build_graded_level(f: LaurentPolynomial, lam) -> ComplexSlice:
    """The graded piece at level lam: exact-weight forms, weight-raising part
    of the connection only."""
    poly, lam = _check_level(f, lam)
    n = f.nvars
    bases = _level_bases(poly, lam, n, exact_weight=True)
    mats = tuple(_differential(f, bases, p, graded=True) for p in range(n))
    return ComplexSlice(f, lam, bases, mats)


def betti_numbers(f: LaurentPolynomial) -> list[int]:
    """Dimensions of the twisted de Rham cohomology, degrees 0..n, from the
    level-0 slice by exact ranks."""
    sl = build_filtration_level(f, Fraction(0))
    n = f.nvars
    ranks = [exact_rank(m) for m in sl.mats]
    dims = sl.dims()
    out = []
    for i in range(n + 1):
        r_out = ranks[i] if i < n else 0
        r_in = ranks[i - 1] if i > 0 else 0
        out.append(dims[i] - r_out - r_in)
    return out


def _kernel_in_level0_coords(f: LaurentPolynomial, i: int, slice_lam: ComplexSlice,
                             slice0: ComplexSlice):
    """Cocycles of the level-lam slice at degree i, written in the level-0
    degree-i coordinates (the basis inclusion)."""
    n = f.nvars
    src_basis = slice_lam.bases[i]
    if not src_basis:
        return []
    if i == n:
        kernel = [{j: Fraction(1)} for j in range(len(src_basis))]
    else:
        kernel = nullspace_basis(slice_lam.mats[i])
    index0 = {form: j for j, form in enumerate(slice0.bases[i])}
    embedded = []
    for vec in kernel:
        embedded.append({index0[src_basis[j]]: v for j, v in vec.items()})
    return embedded


def filtration_image_dim(f: LaurentPolynomial, lam, i: int) -> int:
    """Dimension of the image of H^i(level lam) inside H^i(level 0)."""
    lam = Fraction(lam)
    slice0 = build_filtration_level(f, Fraction(0))
    slice_lam = build_filtration_level(f, lam)
    kernel = _kernel_in_level0_coords(f, i, slice_lam, slice0)
    if not kernel:
        return 0
    boundaries = slice0.mats[i - 1].columns() if i > 0 else []
    boundaries = [b for b in boundaries if b]
    return image_dim_over(kernel, boundaries)


def top_image_profile(f: LaurentPolynomial, levels) -> list[int]:
    """filtration_image_dim(f, lam, n) for every lam in levels, in one pass.

    In top degree n every level-lam form is a cocycle, so with B the level-0
    d_{n-1} (one row per top form) and S_lam the top forms of weight at most
    n - lam,

        dim im(H^n(level lam) -> H^n(level 0))
            = |S_lam| + rank(rows of B outside S_lam) - rank(B).

    The sets S_lam shrink as lam grows, so one incremental echelon over the
    rows of B, taken in descending weight, yields every rank on the way.
    """
    n = f.nvars
    poly, _ = _check_level(f, 0)
    levels = [Fraction(lam) for lam in levels]
    for lam in levels:
        if not 0 <= lam <= n:
            raise ValueError(f"level {lam} outside [0, {n}]")
    slice0 = build_filtration_level(f, Fraction(0))
    rows = slice0.mats[n - 1].rows()
    weights = [poly.weight(alpha) for alpha, _ in slice0.bases[n]]
    order = sorted(range(len(rows)), key=weights.__getitem__, reverse=True)
    echelon = Echelon()
    added = 0
    outside: dict[Fraction, tuple[int, int]] = {}  # lam -> (|rows outside|, rank)
    for lam in sorted(set(levels)):
        while added < len(order) and weights[order[added]] > n - lam:
            echelon.add(rows[order[added]])
            added += 1
        outside[lam] = (added, echelon.rank)
    for r in order[added:]:
        echelon.add(rows[r])
    rank_b = echelon.rank
    return [len(rows) - k + rank_k - rank_b
            for k, rank_k in (outside[lam] for lam in levels)]


__all__ = [
    "BasisForm", "ComplexSlice", "build_filtration_level",
    "build_graded_level", "betti_numbers", "filtration_image_dim",
    "top_image_profile", "exact_rank",
]
