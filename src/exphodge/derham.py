"""Twisted de Rham complexes on the torus, filtered by the Newton polytope.

The complex is built once per input, at level 0: the degree-p term is spanned
by the monomial log-forms x^alpha dlog x_I with |I| = p and weight(alpha) <= p,
and the connection acts by

    x^alpha dlog x_I  |->  sum_i alpha_i x^alpha dlog x_i ^ dlog x_I
                         + sum_beta c(beta) sum_i beta_i x^(alpha+beta)
                               dlog x_i ^ dlog x_I,

expanded in the wedge basis with dlog x_I sorted ascending and the sign of an
insertion given by its position parity.  All entries are exact rationals.
The points alpha and their weights come from the hull's weight table.

Every other slice is a weight block of the level-0 slice.  Filtration level
lam keeps the degree-p forms of weight <= p - lam (none below degree lam) and
the blocks of the differentials between them; the graded piece at level lam
keeps those of weight exactly p - lam, and its blocks are the weight-raising
part of the connection.  The first term preserves weight and each beta term
raises it by at most one, so no kept column may reach a dropped row of weight
above p + 1 - lam: the block check that d maps level lam into itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import eq, le

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
    """One filtration level or graded piece: bases, differentials and basis
    weights, degree by degree."""

    f: LaurentPolynomial
    level: Fraction
    bases: tuple[tuple[BasisForm, ...], ...]      # index p in 0..n
    mats: tuple[SparseRationalMatrix, ...]        # mats[p]: degree p -> p+1
    weights: tuple[tuple[Fraction, ...], ...]     # weights[p][i]: of bases[p][i]

    @property
    def nvars(self) -> int:
        return self.f.nvars

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def cohomology(self) -> list[int]:
        """Cohomology dimensions, degrees 0..n, by exact ranks of the
        differentials."""
        ranks = [0] + [exact_rank(m) for m in self.mats] + [0]
        return [d - ranks[p] - ranks[p + 1] for p, d in enumerate(self.dims())]


def _differential(f: LaurentPolynomial, bases, p: int) -> SparseRationalMatrix:
    n = f.nvars
    source, target = bases[p], bases[p + 1]
    index = {form: i for i, form in enumerate(target)}
    entries: dict[tuple[int, int], Fraction] = {}

    def add(row_form: BasisForm, col: int, value: Fraction):
        row = index.get(row_form)
        if row is None:
            # weight(alpha + beta) <= weight(alpha) + 1, so level 0 holds every image
            raise AssertionError(f"image form {row_form} missing from basis")
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
            if alpha[i] != 0:
                add((alpha, merged), col, Fraction(sign * alpha[i]))
            for beta, c in f.terms.items():
                if beta[i] == 0:
                    continue
                target_alpha = tuple(a + b for a, b in zip(alpha, beta))
                add((target_alpha, merged), col, sign * beta[i] * c)
    return SparseRationalMatrix(len(target), len(source), entries)


def _weight_block(slice0: ComplexSlice, lam: Fraction, keep) -> ComplexSlice:
    """The degree-p forms of slice0 whose weight w has keep(w, p - lam), and
    the blocks of slice0's differentials between them.  An entry of a kept
    column in a dropped row of weight above p + 1 - lam would mean d leaves
    level lam, and raises."""
    caps = [p - lam for p in range(len(slice0.weights))]
    kept = [[i for i, w in enumerate(ws) if keep(w, cap)]
            for ws, cap in zip(slice0.weights, caps)]
    mats = []
    for p, m in enumerate(slice0.mats):
        cols = {c: j for j, c in enumerate(kept[p])}
        rows = {r: k for k, r in enumerate(kept[p + 1])}
        entries = {}
        for (r, c), v in m.entries.items():
            if c not in cols:
                continue
            if r in rows:
                entries[(rows[r], cols[c])] = v
            elif slice0.weights[p + 1][r] > caps[p + 1]:
                raise AssertionError(f"d maps level {lam} to {slice0.bases[p + 1][r]}")
        mats.append(SparseRationalMatrix(len(rows), len(cols), entries))
    bases = tuple(tuple(slice0.bases[p][i] for i in ix) for p, ix in enumerate(kept))
    weights = tuple(tuple(slice0.weights[p][i] for i in ix) for p, ix in enumerate(kept))
    return ComplexSlice(slice0.f, lam, bases, tuple(mats), weights)


def _check_level(f: LaurentPolynomial, lam) -> tuple[NewtonPolytope, Fraction]:
    lam = Fraction(lam)
    poly = newton_polytope(f)
    poly.require_full_dim()
    if not 0 <= lam <= f.nvars:
        raise ValueError(f"level {lam} outside [0, top degree {f.nvars}]")
    return poly, lam


@lru_cache(maxsize=256)
def build_filtration_level(f: LaurentPolynomial, lam) -> ComplexSlice:
    """The level-lam subcomplex of the twisted de Rham complex: built at
    level 0, a weight block of the level-0 slice above it."""
    poly, lam = _check_level(f, lam)
    if lam > 0:
        return _weight_block(build_filtration_level(f, Fraction(0)), lam, le)
    n = f.nvars
    weight = poly.dilate_weights
    bases, weights = [], []
    for p in range(n + 1):
        index_sets = list(combinations(range(n), p))
        bases.append(tuple((a, I) for a, w in weight.items() if w <= p for I in index_sets))
        weights.append(tuple(weight[a] for a, _ in bases[p]))
    mats = tuple(_differential(f, bases, p) for p in range(n))
    return ComplexSlice(f, lam, tuple(bases), mats, tuple(weights))


def build_graded_level(f: LaurentPolynomial, lam) -> ComplexSlice:
    """The graded piece at level lam: the exact-weight block of the level-0
    slice, whose differentials are the weight-raising part of d."""
    _, lam = _check_level(f, lam)
    return _weight_block(build_filtration_level(f, Fraction(0)), lam, eq)


def betti_numbers(f: LaurentPolynomial) -> list[int]:
    """Dimensions of the twisted de Rham cohomology, degrees 0..n, from the
    level-0 slice by exact ranks."""
    return build_filtration_level(f, Fraction(0)).cohomology()


def _kernel_in_level0_coords(i: int, slice_lam: ComplexSlice, slice0: ComplexSlice):
    """Cocycles of the level-lam slice at degree i, written in the level-0
    degree-i coordinates (the basis inclusion)."""
    src_basis = slice_lam.bases[i]
    if i == slice0.nvars:
        kernel = [{j: Fraction(1)} for j in range(len(src_basis))]
    else:
        kernel = nullspace_basis(slice_lam.mats[i])
    index0 = {form: j for j, form in enumerate(slice0.bases[i])}
    return [{index0[src_basis[j]]: v for j, v in vec.items()} for vec in kernel]


def filtration_image_dim(f: LaurentPolynomial, lam, i: int) -> int:
    """Dimension of the image of H^i(level lam) inside H^i(level 0)."""
    slice0 = build_filtration_level(f, Fraction(0))
    kernel = _kernel_in_level0_coords(i, build_filtration_level(f, Fraction(lam)), slice0)
    if not kernel:
        return 0
    boundaries = [b for b in slice0.mats[i - 1].columns() if b] if i > 0 else []
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
    slice0 = build_filtration_level(f, Fraction(0))
    levels = [_check_level(f, lam)[1] for lam in levels]
    rows = slice0.mats[n - 1].rows()
    weights = slice0.weights[n]
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
    "top_image_profile",
]
