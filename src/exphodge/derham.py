"""Twisted de Rham complexes on the torus, filtered by the Newton polytope.

The complex is built once per input, at level 0: the degree-p term is spanned
by the monomial log-forms x^alpha dlog x_I with |I| = p and weight(alpha) <= p,
and the connection acts by

    x^alpha dlog x_I  |->  sum_i alpha_i x^alpha dlog x_i ^ dlog x_I
                         + sum_beta c(beta) sum_i beta_i x^(alpha+beta)
                               dlog x_i ^ dlog x_I,

expanded in the wedge basis with dlog x_I sorted ascending and the sign of an
insertion given by its position parity.  The points alpha and their weights
come from the hull's weight table.  Each entry is written once: the insertion
i is the one index of the row's set missing from the column's, and the row
exponent alpha + beta names the one term beta (the d term when beta = 0), so
no two terms meet in one entry.  One loop (``_write``) writes a level-0
differential from a table of coefficients c(beta): first from their residues
mod PRIME, an ``int`` per entry (or, where PRIME divides the denominator of
c(beta), the exact entry itself, a mark whose row every GF(PRIME) pass leaves
out); then from the exact c(beta), the first time something reads the
matrix's exact ``entries`` (an exact rank or profile, a block of the slice).
An input whose every rank the GF(PRIME) proofs below settle builds no exact
matrix.

The complex of -f has the same bases and weights, and ``ComplexSlice.negated``
builds it from f's by a sign flip on the residues: every entry whose row
exponent differs from its column exponent (the df part) changes sign, and the
d part stays; its exact entries, when read, are written from -f's
coefficients.  No differential is assembled twice for f and -f.

Every other slice is a weight block of the level-0 slice, cut by one
builder (``_block``) on the hull's integers: the weight table holds D times
each weight, D the lcm of the positive facet levels
(``NewtonPolytope.weight_denominator``), so each form has a numerator k.
Filtration level lam keeps the degree-p forms with k <= (p - lam) D (none
below degree lam) and the blocks of the differentials between them; the
graded piece at level lam keeps those with k == (p - lam) D, and its blocks
are the weight-raising part of the connection.  The first term preserves
weight and each beta term raises it by at most one.  One pass over the
level-0 entries checks k(row) <= k(col) + D on every entry, which says that d
maps every level into itself, and buckets the entries with k(row) = k(col) +
D by the column's numerator; every graded block is read from those buckets,
and the graded table is keyed by the jump numerators j = lam D.  No weight of
a basis form is a Fraction; only a slice's ``level`` is one.

``ComplexSlice`` owns every rank of its differentials.  Every rank runs
through the one rank loop ``linalg.prefix_ranks``, first over GF(PRIME),
PRIME = 2^31 - 1 fixed, where a rank is a lower bound on the rank over Q,
never None; a lower bound counts only through one of two proofs, and the
loop over Q decides whatever they leave open.  (a) ``ComplexSlice.rank``
takes the GF(PRIME) rank of each differential once; when they saturate the
slice (r'_(p-1) + r'_p = dim C^p for p < n), d o d = 0 proves them, so the
Betti numbers, with or without the rank route before them, eliminate
nothing exactly.  (b) ``ComplexSlice.top_profile`` runs one pass over the
rows of d_(n-1) at the hull's jumps; its image dimensions lie between a
lower bound from the GF(PRIME) ranks of those rows and an upper bound from
the graded table (``graded_ranks``: the GF(PRIME) ranks of every graded
piece, one pass per degree over the buckets, with no block built), and are
read only where the two meet; else the pass runs again over Q.  Either pass
leaves the rank of d_(n-1) on the slice, and (a) takes r'(d_(n-1)) from the
profile's GF(PRIME) pass, so d_(n-1) is reduced mod PRIME once per slice,
whether the Betti numbers or the profile come first.
``ComplexSlice.graded_below_top`` reads the vanishing below top degree of a
graded piece from its saturation in the table, else from the exact ranks of
its block.  A graded entry raises weight, so it is a df entry, and -f's
graded blocks are the negatives of f's on the same keys: ``negated`` hands
f's buckets and graded table to the slice of -f.  Ranks, GF(PRIME) ranks,
the graded table and buckets are kept on the slice that they describe, in a
field that ``dataclasses.replace`` does not carry over; a matrix keeps its
residues, one copy, and no echelon outlives the call that makes it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations
from operator import add

from .errors import IntegrityError
from .laurent import LaurentPolynomial, Monomial
from .linalg import (PRIME, SparseRationalMatrix, exact_rank, image_dim_over, nullspace_basis,
                     prefix_ranks, saturated_ranks)
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
    weights: tuple[tuple[int, ...], ...]          # weights[p][i]: D * weight of bases[p][i]
    graded: bool = False                          # a graded piece: the weight-raising part of d
    # ranks over Q and GF(PRIME), profile passes, graded table and weight
    # buckets of this slice, computed once; outside __init__, so
    # dataclasses.replace starts the copy with none
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def nvars(self) -> int:
        return self.f.nvars

    def dims(self) -> tuple[int, ...]:
        return tuple(len(b) for b in self.bases)

    def rank(self, p: int) -> int:
        """Rank of mats[p] over Q, computed once per slice: proven by the
        saturation of the slice's GF(PRIME) ranks when it closes, else by the
        exact echelon."""
        ranks = self._memo.setdefault("ranks", {})
        if p not in ranks and not self._saturated():
            ranks[p] = exact_rank(self.mats[p])
        return ranks[p]

    def _saturated(self) -> bool:
        """Whether the GF(PRIME) ranks of the differentials, each taken once
        per slice, saturate the slice (``saturated_ranks``); they are then
        its ranks over Q, and the slice keeps them.  A level-0 slice takes
        r'(d_{n-1}) from the profile's pass, so that pass is its only one
        over d_{n-1}, whichever of the two asks first."""
        modular = self._memo.setdefault("modular", {})
        for p, m in enumerate(self.mats):
            if p in modular:
                continue
            if p == self.nvars - 1 and self.level == 0 and not self.graded:
                self._top_pass(True)
            else:
                modular[p] = prefix_ranks(sorted(m.residue_rows(), key=len), [m.nrows], True)[0]
        proven = saturated_ranks([modular[p] for p in range(len(self.mats))], self.dims())
        if proven is not None:
            self._memo.setdefault("ranks", {}).update(enumerate(proven))
        return proven is not None

    def cohomology(self) -> list[int]:
        """Cohomology dimensions, degrees 0..n, by ranks over Q of the
        differentials; raises ``IntegrityError`` on a negative one, which
        only a complex with d o d != 0 can give."""
        ranks = [0] + [self.rank(p) for p in range(len(self.mats))] + [0]
        dims = [d - ranks[p] - ranks[p + 1] for p, d in enumerate(self.dims())]
        if min(dims) < 0:
            raise IntegrityError(f"negative cohomology dimension {dims} at level {self.level}")
        return dims

    def negated(self) -> "ComplexSlice":
        """The same level-0 slice of -f: the residues of the df part, whose
        row exponent differs from their column exponent, change sign; its
        exact entries are written from -f's coefficients when first read.

        Every graded entry raises weight, so it is a df entry on the same
        key: -f's graded blocks are entrywise the negatives of f's, and the
        copy starts with f's buckets and graded table."""
        g, mats = -self.f, []
        for p, m in enumerate(self.mats):
            source, target = self.bases[p], self.bases[p + 1]
            mats.append(_Differential(g, self.bases, p, {
                (r, c): v if target[r][0] == source[c][0] else -v
                for (r, c), v in m.residues.items()}))
        flipped = ComplexSlice(g, self.level, self.bases, tuple(mats), self.weights)
        flipped._memo.update(graded=graded_ranks(self), buckets=_buckets(self))
        return flipped

    def graded_below_top(self, j: int) -> list[int]:
        """The cohomology dimensions below top degree of the graded piece at
        the jump candidate j / D of this level-0 slice, j a key of the graded
        table: zero when its GF(PRIME) ranks there saturate it, else by the
        exact ranks of its block."""
        dims, ranks = graded_ranks(self)[j]
        if saturated_ranks(ranks, dims) is not None:
            return [0] * self.nvars
        block = _block(self, Fraction(j, newton_polytope(self.f).weight_denominator), True)
        block._memo["modular"] = dict(enumerate(ranks))
        return block.cohomology()[:self.nvars]

    def top_profile(self) -> list[int]:
        """dim im(H^n(level lam) -> H^n(level 0)) at every jump candidate lam
        of the hull, ascending, from this level-0 slice in one pass over the
        rows of d_{n-1} (see ``top_image_profile``).

        The pass runs over GF(PRIME) first, and its numbers are kept only
        when both proofs close on them: the level-0 ranks saturate, which
        proves rank B, and at every jump the lower bound

            |S_lam| + r'(rows of B outside S_lam) - rank B

        meets the upper bound that the exact sequence H^n(F^>lam) ->
        H^n(F^lam) -> H^n(Gr^lam) -> 0 gives, the sum over every jump
        mu >= lam of dim Gr^mu_n - r'(Gr^mu d_{n-1}) from the graded table.
        The image dimension lies between the two; they meet when the
        filtration is strict (Deligne, Theorie de Hodge II, 1.3.2).
        Otherwise the pass runs again over Q."""
        if self.level != 0 or self.graded:
            piece = "graded piece" if self.graded else "level"
            raise ValueError(f"the profile reads a level-0 slice, not {piece} {self.level}")
        profile = self._top_pass(True)
        if self._sandwich_closes(newton_polytope(self.f).jumps, profile):
            return list(profile)
        return list(self._top_pass(False))

    def _top_pass(self, modular: bool) -> tuple[int, ...]:
        """The profile's pass over the rows of B = d_{n-1}, over GF(PRIME) on
        their residues or over Q, at the hull's jumps, made once per slice
        and field.  It adds every row of B, so it leaves r'(B) or rank B on
        the slice."""
        memo, key = self._memo, "profile" if modular else "exact profile"
        if key in memo:
            return memo[key]
        n = self.nvars
        poly = newton_polytope(self.f)
        jumps, top = poly.jumps, n * poly.weight_denominator
        b = self.mats[n - 1]
        rows = b.residue_rows() if modular else b.rows()
        ks = self.weights[n]
        # descending weight, and shortest first within one weight: a rank is
        # read only between two weights, and a row set's rank is its own
        order = sorted(range(len(rows)), key=lambda r: (-ks[r], len(rows[r])))
        # the rows of B outside S_lam, of numerator above n D - j, lead the
        # order: one cut counts them per jump j
        leading = [-ks[r] for r in order]
        cuts = [bisect_left(leading, j - top) for j in jumps]
        rows = [rows[r] for r in order]
        prefix = prefix_ranks(rows, cuts + [len(rows)], modular)
        rank_b = prefix.pop()
        memo.setdefault("modular" if modular else "ranks", {})[n - 1] = rank_b
        profile = memo[key] = tuple(len(rows) - k + rank_k - rank_b
                                    for k, rank_k in zip(cuts, prefix))
        return profile

    def _sandwich_closes(self, jumps, profile) -> bool:
        """Whether the GF(PRIME) profile at the jumps is proven: rank B by
        saturation, and each lower bound equal to its upper bound."""
        if not self._saturated():
            return False
        n, graded, upper = self.nvars, graded_ranks(self), 0
        for j, lower in zip(reversed(jumps), reversed(profile)):
            dims, ranks = graded[j]
            upper += dims[n] - ranks[n - 1]
            if lower != upper:
                return False
        return True


def _differential(f: LaurentPolynomial, bases, p: int) -> "_Differential":
    """d_p of the level-0 slice of f, written once as residues mod PRIME."""
    return _Differential(f, bases, p, _write(bases, p, {
        beta: c.numerator * pow(c.denominator, -1, PRIME) % PRIME if c.denominator % PRIME else c
        for beta, c in f.terms.items()}))


class _Differential(SparseRationalMatrix):
    """A level-0 differential d_p of f, known by its residues: ``_write``
    from the coefficients of f mod PRIME, each an ``int``, or the
    coefficient itself where PRIME divides its denominator (its entries are
    then the exact ones, and a pass over GF(PRIME) leaves out their rows).
    The exact entries come from the same loop on f's own coefficients, the
    first time they are read."""

    def __init__(self, f: LaurentPolynomial, bases, p: int, residues: dict):
        self.nrows, self.ncols = len(bases[p + 1]), len(bases[p])
        self.f, self.bases, self.p = f, bases, p
        self.residues = residues

    @cached_property
    def entries(self) -> dict:
        return _write(self.bases, self.p, self.f.terms)


def _write(bases, p: int, terms: dict) -> dict:
    """The entries of d_p between the given bases, with c(beta) read from
    terms: beta -> c(beta), exact or mod PRIME.  The d part is written as
    ``int``s."""
    n = len(bases) - 1
    source, target = bases[p], bases[p + 1]
    index = {form: i for i, form in enumerate(target)}
    # the df part: beta_i c(beta) for the terms with beta_i != 0, and its
    # negative, for the two insertion signs
    df = [[(beta, beta[i] * c) for beta, c in terms.items() if beta[i]] for i in range(n)]
    signed = {1: df, -1: [[(beta, -v) for beta, v in ts] for ts in df]}
    insertions = {I: [(i, sign, merged) for i in range(n)
                      for sign, merged in [_insertion_sign(i, I)] if sign]
                  for I in combinations(range(n), p)}
    entries: dict[tuple[int, int], object] = {}
    written = 0
    try:
        for col, (alpha, I) in enumerate(source):
            for i, sign, merged in insertions[I]:
                if alpha[i]:
                    entries[index[alpha, merged], col] = sign * alpha[i]
                    written += 1
                for beta, v in signed[sign][i]:
                    entries[index[tuple(map(add, alpha, beta)), merged], col] = v
                    written += 1
    except KeyError as missing:
        # weight(alpha + beta) <= weight(alpha) + 1, so level 0 holds every image
        raise IntegrityError(f"image form {missing.args[0]} missing from basis") from None
    if written != len(entries):
        raise IntegrityError("two terms of d met in one entry")
    return entries


def _buckets(slice0: ComplexSlice) -> tuple[dict[int, list[tuple[int, int]]], ...]:
    """The weight-raising buckets of a level-0 slice: raised[p][k] holds the
    keys (r, c) of the entries of mats[p] whose column has numerator k and
    whose row has numerator k + D (the residues' own key objects, so a
    bucket holds only references).  Built once by one pass over the entries,
    which checks k(row) <= k(col) + D on every one, that is, that d maps
    every level into itself, and raises when an entry breaks it."""
    memo = slice0._memo.get("buckets")
    if memo is not None:
        return memo
    D = newton_polytope(slice0.f).weight_denominator
    raised = []
    for p, m in enumerate(slice0.mats):
        col_ks, row_ks = slice0.weights[p], slice0.weights[p + 1]
        bucket: dict[int, list] = {}
        for key in m.residues:
            r, c = key
            k, kr = col_ks[c], row_ks[r]
            if kr == k + D:
                bucket.setdefault(k, []).append(key)
            elif kr > k + D:
                raise IntegrityError(
                    f"d maps level {Fraction(p * D - k, D)} to {slice0.bases[p + 1][r]}")
        raised.append(bucket)
    memo = slice0._memo["buckets"] = tuple(raised)
    return memo


def _block(slice0: ComplexSlice, lam: Fraction, graded: bool) -> ComplexSlice:
    """The block of slice0 at level lam: the degree-p forms of numerator
    k <= (p - lam) D, or k == (p - lam) D for the graded piece, and the exact
    entries of the differentials between them, those of a graded piece read
    from the bucket at (p - lam) D."""
    raised = _buckets(slice0)  # its check puts the image of a kept column in level lam
    D = newton_polytope(slice0.f).weight_denominator
    caps = [(p - lam) * D for p in range(len(slice0.bases))]
    kept = [[i for i, k in enumerate(ks) if (k == cap if graded else k <= cap)]
            for ks, cap in zip(slice0.weights, caps)]
    mats = []
    for p, m in enumerate(slice0.mats):
        cols = {c: j for j, c in enumerate(kept[p])}
        rows = {r: j for j, r in enumerate(kept[p + 1])}
        keys = (raised[p].get(caps[p], ()) if graded
                else [key for key in m.entries if key[1] in cols])
        mats.append(SparseRationalMatrix(len(rows), len(cols), {
            (rows[r], cols[c]): m.entries[r, c] for r, c in keys}))
    bases = tuple(tuple(slice0.bases[p][i] for i in ix) for p, ix in enumerate(kept))
    weights = tuple(tuple(slice0.weights[p][i] for i in ix) for p, ix in enumerate(kept))
    return ComplexSlice(slice0.f, lam, bases, tuple(mats), weights, graded)


def graded_ranks(slice0: ComplexSlice) -> dict:
    """The graded table of a level-0 slice: for every jump numerator j of
    the hull (``NewtonPolytope.jumps``, the jump j / D), (dims, ranks) of the
    graded piece there, its dimensions in degrees 0..n and the GF(PRIME)
    ranks of its differentials, read from the buckets with no block built.
    The blocks of one degree share no column (numerator p D - j) and no row
    (numerator (p + 1) D - j), so one pass per degree ranks them all, each
    block's rank the rise across it.  Kept on the slice, keyed by j, as
    integers only, and handed to its sign flip."""
    memo = slice0._memo
    if "graded" in memo:
        return memo["graded"]
    raised = _buckets(slice0)
    n = slice0.nvars
    poly = newton_polytope(slice0.f)
    D, jumps = poly.weight_denominator, poly.jumps
    ks = [[p * D - j for p in range(n + 1)] for j in jumps]
    rises = []  # rises[p][i]: the rank of the block of degree p at jumps[i]
    for p, m in enumerate(slice0.mats):
        rows, cuts = [], []
        for k in ks:
            block: dict[int, dict] = {}
            for key in raised[p].get(k[p], ()):
                block.setdefault(key[0], {})[key[1]] = m.residues[key]
            rows += sorted(block.values(), key=len)
            cuts.append(len(rows))
        prefix = prefix_ranks(rows, cuts, True)
        rises.append([total - below for below, total in zip([0] + prefix, prefix)])
    counts = [Counter(ws) for ws in slice0.weights]
    graded = memo["graded"] = {}
    for j, k, ranks in zip(jumps, ks, zip(*rises)):
        graded[j] = (tuple(count[kp] for count, kp in zip(counts, k)), ranks)
    return graded


def _check_level(f: LaurentPolynomial, lam) -> tuple[NewtonPolytope, Fraction]:
    lam = Fraction(lam)
    poly = newton_polytope(f)
    poly.require_full_dim()
    if not 0 <= lam <= f.nvars:
        raise ValueError(f"level {lam} outside [0, top degree {f.nvars}]")
    return poly, lam


# one analyze needs one live entry: it reads its level-0 slice 4 times (1
# miss, 3 hits).  The rest of the 16 serves the level-by-level reference
# tests, where each level above 0 reads the level-0 slice again.
@lru_cache(maxsize=16)
def build_filtration_level(f: LaurentPolynomial, lam) -> ComplexSlice:
    """The level-lam subcomplex of the twisted de Rham complex: built at
    level 0, a weight block of the level-0 slice above it."""
    poly, lam = _check_level(f, lam)
    if lam > 0:
        return _block(build_filtration_level(f, Fraction(0)), lam, False)
    n, D = f.nvars, poly.weight_denominator
    weight = poly.dilate_weights
    bases, weights = [], []
    for p in range(n + 1):
        index_sets = list(combinations(range(n), p))
        bases.append(tuple((a, I) for a, k in weight.items() if k <= p * D for I in index_sets))
        weights.append(tuple(weight[a] for a, _ in bases[p]))
    bases = tuple(bases)
    mats = tuple(_differential(f, bases, p) for p in range(n))
    return ComplexSlice(f, lam, bases, mats, tuple(weights))


def build_graded_level(f: LaurentPolynomial, lam) -> ComplexSlice:
    """The graded piece at level lam: the exact-weight block of the level-0
    slice, whose differentials are the weight-raising part of d."""
    _, lam = _check_level(f, lam)
    return _block(build_filtration_level(f, Fraction(0)), lam, True)


def betti_numbers(f: LaurentPolynomial) -> list[int]:
    """Dimensions of the twisted de Rham cohomology, degrees 0..n, from the
    ranks over Q of the level-0 slice (``ComplexSlice.rank``): the ones the
    rank route left on it when it has run, saturation or exact ranks for the
    rest."""
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
    rows of B, taken in descending weight, yields every rank on the way, and
    rank(B) at its end (``ComplexSlice.top_profile``, at the hull's jumps).
    Every p - weight in [0, n] is a jump, so a level keeps the forms of the
    least jump at or above it, and none above the top jump.  Any levels in
    [0, n] may be asked, in any order.
    """
    levels = [_check_level(f, lam)[1] for lam in levels]
    profile = build_filtration_level(f, Fraction(0)).top_profile() + [0]
    poly = newton_polytope(f)
    return [profile[bisect_left(poly.jumps, lam * poly.weight_denominator)] for lam in levels]


__all__ = [
    "BasisForm", "ComplexSlice", "build_filtration_level",
    "build_graded_level", "betti_numbers", "filtration_image_dim",
    "graded_ranks", "top_image_profile",
]
