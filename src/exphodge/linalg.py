"""Sparse rational matrices and rank computations: exact over Q, or over
GF(PRIME) when a proof turns the modular rank into the rank over Q.

``Echelon``, an incremental sparse row echelon form over Q whose integral
entries stay ``int`` and whose unit pivots never divide, takes one vector at a
time and reports whether it raised the rank.  ``ModularEchelon`` is the same
echelon over GF(PRIME), PRIME = 2^31 - 1 fixed, on plain ``int`` residues, so
no ``Fraction`` is built.

``prefix_ranks`` is the one rank loop: it ranks the prefixes of a row list
over either field, and every rank entry point here runs through it
(``exact_rank`` and ``span_rank`` are one prefix, ``image_dim_over`` two).
Only a kernel (``nullspace_basis``) needs the echelon itself.  Over GF(PRIME) it reduces
each row mod PRIME as it adds it and leaves out a row with an entry whose
denominator PRIME divides.  A minor that vanishes over Q vanishes mod PRIME,
so the rank of the rows it keeps is a lower bound on the rank over Q of the
whole prefix (cf. Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001):
a lower bound, never None and never more.  A lower bound becomes a rank only
through a proof, and the one owner of the de Rham ranks
(``derham.ComplexSlice``) is the only caller of ``saturated_ranks``, the
proof that lives here: in a complex C^0 -> ... -> C^m, d o d = 0 gives
rank d_(p-1) + rank d_p <= dim C^p over Q, so when the GF(PRIME) ranks
satisfy r'_(p-1) + r'_p = dim C^p for every p < m, induction from p = 0
proves r_p = r'_p for every p (and no cohomology below degree m).  A caller
whose proof does not close runs the loop again over Q, which is the only
engine that decides such an input.

Both echelons pivot on the smallest column of a vector.  The rank loop and
the kernel first relabel the columns of their whole input rarest first, by
occurrence count and then by column (Markowitz's static rule), so the
smallest label is the column the fewest rows share: a column held by one row
becomes a pivot with no fill-in.  Under a fixed column order the pivot set
of a row space does not depend on the order of its rows, so neither does a
rank or a reduced form; callers add short rows first, which keeps the
entries small.

``reduced_echelon`` brings an echelon to reduced form by back substitution:
the same pivots, and each row also holds no other row's pivot.  A kernel is
read off the reduced rows, and a vector reduced on them takes one step per
pivot it holds, since no step brings in another pivot.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Vector = Mapping[int, Fraction]

PRIME = 2 ** 31 - 1


class SparseRationalMatrix:
    """Immutable-by-convention sparse matrix over the rationals."""

    def __init__(self, nrows: int, ncols: int, entries: Mapping[tuple[int, int], object]):
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in entries.items():
            if type(v) is not Fraction:  # a Fraction is immutable and kept as is
                v = Fraction(v)
            if v:
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                clean[(r, c)] = v
        self.entries = clean

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def rows(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    def columns(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out


# ---------------------------------------------------------------------------
# Incremental echelon
# ---------------------------------------------------------------------------

class Echelon:
    """Incremental sparse row echelon form over Q: integral entries stay
    ``int``, unit pivots never divide.

    Each stored row is 1 at its pivot, the smallest column it occupies, and
    holds no column below its pivot (a pivot entry -1 is negated, any other
    but 1 divided out).  A new vector is reduced at its smallest column,
    repeatedly, until it is zero (dependent) or its smallest column is free.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def copy(self) -> "Echelon":
        """An echelon of the same rows, shared: ``add`` never mutates a stored row."""
        clone = Echelon()
        clone.pivots = dict(self.pivots)
        return clone

    def add(self, vec: Vector) -> bool:
        """Reduce vec against the stored rows; keep it and return True when it
        is independent of them, return False otherwise."""
        pivots = self.pivots
        row = {c: v for c, v in vec.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                lead = row[c]
                if lead == -1:
                    row = {cc: -vv for cc, vv in row.items()}
                elif lead != 1:
                    inv = 1 / Fraction(lead)
                    row = {cc: vv * inv for cc, vv in row.items()}
                pivots[c] = row
                return True
            f = row[c]
            for cc, vv in prow.items():
                s = row.get(cc, 0) - f * vv
                if s == 0:
                    row.pop(cc, None)
                else:
                    row[cc] = s
        return False


class ModularEchelon:
    """``Echelon`` over GF(PRIME): the same smallest-column pivots, on
    residues in [0, PRIME) stored as ``int``.

    Each stored row is 1 at its pivot and holds no column below it.  ``add``
    takes a row of nonzero residues, which it may consume."""

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, row: dict[int, int]) -> bool:
        """Reduce row against the stored rows; keep it and return True when
        it is independent of them, return False otherwise."""
        pivots = self.pivots
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                lead = row[c]
                if lead != 1:
                    inv = pow(lead, -1, PRIME)
                    row = {cc: vv * inv % PRIME for cc, vv in row.items()}
                pivots[c] = row
                return True
            f = row[c]
            for cc, vv in prow.items():
                s = (row.get(cc, 0) - f * vv) % PRIME
                if s:
                    row[cc] = s
                else:
                    row.pop(cc, None)
        return False


def _rarest_first_labels(rows: Sequence[Vector]) -> dict:
    """Column -> label 0, 1, ... rarest first, by (occurrence count over all
    rows, column), in label order."""
    count = Counter(c for row in rows for c, v in row.items() if v)
    return {c: k for k, c in enumerate(sorted(count, key=lambda c: (count[c], c)))}


def reduced_echelon(echelon: Echelon) -> Echelon:
    """An echelon of the same rows in reduced form: the same pivots, and each
    row holds no other row's pivot.  Back substitution in descending pivot
    order; reads the given rows and never mutates them."""
    reduced: dict[int, dict] = {}
    for c in sorted(echelon.pivots, reverse=True):
        row = dict(echelon.pivots[c])
        # every row stored so far has its pivot above c and holds no other
        # stored pivot, so one pass over this row's own columns clears them
        for c2 in [k for k in row if k != c and k in reduced]:
            f = row[c2]
            for cc, vv in reduced[c2].items():
                s = row.get(cc, 0) - f * vv
                if s == 0:
                    row.pop(cc, None)
                else:
                    row[cc] = s
        reduced[c] = row
    out = Echelon()
    out.pivots = reduced
    return out


def nullspace_basis(M: SparseRationalMatrix) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace {v : M v = 0}, one sparse dict per free
    column in ascending order: 1 there, minus that column of each reduced row
    (rows added shortest first, columns relabelled rarest first).  A matrix
    with no rows has the full coordinate space as nullspace.
    """
    rows = M.rows()
    label = _rarest_first_labels(rows)
    echelon = Echelon()
    for row in sorted(({label[c]: v for c, v in row.items() if v} for row in rows), key=len):
        echelon.add(row)
    reduced, columns = reduced_echelon(echelon).pivots, list(label)
    pivots = {columns[c] for c in reduced}
    kernel = {fc: {fc: 1} for fc in range(M.ncols) if fc not in pivots}
    # one pass over the reduced rows: every entry off the pivot is a free column
    for c, row in reduced.items():
        pc = columns[c]
        for cc, v in row.items():
            if cc != c:
                kernel[columns[cc]][pc] = -v
    return list(kernel.values())


# ---------------------------------------------------------------------------
# Rank entry points
# ---------------------------------------------------------------------------

def exact_rank(M: SparseRationalMatrix) -> int:
    """Rank over the rationals, the rows added shortest first."""
    return prefix_ranks(sorted(M.rows(), key=len), [M.nrows], False)[0]


def span_rank(vectors: Iterable[Vector]) -> int:
    """Rank over the rationals of the span of sparse vectors, shortest first."""
    rows = sorted(vectors, key=len)
    return prefix_ranks(rows, [len(rows)], False)[0]


def image_dim_over(span_new: Iterable[Vector], span_base: Iterable[Vector]) -> int:
    """dim of the image of span_new in the quotient by span_base:
    rank(new + base) - rank(base), the base eliminated once and the new
    vectors added after it (``prefix_ranks``)."""
    base = list(span_base)
    rows = base + list(span_new)
    below, total = prefix_ranks(rows, [len(base), len(rows)], False)
    return total - below


# ---------------------------------------------------------------------------
# Prefix ranks over Q or GF(PRIME), and the saturation proof
# ---------------------------------------------------------------------------

def prefix_ranks(rows: Sequence[Vector], cuts: Iterable[int], modular: bool) -> list[int]:
    """The ranks of the prefixes rows[:k], k in cuts (ascending), with the
    rows added in the given order and their columns relabelled rarest first:
    over Q by ``Echelon``, or over GF(PRIME) by ``ModularEchelon`` when
    modular.  A modular rank leaves out every row with an entry whose
    denominator PRIME divides, so it is a lower bound on the rank over Q of
    the prefix.  A row is reduced mod PRIME only as it is added, so no
    residue outlives this call."""
    label = _rarest_first_labels(rows)
    echelon = ModularEchelon() if modular else Echelon()
    inverse = {1: 1}  # denominator -> its inverse mod PRIME, 0 when PRIME divides it
    ranks, added = [], 0
    for k in cuts:
        for row in rows[added:k]:
            if not modular:
                echelon.add({label[c]: v for c, v in row.items() if v})
                continue
            reduced = {}
            for c, v in row.items():
                d = v.denominator
                inv = inverse.get(d)
                if inv is None:
                    inv = inverse[d] = pow(d, -1, PRIME) if d % PRIME else 0
                if not inv:
                    break
                r = v.numerator * inv % PRIME
                if r:
                    reduced[label[c]] = r
            else:
                echelon.add(reduced)
        added = k
        ranks.append(echelon.rank)
    return ranks


def saturated_ranks(ranks: Sequence[int], dims: Sequence[int]) -> list[int] | None:
    """Proven ranks over Q of the differentials d_0, ..., d_(m-1) of a complex
    with dims[p] = dim C^p, from lower bounds on them (their GF(PRIME)
    ranks), or None.

    They are proven when r'_(p-1) + r'_p = dims[p] for every p < m (r'_(-1) =
    0): then rank d_p <= dims[p] - rank d_(p-1) = r'_p <= rank d_p by
    induction from p = 0, so every r'_p is the rank over Q and the complex
    has no cohomology below degree m."""
    below = 0
    for r, dim in zip(ranks, dims):
        if below + r != dim:
            return None
        below = r
    return list(ranks)
