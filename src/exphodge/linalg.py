"""Sparse rational matrices and rank computations: exact over Q, or over
GF(PRIME) when a proof turns the modular rank into the rank over Q.

``Echelon``, an incremental sparse row echelon form over Q kept over Z, takes
one vector at a time and reports whether it raised the rank: primitive
integer rows; nothing divides.  It clears a vector's denominators by their
lcm, eliminates fraction-free (a*row - b*prow, Bareiss-style), and divides
out a row's content once the product of its multipliers passes a machine
word, so no ``Fraction`` is built.  ``ModularEchelon`` is the same echelon
over GF(PRIME), PRIME = 2^31 - 1 fixed, on plain ``int`` residues.

``prefix_ranks`` is the one rank loop: it ranks the prefixes of a row list
over either field, and every rank entry point here runs through it
(``exact_rank`` and ``span_rank`` are one prefix, ``image_dim_over`` two).
Only a kernel (``nullspace_basis``) needs the echelon itself.  Over
GF(PRIME) the loop reads an ``int`` entry as its residue, by ``% PRIME``
alone, reduces any other entry as it adds the row, and leaves out a row
with an entry whose denominator PRIME divides.  A minor that vanishes over
Q vanishes mod PRIME, so the rank of the rows it keeps is a lower bound on
the rank over Q of the whole prefix (cf. Dumas, Saunders & Villard, J.
Symbolic Comput. 32, 2001): a lower bound, never None and never more.  A lower bound becomes a rank only
through a proof, and the one owner of the de Rham ranks
(``derham.ComplexSlice``) is the only caller of ``saturated_ranks``, the
proof that lives here: in a complex C^0 -> ... -> C^m, d o d = 0 gives
rank d_(p-1) + rank d_p <= dim C^p over Q, so when the GF(PRIME) ranks
satisfy r'_(p-1) + r'_p = dim C^p for every p < m, induction from p = 0
proves r_p = r'_p for every p (and no cohomology below degree m).  A caller
whose proof does not close runs the loop again over Q, which is the only
engine that decides such an input.

Both echelons pivot on the smallest column of a vector.  The rank loop and
the kernel first relabel the columns of their whole input in one static
rarest-first order, counted once per call: by how many rows hold a column,
then by column, so the smallest label is a column the fewest rows share and
a column held by one row becomes a pivot with no fill-in.  No rank depends
on the labels, since relabelling permutes the columns; they only keep the
echelon sparse.  Under a fixed column order the pivot set of a row space
does not depend on the order of its rows, so neither does a rank or a
reduced form; callers add short rows first, which keeps the entries small.

``reduced_echelon`` brings an echelon to reduced form by back substitution:
the same pivots, and each row also holds no other row's pivot.  A kernel is
read off the reduced rows, and a vector reduced on them takes one step per
pivot it holds, since no step brings in another pivot.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import chain
from math import gcd
from typing import Iterable, Mapping, Sequence

Vector = Mapping[int, Fraction]

PRIME = 2 ** 31 - 1


class SparseRationalMatrix:
    """Immutable-by-convention sparse matrix over the rationals.

    ``residues`` holds each entry, on the same keys, as a pass over GF(PRIME)
    reads it (``prefix_ranks``): an ``int`` stands for its residue, and any
    other entry is reduced by the pass itself.  Here they are the entries;
    a matrix that knows its residues first (``derham``'s level-0
    differentials) may build its entries only when they are read."""

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
        self.entries = self.residues = clean

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def rows(self) -> list[dict[int, Fraction]]:
        return _rows(self.nrows, self.entries)

    def residue_rows(self) -> list[dict[int, object]]:
        """The rows of ``residues``, as a pass over GF(PRIME) reads them."""
        return _rows(self.nrows, self.residues)

    def columns(self) -> list[dict[int, Fraction]]:
        out: list[dict[int, Fraction]] = [dict() for _ in range(self.ncols)]
        for (r, c), v in self.entries.items():
            out[c][r] = v
        return out


def _rows(nrows: int, entries: Mapping[tuple[int, int], object]) -> list[dict]:
    out: list[dict] = [dict() for _ in range(nrows)]
    for (r, c), v in entries.items():
        out[r][c] = v
    return out


# ---------------------------------------------------------------------------
# Incremental echelon
# ---------------------------------------------------------------------------

class Echelon:
    """Incremental sparse row echelon form over Q, kept over Z: primitive
    integer rows; nothing divides.

    Each stored row is a primitive ``int`` vector whose pivot, the smallest
    column it occupies, holds a positive entry, and which holds no column
    below its pivot.  ``add`` clears a vector's denominators by their lcm,
    which leaves its span alone, and reduces it at its smallest column,
    repeatedly, until it is zero (dependent) or its smallest column is free.
    A step is a*row - b*prow, where a and b are the pivot entry of prow and
    the leading entry of row divided by their gcd (Bareiss, Math. Comp. 22,
    1968, keeps the entries integral the same way).  The content rule keeps
    them small: once the product of the multipliers a taken by one vector
    passes a machine word, its content is divided out.
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, int]] = {}

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
        row = _integral_row(vec)
        scale = 1
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                pivots[c] = _primitive(row, c)
                return True
            scale *= _eliminate(row, prow, c)
            if scale > _WORD and row:
                g = gcd(*row.values())
                if g != 1:
                    row = {cc: vv // g for cc, vv in row.items()}
                scale = 1
        return False


# the content rule: a row's content is divided out once the product of the
# multipliers it took passes this
_WORD = 1 << 64


def _integral_row(vec: Vector) -> dict[int, int]:
    """The nonzero entries of vec times the lcm of their denominators, as
    ``int``: a new dict with the same span."""
    row = {c: v for c, v in vec.items() if v}
    den, integral = 1, True
    for v in row.values():
        if type(v) is not int:
            integral = False
            d = v.denominator
            if den % d:
                den = den // gcd(den, d) * d
    if not integral:
        row = {c: v.numerator * (den // v.denominator) for c, v in row.items()}
    return row


def _eliminate(row: dict[int, int], prow: dict[int, int], c: int) -> int:
    """One step, in place: row becomes a*row - b*prow, which clears column c,
    with a > 0 and b the entries of prow and row at c divided by their gcd
    (prow's entry at c is positive).  Returns a."""
    p, r = prow[c], row[c]
    if p == 1:
        a, b = 1, r
    else:
        g = gcd(p, r)
        a, b = p // g, r // g
        if a != 1:
            for cc in row:
                row[cc] *= a
    for cc, vv in prow.items():
        s = row.get(cc, 0) - b * vv
        if s:
            row[cc] = s
        else:
            row.pop(cc, None)
    return a


def _primitive(row: dict[int, int], c: int) -> dict[int, int]:
    """row divided by its content, signed so that its entry at c is positive."""
    g = gcd(*row.values())
    if row[c] < 0:
        g = -g
    return row if g == 1 else {cc: vv // g for cc, vv in row.items()}


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
    rows, column), in label order: the keys of all rows counted in one pass."""
    count = Counter(chain.from_iterable(rows))
    return {c: k for k, c in enumerate(sorted(sorted(count), key=count.__getitem__))}


def reduced_echelon(echelon: Echelon) -> Echelon:
    """An echelon of the same rows in reduced form: the same pivots, and each
    row holds no other row's pivot.  Back substitution in descending pivot
    order, by the steps of ``Echelon.add``, each row left primitive with a
    positive pivot entry; reads the given rows and never mutates them."""
    reduced: dict[int, dict[int, int]] = {}
    for c in sorted(echelon.pivots, reverse=True):
        row = dict(echelon.pivots[c])
        # every row stored so far has its pivot above c and holds no other
        # stored pivot, so one pass over this row's own columns clears them
        for c2 in [k for k in row if k != c and k in reduced]:
            _eliminate(row, reduced[c2], c2)
        reduced[c] = _primitive(row, c)
    out = Echelon()
    out.pivots = reduced
    return out


def nullspace_basis(M: SparseRationalMatrix) -> list[dict]:
    """Basis of the right nullspace {v : M v = 0}, one sparse dict per free
    column in ascending order: 1 there and -v / p at the pivot of each
    reduced row with pivot entry p and entry v in that column, an ``int``
    where p divides v (rows added shortest first, columns relabelled rarest
    first).  A matrix with no rows has the full coordinate space as
    nullspace.
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
        pc, p = columns[c], row[c]
        for cc, v in row.items():
            if cc != c:
                q, r = divmod(-v, p)
                kernel[columns[cc]][pc] = Fraction(-v, p) if r else q
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
    modular.  A modular pass reads an ``int`` entry as its residue, by
    ``% PRIME`` alone, and reduces any other entry as it adds the row; it
    leaves out every row with an entry whose denominator PRIME divides, so
    its rank is a lower bound on the rank over Q of the prefix."""
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
                if type(v) is int:
                    r = v % PRIME
                else:
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
