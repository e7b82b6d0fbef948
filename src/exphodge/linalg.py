"""Exact sparse rational matrices and rank computations.

Two exact engines, both over arbitrary precision numbers, so no rounding can
occur anywhere:

* fraction-free (Bareiss) integer elimination with sparsity-aware pivoting
  ranks whole matrices and spans (``exact_rank``, ``span_rank``,
  ``image_dim_over``): every intermediate entry is a minor of the scaled
  input, so each division is exact;
* ``Echelon``, an incremental sparse row echelon form over ``Fraction``,
  takes one vector at a time and reports whether it raised the rank.  It is
  the forward phase of ``nullspace_basis`` and serves rank profiles of nested
  row sets, which need the rank after every prefix of the rows.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import IO, Iterable, Mapping

Vector = Mapping[int, Fraction]


class SparseRationalMatrix:
    """Immutable-by-convention sparse matrix over the rationals."""

    def __init__(self, nrows: int, ncols: int, entries: Mapping[tuple[int, int], object]):
        self.nrows = nrows
        self.ncols = ncols
        clean: dict[tuple[int, int], Fraction] = {}
        for (r, c), v in entries.items():
            v = Fraction(v)
            if v != 0:
                if not (0 <= r < nrows and 0 <= c < ncols):
                    raise IndexError(f"entry ({r},{c}) outside {nrows}x{ncols}")
                clean[(r, c)] = v
        self.entries = clean

    @classmethod
    def from_dense(cls, rows: Iterable[Iterable[object]]) -> "SparseRationalMatrix":
        rows = [list(r) for r in rows]
        nrows = len(rows)
        ncols = len(rows[0]) if rows else 0
        return cls(nrows, ncols, {
            (i, j): v for i, r in enumerate(rows) for j, v in enumerate(r)
        })

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def is_zero(self) -> bool:
        return not self.entries

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

    def __matmul__(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        by_row = other.rows()
        acc: dict[tuple[int, int], Fraction] = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row[k].items():
                key = (r, c)
                s = acc.get(key, Fraction(0)) + v * w
                if s == 0:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return SparseRationalMatrix(self.nrows, other.ncols, acc)

    def to_dense(self) -> list[list[Fraction]]:
        out = [[Fraction(0)] * self.ncols for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            out[r][c] = v
        return out

    # -- triplet text format -------------------------------------------------

    def dump(self, fh: IO[str]) -> None:
        """Header "rows cols", then one line "row col num/den" per entry."""
        fh.write(f"{self.nrows} {self.ncols}\n")
        for (r, c) in sorted(self.entries):
            v = self.entries[(r, c)]
            fh.write(f"{r} {c} {v.numerator}/{v.denominator}\n")

    @classmethod
    def load(cls, fh: IO[str]) -> "SparseRationalMatrix":
        header = fh.readline().split()
        nrows, ncols = int(header[0]), int(header[1])
        entries = {}
        for line in fh:
            if not line.strip():
                continue
            r, c, frac = line.split()
            entries[(int(r), int(c))] = Fraction(frac)
        return cls(nrows, ncols, entries)


# ---------------------------------------------------------------------------
# Fraction-free elimination
# ---------------------------------------------------------------------------

def _integer_rows(rows: list[Mapping[int, Fraction]]) -> list[dict[int, int]]:
    """Scale each row to integers (rank preserving)."""
    out = []
    for row in rows:
        if not row:
            continue
        lcm = 1
        for v in row.values():
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        scaled = {c: int(v * lcm) for c, v in row.items()}
        g = 0
        for v in scaled.values():
            g = gcd(g, abs(v))
        out.append({c: v // g for c, v in scaled.items()})
    return out


def _bareiss_rank(int_rows: list[dict[int, int]]) -> int:
    """Rank by fraction-free elimination on sparse integer rows."""
    active = [dict(r) for r in int_rows if r]
    rank = 0
    prev = 1
    while active:
        occupancy: dict[int, int] = {}
        for r in active:
            for c in r:
                occupancy[c] = occupancy.get(c, 0) + 1
        # pivot row: fewest entries; pivot column in it: rarest, then smallest
        pividx = min(range(len(active)), key=lambda i: (len(active[i]), min(active[i])))
        prow = active.pop(pividx)
        pcol = min(prow, key=lambda c: (occupancy[c], abs(prow[c]).bit_length(), c))
        pval = prow[pcol]
        rank += 1
        nxt = []
        for r in active:
            rv = r.get(pcol, 0)
            new: dict[int, int] = {}
            if rv == 0:
                for c, v in r.items():
                    q, rem = divmod(pval * v, prev)
                    assert rem == 0, "fraction-free division failed"
                    new[c] = q
            else:
                for c in r.keys() | prow.keys():
                    if c == pcol:
                        continue
                    val = pval * r.get(c, 0) - rv * prow.get(c, 0)
                    if val == 0:
                        continue
                    q, rem = divmod(val, prev)
                    assert rem == 0, "fraction-free division failed"
                    new[c] = q
            if new:
                nxt.append(new)
        prev = pval
        active = nxt
    return rank


def span_rank(vectors: Iterable[Vector]) -> int:
    """Rank of the span of sparse rational vectors."""
    return _bareiss_rank(_integer_rows([dict(v) for v in vectors]))


# ---------------------------------------------------------------------------
# Incremental echelon
# ---------------------------------------------------------------------------

class Echelon:
    """Incremental sparse row echelon form over the rationals.

    Each stored row is normalized to 1 at its pivot, the smallest column it
    occupies, and holds no column below its pivot.  A new vector is reduced
    at its smallest column, repeatedly, until it is zero (dependent) or its
    smallest column is free (a new pivot).
    """

    def __init__(self):
        self.pivots: dict[int, dict[int, Fraction]] = {}

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def add(self, vec: Vector) -> bool:
        """Reduce vec against the stored rows; keep it and return True when it
        is independent of them, return False otherwise."""
        pivots = self.pivots
        row = {c: v for c, v in vec.items() if v}
        while row:
            c = min(row)
            prow = pivots.get(c)
            if prow is None:
                inv = 1 / Fraction(row[c])
                pivots[c] = {cc: vv * inv for cc, vv in row.items()}
                return True
            f = row[c]
            for cc, vv in prow.items():
                s = row.get(cc, 0) - f * vv
                if s == 0:
                    row.pop(cc, None)
                else:
                    row[cc] = s
        return False


def nullspace_basis(M: SparseRationalMatrix) -> list[dict[int, Fraction]]:
    """Basis of the right nullspace {v : M v = 0}, one sparse dict per vector.

    A matrix with no rows has the full coordinate space as nullspace.
    """
    echelon = Echelon()
    for row in M.rows():
        echelon.add(row)
    pivots = echelon.pivots
    # back substitution to reduced form
    for c in sorted(pivots, reverse=True):
        row = pivots[c]
        for c2 in [k for k in row if k != c and k in pivots]:
            f = row[c2]
            for cc, vv in pivots[c2].items():
                s = row.get(cc, Fraction(0)) - f * vv
                if s == 0:
                    row.pop(cc, None)
                else:
                    row[cc] = s
        pivots[c] = row
    free_cols = [c for c in range(M.ncols) if c not in pivots]
    basis = []
    for fc in free_cols:
        v: dict[int, Fraction] = {fc: Fraction(1)}
        for pc, row in pivots.items():
            coeff = row.get(fc)
            if coeff:
                v[pc] = -coeff
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# Rank entry points
# ---------------------------------------------------------------------------

def exact_rank(M: SparseRationalMatrix) -> int:
    """Rank over the rationals, by exact sparse Bareiss elimination."""
    if M.is_zero():
        return 0
    return _bareiss_rank(_integer_rows(M.rows()))


def image_dim_over(span_new: Iterable[Vector], span_base: Iterable[Vector]) -> int:
    """dim of the image of span_new in the quotient by span_base:
    rank(new + base) - rank(base)."""
    base = [dict(v) for v in span_base]
    new = [dict(v) for v in span_new]
    return span_rank(base + new) - span_rank(base)
