"""Reference forms the tests check exphodge against, kept out of the package
because no pipeline code needs them: the sum of Laurent polynomials, dense
form and product of sparse matrices, the Čech differentials of a model as
matrices, the untwisted two-term complex, the Groebner normal form, and the
divisor-shift invariance of the Čech dimensions."""

from fractions import Fraction

from exphodge import curve
from exphodge.groebner import _reduce, leading_monomial
from exphodge.laurent import make_laurent
from exphodge.linalg import SparseRationalMatrix


def laurent_sum(f, g):
    """f + g, cancelling terms dropped."""
    terms = dict(f.terms)
    for a, c in g.terms.items():
        terms[a] = terms.get(a, 0) + c
    return make_laurent(f.nvars, terms, f.var_names)


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
    _, rows = model._assemble()
    return SparseRationalMatrix(len(model.labels2), len(model.labels1), {
        (r, c): v for r, row in enumerate(rows) for c, v in row.items()})


def cech_boundaries(model: curve.CechModel) -> list[dict]:
    """Generators of im d0, label-keyed."""
    columns, _ = model._assemble()
    return [{model.labels1[j]: v for j, v in col.items()} for col in columns]


def untwisted_complex() -> curve.TwoTermComplex:
    """[O -> Omega_log] with the plain differential (f = 0), whose
    hypercohomology has the classical dims (1, 1, 0)."""
    return curve.TwoTermComplex(curve.ZERO_DIVISOR, curve.ZERO_DIVISOR,
                                make_laurent(1, {}), "untwisted")


def normal_form(p, basis, key, F):
    """Remainder of multivariate division by the basis (leading terms only)."""
    return _reduce(p, basis, [leading_monomial(g, key) for g in basis], key, F)


def divisor_shift_invariance(f, D: curve.PointDivisor, E: curve.PointDivisor) -> bool:
    """Adding an effective divisor E supported on the poles of f leaves the
    hypercohomology dims of [O(D) -> Omega_log(D + P)] unchanged."""
    P = curve.pole_divisor(f)
    K1 = curve.TwoTermComplex(D, D + P, f)
    K2 = curve.TwoTermComplex(D + E, D + E + P, f)
    B = curve._shared_truncation(f, [K1, K2])
    return curve.cech_hypercohomology(K1, B).dims == curve.cech_hypercohomology(K2, B).dims
