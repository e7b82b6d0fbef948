import io
import random
from fractions import Fraction

from exphodge.linalg import (Echelon, SparseRationalMatrix, exact_rank,
                             image_dim_over, nullspace_basis, span_rank)


def test_rank_trivial_cases():
    assert exact_rank(SparseRationalMatrix(3, 3, {})) == 0
    eye = SparseRationalMatrix(4, 4, {(i, i): 1 for i in range(4)})
    assert exact_rank(eye) == 4


def test_rank_single_column():
    m = SparseRationalMatrix(3, 1, {(0, 0): -1, (2, 0): 1})
    assert exact_rank(m) == 1


def _random_matrix(rng, nrows, ncols, density=0.4):
    entries = {}
    for i in range(nrows):
        for j in range(ncols):
            if rng.random() < density:
                entries[(i, j)] = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    return SparseRationalMatrix(nrows, ncols, entries)


def _rank_fraction_gauss(m: SparseRationalMatrix) -> int:
    """Independent oracle: plain Gaussian elimination with Fractions."""
    rows = [r[:] for r in m.to_dense()]
    rank = 0
    for c in range(m.ncols):
        piv = next((i for i in range(rank, m.nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        for i in range(m.nrows):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c] * inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def test_rank_against_gauss_oracle():
    rng = random.Random(3)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        assert exact_rank(m) == _rank_fraction_gauss(m)


def test_echelon_against_gauss_oracle():
    # rank after every prefix of the rows, and add() says whether it grew
    rng = random.Random(29)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        rows = m.to_dense()
        echelon = Echelon()
        for k, row in enumerate(rows, 1):
            before = echelon.rank
            grew = echelon.add({c: v for c, v in enumerate(row) if v})
            prefix = SparseRationalMatrix.from_dense(rows[:k])
            assert echelon.rank == _rank_fraction_gauss(prefix)
            assert grew == (echelon.rank == before + 1)
        assert echelon.rank == exact_rank(m)


def test_echelon_rejects_zero_and_repeats():
    echelon = Echelon()
    assert not echelon.add({})
    assert not echelon.add({3: Fraction(0)})
    assert echelon.add({1: 2, 4: Fraction(1, 3)})
    assert not echelon.add({1: Fraction(-6), 4: -1})
    assert echelon.add({4: 5})
    assert echelon.rank == 2


def test_nullspace_is_kernel():
    rng = random.Random(23)
    for _ in range(300):
        m = _random_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        basis = nullspace_basis(m)
        assert len(basis) == m.ncols - exact_rank(m)
        rows = m.rows()
        for v in basis:
            for row in rows:
                assert sum(row.get(c, Fraction(0)) * x for c, x in v.items()) == 0
        if basis:
            assert span_rank(basis) == len(basis)


def test_nullspace_of_empty_matrix():
    m = SparseRationalMatrix(0, 5, {})
    assert len(nullspace_basis(m)) == 5


def test_matmul_and_zero():
    a = SparseRationalMatrix.from_dense([[1, 2], [3, 4]])
    b = SparseRationalMatrix.from_dense([[2, 0], [-1, 1]])
    assert (a @ b).to_dense() == [[0, 2], [2, 4]]
    z = SparseRationalMatrix(2, 2, {})
    assert (a @ z).is_zero()


def test_image_dim_over():
    base = [{0: Fraction(1)}]
    new = [{0: Fraction(2)}, {1: Fraction(1)}]
    assert image_dim_over(new, base) == 1
    assert image_dim_over([], base) == 0


def test_dump_load_roundtrip():
    m = SparseRationalMatrix(3, 4, {(0, 1): Fraction(3, 2), (2, 0): -2})
    buf = io.StringIO()
    m.dump(buf)
    buf.seek(0)
    again = SparseRationalMatrix.load(buf)
    assert again.nrows == 3 and again.ncols == 4
    assert again.entries == m.entries
    buf.seek(0)
    assert buf.readline().strip() == "3 4"


# Structured inputs for the rarest-first pivot rule: in the Cech d1 every
# chart column ("p", k), ("q", k) is held by one row, and the de Rham slices
# mix dense and single-row columns.

def _structured_matrices():
    from exphodge.curve import cech_hypercohomology, deligne_ambient
    from exphodge.derham import build_filtration_level, build_graded_level
    from exphodge.laurent import parse_laurent
    from exphodge.spectrum import jump_candidates

    model = cech_hypercohomology(deligne_ambient(parse_laurent("x^2 + x^-1"), 4))
    out = {"cech d0": model.d0, "cech d1": model.d1}
    f = parse_laurent("x^3 + y^4 + x^-2*y^-1")
    for p, m in enumerate(build_filtration_level(f, 0).mats):
        out[f"level 0 d{p}"] = m
    for lam in jump_candidates(f):
        for p, m in enumerate(build_graded_level(f, lam).mats):
            out[f"graded {lam} d{p}"] = m
    return model, out


def test_rank_on_structured_matrices():
    _, mats = _structured_matrices()
    for name, m in mats.items():
        assert exact_rank(m) == _rank_fraction_gauss(m), name
        assert span_rank(m.rows()) == exact_rank(m), name


def test_nullspace_on_structured_matrices():
    # each matrix and its transpose: the Cech d0 transposed and the level-0
    # d1 need the back substitution in label order
    _, mats = _structured_matrices()
    for name, m in mats.items():
        mt = SparseRationalMatrix(m.ncols, m.nrows,
                                  {(c, r): v for (r, c), v in m.entries.items()})
        for label, a in ((name, m), (f"{name} transposed", mt)):
            basis = nullspace_basis(a)
            assert len(basis) == a.ncols - _rank_fraction_gauss(a), label
            for v in basis:
                for row in a.rows():
                    assert sum(row.get(c, Fraction(0)) * x for c, x in v.items()) == 0, label
            assert span_rank(basis) == len(basis), label


def test_image_dim_over_against_oracle_ranks():
    # H^1 of the Cech model: cocycles modulo boundaries
    model, _ = _structured_matrices()
    cocycles = nullspace_basis(model.d1)
    boundaries = [col for col in model.d0.columns() if col]

    def oracle(vectors):
        return _rank_fraction_gauss(SparseRationalMatrix(
            len(vectors), model.d1.ncols,
            {(i, c): v for i, vec in enumerate(vectors) for c, v in vec.items()}))

    expected = oracle(boundaries + cocycles) - oracle(boundaries)
    assert image_dim_over(cocycles, boundaries) == expected == model.h1
    # the quotient by nothing is the rank, and new vectors already in the
    # base add nothing
    assert image_dim_over(boundaries, []) == oracle(boundaries)
    assert image_dim_over(boundaries[:5], boundaries) == 0
