import math
import random
from fractions import Fraction

from oracles import cech_d0, cech_d1, dense, from_dense, matmul
from test_spectrum import _random_support_poly

from exphodge.linalg import (PRIME, Echelon, ModularEchelon, SparseRationalMatrix,
                             exact_rank, image_dim_over, prefix_ranks, nullspace_basis,
                             reduced_echelon, saturated_ranks, span_rank)


def _modular_rank(rows):
    """The GF(PRIME) rank of the rows, added shortest first, by the one rank loop."""
    rows = sorted(rows, key=len)
    return prefix_ranks(rows, [len(rows)], True)[0]


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
    rows = dense(m)
    rank = 0
    for c in range(m.ncols):
        piv = next((i for i in range(rank, m.nrows) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = Fraction(1) / rows[rank][c]
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
        rows = dense(m)
        echelon = Echelon()
        for k, row in enumerate(rows, 1):
            before = echelon.rank
            grew = echelon.add({c: v for c, v in enumerate(row) if v})
            prefix = from_dense(rows[:k])
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
    # the product the d^2 = 0 tests rely on
    a = from_dense([[1, 2], [3, 4]])
    b = from_dense([[2, 0], [-1, 1]])
    assert dense(matmul(a, b)) == [[0, 2], [2, 4]]
    assert not matmul(a, SparseRationalMatrix(2, 2, {})).entries


def test_image_dim_over():
    base = [{0: Fraction(1)}]
    new = [{0: Fraction(2)}, {1: Fraction(1)}]
    assert image_dim_over(new, base) == 1
    assert image_dim_over([], base) == 0


# Structured inputs for the rarest-first pivot rule: in the Cech d1 every
# chart column ("p", k), ("q", k) is held by one row, and the de Rham slices
# mix dense and single-row columns.

def _structured_matrices():
    from exphodge.curve import cech_hypercohomology, deligne_ambient
    from exphodge.derham import build_filtration_level, build_graded_level
    from exphodge.laurent import parse_laurent
    from exphodge.spectrum import jump_candidates

    model = cech_hypercohomology(deligne_ambient(parse_laurent("x^2 + x^-1"), 4))
    out = {"cech d0": cech_d0(model), "cech d1": cech_d1(model)}
    f = parse_laurent("x^3 + y^4 + x^-2*y^-1")
    for p, m in enumerate(build_filtration_level(f, 0).mats):
        out[f"level 0 d{p}"] = m
    for lam in jump_candidates(f):
        for p, m in enumerate(build_graded_level(f, lam).mats):
            out[f"graded {lam} d{p}"] = m
    # a generic n = 3 support (5 vertices, nvol 6): its level-0 matrices and
    # the sign-flipped d2 that the symmetry check ranks for -g
    g = _random_support_poly(2, nvars=3)
    slice0 = build_filtration_level(g, 0)
    for p, m in enumerate(slice0.mats):
        out[f"generic level 0 d{p}"] = m
    out["generic -g level 0 d2"] = slice0.negated().mats[2]
    return model, out


def test_rank_on_structured_matrices():
    _, mats = _structured_matrices()
    for name, m in mats.items():
        assert exact_rank(m) == _rank_fraction_gauss(m), name
        assert span_rank(m.rows()) == exact_rank(m), name


def test_certified_ranks_on_structured_matrices():
    # every GF(PRIME) rank is at most the rank over Q, and every rank that
    # saturation proves for a complex (the level-0 complexes and each graded
    # piece) is the rank over Q
    _, mats = _structured_matrices()
    complexes: dict[str, list] = {}
    for name, m in mats.items():
        assert _modular_rank(m.rows()) <= _rank_fraction_gauss(m), name
        prefix, _, degree = name.rpartition(" d")
        if not name.startswith(("cech", "generic -g")):
            complexes.setdefault(prefix, []).append((int(degree), m))
    proven = 0
    for prefix, degrees in complexes.items():
        ms = [m for _, m in sorted(degrees, key=lambda pm: pm[0])]
        dims = [m.ncols for m in ms] + [ms[-1].nrows]
        ranks = saturated_ranks([_modular_rank(m.rows()) for m in ms], dims)
        if ranks is not None:
            assert ranks == [_rank_fraction_gauss(m) for m in ms], prefix
            proven += len(ranks)
    assert {"level 0", "generic level 0"} <= set(complexes) and proven >= 5


def test_modular_rank_is_a_lower_bound_that_saturation_refuses_when_strict():
    # [[1, 1], [1, 1 + PRIME]] has rank 2 over Q and 1 over GF(PRIME): as the
    # one differential of Q^2 -> Q^2 it does not saturate, so nothing is proven
    m = SparseRationalMatrix(2, 2, {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1 + PRIME})
    assert exact_rank(m) == 2 and _modular_rank(m.rows()) == 1
    assert saturated_ranks([1], [2, 2]) is None
    assert saturated_ranks([2], [2, 2]) == [2]
    # a denominator that PRIME divides has no residue: its row is left out,
    # and the rank of the other rows is still a lower bound
    assert _modular_rank([{0: Fraction(1, PRIME)}]) == 0
    rows = [{0: Fraction(1, PRIME)}, {0: Fraction(2), 1: Fraction(1, 2 * PRIME)}, {1: Fraction(3)}]
    assert prefix_ranks(rows, [1, 2, 3], True) == [0, 0, 1]
    assert prefix_ranks(rows, [1, 2, 3], False) == [1, 2, 2]
    assert prefix_ranks([{0: Fraction(3, 2)}, {1: Fraction(PRIME)}], [1, 2], True) == [1, 1]
    assert prefix_ranks([{0: Fraction(3, 2)}, {1: Fraction(PRIME)}], [1, 2], False) == [1, 2]
    assert saturated_ranks([0, 1], [1, 1, 1]) is None  # H^0 = 1, below degree 2


def test_modular_echelon_against_gauss_oracle():
    # prefix ranks over GF(PRIME) and over Q against Q on small random
    # rationals, where PRIME divides no minor; add() says whether the rank grew
    rng = random.Random(31)
    for _ in range(40):
        m = _random_matrix(rng, rng.randint(1, 10), rng.randint(1, 10))
        rows = m.rows()
        cuts = list(range(len(rows) + 1))
        expected = [_rank_fraction_gauss(from_dense(dense(m)[:k])) if k else 0 for k in cuts]
        assert prefix_ranks(rows, cuts, True) == prefix_ranks(rows, cuts, False) == expected
        echelon = ModularEchelon()
        for row in rows:
            before = echelon.rank
            residues = {c: v.numerator * pow(v.denominator, -1, PRIME) % PRIME
                        for c, v in row.items()}
            assert echelon.add(residues) == (echelon.rank == before + 1)
        assert all(row[c] == 1 and min(row) == c for c, row in echelon.pivots.items())


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
    d1 = cech_d1(model)
    cocycles = nullspace_basis(d1)
    boundaries = [col for col in cech_d0(model).columns() if col]

    def oracle(vectors):
        return _rank_fraction_gauss(SparseRationalMatrix(
            len(vectors), d1.ncols,
            {(i, c): v for i, vec in enumerate(vectors) for c, v in vec.items()}))

    expected = oracle(boundaries + cocycles) - oracle(boundaries)
    assert image_dim_over(cocycles, boundaries) == expected == model.h1
    # the quotient by nothing is the rank, and new vectors already in the
    # base add nothing
    assert image_dim_over(boundaries, []) == oracle(boundaries)
    assert image_dim_over(boundaries[:5], boundaries) == 0


# The echelon over Z: Fraction entries mix in, their denominators are
# cleared, and every stored row is a primitive int vector with a positive
# pivot entry.

def _primitive_with_positive_pivot(row, c):
    return row[c] > 0 and math.gcd(*row.values()) == 1

def _mixed_matrix(rng, nrows, ncols):
    """Integer rows whose leading entries are mostly +-1, one column of
    Fractions, and some all-zero rows."""
    frac_col = rng.randrange(ncols)
    entries = {}
    for i in range(nrows):
        if rng.random() < 0.2:
            continue
        for j in range(ncols):
            if rng.random() < 0.45:
                v = rng.choice([1, -1, 1, -1, 2, -3, 5])
                entries[(i, j)] = Fraction(v, rng.randint(1, 5)) if j == frac_col else v
    return SparseRationalMatrix(nrows, ncols, entries)


def test_mixed_int_fraction_matrices_against_gauss_oracle():
    rng = random.Random(41)
    for _ in range(200):
        m = _mixed_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        # SparseRationalMatrix stores Fractions; the echelon sees the same
        # rows with their integral entries as int
        rows = [{c: v.numerator if v.denominator == 1 else v for c, v in row.items()}
                for row in m.rows()]
        rank = _rank_fraction_gauss(m)
        assert exact_rank(m) == span_rank(rows) == rank
        echelon = Echelon()
        assert sum(echelon.add(row) for row in rows) == rank
        basis = nullspace_basis(m)
        assert len(basis) == m.ncols - rank
        for v in basis:
            for row in rows:
                assert sum(row.get(c, 0) * x for c, x in v.items()) == 0
        half = len(rows) // 2
        base = from_dense(dense(m)[:half]) if half else None
        base_rank = _rank_fraction_gauss(base) if base else 0
        assert image_dim_over(rows[half:], rows[:half]) == rank - base_rank


def test_int_rows_with_unit_pivots_stay_int():
    rng = random.Random(47)
    echelon = Echelon()
    # rows led by +-1 in a fresh column each: new pivots, negated when -1
    for c in range(40):
        row = {c: rng.choice([1, -1])}
        row.update({j: rng.randint(-9, 9) for j in rng.sample(range(c + 1, 60), 4)})
        assert echelon.add(row)
    # rows that reduce by integer multiples of stored rows to a +-1 lead
    for k in range(20):
        a, c = rng.choice([-3, -1, 2, 5]), rng.randrange(40)
        tail = {60 + k: rng.choice([1, -1])}
        tail.update({j: rng.randint(-9, 9) for j in rng.sample(range(61 + k, 90), 3)})
        row = {j: a * v for j, v in echelon.pivots[c].items()}
        for j, v in tail.items():
            row[j] = row.get(j, 0) + v
        assert echelon.add(row)
    assert echelon.rank == 60
    assert all(_primitive_with_positive_pivot(row, c) for c, row in echelon.pivots.items())
    assert all(type(v) is int for row in echelon.pivots.values() for v in row.values())
    # a non-unit pivot is kept as it is: nothing divides
    assert echelon.add({95: 2, 96: 1})
    assert echelon.pivots[95] == {95: 2, 96: 1}
    assert all(type(v) is int for v in echelon.pivots[95].values())


def test_reduced_echelon_against_gauss_oracle():
    # the same pivots and rank, each row clear at every other pivot, the same
    # row space, and the input echelon untouched
    rng = random.Random(59)
    for _ in range(200):
        m = _mixed_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        rows = [{c: v.numerator if v.denominator == 1 else v for c, v in row.items()}
                for row in m.rows()]
        echelon = Echelon()
        for row in rows:
            echelon.add(row)
        before = {c: dict(row) for c, row in echelon.pivots.items()}
        reduced = reduced_echelon(echelon)
        assert {c: dict(row) for c, row in echelon.pivots.items()} == before
        assert set(reduced.pivots) == set(echelon.pivots)
        assert reduced.rank == _rank_fraction_gauss(m)
        for c, row in reduced.pivots.items():
            assert _primitive_with_positive_pivot(row, c) and min(row) == c
            assert not any(row.get(c2) for c2 in reduced.pivots if c2 != c)
        for row in rows:
            assert not reduced.copy().add(row)
        for row in reduced.pivots.values():
            assert not echelon.copy().add(row)


def test_stored_rows_are_primitive_int_vectors():
    # after add and after reduced_echelon: no Fraction, content 1, pivot
    # entry positive, on rows whose Fraction column needs its lcm cleared
    rng = random.Random(61)
    for _ in range(200):
        m = _mixed_matrix(rng, rng.randint(1, 12), rng.randint(1, 12))
        echelon = Echelon()
        for row in m.rows():
            echelon.add(row)
        for ech in (echelon, reduced_echelon(echelon)):
            for c, row in ech.pivots.items():
                assert all(type(v) is int for v in row.values()), row
                assert _primitive_with_positive_pivot(row, c) and min(row) == c


def _dense_rational(rng, nrows, ncols, fill, max_den):
    return SparseRationalMatrix(nrows, ncols, {
        (i, j): Fraction(rng.choice([-1, 1]) * rng.randint(1, 99), rng.randint(1, max_den))
        for i in range(nrows) for j in range(ncols) if rng.random() < fill})


def test_dense_rational_matrices_against_gauss_oracle():
    # 60% fill, denominators up to 97: the lcm clearing and the content rule
    # carry large integers; a square draw, a wide one, and a square one whose
    # last rows are rational combinations of two others
    rng = random.Random(67)
    square = _dense_rational(rng, 36, 36, 0.6, 97)
    wide = _dense_rational(rng, 16, 32, 0.6, 97)
    rows = dense(_dense_rational(rng, 24, 24, 0.6, 97))
    for i in range(18, 24):
        a, b = rng.sample(range(18), 2)
        s, t = Fraction(rng.randint(-9, 9), rng.randint(1, 97)), Fraction(1, rng.randint(1, 97))
        rows[i] = [s * x + t * y for x, y in zip(rows[a], rows[b])]
    deficient = from_dense(rows)
    for m in (square, wide, deficient):
        rank = _rank_fraction_gauss(m)
        assert exact_rank(m) == rank
        basis = nullspace_basis(m)
        assert len(basis) == m.ncols - rank
        for v in basis:
            for row in m.rows():
                assert sum(row.get(c, 0) * x for c, x in v.items()) == 0
        if basis:
            assert span_rank(basis) == len(basis)
    assert exact_rank(square) == 36 and exact_rank(deficient) == 18
