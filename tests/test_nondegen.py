import math
import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from conftest import DEGENERATE, PLANTED_NARROW_FACE, SUITE, WIDE_FACE, corpus_inputs
from oracles import evaluate, evaluate_mod, face_system, saturated_face_check

from exphodge import nondegen
from exphodge.errors import BadPrimeError, NotFullDimensionalError
from exphodge.groebner import PrimeField, RationalField
from exphodge.laurent import make_laurent, parse_laurent
from exphodge.nondegen import check_face, find_witness, is_nondegenerate
from exphodge.polytope import _row_lattice_basis, newton_polytope


def test_all_vertex_faces_pass():
    report = is_nondegenerate(parse_laurent("x + x^-1"))
    assert report.verdict == "nondegenerate"
    assert all(c.verdict == "empty" for c in report.faces)


def test_certify_upgrades_verdict():
    report = is_nondegenerate(parse_laurent("x + x^-1"))
    assert report.verdict == "nondegenerate"
    assert report.certified


def test_degenerate_square():
    f = parse_laurent("x^2 + 2*x*y + y^2", ("x", "y"))
    report = is_nondegenerate(f)
    assert report.verdict == "degenerate"
    assert report.certified  # rational witness is a proof
    assert report.witness_face.dim == 1
    assert set(report.witness_face.vertices) == {(2, 0), (0, 2)}
    # the invariant: the witness kills every generator and avoids zero coords
    assert all(evaluate(g, report.witness) == 0 for g in face_system(f, report.witness_face))
    assert all(w != 0 for w in report.witness)


def test_witness_is_the_expected_point():
    f = parse_laurent("x^2 + 2*x*y + y^2", ("x", "y"))
    report = is_nondegenerate(f)
    assert report.witness_field == "QQ"
    x, y = report.witness
    assert x + y == 0 and x != 0


def test_triangle_nondegenerate_certified():
    report = is_nondegenerate(parse_laurent("x + y + x^-1*y^-1"))
    assert report.verdict == "nondegenerate"
    assert report.certified


def test_check_face_examples():
    f = parse_laurent("x^2 + 2*x*y + y^2", ("x", "y"))
    poly = newton_polytope(f)
    edge = next(fc for fc in poly.proper_faces_excluding_origin() if fc.dim == 1)
    assert check_face(f, edge, 10007).verdict == "nonempty"
    vertex = next(fc for fc in poly.proper_faces_excluding_origin() if fc.is_vertex)
    assert check_face(f, vertex, 10007).verdict == "empty"

    g = parse_laurent("x + y + x^-1*y^-1")
    poly = newton_polytope(g)
    edge = next(fc for fc in poly.proper_faces_excluding_origin()
                if fc.dim == 1 and set(fc.vertices) == {(1, 0), (0, 1)})
    assert check_face(g, edge, 10007).verdict == "empty"


def test_find_witness_direct():
    f = parse_laurent("x^2 + 2*x*y + y^2", ("x", "y"))
    poly = newton_polytope(f)
    edge = next(fc for fc in poly.proper_faces_excluding_origin() if fc.dim == 1)
    point, fieldname = find_witness(f, edge)
    assert fieldname == "QQ"
    assert point is not None and all(p != 0 for p in point)


def test_rejects_low_dimensional_input():
    with pytest.raises(NotFullDimensionalError):
        is_nondegenerate(parse_laurent("x*y"))


def test_prime_exhaustion():
    from exphodge.laurent import make_laurent

    # a denominator made of three wordsize primes; the exact check needs no prime
    bad_den = 1616472089 * 1773619997 * 1497471109
    f = make_laurent(2, {
        (1, 0): Fraction(1, bad_den),
        (0, 1): Fraction(1, bad_den),
        (-1, -1): Fraction(1, bad_den),
    })
    rep = is_nondegenerate(f)
    assert rep.verdict == "nondegenerate" and rep.certified


def test_certify_false_is_removed():
    with pytest.raises(ValueError, match="certify=False"):
        is_nondegenerate(parse_laurent("x + y + x^-1*y^-1"), certify=False)


def test_interior_edge_point_is_not_degeneracy():
    # the xy term sits inside the triangle conv{0,(2,1),(1,2)}; the edge
    # system x^2y + xy^2 has no common zero with its log derivatives
    f = parse_laurent("x^2*y + x*y^2 + x*y")
    assert is_nondegenerate(f).verdict == "nondegenerate"


def test_one_variable_inputs_always_nondegenerate():
    for text in ("x", "x^5 + x^-3", "x^2 + x + x^-1"):
        rep = is_nondegenerate(parse_laurent(text))
        assert rep.verdict == "nondegenerate"


def test_degenerate_proper_case_squared_edge():
    # (x - y)^2 along the edge x + y = 2: witness (1, 1)
    f = parse_laurent("x^2 - 2*x*y + y^2 + x^-1*y^-1")
    rep = is_nondegenerate(f)
    assert rep.verdict == "degenerate"
    assert rep.witness == (Fraction(1), Fraction(1))
    assert all(evaluate(g, rep.witness) == 0 for g in face_system(f, rep.witness_face))


# degenerate inputs whose witness scans find a zero over a finite field only:
# the edge zeros x = ±sqrt(2)*y are irrational, and the GF(3) hit on the edge
# of (2x + y)^2 does not lift to a rational zero
FINITE_FIELD_WITNESS = [("x^4 - 4*x^2*y^2 + 4*y^4 + x^-1*y^-1", "GF(7)"),
                        ("4*x^2 + 4*x*y + y^2 + x^-1*y^-1", "GF(3)")]


@pytest.mark.parametrize("text,field", FINITE_FIELD_WITNESS,
                         ids=[t.replace(" ", "") for t, _ in FINITE_FIELD_WITNESS])
def test_exact_basis_settles_finite_field_witness(text, field):
    f = parse_laurent(text)
    rep = is_nondegenerate(f)
    assert rep.verdict == "degenerate"
    assert rep.witness_field == field
    q = int(field[3:-1])
    assert all(evaluate_mod(g, [int(w) for w in rep.witness], q) == 0
               for g in face_system(f, rep.witness_face))
    # a zero mod q proves nothing over QQ; the exact basis settles the face
    assert rep.certified and rep.certificate == "exact basis"
    note = next(c.note for c in rep.faces if c.face == rep.witness_face)
    assert note == f"exact basis is not the unit ideal; witness over {field}"


def test_witness_scan_skips_a_prime_dividing_the_denominators():
    # 1/3*(x - 2y)^2 on the edge: cleared to x^2 - 4xy + 4y^2, whose GF(3)
    # zero (1, 2) is no zero of the face system, where 3 divides a denominator
    f = parse_laurent("1/3*x^2 - 4/3*x*y + 4/3*y^2 + x^-1*y^-1")
    rep = is_nondegenerate(f)
    assert (rep.verdict, rep.certificate) == ("degenerate", "exact basis")
    assert (rep.witness, rep.witness_field) == ((1, 3), "GF(5)")
    assert all(evaluate_mod(g, (1, 3), 5) == 0 for g in face_system(f, rep.witness_face))


def test_exact_decision_hands_groebner_integers(monkeypatch):
    """Over QQ every coefficient of every generator _decide_face hands to
    groebner_basis, the saturation's included, is an int."""
    QQ = RationalField()
    calls = _counting(monkeypatch, "groebner_basis")
    for f in corpus_inputs(monkeypatch, "screen", 4242, 2):
        for face in newton_polytope(f).proper_faces_excluding_origin():
            if not face.is_vertex:
                nondegen._decide_face(f, face, QQ, 60000)
    assert calls
    assert {type(c) for gens, _ in calls for g in gens for c in g.values()} == {int}


ONE_PASS_INPUTS = ["x + y + x^-1*y^-1", "x^2 - 2*x*y + y^2 + x^-1*y^-1"]


def _counting(monkeypatch, name):
    """Patch nondegen.<name> to record its calls; returns the call list."""
    calls = []
    fn = getattr(nondegen, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(nondegen, name, counting)
    return calls


@pytest.mark.parametrize("text", ONE_PASS_INPUTS)
def test_certify_decides_each_face_once(text, monkeypatch):
    modular = _counting(monkeypatch, "check_face")
    exact = _counting(monkeypatch, "_check_face_exact")
    rep = is_nondegenerate(parse_laurent(text))
    assert modular == []
    assert rep.verdict in ("nondegenerate", "degenerate") and rep.certified
    assert len(exact) == sum(not c.face.is_vertex for c in rep.faces)


@pytest.mark.parametrize("text", ONE_PASS_INPUTS + [FINITE_FIELD_WITNESS[0][0]])
def test_exact_budget_leaves_the_verdict_undecided(text, monkeypatch):
    modular = _counting(monkeypatch, "check_face")
    witness = _counting(monkeypatch, "find_witness")
    monkeypatch.setattr(nondegen, "_check_face_exact", lambda *a, **k: "budget exceeded")
    rep = is_nondegenerate(parse_laurent(text))
    assert (rep.verdict, rep.certified, rep.certificate) == ("undecided", False, None)
    assert rep.witness is None
    budget = f"budget of {nondegen._PAIR_BUDGET} S-pairs"
    for c in rep.faces:
        if not c.face.is_vertex:
            assert c.verdict == "budget exceeded" and budget in c.note
    assert modular == [] and witness == []


def test_one_decided_nonempty_face_outweighs_budget_outcomes(monkeypatch):
    f = parse_laurent("x^2 - 2*x*y + y^2 + x^-1*y^-1")
    exact = nondegen._check_face_exact

    def budget_off_the_square_edge(g, face, *args, **kwargs):
        if set(face.vertices) == {(2, 0), (0, 2)}:
            return exact(g, face, *args, **kwargs)
        return "budget exceeded"

    monkeypatch.setattr(nondegen, "_check_face_exact", budget_off_the_square_edge)
    rep = is_nondegenerate(f)
    assert (rep.verdict, rep.certified, rep.certificate) == \
        ("degenerate", True, "rational witness")
    assert rep.witness == (Fraction(1), Fraction(1))
    verdicts = [c.verdict for c in rep.faces if not c.face.is_vertex]
    assert verdicts.count("nonempty") == 1 and verdicts.count("budget exceeded") == 2


# ---------------------------------------------------------------------------
# Row reduction of the face system against the saturated oracle
# ---------------------------------------------------------------------------

# the last input's edge x + y has both coefficients 0 over GF(3)
ORACLE_EXTRA = ["x^4-4*x^2*y^2+4*y^4+x^-1*y^-1",
                "36*x^2+12*x*y+y^2+6*z^2+8*x^-1*y^-1*z^-1+6*x*z^-1+8*y^-2*z",
                "3*x + 6*y + x^-1*y^-1"]
ORACLE_FIELDS = [RationalField(), PrimeField(1463005157), PrimeField(3)]


def _outcome(check, *args):
    try:
        return check(*args)
    except BadPrimeError:
        return "bad prime"


@pytest.mark.parametrize("F", ORACLE_FIELDS, ids=["QQ", "GF(p)", "GF(3)"])
@pytest.mark.parametrize("source", ["examples", "screen", "toric_rank"])
def test_decide_face_matches_the_saturated_oracle(source, F, monkeypatch):
    if source == "examples":
        texts = [t for t, _ in SUITE] + DEGENERATE + ORACLE_EXTRA
        polys = [parse_laurent(t) for t in texts]
    else:
        polys = corpus_inputs(monkeypatch, source, 4242, 2)
    verdicts = set()
    for f in polys:
        for face in newton_polytope(f).proper_faces_excluding_origin():
            if face.is_vertex:
                continue
            got = _outcome(nondegen._decide_face, f, face, F, 60000)
            assert got == _outcome(saturated_face_check, f, face, F), (str(f), str(face))
            verdicts.add(got)
    assert "empty" in verdicts and (source != "examples" or "nonempty" in verdicts)


# x^-1*y + x^2*y = x^-1*y*(1 + x^3) on the top edge, whose lattice length is 3
LENGTH_THREE_EDGE = "x^-1*y + x^2*y + y^-1"


def test_row_reduction_is_done_in_the_field():
    f = parse_laurent(LENGTH_THREE_EDGE)
    edge = next(fc for fc in newton_polytope(f).proper_faces_excluding_origin()
                if set(fc.vertices) == {(-1, 1), (2, 1)})
    # the columns (1, -1, 1) and (1, 2, 1) agree mod 3, and 1 + x^3 = (1 + x)^3
    assert check_face(f, edge, 3).verdict == "nonempty"
    assert check_face(f, edge, 5).verdict == "empty"
    assert nondegen._check_face_exact(f, edge) == "empty"
    assert is_nondegenerate(f).verdict == "nondegenerate"


def test_simplex_faces_need_no_groebner_run(monkeypatch):
    calls = _counting(monkeypatch, "groebner_basis")
    f = parse_laurent("x + y + z + x^-1*y^-1*z^-1")
    assert is_nondegenerate(f).verdict == "nondegenerate"
    assert calls == []


def test_double_root_edge_reaches_buchberger(monkeypatch):
    f = parse_laurent("x^2 - 2*x*y + y^2 + x^-1*y^-1")
    edge = next(fc for fc in newton_polytope(f).proper_faces_excluding_origin()
                if set(fc.vertices) == {(2, 0), (0, 2)})
    calls = _counting(monkeypatch, "groebner_basis")
    assert nondegen._check_face_exact(f, edge) == "nonempty"
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# Closed forms over QQ: simplex faces and circuit faces
# ---------------------------------------------------------------------------

def _kernel_basis(points):
    """One primitive integer m with sum m_j = 0 and sum m_j alpha_j = 0 per
    free column of the points' A = [1; alpha] (the relations read off its
    reduced row echelon form), by Fraction elimination."""
    k = len(points)
    rows = [[Fraction(1)] * k] + [[Fraction(p[i]) for p in points]
                                  for i in range(len(points[0]))]
    pivots = []
    for c in range(k):
        r = next((i for i in range(len(pivots), len(rows)) if rows[i][c]), None)
        if r is None:
            continue
        rows[len(pivots)], rows[r] = rows[r], rows[len(pivots)]
        top = rows[len(pivots)] = [x / rows[len(pivots)][c] for x in rows[len(pivots)]]
        rows = [row if row is top or not row[c] else
                [a - row[c] * b for a, b in zip(row, top)] for row in rows]
        pivots.append(c)
    basis = []
    for free in (c for c in range(k) if c not in pivots):
        m = [Fraction(0)] * k
        m[free] = Fraction(1)
        for row, c in zip(rows, pivots):
            m[c] = -row[free]
        den = math.lcm(*(x.denominator for x in m))
        ints = [int(x * den) for x in m]
        g = math.gcd(*ints)
        basis.append([x // g for x in ints])
    return basis


def _planted(m, points, x0, rng):
    """Coefficients c_j = m_j / x0^alpha_j where m_j is nonzero, so that
    c_j x0^alpha_j = m_j lies in the kernel and x0 is a torus zero of the
    circuit's face system; a random coefficient where m_j is 0."""
    return {p: Fraction(mj) / math.prod(x ** e for x, e in zip(x0, p)) if mj else _large(rng)
            for p, mj in zip(points, m)}


def _affine_rank(points):
    return len(_row_lattice_basis([tuple(a - b for a, b in zip(p, points[0]))
                                   for p in points[1:]]))


def _large(rng):
    """A coefficient drawn like the screen workload's: numerator in
    +-[1, 10^6], denominator in [1, 3]."""
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10**6), rng.randint(1, 3))


def _circuit_inputs(seed):
    """Seeded inputs whose top face, on x + y = 3 (n = 2) or x + y + z = 3
    (n = 3), holds three points of a line, four points of the plane, or four
    points three of which are collinear (a circuit with an m_j = 0); the other
    terms lie below the top.  Every third top that is a circuit gets
    coefficients planted from a rational torus point, so its relation holds."""
    rng = random.Random(seed)
    out = []
    for case in range(120):
        n = 2 if case % 4 == 0 else 3
        top = [p for p in product(range(-1, 4), repeat=n) if sum(p) == 3]
        base = rng.choice(top)
        if case % 4 < 2:
            step = rng.choice([w for w in product((-1, 0, 1), repeat=n) if any(w) and not sum(w)])
            points = [tuple(x + a * w for x, w in zip(base, step))
                      for a in (0, *rng.sample(range(1, 4), 2))]
        elif case % 4 == 2:
            points = rng.sample(top, 4)
        else:
            points = rng.sample([p for p in top if p[0] == base[0]], 3)
            points.append(rng.choice([p for p in top if p[0] != base[0]]))
        below = [p for p in product(range(-2, 2), repeat=n) if sum(p) < 3 and any(p)]
        terms = {p: _large(rng) for p in rng.sample(below, n + 2)}
        if case % 3 == 0 and len(points) == _affine_rank(points) + 2:
            x0 = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                  for _ in range(n)]
            terms.update(_planted(_kernel_basis(points)[0], points, x0, rng))
        else:
            terms.update((p, _large(rng)) for p in points)
        f = make_laurent(n, terms)
        if newton_polytope(f).dim == n:
            out.append(f)
    return out


def _face_terms(f, face):
    return list(face_system(f, face)[0])


def test_circuit_closed_form_matches_the_saturated_oracle():
    """Over QQ, every simplex and circuit face of the seeded inputs gets the
    verdict of the saturated full-basis check, both verdicts occur on circuit
    edges and circuit 2-faces, and circuits with an m_j = 0 are among them."""
    QQ = RationalField()
    seen = Counter()
    for f in _circuit_inputs(3201):
        for face in newton_polytope(f).proper_faces_excluding_origin():
            points = _face_terms(f, face)
            e = len(points) - face.dim - 1
            if face.is_vertex or e > 1:
                continue
            got = nondegen._decide_face(f, face, QQ, 60000)
            assert got == saturated_face_check(f, face, QQ), (str(f), str(face))
            seen[face.dim, e, got] += 1
            seen["m_j = 0"] += e == 1 and 0 in _kernel_basis(points)[0]
    for d in (1, 2):
        assert seen[d, 0, "empty"] and seen[d, 1, "empty"] and seen[d, 1, "nonempty"], seen
    assert seen["m_j = 0"], seen


def _gale_inputs(seed):
    """Seeded inputs whose top face, on x + y = 3 (n = 2) or x + y + z = 3
    (n = 3), holds four points of a line or five points of the plane, so
    d + 3 terms on a d-face when they span it; the other terms lie below
    the top.  Every other top gets coefficients planted from a kernel vector
    y = s*m^1 + t*m^2 with no zero entry at a rational torus point, so its
    face is nonempty (when no point is left out of every relation)."""
    rng = random.Random(seed)
    out = []
    for case in range(90):
        n = 2 if case % 3 == 0 else 3
        top = [p for p in product(range(-1, 4), repeat=n) if sum(p) == 3]
        if n == 2 or case % 3 == 1:
            base = rng.choice(top)
            step = rng.choice([w for w in product((-1, 0, 1), repeat=n) if any(w) and not sum(w)])
            points = [tuple(x + a * w for x, w in zip(base, step))
                      for a in (0, *rng.sample(range(1, 6), 3))]
        else:
            points = rng.sample(top, 5)
        below = [p for p in product(range(-2, 2), repeat=n) if sum(p) < 3 and any(p)]
        terms = {p: _large(rng) for p in rng.sample(below, n + 2)}
        basis = _kernel_basis(points)
        if case % 2 and len(basis) == 2 and all(map(any, zip(*basis))):
            y = [0]
            while 0 in y:
                s, t = (rng.choice((-1, 1)) * rng.randint(1, 3) for _ in range(2))
                y = [s * a + t * b for a, b in zip(*basis)]
            x0 = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                  for _ in range(n)]
            terms.update(_planted(y, points, x0, rng))
        else:
            terms.update((p, _large(rng)) for p in points)
        f = make_laurent(n, terms)
        if newton_polytope(f).dim == n:
            out.append(f)
    return out


def _relation_index(points):
    """The index, in the lattice of all integer relations, of the lattice
    spanned by the primitive relations of ``_kernel_basis`` (the gcd of their
    2 x 2 minors, since the relation lattice is saturated)."""
    m1, m2 = _kernel_basis(points)
    return math.gcd(*(m1[i] * m2[j] - m1[j] * m2[i]
                      for i in range(len(m1)) for j in range(i + 1, len(m1))))


def test_gale_closed_form_matches_the_saturated_oracle(monkeypatch):
    """Over QQ, every face with d + 3 terms (e = 2) of the seeded inputs
    gets the verdict of the saturated full-basis check and runs Buchberger
    exactly when it is nonempty; both verdicts occur on edges and 2-faces,
    and faces whose primitive relations from the row echelon form span a
    proper sublattice of the relations are among them."""
    QQ = RationalField()
    calls = _counting(monkeypatch, "groebner_basis")
    seen = Counter()
    for f in _gale_inputs(3203):
        for face in newton_polytope(f).proper_faces_excluding_origin():
            points = _face_terms(f, face)
            if face.is_vertex or len(points) != face.dim + 3:
                continue
            before = len(calls)
            got = nondegen._decide_face(f, face, QQ, 60000)
            assert got == saturated_face_check(f, face, QQ), (str(f), str(face))
            assert len(calls) - before == (got == "nonempty"), (str(f), str(face))
            seen[face.dim, got] += 1
            seen["sublattice"] += _relation_index(points) > 1
    for d in (1, 2):
        assert seen[d, "empty"] and seen[d, "nonempty"], seen
    assert seen["sublattice"], seen


def test_groebner_runs_only_past_the_closed_forms(monkeypatch):
    """On one screen pass and two inputs with an e = 3 top face, over QQ: no
    Groebner run and no row reduction on a simplex face; on a circuit or a
    face with d + 3 terms, one Groebner run exactly when the face is
    nonempty (its relation holds, or its Gale forms share a zero, on a
    saturated basis of the relations); on a 2-face with more terms that
    spans at most 3 values in a coordinate, one run exactly when its gcd
    keeps a nonzero root; and a row reduction exactly when Buchberger runs.
    The screen pass decides every face by a closed form; the wide top face
    and the planted narrow one each take one run."""
    QQ = RationalField()
    calls = _counting(monkeypatch, "groebner_basis")
    reductions = _counting(monkeypatch, "_row_reduce")
    runs = Counter()
    inputs = [parse_laurent(t) for t in (WIDE_FACE, PLANTED_NARROW_FACE)]
    for f in corpus_inputs(monkeypatch, "screen", 4242, 1) + inputs:
        for face in newton_polytope(f).proper_faces_excluding_origin():
            if face.is_vertex:
                continue
            exps, coeffs, _ = nondegen._face_terms(f, face)
            e = len(exps) - face.dim - 1
            before, reduced_before = len(calls), len(reductions)
            nondegen._decide_face(f, face, QQ, 60000)
            ran, reduced = len(calls) - before, len(reductions) - reduced_before
            assert reduced == ran <= 1, str(face)
            kind = min(e, 3)
            if e == 0:
                assert ran == 0
            elif e <= 2:
                assert ran == (saturated_face_check(f, face, QQ) == "nonempty"), str(face)
            elif face.dim == 2:
                g = nondegen._narrow_face_gcd(exps, coeffs)
                kind = "wide" if g is None else "narrow"
                assert g is None or ran == (len(g) > 1), str(face)
            runs[kind, ran] += 1
    assert all(runs[kind] for kind in [(0, 0), (1, 0), (1, 1), (2, 0), ("narrow", 0),
                                       ("narrow", 1), ("wide", 1)]), runs


def _narrow_inputs(seed):
    """Seeded inputs (n = 3 or 4) whose top face, on z = 1, holds 6 or 7
    terms (e = 3, 4) at the points (i, j + s*i, 1, ...) for (i, j) in
    [0, w] x [0, 4], w = 1 or 2, i = 0 and i = w both taken; the other terms
    lie below z = 1.  Every other top gets coefficients planted at a
    rational torus point: a kernel vector with no zero entry, random on the
    free points of ``_kernel_basis`` and solved on three, as in
    ``_gale_inputs``.  Returns (f, top points, planted)."""
    rng = random.Random(seed)
    out = []
    for case in range(48):
        n, w, planted = 3 + case % 2, 1 + case // 2 % 2, case // 4 % 2 == 1
        grid = list(product(range(w + 1), range(5)))
        plane = []
        while {i for i, _ in plane} != set(range(w + 1)):
            plane = rng.sample(grid, 6 + case // 8 % 2)
        shear, tail = rng.randint(-1, 1), [rng.randint(-1, 1) for _ in range(2)]
        points = [(i - 1, j - 2 + shear * i, 1, *(tail[0] * i + tail[1] * j,) * (n - 3))
                  for i, j in plane]
        below = [p for p in product(range(-2, 2), repeat=n) if p[2] < 1 and any(p)]
        terms = {p: _large(rng) for p in rng.sample(below, n + 2)}
        if planted:
            basis = _kernel_basis(points)
            y = [0]
            while 0 in y:
                r = [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in basis]
                y = [sum(a * m for a, m in zip(r, col)) for col in zip(*basis)]
            x0 = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))
                  for _ in range(n)]
            terms.update(_planted(y, points, x0, rng))
        else:
            terms.update((p, _large(rng)) for p in points)
        f = make_laurent(n, terms)
        if newton_polytope(f).dim == n:
            out.append((f, set(points), planted))
    return out


def test_narrow_closed_form_is_sound_against_the_saturated_oracle(monkeypatch):
    """On the seeded top faces of width 1 and 2 (n = 3, 4; e = 3, 4), the
    closed form reads "empty" only where the saturated full-basis check
    does, and never on a planted face; it decides random faces of both
    widths and both n, and passes every planted face on to Buchberger.  A
    face of width 3 in both coordinates is passed on unread."""
    QQ = RationalField()
    calls = _counting(monkeypatch, "groebner_basis")
    seen = Counter()
    for f, points, planted in _narrow_inputs(4401):
        face = next(fc for fc in newton_polytope(f).proper_faces_excluding_origin()
                    if fc.points == frozenset(points))
        exps, coeffs, _ = nondegen._face_terms(f, face)
        assert face.dim == 2 and len(exps) - face.dim - 1 >= 3
        width = min(_plane_widths(exps))
        g = nondegen._narrow_face_gcd(exps, coeffs)
        empty = len(g) == 1
        assert not (planted and empty), str(f)
        if empty:
            assert saturated_face_check(f, face, QQ) == "empty", str(f)
        if planted:
            before = len(calls)
            assert nondegen._check_face_exact(f, face) == "nonempty", str(f)
            assert len(calls) - before == 1
        seen[f.nvars, width, planted, empty] += 1
    for n, width in product((3, 4), (1, 2)):
        assert seen[n, width, False, True] and seen[n, width, True, False], seen
    f = parse_laurent(WIDE_FACE)
    top = next(fc for fc in newton_polytope(f).proper_faces_excluding_origin()
               if fc.dim == 2 and all(a[2] == 1 for a in fc.vertices))
    exps, coeffs, _ = nondegen._face_terms(f, top)
    assert min(_plane_widths(exps)) == 3 and nondegen._narrow_face_gcd(exps, coeffs) is None
    before = len(calls)
    assert nondegen._check_face_exact(f, top) == "empty" and len(calls) - before == 1


def _plane_widths(exps):
    """The number of values each coordinate of ``_plane_coordinates`` spans,
    less one."""
    return [max(col) - min(col) for col in zip(*nondegen._plane_coordinates(exps))]


def test_circuit_relation_is_read_on_the_primitive_vector(monkeypatch):
    """On the edge x^4 + 2*x^2*y^2 - y^4 the lattice basis of the relations
    gives the primitive (1, -2, 1), not a multiple such as 2*(1, -2, 1); on it
    the product is -1, so the edge is empty with no Groebner run (its square,
    on the doubled vector, is 1)."""
    f = parse_laurent("x^4 + 2*x^2*y^2 - y^4 + x^-1*y^-1")
    edge = next(fc for fc in newton_polytope(f).proper_faces_excluding_origin()
                if set(fc.vertices) == {(4, 0), (0, 4)})
    calls = _counting(monkeypatch, "groebner_basis")
    assert nondegen._check_face_exact(f, edge) == "empty"
    assert calls == []
    assert saturated_face_check(f, edge, RationalField()) == "empty"


def test_faces_carry_the_points_on_them(monkeypatch):
    """On every proper face of the suite, the degenerate inputs and two
    screen passes: the face's points are the hull points on every active
    facet's hyperplane, it holds the origin exactly when every active facet
    has level 0, and ``_face_terms`` keeps the oracle's f_face.  Support
    points that are not vertices, on edges and 2-faces, are among them."""
    inputs = [parse_laurent(text) for text, _ in SUITE] + [parse_laurent(t) for t in DEGENERATE]
    inputs += corpus_inputs(monkeypatch, "screen", 4242, 2)
    beyond_vertices = Counter()
    for f in inputs:
        P = newton_polytope(f)
        hull_points = set(f.support) | {(0,) * f.nvars}
        for face in P.all_proper_faces():
            facets = [P.facets[j] for j in face.active_facets]
            on = {a for a in hull_points
                  if all(sum(map(math.prod, zip(fc.normal, a))) == -fc.level for fc in facets)}
            assert face.points == on, (str(f), str(face))
            assert face.contains_origin == all(fc.level == 0 for fc in facets), str(face)
            system = face_system(f, face)
            assert nondegen._face_terms(f, face)[0] == list(system[0] if system else {}), str(face)
            beyond_vertices[face.dim] += len(on & set(f.support)) > len(face.vertex_indices)
    assert beyond_vertices[1] and beyond_vertices[2], beyond_vertices
