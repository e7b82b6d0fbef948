from fractions import Fraction

import pytest
from conftest import DEGENERATE, SUITE, corpus_inputs
from oracles import saturated_face_check

from exphodge import nondegen
from exphodge._primes import random_primes
from exphodge.errors import BadPrimeError, NotFullDimensionalError
from exphodge.groebner import PrimeField, RationalField, groebner_basis
from exphodge.laurent import parse_laurent
from exphodge.nondegen import (_eval_mod, build_face_system, check_face,
                               find_witness, is_nondegenerate)
from exphodge.polytope import newton_polytope


def test_all_vertex_faces_pass():
    report = is_nondegenerate(parse_laurent("x + x^-1"))
    assert report.verdict == "likely-nondegenerate"
    assert all(c.verdict == "empty" for c in report.faces)


def test_certify_upgrades_verdict():
    report = is_nondegenerate(parse_laurent("x + x^-1"), certify=True)
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
    system = build_face_system(f, report.witness_face)
    assert all(g.evaluate(report.witness) == 0 for g in system.laurent_generators)
    assert all(w != 0 for w in report.witness)


def test_witness_is_the_expected_point():
    f = parse_laurent("x^2 + 2*x*y + y^2", ("x", "y"))
    report = is_nondegenerate(f)
    assert report.witness_field == "QQ"
    x, y = report.witness
    assert x + y == 0 and x != 0


def test_triangle_nondegenerate_certified():
    report = is_nondegenerate(parse_laurent("x + y + x^-1*y^-1"), certify=True)
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


def test_determinism_under_seed():
    f = parse_laurent("x + y + x^-1*y^-1")
    a = is_nondegenerate(f, seed=123)
    b = is_nondegenerate(f, seed=123)
    assert a == b
    c = is_nondegenerate(f, seed=124)
    assert c.primes != a.primes


def test_rejects_low_dimensional_input():
    with pytest.raises(NotFullDimensionalError):
        is_nondegenerate(parse_laurent("x*y"))


def test_face_system_shifts_record_units():
    f = parse_laurent("x + y + x^-1*y^-1")
    poly = newton_polytope(f)
    edge = next(fc for fc in poly.proper_faces_excluding_origin() if fc.dim == 1)
    system = build_face_system(f, edge)
    for shifted, shift, g in zip(system.generators, system.shifts,
                                 system.laurent_generators):
        assert all(all(e >= 0 for e in alpha) for alpha, _ in shifted)
        back = {tuple(a - s for a, s in zip(alpha, shift)): c for alpha, c in shifted}
        assert back == dict(g.terms)


def test_random_primes_stay_where_is_prime_is_exact():
    import inspect

    from exphodge import _primes

    # the fixed witnesses 2, 3, 5, 7 pass the composite 3,215,031,751
    assert 3_215_031_751 == 151 * 751 * 28351 and _primes.is_prime(3_215_031_751)
    assert _primes.PRIME_LO < _primes.PRIME_HI < 3_215_031_751
    assert list(inspect.signature(_primes.random_primes).parameters) == ["count", "seed"]
    primes = _primes.random_primes(20, seed=5)
    assert len(set(primes)) == 20
    assert all(_primes.PRIME_LO <= p < _primes.PRIME_HI for p in primes)


def test_prime_exhaustion():
    from exphodge._primes import random_primes
    from exphodge.errors import ExpHodgeError
    from exphodge.laurent import make_laurent

    p1, p2, p3 = random_primes(3, seed=77)
    bad_den = p1 * p2 * p3
    f = make_laurent(2, {
        (1, 0): Fraction(1, bad_den),
        (0, 1): Fraction(1, bad_den),
        (-1, -1): Fraction(1, bad_den),
    })
    with pytest.raises(ExpHodgeError, match="prime exhaustion"):
        is_nondegenerate(f, seed=77)
    # the exact check needs no prime
    rep = is_nondegenerate(f, seed=77, certify=True)
    assert rep.verdict == "nondegenerate" and rep.certified


@pytest.mark.parametrize("certify", [False, True])
def test_zero_primes_rejected(certify):
    # zero primes would decide no face and report a false "prime exhaustion"
    with pytest.raises(ValueError, match="at least one prime"):
        is_nondegenerate(parse_laurent("x + y + x^-1*y^-1"), primes=0, certify=certify)


def test_interior_edge_point_is_not_degeneracy():
    # the xy term sits inside the triangle conv{0,(2,1),(1,2)}; the edge
    # system x^2y + xy^2 has no common zero with its log derivatives
    f = parse_laurent("x^2*y + x*y^2 + x*y")
    assert is_nondegenerate(f).verdict == "likely-nondegenerate"
    assert is_nondegenerate(f, certify=True).verdict == "nondegenerate"


def test_one_variable_inputs_always_nondegenerate():
    for text in ("x", "x^5 + x^-3", "x^2 + x + x^-1"):
        rep = is_nondegenerate(parse_laurent(text), certify=True)
        assert rep.verdict == "nondegenerate"


def test_degenerate_proper_case_squared_edge():
    # (x - y)^2 along the edge x + y = 2: witness (1, 1)
    f = parse_laurent("x^2 - 2*x*y + y^2 + x^-1*y^-1")
    rep = is_nondegenerate(f)
    assert rep.verdict == "degenerate"
    assert rep.witness == (Fraction(1), Fraction(1))
    system = build_face_system(f, rep.witness_face)
    assert all(g.evaluate(rep.witness) == 0 for g in system.laurent_generators)


# degenerate inputs whose witness scans find a zero over a finite field only:
# the edge zeros x = ±sqrt(2)*y are irrational, and the GF(3) hit on the edge
# of (2x + y)^2 does not lift to a rational zero
FINITE_FIELD_WITNESS = [("x^4 - 4*x^2*y^2 + 4*y^4 + x^-1*y^-1", "GF(7)"),
                        ("4*x^2 + 4*x*y + y^2 + x^-1*y^-1", "GF(3)")]


@pytest.mark.parametrize("certify", [False, True])
@pytest.mark.parametrize("text,field", FINITE_FIELD_WITNESS,
                         ids=[t.replace(" ", "") for t, _ in FINITE_FIELD_WITNESS])
def test_certify_settles_finite_field_witness(text, field, certify):
    f = parse_laurent(text)
    rep = is_nondegenerate(f, certify=certify)
    assert rep.verdict == "degenerate"
    assert rep.witness_field == field
    q = int(field[3:-1])
    system = build_face_system(f, rep.witness_face)
    assert all(_eval_mod(g, [int(w) for w in rep.witness], q) == 0
               for g in system.laurent_generators)
    # a zero mod q proves nothing over QQ; certify settles the face exactly
    assert rep.certified == certify
    note = next(c.note for c in rep.faces if c.face == rep.witness_face)
    if certify:
        assert note == f"exact basis is not the unit ideal; witness over {field}"
    else:
        assert note == f"witness over {field}"


ONE_PASS_INPUTS = ["x + y + x^-1*y^-1", "x^2 - 2*x*y + y^2 + x^-1*y^-1"]


@pytest.mark.parametrize("text", ONE_PASS_INPUTS)
def test_certify_decides_each_face_once(text, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return check_face(*args, **kwargs)

    monkeypatch.setattr(nondegen, "check_face", counting)
    f = parse_laurent(text)
    certified = is_nondegenerate(f, certify=True)
    assert calls == []
    assert certified.verdict in ("nondegenerate", "degenerate") and certified.certified
    is_nondegenerate(f)
    assert calls  # the counter sees the modular path


@pytest.mark.parametrize("text", ONE_PASS_INPUTS + [FINITE_FIELD_WITNESS[0][0]])
def test_certify_falls_back_to_primes_on_exact_budget(text, monkeypatch):
    f = parse_laurent(text)
    modular = is_nondegenerate(f)
    monkeypatch.setattr(nondegen, "_check_face_exact", lambda *a, **k: "budget exceeded")
    rep = is_nondegenerate(f, certify=True)
    assert (rep.verdict, rep.certified) == (modular.verdict, modular.certified)
    assert (rep.witness, rep.witness_field, rep.witness_face) == \
        (modular.witness, modular.witness_field, modular.witness_face)
    assert [c.verdict for c in rep.faces] == [c.verdict for c in modular.faces]
    for c in rep.faces:
        if not c.face.is_vertex:
            assert c.note.startswith("exact check exceeded its budget")


# ---------------------------------------------------------------------------
# Row reduction of the face system against the saturated oracle
# ---------------------------------------------------------------------------

# the last input's edge x + y has both coefficients 0 over GF(3)
ORACLE_EXTRA = ["x^4-4*x^2*y^2+4*y^4+x^-1*y^-1",
                "36*x^2+12*x*y+y^2+6*z^2+8*x^-1*y^-1*z^-1+6*x*z^-1+8*y^-2*z",
                "3*x + 6*y + x^-1*y^-1"]
ORACLE_FIELDS = [RationalField(), PrimeField(random_primes(1, 18)[0]), PrimeField(3)]


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
    assert is_nondegenerate(f, certify=True).verdict == "nondegenerate"


def _count_groebner_runs(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return groebner_basis(*args, **kwargs)

    monkeypatch.setattr(nondegen, "groebner_basis", counting)
    return calls


def test_simplex_faces_need_no_groebner_run(monkeypatch):
    calls = _count_groebner_runs(monkeypatch)
    f = parse_laurent("x + y + z + x^-1*y^-1*z^-1")
    assert is_nondegenerate(f, certify=True).verdict == "nondegenerate"
    assert is_nondegenerate(f).verdict == "likely-nondegenerate"
    assert calls == []


def test_double_root_edge_reaches_buchberger(monkeypatch):
    f = parse_laurent("x^2 - 2*x*y + y^2 + x^-1*y^-1")
    edge = next(fc for fc in newton_polytope(f).proper_faces_excluding_origin()
                if set(fc.vertices) == {(2, 0), (0, 2)})
    calls = _count_groebner_runs(monkeypatch)
    assert nondegen._check_face_exact(f, edge) == "nonempty"
    assert len(calls) == 1
