from fractions import Fraction

import pytest

from exphodge import nondegen
from exphodge.errors import NotFullDimensionalError
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
