import random
from fractions import Fraction as Q
from math import floor

import pytest

from exphodge import curve
from exphodge.errors import IntegrityError
from exphodge.laurent import make_laurent, parse_laurent
from exphodge.linalg import SparseRationalMatrix, exact_rank, image_dim_over, nullspace_basis
from exphodge.spectrum import jump_candidates, spectrum_rank

from conftest import CURVE_SUITE
from oracles import (cech_boundaries, cech_d0, cech_d1, divisor_shift_invariance,
                     matmul, shared_truncation, untwisted_complex)


def test_pole_divisor():
    assert curve.pole_divisor(parse_laurent("x^2 + x^-1")) == curve.PointDivisor(1, 2)
    assert curve.pole_divisor(parse_laurent("x")) == curve.PointDivisor(0, 1)


def test_untwisted_fixture_matches_classical_values():
    model = curve.cech_hypercohomology(untwisted_complex())
    assert model.dims == (1, 1, 0)


def test_cech_full_level_dims():
    fx = parse_laurent("x")
    big = curve.cech_hypercohomology(curve.deligne_ambient(fx, 2))
    assert big.dims == (0, 1, 0)
    f1 = parse_laurent("x + x^-1")
    assert curve.cech_hypercohomology(curve.divisor_twist_level(f1, 0)).h1 == 2


def test_cech_agrees_with_toric_betti(curve_poly):
    from exphodge.derham import betti_numbers

    model = curve.cech_hypercohomology(curve.divisor_twist_level(curve_poly, 0))
    assert (model.h0, model.h1) == tuple(betti_numbers(curve_poly))
    assert model.h2 == 0


def test_total_differential_squares_to_zero(curve_poly):
    model = curve.cech_hypercohomology(curve.divisor_twist_level(curve_poly, 0))
    assert not matmul(cech_d1(model), cech_d0(model)).entries


def test_truncation_stability(curve_poly):
    K = curve.divisor_twist_level(curve_poly, 0)
    base = curve.cech_hypercohomology(K)
    bumped = curve._build_model(K, base.B + 5)
    assert base.dims == bumped.dims


def _report(f):
    return curve.compare_filtrations(f, spectrum_rank(f))


FILTRATION_VALUES = [
    ("x + x^-1", [(Q(0), 2), (Q(1), 1)]),
    ("x^2 + x^-1", [(Q(0), 3), (Q(1, 2), 2), (Q(1), 1)]),
    ("x", [(Q(0), 1), (Q(1), 1)]),
]


def test_divisor_twist_filtration_values():
    for text, expected in FILTRATION_VALUES:
        rep = _report(parse_laurent(text))
        assert list(zip(rep.jumps, rep.twist_dims)) == expected, text


def test_deligne_filtration_values():
    for text, expected in FILTRATION_VALUES:
        rep = _report(parse_laurent(text))
        assert list(zip(rep.jumps, rep.deligne_dims)) == expected, text


def test_deligne_injectivity(curve_poly):
    assert _report(curve_poly).deligne_injective


def test_compact_filtration_proper_case():
    for text in ("x + x^-1", "x^2 + x^-1"):
        rep = _report(parse_laurent(text))
        assert rep.compact_dims == rep.twist_dims


def test_compact_filtration_non_proper():
    # T = [0]: the top level of the compactly supported filtration dies,
    # making the duality pairs h^1(x) = h_c^0(-x) come out right
    rep = _report(parse_laurent("x"))
    assert (rep.jumps[0], rep.compact_dims[0]) == (Q(0), 1)
    assert (rep.jumps[-1], rep.compact_dims[-1]) == (Q(1), 0)


def test_filtration_dims_non_increasing(curve_poly):
    rep = _report(curve_poly)
    for dims in (rep.twist_dims, rep.deligne_dims, rep.compact_dims):
        assert list(dims) == sorted(dims, reverse=True)


def test_duality_examples(curve_poly):
    rep = _report(curve_poly)
    assert rep.duality_ok, rep.duality_pairs
    assert all(a == b for _, a, b in rep.duality_pairs)


def test_compare_filtrations_three_way(curve_poly):
    spec = spectrum_rank(curve_poly)
    rep = curve.compare_filtrations(curve_poly, spec)
    assert rep.dims_agree
    assert rep.subspaces_agree
    assert rep.deligne_injective
    assert rep.duality_ok
    # dims are the partial sums of the rank-route spectrum
    for lam, d in zip(rep.jumps, rep.twist_dims):
        assert d == sum(m for l, m in spec.entries if l >= lam)


def test_divisor_shift_invariance_examples():
    f1 = parse_laurent("x + x^-1")
    assert divisor_shift_invariance(f1, curve.ZERO_DIVISOR, curve.PointDivisor(0, 1))
    fx = parse_laurent("x")
    assert divisor_shift_invariance(fx, curve.ZERO_DIVISOR, curve.PointDivisor(0, 1))
    f2 = parse_laurent("x^2 + x^-1")
    # D = -S, E = red P = S realizes the compact-support identification
    assert divisor_shift_invariance(f2, curve.PointDivisor(-1, -1), curve.S_DIVISOR)


def _pole_order_jumps(f):
    """Multiples k/m of the reciprocal pole orders m at 0 and oo, with 0 and
    1: the candidate jumps of a one-variable input, read off its poles."""
    P = curve.pole_divisor(f)
    return sorted({Q(0), Q(1)} | {Q(k, e) for e in (P.m0, P.m_inf) if e for k in range(e + 1)})


def test_curve_jumps_are_pole_order_multiples():
    f = parse_laurent("x^2 + x^-1")
    assert jump_candidates(f) == _pole_order_jumps(f) == [Q(0), Q(1, 2), Q(1)]
    fx = parse_laurent("x")
    assert jump_candidates(fx) == _pole_order_jumps(fx) == [Q(0), Q(1)]


def test_jump_candidates_match_pole_orders_on_random_supports():
    """The weights of the lattice points of [-m0, m_inf] are k/m0 and k/m_inf,
    so the jump candidates of n = 1 are the pole-order multiples."""
    rng = random.Random(1313)
    for kind in ("positive", "negative", "two-sided", "rational") * 150:
        if kind == "positive":
            exps = rng.sample(range(1, 13), rng.randint(1, 4))
        elif kind == "negative":
            exps = rng.sample(range(-12, 0), rng.randint(1, 4))
        else:
            exps = rng.sample(range(-12, 0), rng.randint(1, 3)) + \
                rng.sample(range(0, 13), rng.randint(1, 3))
        den = rng.randint(1, 5) if kind == "rational" else 1
        f = make_laurent(1, {(e,): Q(rng.choice([-1, 1]) * rng.randint(1, 9), den)
                             for e in exps})
        assert jump_candidates(f) == _pole_order_jumps(f), f


def test_connection_must_map_into_degree_one_sheaf():
    f = parse_laurent("x^2 + x^-1")
    bad = curve.TwoTermComplex(curve.PointDivisor(0, 0), curve.PointDivisor(0, 0), f)
    with pytest.raises(ValueError, match="degree-1 sheaf"):
        curve.cech_hypercohomology(bad)


def test_mixed_pole_orders_regression():
    # pole orders 2 at the origin and 3 at infinity: jumps mix thirds and halves
    f = parse_laurent("x^3 + x^-2")
    rep = _report(f)
    assert [str(j) for j in rep.jumps] == ["0", "1/3", "1/2", "2/3", "1"]
    assert rep.twist_dims == (5, 4, 3, 2, 1)
    assert rep.dims_agree and rep.subspaces_agree
    assert rep.deligne_injective and rep.duality_ok


# ---------------------------------------------------------------------------
# The engine: bases of H^1, images through them, at any truncation
# ---------------------------------------------------------------------------

ENGINE_INPUTS = ["x^2 + x^-1", "x^3 + x^-2", "2*x - 3*x^-2"]


def _families(f):
    """(ambient, levels) of the three filtrations, and one truncation for all
    of them, the largest of their own."""
    jumps = jump_candidates(f)
    families = [
        (curve.divisor_twist_level(f, 0), [curve.divisor_twist_level(f, l) for l in jumps]),
        (curve.deligne_ambient(f, curve._AMBIENT_M), [curve.deligne_level(f, l) for l in jumps]),
        (curve.compact_level(f, 0), [curve.compact_level(f, l) for l in jumps]),
    ]
    B = shared_truncation([K for amb, levels in families for K in [amb] + levels])
    return families, B


@pytest.mark.parametrize("text", ENGINE_INPUTS)
def test_h1_basis_and_images_match_quotient_ranks(text):
    f = parse_laurent(text)
    families, B = _families(f)
    for ambient, levels in families:
        amb = curve._build_model(ambient, B)
        for K in [ambient] + levels:
            sub = curve._build_model(K, B)
            basis = sub.h1_basis()
            assert len(basis) == sub.h1
            assert all(z in sub.cocycles() for z in basis)
            assert image_dim_over(sub.cocycles(), cech_boundaries(sub)) == sub.h1
            assert image_dim_over(basis, cech_boundaries(sub)) == sub.h1
            assert curve.h1_image_dim(sub, amb) == \
                image_dim_over(sub.cocycles(), cech_boundaries(amb))


def test_h1_image_dim_maps_every_cocycle_when_boundaries_do_not_nest():
    # the degree-0 term of the ambient starts above the sub's: a boundary of
    # the sub need not bound in the ambient, so its H^1 basis is not enough
    f = parse_laurent("x^2 + x^-1")
    P = curve.pole_divisor(f)
    amb_K = curve.TwoTermComplex(curve.PointDivisor(-1, -1), P, f)
    sub_K = curve.TwoTermComplex(curve.ZERO_DIVISOR, P, f)
    B = shared_truncation([amb_K, sub_K])
    amb = curve._build_model(amb_K, B)
    sub = curve._build_model(sub_K, B)
    assert amb.quotient_rank(sub.h1_basis()) == 3
    assert curve.h1_image_dim(sub, amb) == \
        image_dim_over(sub.cocycles(), cech_boundaries(amb)) == 5


def test_h1_basis_size_is_checked():
    model = curve.CechModel(curve.divisor_twist_level(parse_laurent("x + x^-1"), 0), 20)
    model.h1 += 1
    with pytest.raises(IntegrityError, match="H\\^1 basis"):
        model.h1_basis()


def test_classical_and_compact_levels_are_twist_levels():
    # a level is its divisors and f: above 0 the classical level is the
    # twist level, floor((1 - lam) P) in degree 1, and the compactly supported
    # level is the twist level minus T = S - red(P)
    for text in CURVE_SUITE:
        f = parse_laurent(text)
        P = curve.pole_divisor(f)
        T = curve.S_DIVISOR - curve.reduced(P)
        for lam in jump_candidates(f):
            twist = curve.divisor_twist_level(f, lam)
            assert twist.d1 == curve.PointDivisor(floor((1 - lam) * P.m0),
                                                  floor((1 - lam) * P.m_inf))
            if lam > 0:
                classical = curve.deligne_level(f, lam)
                assert twist.d0 is None and classical == twist
                assert curve.cech_hypercohomology(classical) is curve.cech_hypercohomology(twist)
            compact = curve.compact_level(f, lam)
            assert compact.f == f and compact.d1 == twist.d1 - T
            assert compact.d0 == (None if twist.d0 is None else twist.d0 - T)
    curve._build_model.cache_clear()


def test_analyze_builds_each_model_once(monkeypatch):
    from exphodge.spectrum import analyze

    built = []
    init = curve.CechModel.__init__

    def recording_init(self, K, B):
        built.append((K.d0, K.d1, K.f, B))  # the label is not part of the model
        init(self, K, B)

    monkeypatch.setattr(curve.CechModel, "__init__", recording_init)
    curve._build_model.cache_clear()
    analyze(parse_laurent("x^2 + x^-1"))
    assert built
    assert len(set(built)) == len(built)
    # every model of f and -f sits at its own truncation, and the one
    # classical ambient is the only one built
    f = parse_laurent("x^2 + x^-1")
    assert all(b == curve.required_truncation(curve.TwoTermComplex(d0, d1, g))
               for d0, d1, g, b in built)
    ambient = curve.deligne_ambient(f, curve._AMBIENT_M)
    assert (ambient.d0, ambient.d1, f, curve.required_truncation(ambient)) in built
    others = {(K.d0, K.d1) for K in (curve.deligne_ambient(f, m) for m in range(2, 9))}
    assert not others & {(d0, d1) for d0, d1, _, _ in built}


def test_analyze_builds_no_cocycle_on_the_classical_ambient(monkeypatch):
    # the ambient serves only quotient_rank, which reads its boundary
    # echelon; every other model of the comparison reads its cocycles
    from exphodge.spectrum import analyze

    built = []
    init = curve.CechModel.__init__

    def recording_init(self, K, B):
        init(self, K, B)
        built.append(self)

    monkeypatch.setattr(curve.CechModel, "__init__", recording_init)
    for text in ("x^2 + x^-1", "3*x + 5*x^-1", "2/3*x^2 - 5/7*x^-1"):
        f = parse_laurent(text)
        built.clear()
        curve._build_model.cache_clear()
        assert analyze(f).checks["curve_comparison"].ok
        ambient = curve.deligne_ambient(f, curve._AMBIENT_M)
        assert [m.complex == ambient for m in built if m._cocycles is None] == [True], text


@pytest.mark.parametrize("text", ENGINE_INPUTS)
def test_compare_filtrations_does_not_move_with_truncation(text, monkeypatch):
    # every model's own truncation raised by 10
    f = parse_laurent(text)
    rep = _report(f)
    own, raised = curve.required_truncation, []

    def raised_truncation(K):
        raised.append(K)
        return own(K) + 10

    monkeypatch.setattr(curve, "required_truncation", raised_truncation)
    curve._build_model.cache_clear()
    assert _report(f) == rep
    assert raised
    curve._build_model.cache_clear()


def _duality_oracle(f, B):
    """The twist dims measured in their own level-0 ambient, and the duality
    pairs they give with h_c of -f measured in its own, all at truncation B."""
    jumps = jump_candidates(f)

    def dims(level, g):
        amb = curve._build_model(level(g, 0), B)
        return [curve.h1_image_dim(curve._build_model(level(g, lam), B), amb)
                for lam in jumps]

    def graded(d):
        return dict(zip(jumps, [a - b for a, b in zip(d, d[1:] + [0])]))

    twist = dims(curve.divisor_twist_level, f)
    gr, gr_c = graded(twist), graded(dims(curve.compact_level, -f))
    return tuple(twist), tuple((lam, gr[lam], gr_c[1 - lam]) for lam in jumps)


@pytest.mark.parametrize("text", list(dict.fromkeys(
    CURVE_SUITE + ENGINE_INPUTS + ["3*x + 5*x^-1", "2/3*x^2 - 5/7*x^-1"])))
def test_report_matches_separately_measured_filtrations(text):
    f = parse_laurent(text)
    rep = _report(f)
    _, B = _families(f)
    assert (rep.twist_dims, rep.duality_pairs) == _duality_oracle(f, B)
    # each classical level maps injectively: image dim = dim H^1 of the level
    amb = curve._build_model(curve.deligne_ambient(f, curve._AMBIENT_M), B)
    flags = []
    for lam, d in zip(rep.jumps, rep.deligne_dims):
        sub = curve._build_model(curve.deligne_level(f, lam), B)
        assert curve.h1_image_dim(sub, amb) == d
        flags.append(d == sub.h1)
    assert all(flags) and rep.deligne_injective


def _shifted_toric_generators(f, lam):
    """x^(k+1) dlog x in place of each toric generator x^k dlog x."""
    from exphodge.polytope import newton_polytope

    return [{("p", a[0] + 1): Q(1), ("q", a[0] + 1): Q(1)}
            for a in newton_polytope(f).lattice_points_in_dilate(1 - lam)]


_DELIGNE_LEVEL = curve.deligne_level


def _shifted_deligne_level(f, lam):
    """At lam = 1, x dlog x in place of dlog x: the same dimension, another line."""
    if lam == 1:
        return curve.TwoTermComplex(None, curve.PointDivisor(-1, 1), f)
    return _DELIGNE_LEVEL(f, lam)


@pytest.mark.parametrize("name,fake", [("_toric_generators", _shifted_toric_generators),
                                       ("deligne_level", _shifted_deligne_level)])
def test_subspace_check_sees_equal_dims_on_other_lines(monkeypatch, name, fake):
    monkeypatch.setattr(curve, name, fake)
    rep = _report(parse_laurent("x + x^-1"))
    assert rep.dims_agree
    assert not rep.subspaces_agree


# ---------------------------------------------------------------------------
# Exact integers: d1 read from the labels, no matrix kept
# ---------------------------------------------------------------------------

INTEGER_INPUTS = ["x^2 + x^-1", "x^5 + x^-3", "3*x + 5*x^-1"]
RATIONAL_INPUT = "2/3*x^2 - 5/7*x^-1"


def _all_models(f):
    """Every distinct model compare_filtrations builds for f at its one
    truncation."""
    families, B = _families(f)
    models = [curve._build_model(K, B)
              for ambient, levels in families for K in [ambient] + levels]
    return list({id(m): m for m in models}.values())


# x^5 + x^-3 is left to the cheaper checks below: the dense oracle on its
# d1 matrices takes seconds
@pytest.mark.parametrize("text", ["x^2 + x^-1", "3*x + 5*x^-1", RATIONAL_INPUT])
def test_cocycles_span_ker_d1(text):
    from test_linalg import _rank_fraction_gauss

    for model in _all_models(parse_laurent(text)):
        d1 = cech_d1(model)
        columns = d1.columns()
        index = {lab: j for j, lab in enumerate(model.labels1)}
        cocycles = model.cocycles()
        for z in cocycles:
            image = {}
            for lab, v in z.items():
                for r, w in columns[index[lab]].items():
                    image[r] = image.get(r, 0) + w * v
            assert not any(image.values())
        assert len(cocycles) == len(model.labels1) - _rank_fraction_gauss(d1)


@pytest.mark.parametrize("text", INTEGER_INPUTS)
def test_h1_basis_has_h1_classes_on_every_level(text):
    f = parse_laurent(text)
    _, B = _families(f)
    ambient = curve._build_model(curve.deligne_ambient(f, curve._AMBIENT_M), B)
    for model in [ambient] + _all_models(f):
        assert len(model.h1_basis()) == model.h1


def test_models_keep_no_matrix():
    for model in _all_models(parse_laurent("x^2 + x^-1")):
        model.h1_basis()
        assert not any(isinstance(v, SparseRationalMatrix) for v in vars(model).values())
        assert not matmul(cech_d1(model), cech_d0(model)).entries


def test_integer_input_keeps_cocycles_in_integers():
    # every d1 pivot entry is +-1, so an integral f gives integral cocycles
    for text in INTEGER_INPUTS:
        model = curve.CechModel(curve.deligne_ambient(parse_laurent(text), 4), 40)
        entries = [v for z in model.cocycles() for v in z.values()]
        assert entries and all(type(v) is int for v in entries), text


def test_rational_coefficients_pass_every_check():
    from exphodge.spectrum import analyze, spectrum_euler

    f = parse_laurent(RATIONAL_INPUT)
    report = analyze(f).to_json()
    assert {name: check["status"] for name, check in report["checks"].items()} == {
        "degeneration": "pass", "symmetry": "pass",
        "curve_comparison": "pass", "curve_duality": "pass"}
    assert spectrum_rank(f).entries == spectrum_euler(f).entries
    rep = _report(f)
    assert rep.twist_dims == (3, 2, 1)
    # x f' has non-integral coefficients: the rows mix int and Fraction
    d1 = cech_d1(curve.cech_hypercohomology(curve.divisor_twist_level(f, 0)))
    assert {v.denominator for v in d1.entries.values()} > {1}


# ---------------------------------------------------------------------------
# H^1 in the free coordinates of ker d1, against the full-coordinate quotient
# ---------------------------------------------------------------------------

def _comparison_inputs(monkeypatch):
    from conftest import corpus_inputs

    texts = dict.fromkeys(CURVE_SUITE + ENGINE_INPUTS + [RATIONAL_INPUT])
    return [parse_laurent(t) for t in texts] + corpus_inputs(monkeypatch, "curve_n1", 4242, 2)


def _recorded_comparison(f, monkeypatch):
    """What compare_filtrations does for f: every model it builds, every
    quotient_rank call (model, vectors, echelon reduced on, result) and every
    h1_image_dim call (sub, ambient, result)."""
    models, calls, images = [], [], []
    init, quotient_rank = curve.CechModel.__init__, curve.CechModel.quotient_rank
    h1_image_dim = curve.h1_image_dim

    def recording_init(self, K, B):
        init(self, K, B)
        models.append(self)

    def recording_quotient_rank(self, vecs, echelon=None):
        vecs = list(vecs)
        if echelon is None:
            echelon = self.boundary_echelon()
        calls.append((self, vecs, echelon, quotient_rank(self, vecs, echelon)))
        return calls[-1][3]

    def recording_h1_image_dim(sub, amb):
        images.append((sub, amb, h1_image_dim(sub, amb)))
        return images[-1][2]

    with monkeypatch.context() as m:
        m.setattr(curve.CechModel, "__init__", recording_init)
        m.setattr(curve.CechModel, "quotient_rank", recording_quotient_rank)
        m.setattr(curve, "h1_image_dim", recording_h1_image_dim)
        curve._build_model.cache_clear()
        _report(f)
    return models, calls, images


def test_free_coordinate_quotients_match_full_coordinates(monkeypatch):
    """H^1 bases, the ranks of the Zp, Zd and Zt vectors and their joint
    ranks, and the image dims of every level, each against the quotient by
    the boundaries in all of T^1."""
    for f in _comparison_inputs(monkeypatch):
        models, calls, images = _recorded_comparison(f, monkeypatch)
        assert models and calls and images, f
        for model in models:
            basis = model.h1_basis()
            assert len(basis) == model.h1
            assert image_dim_over(basis, cech_boundaries(model)) == model.h1, f
        # a call on an echelon that earlier calls filled counts modulo their
        # vectors too: the joint rank of Zd + Zt continues from Zp
        taken: dict[int, list] = {}
        for model, vecs, echelon, result in calls:
            before = taken.setdefault(id(echelon), [])
            assert result == image_dim_over(vecs, cech_boundaries(model) + before), f
            before.extend(vecs)
        for sub, amb, d in images:
            assert d == image_dim_over(sub.cocycles(), cech_boundaries(amb)), f
    curve._build_model.cache_clear()


@pytest.mark.parametrize("which", [0, "middle", -1])
def test_square_zero_is_checked(which, monkeypatch):
    assemble = curve.CechModel._assemble

    def one_sign_flipped(self):
        d0_columns, d1_columns = assemble(self)
        col = d0_columns[len(d0_columns) // 2 if which == "middle" else which]
        j = next(iter(col))
        col[j] = -col[j]
        return d0_columns, d1_columns

    monkeypatch.setattr(curve.CechModel, "_assemble", one_sign_flipped)
    with pytest.raises(IntegrityError, match="d1 d0"):
        curve.CechModel(curve.divisor_twist_level(parse_laurent("x^2 + x^-1"), 0), 20)


@pytest.mark.parametrize("text", list(dict.fromkeys(CURVE_SUITE + ENGINE_INPUTS
                                                    + [RATIONAL_INPUT])))
def test_quotient_rank_takes_only_cocycles(text, monkeypatch):
    quotient_rank = curve.CechModel.quotient_rank
    d1_of: dict[int, tuple] = {}
    seen = []

    def checking(self, vecs, echelon=None):
        vecs = list(vecs)
        if id(self) not in d1_of:
            d1_of[id(self)] = (self, cech_d1(self).columns())
        columns = d1_of[id(self)][1]
        index = {lab: j for j, lab in enumerate(self.labels1)}
        for vec in vecs:
            image = {}
            for lab, v in vec.items():
                for r, w in columns[index[lab]].items():
                    image[r] = image.get(r, 0) + w * v
            assert not any(image.values()), vec
        seen.extend(vecs)
        return quotient_rank(self, vecs, echelon)

    monkeypatch.setattr(curve.CechModel, "quotient_rank", checking)
    assert _report(parse_laurent(text)).subspaces_agree
    assert seen


# ---------------------------------------------------------------------------
# The two lemmas of the module docstring, against the numbers they replace
# ---------------------------------------------------------------------------

LEMMA_TEXTS = list(dict.fromkeys(
    CURVE_SUITE + ENGINE_INPUTS + ["3*x + 5*x^-1", RATIONAL_INPUT,
                                   "x^-2 + 3*x^-1", "x^3 - 2*x", "x + x^-6"]))


def _lemma_inputs(monkeypatch):
    from conftest import corpus_inputs

    return ([parse_laurent(t) for t in LEMMA_TEXTS]
            + corpus_inputs(monkeypatch, "curve_n1", 4242, 2))


def _models_analyze_builds(monkeypatch):
    """Every model analyze builds for the lemma inputs."""
    from exphodge.spectrum import analyze

    built = []
    init = curve.CechModel.__init__

    def recording_init(self, K, B):
        init(self, K, B)
        built.append(self)

    for f in _lemma_inputs(monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(curve.CechModel, "__init__", recording_init)
            curve._build_model.cache_clear()
            analyze(f)
    curve._build_model.cache_clear()
    assert len(built) > 100
    return built


def test_every_model_analyze_builds_nests_in_its_ambient(monkeypatch):
    """Each level sits at its own truncation, at most its ambient's, so all
    its labels nest in the ambient's: the classical ambient for the twist
    and the classical levels, the compactly supported level 0 of f and of
    -f for the compactly supported levels; and analyze builds no other."""
    from exphodge.spectrum import analyze

    built = []
    init = curve.CechModel.__init__

    def recording_init(self, K, B):
        init(self, K, B)
        built.append(self)

    monkeypatch.setattr(curve.CechModel, "__init__", recording_init)
    nested = 0
    for f in _lemma_inputs(monkeypatch):
        built.clear()
        curve._build_model.cache_clear()
        analyze(f)
        models = {m.complex: m for m in built}
        assert all(m.B == curve.required_truncation(m.complex) for m in built)
        jumps = jump_candidates(f)
        families = [
            (curve.deligne_ambient(f, curve._AMBIENT_M),
             [curve.divisor_twist_level(f, l) for l in jumps]
             + [curve.deligne_level(f, l) for l in jumps]),
            (curve.compact_level(f, 0), [curve.compact_level(f, l) for l in jumps]),
            (curve.compact_level(-f, 0), [curve.compact_level(-f, l) for l in jumps]),
        ]
        seen = set()
        for ambient, levels in families:
            amb = models[ambient]
            seen.add(ambient)
            for K in levels:
                sub = models[K]
                seen.add(K)
                assert sub.B <= amb.B, (f, K)
                for mine, theirs in ((sub.labels0, amb.labels0), (sub.labels1, amb.labels1),
                                     (sub.labels2, amb.labels2)):
                    assert set(mine) <= set(theirs), (f, K)
                nested += 1
        assert seen == set(models), f
    curve._build_model.cache_clear()
    assert nested > 100


def test_truncation_lemma_on_every_model_analyze_builds(monkeypatch):
    """Each model analyze builds has the dims of the same complex truncated
    further out: T_B -> T_(B+1) is a quasi-isomorphism."""
    for model in _models_analyze_builds(monkeypatch):
        for extra in (1, 5):
            assert curve.CechModel(model.complex, model.B + extra).dims == model.dims, \
                (model.complex, model.B, extra)
    curve._build_model.cache_clear()


def test_ambient_lemma_every_level_has_the_same_h1(monkeypatch):
    """Levels -M, M = 0..8, of the classical filtration have the same
    hypercohomology, and cF^0 maps onto the H^1 of each."""
    for f in _lemma_inputs(monkeypatch):
        ambients = [curve.deligne_ambient(f, M) for M in range(9)]
        level0 = curve.deligne_level(f, 0)
        B = shared_truncation(ambients + [level0])
        sub = curve._build_model(level0, B)
        for K in ambients:
            amb = curve._build_model(K, B)
            assert amb.dims == sub.dims, (f, K)
            assert curve.h1_image_dim(sub, amb) == sub.h1, (f, K)
    curve._build_model.cache_clear()


# ---------------------------------------------------------------------------
# d1 read from the labels, against an elimination of the d1 matrix
# ---------------------------------------------------------------------------

def test_d1_closed_form_against_elimination(monkeypatch):
    """h2, the cocycles and their free coordinates, against an elimination
    of cech_d1, on every model analyze builds for the lemma inputs.  Among
    them is x, where a rarest-first elimination of d1 pivots r_1 on c_0 and
    so frees p_1 where the labels free c_0."""
    models = _models_analyze_builds(monkeypatch)
    assert any(m.complex.f == parse_laurent("x") for m in models)
    for model in models:
        d1 = cech_d1(model)
        rank = exact_rank(d1)
        assert model.h2 == len(model.labels2) - rank, model.complex
        index = {lab: j for j, lab in enumerate(model.labels1)}
        cocycles = [{index[lab]: v for lab, v in z.items()} for z in model.cocycles()]
        assert len(cocycles) == len(model.labels1) - rank, model.complex
        assert not matmul(d1, SparseRationalMatrix(len(index), len(cocycles), {
            (j, i): v for i, z in enumerate(cocycles) for j, v in z.items()})).entries
        free = [index[lab] for lab in model.labels1 if model._coordinate[lab] is not None]
        assert len(free) == len(cocycles)
        for f, z in zip(free, cocycles):
            assert {g: z.get(g, 0) for g in free} == {g: int(g == f) for g in free}
        kernel = nullspace_basis(d1)
        assert image_dim_over(cocycles, kernel) == image_dim_over(kernel, cocycles) == 0


def test_degree_one_sheaf_below_minus_one_is_refused_under_a_degree_zero_term():
    f = parse_laurent("x + x^-1")
    K = curve.TwoTermComplex(curve.PointDivisor(-2, -2), curve.PointDivisor(-1, -1), f)
    with pytest.raises(ValueError, match="degree -2"):
        curve.cech_hypercohomology(K)


def test_degree_one_sheaf_below_minus_one_alone_counts_zero_rows_in_h2():
    f = parse_laurent("x + x^-1")
    model = curve.cech_hypercohomology(
        curve.TwoTermComplex(None, curve.PointDivisor(-3, 0), f))
    assert model.dims == (0, 0, 2)
    assert model.h2 == len(model.labels2) - exact_rank(cech_d1(model))
