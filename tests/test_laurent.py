import random
from fractions import Fraction

import pytest

from exphodge.errors import ParseError
from exphodge.laurent import LaurentPolynomial, format_laurent, make_laurent, parse_laurent


def test_parse_basic():
    f = parse_laurent("x + x^-1", ("x",))
    assert dict(f.terms) == {(1,): 1, (-1,): 1}


def test_equal_polynomials_hash_equal():
    # equality ignores the variable names, so the hash must too
    f, g = parse_laurent("x + y"), parse_laurent("a + b")
    assert f == g and f.var_names != g.var_names
    assert hash(f) == hash(g)
    assert len({f, g}) == 1
    assert parse_laurent("x + 2*y") != f and len({f, parse_laurent("x + 2*y")}) == 2


def test_parse_rational_coefficients():
    f = parse_laurent("3/2*x^2*y^-1 - 1", ("x", "y"))
    assert dict(f.terms) == {(2, -1): Fraction(3, 2), (0, 0): -1}


def test_parse_syntax_error_position():
    with pytest.raises(ParseError) as exc:
        parse_laurent("x + + y")
    assert exc.value.position == 4


def test_parse_rejects_zero():
    with pytest.raises(ParseError, match="nonzero"):
        parse_laurent("x - x")


def test_parse_unknown_variable():
    with pytest.raises(ParseError, match="unknown variable"):
        parse_laurent("x + t", ("x",))


@pytest.mark.parametrize("text,names,position", [
    ("xx + x", ("xx",), 5),
    ("y*x2 + x", ("y", "x2"), 7),
    ("zz + z^2", ("zz",), 5),
], ids=["xx", "x2", "zz"])
def test_unknown_variable_points_at_its_own_token(text, names, position):
    # the unknown name is a substring of a known one that comes first
    with pytest.raises(ParseError, match="unknown variable") as exc:
        parse_laurent(text, names)
    assert exc.value.position == position


def test_repeated_variable_names_are_rejected():
    # a repeated name would collapse in the parser's index and leave a
    # phantom variable
    for names in (("x", "x"), ("x", "y", "x")):
        with pytest.raises(ValueError, match="repeat a name"):
            parse_laurent("x + x^-1", names)
    with pytest.raises(ValueError, match="repeat a name"):
        make_laurent(2, {(1, 0): 1, (0, 1): 1}, ("y", "y"))


def test_parse_infers_canonical_order():
    f = parse_laurent("y + x")
    assert f.var_names == ("x", "y")
    assert dict(f.terms) == {(1, 0): 1, (0, 1): 1}


def test_parse_term_collection():
    f = parse_laurent("x + x + y")
    assert f.terms[(1, 0)] == 2


def test_format_examples():
    assert format_laurent(make_laurent(1, {(1,): 1, (-1,): 1})) == "x + x^-1"
    assert format_laurent(make_laurent(2, {(0, 0): -1})) == "-1"
    assert format_laurent(make_laurent(2, {(2, -1): Fraction(3, 2)})) == "3/2*x^2*y^-1"
    assert format_laurent(make_laurent(1, {(1,): -1})) == "-x"
    assert format_laurent(make_laurent(1, {(-1,): Fraction(-1, 2)})) == "-1/2*x^-1"
    assert format_laurent(make_laurent(1, {(2,): 1, (1,): Fraction(-3, 2), (0,): 1})) \
        == "x^2 - 3/2*x + 1"
    assert format_laurent(make_laurent(2, {(1, 0): 1, (0, 0): Fraction(-1, 3)})) == "x - 1/3"


def _random_poly(rng: random.Random) -> LaurentPolynomial:
    n = rng.randint(1, 4)
    terms = {}
    for _ in range(rng.randint(1, 8)):
        alpha = tuple(rng.randint(-4, 4) for _ in range(n))
        num = rng.randint(-9, 9)
        den = rng.randint(1, 9)
        if num:
            terms[alpha] = Fraction(num, den)
    if not terms:
        terms[(1,) * n] = Fraction(1)
    return make_laurent(n, terms)


def test_roundtrip_randomized():
    rng = random.Random(20260809)
    done = 0
    while done < 150:
        f = _random_poly(rng)
        text = format_laurent(f)
        g = parse_laurent(text, f.var_names)
        assert dict(g.terms) == dict(f.terms), text
        done += 1


def test_float_coefficient_is_rejected():
    # 0.1 is stored as 3602879701896397/36028797018963968, not 1/10
    with pytest.raises(TypeError, match=r"0\.1 of the monomial \(1,\)"):
        make_laurent(1, {(1,): 0.1, (-1,): 1})
    with pytest.raises(TypeError, match=r"\(0, -1\)"):
        make_laurent(2, {(1, 0): 1, (0, -1): 2.0})
    f = make_laurent(1, {(1,): "1/10", (-1,): 1, (2,): Fraction(3, 7)})
    assert dict(f.terms) == {(1,): Fraction(1, 10), (-1,): 1, (2,): Fraction(3, 7)}


def test_exponent_plus_sign():
    assert dict(parse_laurent("x^+2").terms) == {(2,): 1}
