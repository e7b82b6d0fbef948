"""Laurent polynomials with exact rational coefficients.

A polynomial in n torus variables is a finite map from exponent vectors
(integer n-tuples, negative entries allowed) to nonzero Fractions.  The zero
polynomial is the empty map; the parser rejects it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import ParseError

Monomial = tuple[int, ...]

_CANONICAL_VARS = ("x", "y", "z", "w")


def default_var_names(nvars: int) -> tuple[str, ...]:
    """x, y, z, w up to four variables, x1..xn beyond."""
    if nvars <= 4:
        return _CANONICAL_VARS[:nvars]
    return tuple(f"x{i}" for i in range(1, nvars + 1))


@dataclass(frozen=True)
class LaurentPolynomial:
    """Immutable term map.  Use :func:`make_laurent` rather than the raw
    constructor so zero coefficients are dropped and arities checked."""

    nvars: int
    terms: Mapping[Monomial, Fraction]
    var_names: tuple[str, ...] = field(default=())
    # Newton polytope of this input, set by polytope.newton_polytope
    _hull: object = field(default=None, init=False, repr=False, compare=False)
    # the hash, computed on first use: the term map never changes
    _hash: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.nvars < 1:
            raise ValueError("need at least one variable")
        names = self.var_names or default_var_names(self.nvars)
        object.__setattr__(self, "var_names", tuple(names))
        if len(self.var_names) != self.nvars:
            raise ValueError("variable name count does not match nvars")
        if len(set(self.var_names)) != self.nvars:
            raise ValueError(f"variable names {self.var_names} repeat a name")
        for alpha, c in self.terms.items():
            if len(alpha) != self.nvars:
                raise ValueError(f"monomial {alpha} has wrong arity")
            if not c:
                raise ValueError("stored coefficient is zero")

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.nvars, self._key()))
            object.__setattr__(self, "_hash", h)
        return h

    def __eq__(self, other):
        if self is other:
            return True
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.nvars == other.nvars and dict(self.terms) == dict(other.terms)

    def _key(self) -> tuple:
        return tuple(sorted((a, c) for a, c in self.terms.items()))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> list[Monomial]:
        return sorted(self.terms)

    def __neg__(self) -> "LaurentPolynomial":
        neg = LaurentPolynomial(self.nvars, {a: -c for a, c in self.terms.items()}, self.var_names)
        object.__setattr__(neg, "_hull", self._hull)  # same support, same hull
        return neg

    def __str__(self):
        return format_laurent(self)


def make_laurent(nvars: int, terms: Mapping[Monomial, object],
                 var_names: Sequence[str] = ()) -> LaurentPolynomial:
    """Canonicalize a term map: Fraction-ify coefficients, drop zeros."""
    clean: dict[Monomial, Fraction] = {}
    for alpha, c in terms.items():
        if type(c) is not Fraction:  # a Fraction is immutable and kept as is
            c = Fraction(c)
        if c:
            clean[tuple(alpha)] = c
    return LaurentPolynomial(nvars, clean, tuple(var_names))


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _tokenize(text: str):
    """Yield (kind, value, position); kinds: num, name, op."""
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield ("num", text[i:j], i)
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            while j < n and text[j].isdigit():
                j += 1
            yield ("name", text[i:j], i)
            i = j
            continue
        if ch in "+-*/^":
            yield ("op", ch, i)
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    yield ("end", "", n)


class _Parser:
    """Recursive descent over the grammar:

    poly     := ['-'] term (('+'|'-') term)*
    term     := atom ('*' atom)*
    atom     := rational | var ['^' ['-'] integer]
    rational := integer ['/' integer]
    """

    def __init__(self, text: str, known: Sequence[str] = ()):
        self.tokens = list(_tokenize(text))
        self.pos = 0
        self.known = known  # the variable names allowed; empty allows any

    def peek(self):
        return self.tokens[self.pos]

    def take(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_num(self, what: str) -> int:
        kind, val, at = self.take()
        if kind != "num":
            raise ParseError(f"expected {what}, found {val!r}" if val else f"expected {what}", at)
        return int(val)

    def parse(self) -> list[tuple[Fraction, dict[str, int]]]:
        terms = []
        sign = 1
        kind, val, at = self.peek()
        if kind == "op" and val in "+-":
            self.take()
            sign = -1 if val == "-" else 1
        terms.append(self.term(sign))
        while True:
            kind, val, at = self.peek()
            if kind == "end":
                return terms
            if kind == "op" and val in "+-":
                self.take()
                terms.append(self.term(-1 if val == "-" else 1))
                continue
            raise ParseError(f"expected '+' or '-', found {val!r}", at)

    def term(self, sign: int) -> tuple[Fraction, dict[str, int]]:
        coeff = Fraction(sign)
        exps: dict[str, int] = {}
        while True:
            coeff = self.atom(coeff, exps)
            kind, val, at = self.peek()
            if kind == "op" and val == "*":
                self.take()
                continue
            return coeff, exps

    def atom(self, coeff: Fraction, exps: dict[str, int]) -> Fraction:
        kind, val, at = self.take()
        if kind == "num":
            num = int(val)
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "/":
                self.take()
                den = self.expect_num("denominator")
                if den == 0:
                    raise ParseError("zero denominator", at)
                return coeff * Fraction(num, den)
            return coeff * num
        if kind == "name":
            if self.known and val not in self.known:
                raise ParseError(f"unknown variable {val!r}", at)
            e = 1
            k2, v2, _ = self.peek()
            if k2 == "op" and v2 == "^":
                self.take()
                esign = 1
                k3, v3, _ = self.peek()
                if k3 == "op" and v3 in "+-":
                    self.take()
                    esign = -1 if v3 == "-" else 1
                e = esign * self.expect_num("exponent")
            exps[val] = exps.get(val, 0) + e
            return coeff
        raise ParseError(f"expected number or variable, found {val!r}" if val
                         else "unexpected end of input", at)


def _infer_var_order(names: set[str]) -> tuple[str, ...]:
    if names <= set(_CANONICAL_VARS):
        return tuple(v for v in _CANONICAL_VARS if v in names)
    if all(n.startswith("x") and n[1:].isdigit() for n in names):
        return tuple(sorted(names, key=lambda n: int(n[1:])))
    return tuple(sorted(names))


def parse_laurent(text: str, var_names: Sequence[str] = ()) -> LaurentPolynomial:
    """Parse the ASCII grammar into a canonical term map.

    With empty ``var_names`` the variables are inferred from the text and
    ordered canonically (x, y, z, w order when applicable).
    """
    known = tuple(var_names)
    raw_terms = _Parser(text, known).parse()
    if not known:
        used = {v for _, exps in raw_terms for v in exps}
        # constant-only input: give it one ambient variable
        known = _infer_var_order(used) if used else ("x",)
    index = {v: i for i, v in enumerate(known)}
    acc: dict[Monomial, Fraction] = {}
    for coeff, exps in raw_terms:
        alpha = [0] * len(known)
        for v, e in exps.items():
            alpha[index[v]] = e
        key = tuple(alpha)
        s = acc.get(key, Fraction(0)) + coeff
        if s == 0:
            acc.pop(key, None)
        else:
            acc[key] = s
    if not acc:
        raise ParseError("f must be nonzero", 0)
    return LaurentPolynomial(len(known), acc, known)


def format_laurent(f: LaurentPolynomial) -> str:
    """Deterministic rendering: terms in descending lex order of exponents;
    re-parsing the output reproduces the term map."""
    if f.is_zero:
        return "0"
    pieces = []
    for alpha in sorted(f.terms, reverse=True):
        c = f.terms[alpha]
        factors = []
        for name, e in zip(f.var_names, alpha):
            if e == 0:
                continue
            factors.append(name if e == 1 else f"{name}^{e}")
        num, den = c.numerator, c.denominator
        mag = str(abs(num)) if den == 1 else f"{abs(num)}/{den}"
        if factors and mag == "1":
            body = "*".join(factors)
        else:
            body = "*".join([mag] + factors)
        pieces.append((num < 0, body))
    neg, body = pieces[0]
    out = ("-" if neg else "") + body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out
