"""Seeded input corpora for the pipeline benchmark.

A workload is a fixed list of input shapes (supports).  One *pass* runs every
shape once, in a seeded order, with freshly drawn coefficients; a run repeats
passes until its time is up.  The spectrum of a nondegenerate input depends
only on its Newton polytope, so a stored per-shape reference checks every
draw, and every pass costs about the same whatever the seed.

No input repeats within a process, and no input is the negative of another
(``check_symmetry`` and the curve duality evaluate ``-f``).  The module-global
``lru_cache``s in ``derham`` and ``curve`` are keyed on ``f``: a repeated input
would be served from them, and the benchmark would time cache hits that the
per-input analysis context of a later change removes.  For the same reason
the benchmark does no warm-up ``analyze`` on a corpus member.

Run as a script, this module imports exphodge and builds one corpus; the
benchmark times that in a fresh interpreter as its set-up cost::

    python3 perfbench/corpus.py --workload toric_rank --seed 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"

# Passes built per run.  A run stops early if it exhausts them; at today's
# speed a run uses fewer than ten.
MAX_PASSES = 64

INTEGER = "integer uniform on +-[1, 9]"
SMALL = "numerator uniform on +-[1, 9], denominator uniform on [1, 3]"
LARGE = ("numerator uniform on +-[1, 10^6], denominator uniform on [1, 3]; "
         "planted edge s*(u + v*t)^2 with s in +-[1, 9], u, v in +-[1, 5]")


@dataclass(frozen=True)
class Shape:
    """One input family: a support, and how its coefficients are drawn."""

    key: str
    nvars: int
    support: tuple[tuple[int, ...], ...]
    kind: str = "generic"           # "generic" | "kloosterman" | "square" | "planted"
    edge: tuple[tuple[int, ...], ...] = ()   # planted degenerate edge, in order


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    op: str                         # "analyze" | "screen"
    coefficients: str
    draw: Callable[[random.Random], Fraction]
    shapes: tuple[Shape, ...]


@dataclass(frozen=True)
class Input:
    shape: Shape
    f: object                       # exphodge.LaurentPolynomial
    text: str


def _shape(key: str, nvars: int, support, kind: str = "generic") -> Shape:
    return Shape(key, nvars, tuple(tuple(e) for e in support), kind)


_CURVE = (
    _shape("a*x+b*x^-1", 1, [(1,), (-1,)]),
    _shape("a*x^2+b*x^-1", 1, [(2,), (-1,)]),
    _shape("a*x+b*x^-2", 1, [(1,), (-2,)]),
)

_TORIC = (
    _shape("x^4+y^4+x^-2*y^-2", 2, [(4, 0), (0, 4), (-2, -2)]),
    _shape("x^3+y^4+x^-2*y^-1", 2, [(3, 0), (0, 4), (-2, -1)]),
    _shape("x^5+y^3+x^-2*y^-3", 2, [(5, 0), (0, 3), (-2, -3)]),
    _shape("x^6+y^4+x^-1*y^-3", 2, [(6, 0), (0, 4), (-1, -3)]),
    _shape("x^2+y^2+z^2+x^-1*y^-1*z^-1", 3,
           [(2, 0, 0), (0, 2, 0), (0, 0, 2), (-1, -1, -1)]),
    _shape("x+y+z+x^-1*y^-1*z^-1", 3,
           [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)], "kloosterman"),
    _shape("(a*x+b*y)^2+c*x^-1*y^-1", 2, [(2, 0), (1, 1), (0, 2), (-1, -1)], "square"),
)


def screen_shapes(reference: dict) -> tuple[Shape, ...]:
    """The screening pool, stored with its reference values."""
    return tuple(
        Shape(key, 3, tuple(tuple(e) for e in entry["support"]),
              "planted" if entry["edge"] else "generic",
              tuple(tuple(e) for e in entry["edge"]))
        for key, entry in reference["screen"].items())


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)


def workloads(reference: dict) -> dict[str, Workload]:
    return {
        "curve_n1": Workload(
            "curve_n1",
            "analyze on one-variable inputs: loads the curve engine and Bareiss on "
            "the Cech ambients; polytope and groebner stay nearly idle",
            "analyze", INTEGER, _integer, _CURVE),
        "toric_rank": Workload(
            "toric_rank",
            "analyze on n=2,3 simplices: loads derham, spectrum and linalg (rank "
            "route run 4x per input); the curve engine never runs",
            "analyze", SMALL, _small, _TORIC),
        "screen": Workload(
            "screen",
            "certified nondegeneracy, volume and Euler spectrum on {-1,0,1}^3 "
            "supports: loads polytope, nondegen, groebner and kernels; ranks no matrix",
            "screen", LARGE, _large, screen_shapes(reference)),
    }


# ---------------------------------------------------------------------------
# Coefficient draws
# ---------------------------------------------------------------------------

def _integer(rng: random.Random) -> Fraction:
    # Denominators roughly double the cost of a one-variable analysis, and
    # mixing them in makes the cost of a pass depend on the draw.
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))


def _small(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 3))


def _large(rng: random.Random) -> Fraction:
    # Wide numerators make an accidental degeneracy of a "generic" draw
    # (a discriminant hit on some face) vanishingly unlikely.
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 10 ** 6), rng.randint(1, 3))


def _terms(shape: Shape, rng: random.Random, draw) -> dict:
    if shape.kind == "square":
        # (a*x + b*y)^2 + c/(x*y): the edge x^2, x*y, y^2 is a perfect square,
        # so the input is degenerate for every draw
        a, b, c = _small(rng), _small(rng), _small(rng)
        return {(2, 0): a * a, (1, 1): 2 * a * b, (0, 2): b * b, (-1, -1): c}
    if shape.kind == "planted":
        # s*(u + v*t)^2 along a cube edge that is an edge of the polytope: a
        # double root on that face, so the input is degenerate for every draw
        terms = {e: draw(rng) for e in shape.support}
        s = rng.choice((-1, 1)) * rng.randint(1, 9)
        u = rng.choice((-1, 1)) * rng.randint(1, 5)
        v = rng.choice((-1, 1)) * rng.randint(1, 5)
        for e, c in zip(shape.edge, (s * u * u, 2 * s * u * v, s * v * v)):
            terms[e] = Fraction(c)
        return terms
    return {e: draw(rng) for e in shape.support}


def _identity(f) -> tuple:
    """Key of f up to sign: f and -f share cache entries inside exphodge."""
    pos = tuple(sorted(f.terms.items()))
    neg = tuple(sorted((e, -c) for e, c in f.terms.items()))
    return (f.nvars, min(pos, neg))


def build_corpus(workload: Workload, seed: int, passes: int = MAX_PASSES) -> list[list[Input]]:
    """`passes` passes of every shape, seeded; raises if an input repeats."""
    from exphodge import format_laurent, make_laurent

    rng = random.Random(f"{workload.name}:{seed}")
    seen: set = set()
    corpus = []
    for _ in range(passes):
        order = list(workload.shapes)
        rng.shuffle(order)
        batch = []
        for shape in order:
            while True:
                f = make_laurent(shape.nvars, _terms(shape, rng, workload.draw))
                if _identity(f) not in seen:
                    break
            seen.add(_identity(f))
            batch.append(Input(shape, f, format_laurent(f)))
        corpus.append(batch)
    inputs = [inp.f for batch in corpus for inp in batch]
    if len({_identity(f) for f in inputs}) != len(inputs):
        raise RuntimeError("corpus repeats an input up to sign")
    return corpus


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    reference = load_reference()
    build_corpus(workloads(reference)[args.workload], args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
