"""The integer scans against plain brute-force scans."""

import os
import random
import subprocess
import sys
import textwrap
from itertools import product
from math import prod
from pathlib import Path

import pytest

import exphodge
from exphodge import _kernels


def test_backend_reported():
    assert _kernels.BACKEND == "python"


def test_analyze_loads_no_numpy():
    """A fresh interpreter runs analyze, the witness scan of the degenerate
    input included, without loading numpy."""
    code = textwrap.dedent("""
        import sys
        from exphodge import analyze, parse_laurent
        for text in ("x^2+x^-1", "x^2+y^2+x^-1*y^-1", "x^4-4*x^2*y^2+4*y^4+x^-1*y^-1"):
            report = analyze(parse_laurent(text))
        print(report.to_json()["nondegeneracy"]["witness_field"], "numpy" in sys.modules)
    """)
    env = {**os.environ, "PYTHONPATH": str(Path(exphodge.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["GF(7)", "False"]


def _box_filtered(lo, hi, normals, bounds):
    """Brute force: filter the whole box, in the lex order product() yields."""
    return [pt for pt in product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            if all(sum(n * x for n, x in zip(row, pt)) >= b
                   for row, b in zip(normals, bounds))]


def test_enumerate_box_parity():
    lo, hi = [-3, -2], [4, 3]
    normals = [[1, 1], [-1, 2], [2, -1]]
    bounds = [-2, -3, -3]
    got = _kernels.enumerate_box_filtered(lo, hi, normals, bounds)
    ref = _box_filtered(lo, hi, normals, bounds)
    assert len(ref) > 0
    assert got == ref


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_enumerate_box_seeded_parity(n):
    rng = random.Random(1000 + n)
    for _ in range(60):
        lo = [rng.randint(-4, 2) for _ in range(n)]
        # some boxes come out empty: hi below lo in one coordinate
        hi = [a + rng.randint(-1, 4) for a in lo]
        normals = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(0, 5))]
        # a last entry of 0 and a negative one in every draw
        normals += [[rng.randint(-3, 3) for _ in range(n - 1)] + [0],
                    [rng.randint(-3, 3) for _ in range(n - 1)] + [-rng.randint(1, 3)]]
        bounds = [rng.randint(-8, 2) for _ in normals]
        got = _kernels.enumerate_box_filtered(lo, hi, normals, bounds)
        assert got == _box_filtered(lo, hi, normals, bounds)


def test_enumerate_empty_box():
    assert _kernels.enumerate_box_filtered([1], [0], [[1]], [0]) == []
    assert _kernels.enumerate_box_filtered([0, 1], [3, 0], [[1, 1]], [0]) == []


def _first_common_zero(gens, nvars, p):
    """Brute force: gens is a list of {exponent: coefficient} maps."""
    for pt in product(range(1, p), repeat=nvars):
        if all(sum(c * prod(x ** e for x, e in zip(pt, a)) for a, c in g.items()) % p == 0
               for g in gens):
            return pt
    return None


def _terms(gens, p):
    return [[(c % p, a) for a, c in g.items()] for g in gens]


def test_torus_common_zero_parity():
    # generators x + y, x - y over GF(5): common zero needs x = y and 2x = 0
    gens = [{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}]
    hit = _kernels.torus_common_zero(_terms(gens, 5), 2, 5)
    assert hit is None
    assert hit == _first_common_zero(gens, 2, 5)

    # (x + y)^2 expanded: zero at x = 1, y = p - 1
    gens = [{(2, 0): 1, (1, 1): 2, (0, 2): 1}]
    hit = _kernels.torus_common_zero(_terms(gens, 7), 2, 7)
    assert hit == _first_common_zero(gens, 2, 7)
    x, y = hit
    assert (x + y) % 7 == 0


@pytest.mark.parametrize("n", [1, 2, 3])
def test_torus_common_zero_seeded_parity(n):
    rng = random.Random(2000 + n)
    outcomes = set()
    for p in (3, 5, 7, 11, 13):
        for _ in range(12):
            gens = []
            for _ in range(rng.randint(1, 3)):
                g = {}
                for _ in range(rng.randint(1, 4)):
                    g[tuple(rng.randint(0, 4) for _ in range(n))] = rng.randint(-6, 6)
                gens.append(g)
            hit = _kernels.torus_common_zero(_terms(gens, p), n, p)
            assert hit == _first_common_zero(gens, n, p)
            outcomes.add(hit is None)
    assert outcomes == {True, False}  # the draws hold both hits and misses
