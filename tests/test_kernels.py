"""The integer scans against plain-Python brute-force scans."""

from itertools import product
from math import prod

import numpy as np

from exphodge import _kernels


def test_backend_reported():
    assert _kernels.BACKEND == "numpy"


def test_enumerate_box_parity():
    lo = np.array([-3, -2], dtype=np.int64)
    hi = np.array([4, 3], dtype=np.int64)
    normals = np.array([[1, 1], [-1, 2], [2, -1]], dtype=np.int64)
    bounds = np.array([-2, -3, -3], dtype=np.int64)
    ref = [pt for pt in product(range(-3, 5), range(-2, 4))
           if all(sum(n * x for n, x in zip(row, pt)) >= b
                  for row, b in zip(normals.tolist(), bounds.tolist()))]
    got = _kernels.enumerate_box_filtered(lo, hi, normals, bounds)
    assert got.shape == (len(ref), 2)
    # lex ascending order, as product() yields it
    assert [tuple(r) for r in got.tolist()] == ref


def test_enumerate_empty_box():
    out = _kernels.enumerate_box_filtered([1], [0], [[1]], [0])
    assert out.shape == (0, 1)


def _first_common_zero(gens, nvars, p):
    """Brute force: gens is a list of {exponent: coefficient} maps."""
    for pt in product(range(1, p), repeat=nvars):
        if all(sum(c * prod(x ** e for x, e in zip(pt, a)) for a, c in g.items()) % p == 0
               for g in gens):
            return pt
    return None


def test_torus_common_zero_parity():
    # generators x + y, x - y over GF(5): common zero needs x = y and 2x = 0
    exps = [(1, 0), (0, 1), (1, 0), (0, 1)]
    coeffs = [1, 1, 1, -1]
    offsets = [0, 2, 4]
    gens = [{(1, 0): 1, (0, 1): 1}, {(1, 0): 1, (0, 1): -1}]
    hit = _kernels.torus_common_zero(exps, coeffs, offsets, 2, 5)
    assert hit is None
    assert hit == _first_common_zero(gens, 2, 5)

    # (x + y)^2 expanded: zero at x = 1, y = p - 1
    exps = [(2, 0), (1, 1), (0, 2)]
    coeffs = [1, 2, 1]
    offsets = [0, 3]
    hit = _kernels.torus_common_zero(exps, coeffs, offsets, 2, 7)
    assert hit == _first_common_zero([{(2, 0): 1, (1, 1): 2, (0, 2): 1}], 2, 7)
    x, y = hit
    assert (x + y) % 7 == 0
