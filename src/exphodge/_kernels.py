"""Integer scans: lattice points of a box under facet inequalities, and
common zeros of generator systems on a finite torus.

Both are vectorized numpy over int64; the call sites keep values far below
overflow.  Exact rational elimination and Groebner arithmetic live elsewhere:
those run on arbitrary precision numbers.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


def _pow_mod_array(base, e, p):
    out = np.ones_like(base)
    b = np.mod(base, p)
    while e > 0:
        if e & 1:
            out = (out * b) % p
        b = (b * b) % p
        e >>= 1
    return out


def enumerate_box_filtered(lo, hi, normals, bounds) -> np.ndarray:
    """All integer points a with lo <= a <= hi (componentwise) satisfying
    normals @ a >= bounds, in ascending lex order."""
    lo = np.asarray(lo, dtype=np.int64)
    hi = np.asarray(hi, dtype=np.int64)
    normals = np.asarray(normals, dtype=np.int64).reshape(-1, lo.shape[0])
    bounds = np.asarray(bounds, dtype=np.int64)
    if np.any(hi < lo):
        return np.empty((0, lo.shape[0]), dtype=np.int64)
    axes = [np.arange(a, b + 1, dtype=np.int64) for a, b in zip(lo, hi)]
    grid = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([g.ravel() for g in grid], axis=1)
    keep = np.all(pts @ normals.T >= bounds[None, :], axis=1)
    return pts[keep]


def torus_common_zero(exps, coeffs, offsets, nvars: int, p: int):
    """First point of (GF(p)*)^nvars where every generator vanishes, or None.

    Generators are concatenated: generator g owns the term rows
    offsets[g]..offsets[g+1].  Exponents must be nonnegative (shift Laurent
    generators first).  Scan order is lex ascending on coordinates 1..p-1.
    """
    exps = np.asarray(exps, dtype=np.int64).reshape(-1, nvars)
    coeffs = np.asarray(coeffs, dtype=np.int64)
    n_pts = (p - 1) ** nvars
    coords = np.empty((n_pts, nvars), dtype=np.int64)
    vals = np.arange(1, p, dtype=np.int64)
    for i in range(nvars):
        reps = (p - 1) ** (nvars - 1 - i)
        tiles = (p - 1) ** i
        coords[:, i] = np.tile(np.repeat(vals, reps), tiles)
    alive = np.ones(n_pts, dtype=bool)
    for g in range(len(offsets) - 1):
        acc = np.zeros(n_pts, dtype=np.int64)
        for t in range(offsets[g], offsets[g + 1]):
            term = np.full(n_pts, coeffs[t] % p, dtype=np.int64)
            for i in range(nvars):
                e = int(exps[t, i])
                if e:
                    term = (term * _pow_mod_array(coords[:, i], e, p)) % p
            acc = (acc + term) % p
        alive &= acc == 0
        if not alive.any():
            return None
    return tuple(int(v) for v in coords[np.argmax(alive)])
