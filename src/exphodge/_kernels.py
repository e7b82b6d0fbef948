"""Integer scans: lattice points of a box under facet inequalities, and
common zeros of generator systems on a finite torus.

Both run on Python integers, so no input size can overflow them.  Exact
rational elimination and Groebner arithmetic live elsewhere.
"""

from __future__ import annotations

from itertools import product
from math import prod
from operator import mul
from typing import Optional, Sequence

BACKEND = "python"


def enumerate_box_filtered(lo, hi, normals, bounds) -> list[tuple[int, ...]]:
    """All integer points a with lo <= a <= hi (componentwise) satisfying
    <normal, a> >= bound for every normal and its bound, in ascending lex
    order.

    For each prefix of the leading coordinates the inequalities leave the
    last coordinate an interval, read off by ceil and floor division.
    """
    rows = [(u[:-1], u[-1], b) for u, b in zip(normals, bounds)]
    out = []
    for prefix in product(*(range(a, b + 1) for a, b in zip(lo[:-1], hi[:-1]))):
        first, last = lo[-1], hi[-1]
        for head, u_last, bound in rows:
            rest = bound - sum(map(mul, head, prefix))
            if u_last > 0:
                first = max(first, -(-rest // u_last))
            elif u_last < 0:
                last = min(last, rest // u_last)
            elif rest > 0:
                last = first - 1
            if first > last:
                break
        out.extend(prefix + (x,) for x in range(first, last + 1))
    return out


def torus_common_zero(gens: Sequence[Sequence[tuple[int, Sequence[int]]]],
                      nvars: int, p: int) -> Optional[tuple[int, ...]]:
    """First point of (GF(p)*)^nvars where every generator vanishes, or None.

    Each generator is a list of (coefficient mod p, exponent) terms with
    nonnegative exponents.  The scan runs
    lex ascending on coordinates 1..p-1 and leaves a point at the first
    generator that does not vanish there.
    """
    for pt in product(range(1, p), repeat=nvars):
        if all(sum(c * prod(map(pow, pt, e)) for c, e in terms) % p == 0
               for terms in gens):
            return pt
    return None
