"""Write ``reference.json``: the stored per-shape oracle of the benchmark.

For every shape of every workload this computes the normalized volume, the
degeneracy class and the top-degree spectrum on REFERENCE_DRAWS independent
coefficient draws.  A value is stored only where the draws agree and, for a
nondegenerate shape, where the Euler and rank routes agree; otherwise the
script fails.  It also draws the screening pool: 10-14-term supports in
{-1,0,1}^3, a quarter of them with a planted degenerate cube edge.

    python3 perfbench/make_reference.py

Run it once per change to exphodge's answers, never to make a run pass.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
from dataclasses import replace

import corpus as corpus_mod
from oracle import spectrum_json

REFERENCE_DRAWS = 3
POOL_SEED = 20120310
POOL_GENERIC = 6
POOL_PLANTED = 2


def _commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                             text=True, cwd=corpus_mod.HERE, check=True)
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return out.stdout.strip()


def _reference_of(shape, draws, op: str) -> dict:
    from exphodge import analyze, is_nondegenerate, newton_polytope, spectrum_euler

    values = []
    for f in draws:
        poly = newton_polytope(f)
        if op == "analyze":
            report = analyze(f)
            degenerate = report.nondegeneracy.is_degenerate
            rank = report.spectra["rank"]
            if not degenerate and report.spectra["euler"].entries != rank.entries:
                raise SystemExit(f"{shape.key}: Euler and rank routes differ on {f}")
            if any(c.status == "fail" for c in report.checks.values()):
                raise SystemExit(f"{shape.key}: a check fails on {f}")
            spectrum = spectrum_json(rank)
        else:
            report = is_nondegenerate(f, certify=True)
            if any(c.verdict == "budget exceeded" for c in report.faces):
                raise SystemExit(f"{shape.key}: budget exceeded on {f}")
            degenerate = report.is_degenerate
            spectrum = None if degenerate else spectrum_json(spectrum_euler(f))
        values.append({"nvol": poly.normalized_volume(), "degenerate": degenerate,
                       "spectrum": spectrum})
    if any(v != values[0] for v in values):
        raise SystemExit(f"{shape.key}: draws disagree: {values}")
    if op == "screen" and not values[0]["degenerate"]:
        _confirm_rank(shape, values[0]["spectrum"])
    return values[0]


def _confirm_rank(shape, spectrum: list) -> None:
    """Euler = rank on the polytope of a screening shape.

    The rank route is run on a certified nondegenerate draw with one-digit
    integer coefficients: on the benchmark's six-digit draws exact elimination
    takes minutes, and the spectrum of a nondegenerate input depends on its
    polytope only.
    """
    from exphodge import is_nondegenerate, make_laurent, spectrum_euler, spectrum_rank

    rng = random.Random(f"{POOL_SEED}:{shape.key}")
    for _ in range(5):
        f = make_laurent(3, {e: rng.choice((-1, 1)) * rng.randint(1, 9) for e in shape.support})
        if is_nondegenerate(f, certify=True).verdict == "nondegenerate":
            break
    else:
        raise SystemExit(f"{shape.key}: no certified nondegenerate small draw")
    rank = spectrum_rank(f)
    if rank.entries != spectrum_euler(f).entries or spectrum_json(rank) != spectrum:
        raise SystemExit(f"{shape.key}: Euler and rank routes differ on {f}")


def _pool(rng: random.Random) -> list[dict]:
    from exphodge import make_laurent, newton_polytope

    cube = [p for p in itertools.product((-1, 0, 1), repeat=3) if any(p)]
    edges = []
    for axis in range(3):
        for signs in itertools.product((-1, 1), repeat=2):
            fixed = iter(signs)
            base = [None if i == axis else next(fixed) for i in range(3)]
            edges.append(tuple(tuple(t if x is None else x for x in base) for t in (-1, 0, 1)))
    pool, seen = [], set()
    while len(pool) < POOL_GENERIC + POOL_PLANTED:
        planted = len(pool) >= POOL_GENERIC
        size = rng.randint(10, 14)
        edge = rng.choice(edges) if planted else ()
        rest = [p for p in cube if p not in edge]
        support = tuple(sorted(edge + tuple(rng.sample(rest, size - len(edge)))))
        if support in seen:
            continue
        if newton_polytope(make_laurent(3, {e: 1 for e in support})).dim != 3:
            continue
        seen.add(support)
        pool.append({"support": [list(e) for e in support], "edge": [list(e) for e in edge]})
    return pool


def _write(reference: dict) -> None:
    """One line per shape, so a changed reference value is a one-line diff."""
    lines = []
    for key, value in reference.items():
        if isinstance(value, dict):
            body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in value.items())
            lines.append(f" {json.dumps(key)}: {{\n{body}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    with open(corpus_mod.REFERENCE, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


def main() -> int:
    sys.path.insert(0, str(corpus_mod.SRC))
    reference = {"commit": _commit(), "draws": REFERENCE_DRAWS, "pool_seed": POOL_SEED}
    rng = random.Random(POOL_SEED)
    pool = _pool(rng)
    reference["screen"] = {f"pool{k:02d}": entry for k, entry in enumerate(pool)}
    for name, workload in corpus_mod.workloads(reference).items():
        table = {}
        for shape in workload.shapes:
            draws = [inp.f for batch in corpus_mod.build_corpus(
                         replace(workload, shapes=(shape,)), POOL_SEED, REFERENCE_DRAWS)
                     for inp in batch]
            ref = _reference_of(shape, draws, workload.op)
            print(f"{name} {shape.key}: {ref}", flush=True)
            if name == "screen":
                if ref["degenerate"] != bool(shape.edge):
                    raise SystemExit(f"{shape.key}: verdict does not match its construction")
                table[shape.key] = {**reference["screen"][shape.key], **ref}
            else:
                table[shape.key] = ref
        reference[name] = table
    _write(reference)
    return 0


if __name__ == "__main__":
    sys.exit(main())
