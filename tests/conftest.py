import importlib.util
import sys
from pathlib import Path

import pytest

from exphodge.laurent import parse_laurent

# the running examples: (input text, normalized volume)
SUITE = [
    ("x", 1),
    ("x + x^-1", 2),
    ("x^2 + x^-1", 3),
    ("x + y", 1),
    ("x + y + x^-1*y^-1", 3),
]

CURVE_SUITE = ["x", "x + x^-1", "x^2 + x^-1"]

# degenerate inputs: each has a face whose ideal is not (1)
DEGENERATE = ["x^2 + 2*x*y + y^2", "x^2 - 2*x*y + y^2 + x^-1*y^-1",
              "x^4 - 4*x^2*y^2 + 4*y^4 + x^-1*y^-1", "4*x^2 + 4*x*y + y^2 + x^-1*y^-1"]

# two inputs whose top face z = 1 holds six terms (e = 3): the triangle
# 3 * conv{0, e1, e2}, of width 3 in every lattice direction, whose face is
# empty; and 2 * conv{0, e1, e2}, of width 2, whose face polynomial
# (x + 2y - 1)(2x + y + 1) is singular at the torus point (-1, 1)
WIDE_FACE = "z + 2*x^3*z + 3*y^3*z - 5*x*y*z + 7*x^2*z - 11*y^2*z + x^-1*y^-1*z^-1"
PLANTED_NARROW_FACE = "2*x^2*z + 5*x*y*z + 2*y^2*z - x*z + y*z - z + x^-1*y^-1*z^-2"

CORPUS_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"


def corpus_inputs(monkeypatch, workload, seed, passes):
    """Seeded passes of a benchmark workload, built by the benchmark's own
    corpus module (loaded from its file, never modified)."""
    spec = importlib.util.spec_from_file_location("perfbench_corpus", CORPUS_PATH)
    corpus = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, corpus)  # dataclasses look it up
    spec.loader.exec_module(corpus)
    chosen = corpus.workloads(corpus.load_reference())[workload]
    return [inp.f for batch in corpus.build_corpus(chosen, seed, passes) for inp in batch]


@pytest.fixture(params=[text for text, _ in SUITE], ids=lambda t: t.replace(" ", ""))
def suite_poly(request):
    return parse_laurent(request.param)


@pytest.fixture(params=CURVE_SUITE, ids=lambda t: t.replace(" ", ""))
def curve_poly(request):
    return parse_laurent(request.param)
