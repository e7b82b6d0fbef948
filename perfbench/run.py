"""Pipeline benchmark of exphodge, measured from outside the package.

    python3 perfbench/run.py --workload toric_rank --seed 1 --seconds 40 --trace 0

One process, one client, a closed loop: each input is handed to exphodge only
after the previous result is back, and nothing runs in parallel.  The corpus
(see ``corpus.py``) is built from ``--seed``; the run repeats passes over its
shapes, each with fresh coefficients, for as many whole passes as fit in
``--seconds`` (at least one), and checks every output (see ``oracle.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the
metrics are the end-to-end ones:

  corpus_s        median wall time of one pass over the workload's shapes
  slowest_op_s    mean wall time of the slowest quarter of the run's inputs (at
                  least one): the tail a user waits on, averaged so that one
                  noisy input does not decide it
  setup_s         median, over fresh interpreters, of importing exphodge and
                  building the corpus
  peak_rss_mb     ru_maxrss of this process after its first two passes (a fixed
                  amount of work, however many passes fit in --seconds)
  verified_ratio  operations that returned and agreed with every oracle, over
                  operations attempted (1 - error rate)
  decided_ratio   operations whose answer is a verdict, not a budget outcome,
                  over operations attempted (1 - undecided rate)

With ``--trace 1`` passes alternate between untraced and traced (see
``tracer.py``), and the metrics are the per-layer ones: the median over
traced passes of each layer's per-pass calls, self and total seconds and
cache hit ratios, plus ``trace.corpus_s`` and ``trace.untraced_corpus_s``
side by side and their ratio ``trace.overhead_ratio``.

A record of the run (machine facts, workload, seed, coefficient distribution,
every operation, and under tracing every span) goes to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import corpus as corpus_mod
from oracle import check_analysis, check_screen

SETUP_PROBES = 5
OUT = corpus_mod.HERE / "out"


def _args(argv):
    ap = argparse.ArgumentParser(description="exphodge pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=("curve_n1", "toric_rank", "screen"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    return args


def machine_facts() -> dict:
    import numpy

    from exphodge import _kernels

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "kernels_backend": _kernels.BACKEND}


def measure_setup(workload: str, seed: int) -> float:
    """Median wall time of `import exphodge` plus corpus generation, each in a
    fresh interpreter."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(corpus_mod.HERE / "corpus.py"),
                        "--workload", workload, "--seed", str(seed)],
                       check=True, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_op(workload, inp, ref: dict):
    """Run one input; returns (seconds, errors, undecided)."""
    from exphodge import analyze, is_nondegenerate, newton_polytope, spectrum_euler

    t0 = time.perf_counter()
    try:
        if workload.op == "analyze":
            report = analyze(inp.f)
            seconds = time.perf_counter() - t0
            errors, undecided = check_analysis(inp.shape, ref, report)
        else:
            verdict = is_nondegenerate(inp.f, certify=True)
            poly = newton_polytope(inp.f)
            nvol = poly.normalized_volume()
            spectrum = None if verdict.is_degenerate else spectrum_euler(inp.f)
            seconds = time.perf_counter() - t0
            errors, undecided = check_screen(inp.shape, ref, verdict, nvol, spectrum,
                                             poly.contains_origin_interior())
    except Exception as exc:  # an input that raises is a failed operation
        seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        errors, undecided = [f"raised {type(exc).__name__}: {exc}"], False
    return seconds, errors, undecided


def main(argv=None) -> int:
    args = _args(argv)
    if not (corpus_mod.SRC / "exphodge" / "__init__.py").is_file():
        print(f"exphodge sources not found under {corpus_mod.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(corpus_mod.SRC))

    reference = corpus_mod.load_reference()
    workload = corpus_mod.workloads(reference)[args.workload]
    refs = reference[workload.name]
    corpus = corpus_mod.build_corpus(workload, args.seed)
    setup_s = None if args.trace else measure_setup(workload.name, args.seed)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    ops, untraced_s, traced_s, layer_samples = [], [], [], []
    peak_rss_mb = None
    start = time.perf_counter()
    for k, batch in enumerate(corpus):
        # start a pass only if a typical pass still ends within --seconds
        done = untraced_s + traced_s
        late = bool(done) and time.perf_counter() - start + statistics.median(done) > args.seconds
        if late and (tracer is None or traced_s):
            break
        traced = tracer is not None and k % 2 == 1
        if traced:
            tracer.start()
        t0 = time.perf_counter()
        try:
            for inp in batch:
                if traced:
                    tracer.op = len(ops)
                seconds, errors, undecided = run_op(workload, inp, refs[inp.shape.key])
                ops.append({"pass": k, "shape": inp.shape.key, "input": inp.text,
                            "seconds": seconds, "errors": errors, "undecided": undecided})
                for e in errors:
                    print(f"FAIL {workload.name} {inp.text}: {e}", file=sys.stderr)
        finally:
            if traced:
                layer_samples.append(tracer.stop())
        (traced_s if traced else untraced_s).append(time.perf_counter() - t0)
        if k <= 1:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(ops)
    failed = sum(1 for op in ops if op["errors"])
    undecided = sum(1 for op in ops if op["undecided"] and not op["errors"])
    if tracer is None:
        times = sorted(op["seconds"] for op in ops)
        metrics = {
            "corpus_s": (statistics.median(untraced_s), "s"),
            "slowest_op_s": (statistics.mean(times[-max(1, len(times) // 4):]), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "verified_ratio": ((attempted - failed) / attempted, "ratio"),
            "decided_ratio": ((attempted - undecided) / attempted, "ratio"),
        }
    else:
        from tracer import median_metrics

        layers = median_metrics(layer_samples)
        metrics = {name: (value, "s" if name.endswith("_s") else
                          "ratio" if name.endswith("_ratio") else "count")
                   for name, value in layers.items()}
        metrics["trace.corpus_s"] = (statistics.median(traced_s), "s")
        metrics["trace.untraced_corpus_s"] = (statistics.median(untraced_s), "s")
        metrics["trace.overhead_ratio"] = (
            metrics["trace.corpus_s"][0] / metrics["trace.untraced_corpus_s"][0], "ratio")

    record = {
        "workload": workload.name, "why": workload.why, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "coefficients": workload.coefficients, "loop": "closed, one client",
        "machine": machine_facts(), "reference_commit": reference["commit"],
        "passes": {"untraced_s": untraced_s, "traced_s": traced_s},
        "undecided": undecided, "metrics": {k: v for k, (v, _) in metrics.items()},
        "ops": ops,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    with open(out_file, "w") as fh:
        json.dump({**record, "spans": tracer.spans if tracer else []}, fh)

    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}")
    print(json.dumps({k: record[k] for k in
                      ("workload", "seed", "coefficients", "why", "machine")}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
