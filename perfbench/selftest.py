"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seed N]

Checks that
  * the same seed builds an identical corpus, for every workload;
  * another seed builds a different corpus, whose first pass has no error;
  * installing and removing the tracer leaves every attribute of every
    exphodge namespace, and of every patched class, `is`-identical to the
    original.
Exits 1 on the first failed check.
"""

from __future__ import annotations

import argparse
import sys

import corpus as corpus_mod


def _texts(workload, seed: int, passes: int) -> list[str]:
    return [inp.text for batch in corpus_mod.build_corpus(workload, seed, passes)
            for inp in batch]


def _snapshot(tracer_mod) -> dict:
    names = [k for k in sys.modules if k == "exphodge" or k.startswith("exphodge.")]
    snap = {("module", k, key): value for k in names for key, value in vars(sys.modules[k]).items()}
    for _layer, module, attr in tracer_mod.TARGETS:
        if "." in attr:
            cls = getattr(sys.modules[f"exphodge.{module}"], attr.split(".")[0])
            snap.update({("class", cls.__qualname__, key): value
                         for key, value in vars(cls).items()})
    return snap


def check_tracer_restores() -> None:
    import exphodge  # noqa: F401
    import tracer as tracer_mod

    before = _snapshot(tracer_mod)
    tracer = tracer_mod.Tracer()
    tracer.start()
    patched = tracer.patched()
    if not patched or any(getattr(owner, key) is original for owner, key, original in patched):
        raise AssertionError("tracer did not patch its targets")
    tracer.stop()
    after = _snapshot(tracer_mod)
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed or set(after) != set(before):
        raise AssertionError(f"tracer left attributes changed: {changed[:5]}")
    print(f"ok: {len(patched)} patched attributes restored, is-identical")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="benchmark self-test")
    ap.add_argument("--seed", type=int, default=101)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(corpus_mod.SRC))
    from run import run_op

    reference = corpus_mod.load_reference()
    for name, workload in corpus_mod.workloads(reference).items():
        first = _texts(workload, args.seed, corpus_mod.MAX_PASSES)
        if first != _texts(workload, args.seed, corpus_mod.MAX_PASSES):
            raise AssertionError(f"{name}: the same seed built different corpora")
        other = corpus_mod.build_corpus(workload, args.seed + 1, 1)[0]
        if [inp.text for inp in other] == first[:len(other)]:
            raise AssertionError(f"{name}: another seed built the same corpus")
        for inp in other:
            _, errors, _ = run_op(workload, inp, reference[name][inp.shape.key])
            if errors:
                raise AssertionError(f"{name}: {inp.text}: {errors}")
        print(f"ok: {name}: seed {args.seed} reproducible, seed {args.seed + 1} "
              f"differs and its first pass ({len(other)} inputs) has no error")
    check_tracer_restores()
    return 0


if __name__ == "__main__":
    sys.exit(main())
