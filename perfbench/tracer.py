"""Span recorder for the traced benchmark run, installed from outside exphodge.

``Tracer.install()`` wraps each function in ``TARGETS`` in every ``exphodge.*``
namespace that bound it (``from .linalg import exact_rank`` copies the
reference, so patching ``linalg`` alone would miss the callers in ``derham``,
``spectrum`` and ``curve``); methods and constructors are wrapped on their
class.  ``uninstall()`` puts every original back.

A span is (name, start, end, parent index, op id, self seconds, outermost),
kept in memory and written out when the run ends.  Self time is the span's
duration minus the time its direct child spans cover; "outermost" marks a span
with no enclosing span of the same name, so total time counts a recursion once.
"""

from __future__ import annotations

import statistics
import sys
import time
from functools import wraps

# (layer, module, attribute); "Class.method" wraps a method on its class, and
# "Class.__init__" is reported under the class name (objects built).
TARGETS = (
    ("linalg", "linalg", "span_rank"),
    ("linalg", "linalg", "exact_rank"),
    ("linalg", "linalg", "nullspace_basis"),
    ("linalg", "linalg", "image_dim_over"),
    ("spectrum", "spectrum", "analyze"),
    ("spectrum", "spectrum", "spectrum_rank"),
    ("spectrum", "spectrum", "spectrum_euler"),
    ("spectrum", "spectrum", "jump_candidates"),
    ("spectrum", "spectrum", "check_degeneration"),
    ("spectrum", "spectrum", "check_symmetry"),
    ("derham", "derham", "build_filtration_level"),
    ("derham", "derham", "build_graded_level"),
    ("derham", "derham", "filtration_image_dim"),
    ("derham", "derham", "betti_numbers"),
    ("curve", "curve", "CechModel.__init__"),
    ("curve", "curve", "_build_model"),
    ("curve", "curve", "cech_hypercohomology"),
    ("curve", "curve", "compare_filtrations"),
    ("curve", "curve", "duality_summary"),
    ("polytope", "polytope", "newton_polytope"),
    ("polytope", "polytope", "NewtonPolytope.lattice_points_in_dilate"),
    ("polytope", "polytope", "NewtonPolytope.normalized_volume"),
    ("nondegen", "nondegen", "is_nondegenerate"),
    ("nondegen", "nondegen", "check_face"),
    ("nondegen", "nondegen", "_check_face_exact"),
    ("nondegen", "nondegen", "find_witness"),
    ("groebner", "groebner", "groebner_basis"),
    # metric names must start with a letter, so the _kernels layer is "kernels"
    ("kernels", "_kernels", "enumerate_box_filtered"),
    ("kernels", "_kernels", "torus_common_zero"),
)

# functools.lru_cache functions whose hit ratio is reported
CACHED = ("derham.build_filtration_level", "curve._build_model")

# Per-layer metrics, in report order: "<layer>.<function>.<stat>" with stat
# one of calls | self_s | total_s | hit_ratio, or "<layer>.<counter>".
PER_LAYER = (
    "linalg.span_rank.calls", "linalg.span_rank.self_s",
    "linalg.exact_rank.calls", "linalg.exact_rank.self_s",
    "linalg.nullspace_basis.calls", "linalg.nullspace_basis.self_s",
    "linalg.image_dim_over.calls", "linalg.rank_input_nnz",
    "spectrum.analyze.total_s",
    "spectrum.spectrum_rank.calls", "spectrum.spectrum_rank.total_s",
    "spectrum.spectrum_euler.total_s", "spectrum.jump_candidates.calls",
    "spectrum.check_degeneration.total_s", "spectrum.check_symmetry.total_s",
    "derham.build_filtration_level.calls", "derham.build_filtration_level.self_s",
    "derham.build_filtration_level.hit_ratio", "derham.build_graded_level.calls",
    "derham.filtration_image_dim.calls", "derham.filtration_image_dim.total_s",
    "derham.betti_numbers.total_s",
    "curve.CechModel.calls", "curve.CechModel.self_s", "curve._build_model.hit_ratio",
    "curve.cech_hypercohomology.calls", "curve.compare_filtrations.total_s",
    "curve.duality_summary.total_s",
    "polytope.newton_polytope.calls", "polytope.newton_polytope.self_s",
    "polytope.NewtonPolytope.lattice_points_in_dilate.calls",
    "polytope.NewtonPolytope.lattice_points_in_dilate.self_s",
    "polytope.NewtonPolytope.normalized_volume.self_s",
    "nondegen.is_nondegenerate.self_s", "nondegen.check_face.calls",
    "nondegen._check_face_exact.calls", "nondegen.find_witness.calls",
    "nondegen.certified_degenerate_ratio",
    "groebner.groebner_basis.calls", "groebner.groebner_basis.self_s",
    "groebner.budget_exceeded",
    "kernels.enumerate_box_filtered.calls", "kernels.enumerate_box_filtered.self_s",
    "kernels.torus_common_zero.calls", "kernels.torus_common_zero.self_s",
)


def _span_name(layer: str, attr: str) -> str:
    return f"{layer}.{attr.removesuffix('.__init__')}"


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []     # see the module docstring
        self.counters: dict[str, float] = {}
        self.op = -1
        self._stack: list[list] = []     # [name, start, child seconds, index]
        self._active: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._cached: dict[str, object] = {}
        self._first = 0                  # first span of the current pass
        self._before: dict[str, tuple[int, int]] = {}

    # -- recording -----------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _wrap(self, name: str, fn):
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            outermost = not tracer._active.get(name)
            tracer._active[name] = tracer._active.get(name, 0) + 1
            index = len(tracer.spans)
            tracer.spans.append(None)    # reserved, so parents precede children
            parent = tracer._stack[-1][3] if tracer._stack else -1
            frame = [name, time.perf_counter(), 0.0, index]
            tracer._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._active[name] -= 1
                dur = end - frame[1]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                tracer.spans[index] = (name, frame[1], end, parent, tracer.op,
                                       dur - frame[2], outermost)
        return traced

    def _hooks(self, name: str, fn):
        """Counters that need the call's arguments or outcome."""
        if name == "linalg.span_rank":
            def span_rank(vectors):
                vectors = list(vectors)
                self.count("linalg.rank_input_nnz", sum(len(v) for v in vectors))
                return fn(vectors)
            return wraps(fn)(span_rank)
        if name == "linalg.exact_rank":
            def exact_rank(M, *args, **kwargs):
                self.count("linalg.rank_input_nnz", M.nnz)
                return fn(M, *args, **kwargs)
            return wraps(fn)(exact_rank)
        if name == "groebner.groebner_basis":
            from exphodge.errors import BudgetExceededError

            def groebner_basis(*args, **kwargs):
                try:
                    return fn(*args, **kwargs)
                except BudgetExceededError:
                    self.count("groebner.budget_exceeded")
                    raise
            return wraps(fn)(groebner_basis)
        if name == "nondegen.is_nondegenerate":
            def is_nondegenerate(*args, **kwargs):
                report = fn(*args, **kwargs)
                if report.is_degenerate:
                    self.count("nondegen.degenerate")
                    self.count("nondegen.degenerate_certified", int(report.certified))
                return report
            return wraps(fn)(is_nondegenerate)
        return fn

    # -- installing ----------------------------------------------------------

    def install(self) -> None:
        import exphodge  # noqa: F401  (loads every submodule)

        namespaces = [m for k, m in list(sys.modules.items())
                      if k == "exphodge" or k.startswith("exphodge.")]
        for layer, module, attr in TARGETS:
            mod = sys.modules[f"exphodge.{module}"]
            name = _span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, original, self._wrap(name, original))
                continue
            original = getattr(mod, attr)
            if name in CACHED:
                self._cached[name] = original
            wrapper = self._wrap(name, self._hooks(name, original))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        self._patch(ns, key, original, wrapper)

    def _patch(self, owner, key: str, original, wrapper) -> None:
        self._patches.append((owner, key, original))
        setattr(owner, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def patched(self) -> list[tuple[object, str, object]]:
        return list(self._patches)

    def start(self) -> None:
        """Install, and begin a traced pass with fresh counters."""
        self.install()
        self.counters = {}
        self._first = len(self.spans)
        self._before = self.cache_snapshot()

    def stop(self) -> dict[str, float]:
        """Uninstall, and return the per-layer metrics of the pass."""
        after = self.cache_snapshot()
        self.uninstall()
        return self._summarize(after)

    # -- reporting -----------------------------------------------------------

    def cache_snapshot(self) -> dict[str, tuple[int, int]]:
        return {name: (fn.cache_info().hits, fn.cache_info().misses)
                for name, fn in self._cached.items()}

    def _summarize(self, after: dict) -> dict[str, float]:
        """Per-layer metrics of the pass: its spans, counters and cache hits."""
        counters, before = self.counters, self._before
        calls: dict[str, int] = {}
        self_s: dict[str, float] = {}
        total_s: dict[str, float] = {}
        for name, start, end, _parent, _op, own, outermost in self.spans[self._first:]:
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + own
            if outermost:
                total_s[name] = total_s.get(name, 0.0) + (end - start)
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            name, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = calls.get(name, 0)
            elif stat == "self_s":
                out[metric] = self_s.get(name, 0.0)
            elif stat == "total_s":
                out[metric] = total_s.get(name, 0.0)
            elif stat == "hit_ratio":
                hits = after[name][0] - before[name][0]
                lookups = hits + after[name][1] - before[name][1]
                out[metric] = hits / lookups if lookups else 0.0
            elif metric == "nondegen.certified_degenerate_ratio":
                degenerate = counters.get("nondegen.degenerate", 0)
                certified = counters.get("nondegen.degenerate_certified", 0)
                out[metric] = certified / degenerate if degenerate else 0.0
            else:
                out[metric] = counters.get(metric, 0)
        return out


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
