"""The traced benchmark wraps exphodge functions by name: every name it lists
must still resolve, so that deleting one fails here and not only in the
benchmark's own self-test.  perfbench/tracer.py is loaded from its file and
never modified."""

import importlib
import importlib.util
from pathlib import Path

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_target_resolves():
    tracer = _tracer()
    assert tracer.TARGETS
    missing = []
    for _layer, module, attr in tracer.TARGETS:
        owner = importlib.import_module(f"exphodge.{module}")
        if "." in attr:  # a method, wrapped on its class
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name, None)
            found = owner is not None and callable(vars(owner).get(meth))
        else:
            found = callable(getattr(owner, attr, None))
        if not found:
            missing.append(f"exphodge.{module}.{attr}")
    assert not missing, missing


def test_every_cached_function_reports_its_cache():
    for name in _tracer().CACHED:
        module, attr = name.split(".")
        fn = getattr(importlib.import_module(f"exphodge.{module}"), attr)
        assert callable(getattr(fn, "cache_info", None)), name


def test_rank_hook_reads_the_matrix_size():
    # the tracer's exact_rank hook counts M.nnz
    from exphodge.linalg import SparseRationalMatrix

    assert SparseRationalMatrix(2, 2, {(0, 1): 3, (1, 1): 0}).nnz == 1
