"""The benchmark tracer's patch points name attributes mldlab still has."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def test_patch_points_resolve():
    # bench/tracing.py imports only the stdlib, so it loads by path; a traced
    # run fails to install when one of these names has gone
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.PATCH_POINTS
    for module_name, attr, *_ in tracing.PATCH_POINTS:
        module = importlib.import_module(f"mldlab.{module_name}")
        assert callable(getattr(module, attr, None)), (module_name, attr)
