"""perfbench/tracing.py's trace points name live bindings of the library.

The tracer patches each (module, attr) of TRACE_POINTS on slspectra, so a
binding dropped from a module's imports would silently break
``perfbench/run.py --trace``.  The file is loaded by path, as it stands.
"""

import importlib.util
from pathlib import Path

import slspectra

ROOT = Path(__file__).resolve().parent.parent


def test_trace_points_resolve_on_the_library():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACE_POINTS
    missing = [(module, attr) for module, attr, *_ in tracing.TRACE_POINTS
               if not callable(getattr(getattr(slspectra, module, None), attr, None))]
    assert missing == []
