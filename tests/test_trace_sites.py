"""The benchmark tracer's call sites must exist in the package.

``perfbench/spans.py`` wraps every ``(module, name)`` of its ``LAYERS``
table by attribute lookup, so deleting or renaming one of those
functions breaks ``perfbench/run.py --trace 1``.  This check keeps that
visible in the package's own tests, even for a helper the package
itself no longer calls.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)  # stdlib imports only
    return spans.LAYERS


def test_every_traced_layer_resolves():
    layers = _load_layers()
    assert layers
    for module, name, _ in layers:
        target = getattr(importlib.import_module(f"qrindex.{module}"), name, None)
        assert callable(target), f"qrindex.{module}.{name} is traced but missing"
