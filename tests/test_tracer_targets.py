"""Every entry point the benchmark's tracer wraps must exist.

``perfbench/tracer.py`` replaces each ``(module, attribute)`` in ``PATCHES``
with a wrapper when a traced run starts, so a renamed or deleted name stops
``perfbench/run.py --trace 1`` before it measures anything. This test only
reads ``perfbench/``.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


def test_tracer_patch_targets_resolve():
    patches = _patches()
    assert patches
    missing = [
        (module_name, attr)
        for module_name, attr, _ in patches
        if not callable(getattr(importlib.import_module(module_name), attr, None))
    ]
    assert not missing
