"""Every library module uses every name it imports.

A name imported and never used is a leftover of code that moved or went. The
one exception is a name that ``perfbench/tracer.py`` wraps in that module:
its ``PATCHES`` replace ``module.name`` when a traced run starts, so such a
name must stay importable there even when the module no longer calls it.
``convexgauss/__init__.py`` re-exports names and is not checked. This test
only reads ``perfbench/``.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "convexgauss"
TRACER = ROOT / "perfbench" / "tracer.py"


def _patched_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(module_name, attr) for module_name, attr, _ in module.PATCHES}


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_library_modules_use_every_import():
    patched = _patched_names()
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert modules
    unused = [
        (path.stem, name)
        for path in modules
        for name in _unused_imports(path)
        if (f"convexgauss.{path.stem}", name) not in patched
    ]
    assert not unused
