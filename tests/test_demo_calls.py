"""The demo scripts call the library with arguments its signatures accept.

Running ``demos/*.py`` takes tens of seconds, so this test only parses each
script with ``ast`` and binds the positional count and keyword names of
every ``cg.<name>(...)`` call to the signature of ``convexgauss.<name>``. A
renamed or deleted parameter then fails here rather than in a demo run.
"""

import ast
import inspect
from pathlib import Path

import pytest

import convexgauss as cg

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def _cg_calls(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cg"
        ):
            yield node


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_calls_bind(path):
    calls = list(_cg_calls(path))
    assert calls
    for call in calls:
        where = f"{path.name}:{call.lineno}: cg.{call.func.attr}"
        fn = getattr(cg, call.func.attr, None)
        assert callable(fn), f"{where} does not exist"
        try:
            inspect.signature(fn).bind_partial(
                *range(len(call.args)), **{k.arg: None for k in call.keywords}
            )
        except TypeError as exc:
            pytest.fail(f"{where}: {exc}")
