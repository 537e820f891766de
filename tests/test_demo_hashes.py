"""The shipped demo configs reproduce their recorded determinism hashes.

The prefixes are the ``DEMO_HASHES`` table of ``perfbench/run.py``, read
with ``ast`` so that there is one copy of them and the benchmark script is
not imported. The hash covers the Python, numpy and scipy versions, so the
test runs only in the environment ``perfbench/baseline.json`` records.
"""

import ast
import json
import platform
from pathlib import Path

import numpy as np
import pytest
import scipy

from convexgauss.cli import main

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _demo_hashes():
    tree = ast.parse((PERFBENCH / "run.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "DEMO_HASHES" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/run.py defines no DEMO_HASHES")


def _environment_mismatch():
    recorded = json.loads((PERFBENCH / "baseline.json").read_text())["environment"]
    here = {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__}
    return [f"{k} {here[k]} (hashes recorded with {recorded[k]})" for k in here if here[k] != recorded[k]]


DEMO_HASHES = _demo_hashes()
MISMATCH = _environment_mismatch()


@pytest.mark.skipif(bool(MISMATCH), reason="; ".join(MISMATCH))
@pytest.mark.parametrize("config, subcommand", sorted(DEMO_HASHES), ids=lambda v: v)
def test_demo_config_hash(tmp_path, config, subcommand):
    path = ROOT / "demos" / "configs" / f"{config}.json"
    assert main([subcommand, "--config", str(path), "--out", str(tmp_path)]) == 0
    report_name = json.loads(path.read_text())["outputs"]["report"]
    report = json.loads((tmp_path / report_name).read_text())
    assert report["determinism_hash"].startswith(DEMO_HASHES[(config, subcommand)])
