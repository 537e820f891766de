"""The heavy scipy modules load on first use, not when convexgauss starts.

Each check runs in a fresh interpreter, since the test session has loaded
them all already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "demos" / "configs"
HEAVY = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.special")

SCRIPT = f"""
import json, sys
from pathlib import Path

def loaded():
    print(json.dumps(sorted(m for m in {HEAVY!r} if m in sys.modules)))

import convexgauss.cli as cli
from convexgauss import bodies

cfg = json.loads(Path(sys.argv[1], "perimeter_ball.json").read_text())
cli.RunConfig.from_dict(cfg)
loaded()
cfg = json.loads(Path(sys.argv[1], "ibp_halfspace.json").read_text())
assert cli.run("ibp", cli.RunConfig.from_dict(cfg), Path(sys.argv[2])) == 0
loaded()
bodies.polytope([{{"normal": [1.0, 0.0], "offset": 1.0}}, {{"normal": [-1.0, 0.0], "offset": 1.0}}])
loaded()
"""


def test_heavy_scipy_modules_load_on_first_use(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(CONFIG_DIR), str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    after_config, after_halfspace_ibp, after_polytope = map(json.loads, proc.stdout.splitlines()[-3:])
    assert after_config == []
    assert after_halfspace_ibp == []
    assert "scipy.optimize" in after_polytope
