"""The value half of ``tools/compare_trees.py`` on hand-made result records.

Running the tool itself takes two full benchmark passes, so these tests
check only how it scores a pair of records.
"""

import copy
import importlib.util
import math
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_trees.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_trees", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _record(name, lhs, rhs, se_l, se_r, verdict="pass"):
    return {"name": name, "lhs": lhs, "rhs": rhs, "se_l": se_l, "se_r": se_r, "verdict": verdict}


def _score(old, new):
    tool = _tool()
    broken = {"verdicts": 0, "deterministic": 0, "monte_carlo": 0, "uncomparable": 0}
    worst = {"deterministic": 0.0, "monte_carlo": 0.0}
    lines = tool.compare_records(old, new, broken, worst)
    return lines, broken, worst


def test_identical_records_report_zero_deltas():
    records = [_record("ibp[k0]", 0.2, 0.3, 1e-3, 0.0), _record("ibp[k1]", -0.1, 0.0, 2e-3, 0.0)]
    lines, broken, worst = _score(records, [dict(r) for r in records])
    assert len(lines) == 2
    assert not any(broken.values())
    assert worst == {"deterministic": 0.0, "monte_carlo": 0.0}


def test_value_changes_are_scored_by_kind():
    old = [_record("ibp[k0]", 0.2, 0.3, 3e-3, 0.0)]
    # rhs is deterministic (no error): relative change; lhs is Monte Carlo:
    # change over the combined error sqrt(3^2 + 4^2) 1e-3 = 5e-3
    new = [_record("ibp[k0]", 0.21, 0.3 * (1 + 5e-7), 4e-3, 0.0)]
    lines, broken, worst = _score(old, new)
    assert not any(broken.values())
    assert math.isclose(worst["monte_carlo"], 2.0)
    assert math.isclose(worst["deterministic"], 5e-7, rel_tol=1e-6)
    new = [_record("ibp[k0]", 0.24, 0.3 * (1 + 2e-6), 4e-3, 0.0, verdict="fail")]
    lines, broken, _ = _score(old, new)
    assert broken == {"verdicts": 1, "deterministic": 1, "monte_carlo": 1, "uncomparable": 0}
    assert "CHANGED" in lines[0] and lines[0].count("OVER") == 2


def test_records_that_do_not_match_are_not_comparable():
    old = [_record("ibp[k0]", 0.2, 0.3, 1e-3, 0.0)]
    for new in (None, [], [_record("ibp[k1]", 0.2, 0.3, 1e-3, 0.0)]):
        _, broken, _ = _score(old, new)
        assert broken["uncomparable"] == 1


def test_monte_carlo_calls_are_valid_configs_past_dimension_four():
    # the graph route samples its nodes once the hyperplane has dimension 4
    from convexgauss.cli import RunConfig

    tool = _tool()
    assert set(tool.MONTE_CARLO) == {"converge_dim5", "ibp_halfspace5d", "ibp_slab5d"}
    for _, config in tool.MONTE_CARLO.values():
        parsed = RunConfig.from_dict(copy.deepcopy(config))
        dims = config.get("grid", {}).get("dims", [parsed.model.dim])
        assert min(dims) >= 5
