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
        dims = config.get("grid", {}).get("dims", [parsed.body.dim])
        assert min(dims) >= 5


def _score_with(old, new, references=None):
    tool = _tool()
    broken = {"verdicts": 0, "deterministic": 0, "monte_carlo": 0, "uncomparable": 0}
    worst = {"deterministic": 0.0, "monte_carlo": 0.0}
    excused = []
    lines = tool.compare_records(old, new, broken, worst, references, excused)
    return lines, broken, worst, excused


def test_deterministic_value_may_move_towards_its_reference():
    # the reference is 0.5: 0.5 (1 + 1e-4) -> 0.5 (1 + 1e-5) moves 9e-5
    # relative, but its error shrinks from 1e-4 to 1e-5
    old = [_record("perimeter", 0.5 * (1 + 1e-4), 0.0, 0.0, 0.0)]
    new = [_record("perimeter", 0.5 * (1 + 1e-5), 0.0, 0.0, 0.0)]
    lines, broken, worst, excused = _score_with(old, new, {(0, "lhs"): 0.5})
    assert not any(broken.values()) and worst["deterministic"] == 0.0
    assert "towards reference" in lines[0] and "error 0.0001 -> 1e-05" in lines[0]
    assert [(name, field) for name, field, *_ in excused] == [("perimeter", "lhs")]
    # the same move away from the reference breaks the rule
    lines, broken, _, excused = _score_with(new, old, {(0, "lhs"): 0.5})
    assert broken["deterministic"] == 1 and "OVER" in lines[0] and excused == []
    # without a reference it breaks the rule too
    _, broken, _, _ = _score_with(old, new)
    assert broken["deterministic"] == 1


def test_deterministic_value_may_move_when_its_error_stays_below_the_floor():
    # against the reference 0 a value is its own error: 1e-12 -> 5e-10
    # moves by 500 relative and grows, but stays at or below 1e-9
    old = [_record("ibp[k0]", 0.2, 1e-12, 0.0, 0.0)]
    for err, breaks in ((5e-10, 0), (1e-9, 0), (2e-9, 1)):
        new = [_record("ibp[k0]", 0.2, err, 0.0, 0.0)]
        lines, broken, _, _ = _score_with(old, new, {(0, "rhs"): 0.0})
        assert broken["deterministic"] == breaks, lines


def test_gradient_formula_median_has_the_reference_zero():
    # its lhs is itself a relative error: shrinking from 6.6e-8 to 3.9e-12
    # passes with no reference given, growing back breaks the rule
    old = [_record("gradient_formula_median", 6.6e-8, 0.0, 0.0, 0.0)]
    new = [_record("gradient_formula_median", 3.9e-12, 0.0, 0.0, 0.0)]
    lines, broken, _, excused = _score_with(old, new)
    assert not any(broken.values()) and len(excused) == 1
    assert "error 6.6e-08 -> 3.9e-12" in lines[0]
    _, broken, _, _ = _score_with(new, old)
    assert broken["deterministic"] == 1


def test_jobs_carry_the_workloads_references():
    tool = _tool()
    references = {}
    labels = [label for label, *_ in tool.jobs(references)]
    ball = references["boundary/seed1/perimeter_ball4d"]
    # the sphere of radius 1.2 in R^4: r^3 |S^3| (2 pi)^-2 exp(-r^2 / 2)
    exact = 1.2**3 * 2.0 * math.pi**2 / (2.0 * math.pi) ** 2 * math.exp(-0.72)
    assert list(ball) == [(0, "lhs")] and math.isclose(ball[0, "lhs"], exact, rel_tol=1e-12)
    assert references["boundary/seed9001/gradcheck_polytope3d"] == {(0, "lhs"): 0.0}
    ibp = [label for label in labels if label.startswith("ibp_volume/") and label.endswith("@2t")]
    assert ibp and all(references[label] and {f for _, f in references[label]} == {"rhs"} for label in ibp)
    assert not any(label.startswith(("demo/", "mc/", "fixed/")) for label in references)
