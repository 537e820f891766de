import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexgauss.cli import RunConfig, exit_code_for_verdicts, main

from conftest import DISK_PERIM, G1_AT_1

CONFIG_DIR = Path(__file__).resolve().parent.parent / "demos" / "configs"


def _load(name, **overrides):
    cfg = json.loads((CONFIG_DIR / name).read_text())
    cfg.update(overrides)
    return cfg


def test_ibp_subcommand_halfspace(tmp_path):
    code = main(
        [
            "ibp",
            "--config",
            str(CONFIG_DIR / "ibp_halfspace.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "ibp_halfspace_report.json").read_text())
    rec = report["results"][0]
    assert rec["verdict"] == "pass"
    assert rec["lhs"] == pytest.approx(G1_AT_1, abs=0.005)
    assert rec["rhs"] == pytest.approx(G1_AT_1, abs=1e-6)


def test_perimeter_subcommand_ball(tmp_path):
    code = main(
        [
            "perimeter",
            "--config",
            str(CONFIG_DIR / "perimeter_ball.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "perimeter_ball_report.json").read_text())
    rec = report["results"][0]
    assert rec["lhs"] == pytest.approx(DISK_PERIM, rel=0.01)
    assert rec["rhs"] == pytest.approx(DISK_PERIM, rel=0.02)
    assert rec["methods"] == ["polar", "monte_carlo"]


def test_malformed_body_spec_names_faces(tmp_path, capsys):
    bad = _load("perimeter_ball.json")
    bad["body"] = {"shape": "polytope", "faces": []}
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(bad))
    code = main(["perimeter", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert "face list" in err


@pytest.mark.parametrize(
    "subcommand, overrides, field",
    [
        ("density", {"density": {"points": [[0.9, 0.0, 0.0]]}}, "density.points"),
        ("surface", {"subspaces": [[0], [0, 2]]}, "subspaces[1]"),
        ("perimeter", {"budgets": {"samples": "many"}}, "budget.samples"),
    ],
    ids=["density_point_dim", "subspace_axis_range", "budget_count"],
)
def test_malformed_config_names_field(tmp_path, capsys, subcommand, overrides, field):
    cfg = _load("perimeter_ball.json", **overrides)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


def test_missing_seed_rejected(tmp_path, capsys):
    cfg = _load("perimeter_ball.json")
    del cfg["seed"]
    cfg_path = tmp_path / "noseed.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["perimeter", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_determinism_across_thread_counts(tmp_path):
    cfg_path = CONFIG_DIR / "perimeter_ball.json"
    hashes = {}
    for threads in (1, 4):
        out = tmp_path / f"t{threads}"
        code = main(
            [
                "perimeter",
                "--config",
                str(cfg_path),
                "--out",
                str(out),
                "--threads",
                str(threads),
            ]
        )
        assert code == 0
        report = json.loads((out / "perimeter_ball_report.json").read_text())
        hashes[threads] = (report["determinism_hash"], report["config_hash"])
    assert hashes[1] == hashes[4]


def test_seed_override_changes_hash(tmp_path):
    cfg_path = CONFIG_DIR / "perimeter_ball.json"
    old = None
    for seed in (7, 8):
        out = tmp_path / f"s{seed}"
        main(
            ["perimeter", "--config", str(cfg_path), "--out", str(out), "--seed", str(seed)]
        )
        report = json.loads((out / "perimeter_ball_report.json").read_text())
        if old is not None:
            assert report["determinism_hash"] != old
        old = report["determinism_hash"]


def test_surface_subcommand_monotone(tmp_path):
    code = main(
        [
            "surface",
            "--config",
            str(CONFIG_DIR / "subspace_ellipsoid.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    report = json.loads((tmp_path / "subspace_report.json").read_text())
    assert all(r["verdict"] == "pass" for r in report["results"])
    rows = (tmp_path / "subspace_table.csv").read_text().strip().splitlines()
    assert rows[0] == "axis,grid_point,value,std_error,wall_time_s"
    assert len(rows) == 4  # header + three subspaces


def test_converge_dim_subcommand(tmp_path):
    code = main(
        [
            "converge-dim",
            "--config",
            str(CONFIG_DIR / "kl_dimension_sweep.json"),
            "--out",
            str(tmp_path),
        ]
    )
    assert code == 0
    rows = (tmp_path / "kl_dim_table.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    report = json.loads((tmp_path / "kl_dim_report.json").read_text())
    assert "successive_diff" in report["results"][1]


def test_density_subcommand(tmp_path):
    cfg = _load(
        "perimeter_ball.json",
        density={"radius": 0.1, "samples": 20000, "boundary_points": 6},
        outputs={"report": "density_report.json"},
    )
    cfg_path = tmp_path / "density.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["density", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "density_report.json").read_text())
    for rec in report["results"]:
        assert 0.0 < rec["lhs"] < 1.0


def test_gradcheck_subcommand(tmp_path):
    cfg = _load("perimeter_ball.json", outputs={"report": "grad_report.json"})
    cfg["budgets"] = {"boundary_samples": 60}
    cfg_path = tmp_path / "grad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["gradcheck", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "grad_report.json").read_text())
    assert report["results"][0]["lhs"] <= 1e-3


def test_console_script_entry_point(tmp_path):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "convexgauss.cli",
            "ibp",
            "--config",
            str(CONFIG_DIR / "ibp_halfspace.json"),
            "--out",
            str(tmp_path),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


def test_samples_axis_se_scaling(tmp_path):
    cfg = _load(
        "ibp_halfspace.json",
        grid={"samples": [20000, 80000, 320000]},
        outputs={"report": "r.json", "csv": "samples.csv"},
    )
    config = RunConfig.from_dict(cfg)
    from convexgauss.cli import convergence_study

    records, rows = convergence_study(config, "samples")
    ses = [r["std_error"] for r in rows]
    # SE shrinks like 1/sqrt(n) within 20%
    assert ses[2] == pytest.approx(ses[0] / 4.0, rel=0.2)


def test_epsilon_axis_intercept(tmp_path):
    cfg = _load(
        "ibp_halfspace.json",
        grid={"epsilons": [0.08, 0.05, 0.03, 0.02]},
        outputs={"report": "r.json", "csv": "eps.csv"},
    )
    cfg["budgets"] = {"samples": 600000}
    config = RunConfig.from_dict(cfg)
    from convexgauss.cli import convergence_study

    records, rows = convergence_study(config, "epsilon")
    intercept, se = records[-1]["lhs"], records[-1]["se_l"]
    assert abs(intercept - G1_AT_1) <= max(3 * se, 0.02 * G1_AT_1)
    assert len(rows) == 4


@settings(max_examples=100, deadline=None)
@given(st.lists(st.sampled_from(["pass", "fail", "inconclusive"]), min_size=1, max_size=8))
def test_exit_code_contract(verdicts):
    code = exit_code_for_verdicts(verdicts)
    if "fail" in verdicts:
        assert code == 1
    elif "inconclusive" in verdicts:
        assert code == 2
    else:
        assert code == 0
