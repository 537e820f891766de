import json
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexgauss.cli import exit_code_for_verdicts, main

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
        ("perimeter", {"budgets": {"fd_step": True}}, "budget.fd_step"),
        ("perimeter", {"budgets": {"epsilons": [True, 0.05, 0.03]}}, "budget.epsilons"),
        ("density", {"density": {"points": [["0.9", 0.0]]}}, "density.points"),
        ("density", {"density": {"samples": "many"}}, "density.samples"),
        ("density", {"density": {"samples": 999}}, "density.samples"),
        ("density", {"density": {"radius": -0.1}}, "density.radius"),
        ("density", {"density": {"boundary_points": 0}}, "density.boundary_points"),
        ("perimeter", {"tolerances": {"perimeter_relative": "x"}}, "tolerances.perimeter_relative"),
        ("ibp", {"tolerances": {"ibp": -0.01}}, "tolerances.ibp"),
        ("gradcheck", {"tolerances": {"gradcheck_median": None}}, "tolerances.gradcheck_median"),
        ("perimeter", {"body": {"shape": "ball", "radius": "a"}}, "body.ball.radius"),
        ("perimeter", {"body": {"shape": "ellipsoid", "semiaxes": "abc"}}, "body.ellipsoid.semiaxes"),
        ("ibp", {"body": {"shape": "halfspace", "normal": [0, 1], "offset": "a"}}, "body.halfspace.offset"),
        (
            "perimeter",
            {"body": {"shape": "polytope", "faces": [{"normal": [1, "x"], "offset": 1}]}},
            "body.polytope.faces[0].normal",
        ),
        ("ibp", {"body": {"shape": "slab", "normal": [0, 1], "half_width": "a"}}, "body.slab.half_width"),
        ("perimeter", {"directions": {"h": [0.0, "one"]}}, "directions.h"),
        ("ibp", {"directions": {"k": [[0.0, "one"]]}}, "directions.k"),
        ("perimeter", {"seed": -1}, "seed"),
        ("perimeter", {"seed": 1.7}, "seed"),
        ("perimeter", {"seed": True}, "seed"),
        ("perimeter", {"model": {"dim": "x"}}, "model.dim"),
        ("perimeter", {"model": {"dim": 2.7}}, "model.dim"),
        ("perimeter", {"model": {"dim": 2, "spectral_profile": "levy"}}, "model.spectral_profile"),
        ("perimeter", {"model": {"dim": 2, "spectral_profile": 3}}, "model.spectral_profile"),
        ("ibp", {"psi": {"name": "coordinate", "index": "a"}}, "psi.index"),
        ("ibp", {"psi": {"name": "coordinate"}}, "psi.index"),
        ("ibp", {"psi": {"name": "tanh", "weights": "ab"}}, "psi.weights"),
        ("converge-dim", {"grid": {"dims": ["a"]}}, "grid.dims"),
        ("converge-dim", {"grid": {"dims": "23"}}, "grid.dims"),
        ("converge-dim", {"grid": {"dims": [2.5]}}, "grid.dims"),
        ("converge-dim", {"grid": {"dims": [1]}}, "grid.dims"),
        ("converge-dim", {"grid": {"dims": [2], "scale": "big"}}, "grid.scale"),
        ("perimeter", {"outputs": {"report": 5}}, "outputs.report"),
        ("perimeter", {"body": {"shape": "ball", "radius": True}}, "body.ball.radius"),
        ("perimeter", {"body": {"shape": "ball", "radius": "2"}}, "body.ball.radius"),
        (
            "perimeter",
            {"body": {"shape": "random_polytope", "faces": 8.7, "seed": 1}},
            "body.random_polytope.faces",
        ),
        ("perimeter", {"budget": {"samples": 5}}, "config fields: ['budget']"),
        (
            "perimeter",
            {"body": {"shape": "ball", "radius": 1.0, "center": [3.0, 0.0]}},
            "body.ball fields: ['center']",
        ),
        (
            "perimeter",
            {"body": {"shape": "polytope", "faces": [{"normal": [1, 0], "offset": 1, "bias": 0}]}},
            "body.polytope.faces[0] fields: ['bias']",
        ),
        ("perimeter", {"model": {"dim": 2, "profile": "brownian"}}, "config.model fields: ['profile']"),
        ("density", {"density": {"sample": 5000}}, "config.density fields: ['sample']"),
        ("ibp", {"psi": {"name": "constant", "value": 1.0, "scale": 2.0}}, "psi fields: ['scale']"),
        (
            "perimeter",
            {"body": {"shape": "cylinder", "axis": [0, 1], "base": {"shape": "ball", "radius": 1.0, "r": 2}}},
            "unknown body.cylinder.base.ball fields: ['r']",
        ),
        (
            "perimeter",
            {"body": {"shape": "cylinder", "axis": [0, 1], "base": {"shape": "ball", "radius": "a"}}},
            "body.cylinder.base.ball.radius",
        ),
    ],
    ids=[
        "density_point_dim",
        "subspace_axis_range",
        "budget_count",
        "budget_fd_step_bool",
        "budget_epsilon_bool",
        "density_point_string",
        "density_samples_type",
        "density_samples_min",
        "density_radius",
        "density_boundary_points",
        "tolerance_type",
        "tolerance_negative",
        "tolerance_null",
        "ball_radius",
        "ellipsoid_semiaxes",
        "halfspace_offset",
        "polytope_normal",
        "slab_half_width",
        "directions_h",
        "directions_k",
        "seed_negative",
        "seed_float",
        "seed_bool",
        "model_dim_string",
        "model_dim_float",
        "spectral_profile_name",
        "spectral_profile_number",
        "psi_index_string",
        "psi_index_missing",
        "psi_weights_string",
        "grid_dims_string_entry",
        "grid_dims_string",
        "grid_dims_float",
        "grid_dims_one",
        "grid_scale",
        "outputs_report_number",
        "ball_radius_bool",
        "ball_radius_string",
        "random_polytope_faces_float",
        "config_unknown_budget",
        "ball_unknown_center",
        "polytope_face_unknown",
        "model_unknown",
        "density_unknown",
        "psi_unknown",
        "cylinder_base_unknown",
        "cylinder_base_radius",
    ],
)
def test_malformed_config_names_field(tmp_path, capsys, subcommand, overrides, field):
    cfg = _load("perimeter_ball.json", **overrides)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main([subcommand, "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err


@pytest.mark.parametrize("key", ["report", "csv"])
@pytest.mark.parametrize("name", ["../../escape.json", "sub/out.json", "ABSOLUTE", "", ".."])
def test_output_names_stay_inside_out(tmp_path, capsys, key, name):
    out = tmp_path / "a" / "b"
    if name == "ABSOLUTE":
        name = str(tmp_path / "absolute.json")
    cfg = _load("subspace_ellipsoid.json")
    cfg["outputs"][key] = name
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["surface", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"outputs.{key}" in err
    assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.json"]


def test_missing_seed_rejected(tmp_path, capsys):
    cfg = _load("perimeter_ball.json")
    del cfg["seed"]
    cfg_path = tmp_path / "noseed.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["perimeter", "--config", str(cfg_path), "--out", str(tmp_path)])
    assert code == 1
    assert "seed" in capsys.readouterr().err


def test_negative_seed_flag_rejected(tmp_path, capsys):
    cfg_path = CONFIG_DIR / "perimeter_ball.json"
    code = main(["perimeter", "--config", str(cfg_path), "--seed", "-1", "--out", str(tmp_path)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "seed" in err


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
