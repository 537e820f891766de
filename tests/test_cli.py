import json
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from convexgauss.bodies import _SCHEMA
from convexgauss.cli import exit_code_for_verdicts, main
from convexgauss.surface import Budget

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
        ("density", {"density": {"radius": True}}, "density.radius"),
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
        ("perimeter", {"model": {"dim": 2, "spectral_profile": [1.0, 2.0]}}, "config.model.spectral_profile"),
        ("perimeter", {"model": {"dim": 2, "spectral_profile": [1.0]}}, "config.model.spectral_profile"),
        ("perimeter", {"model": {"dim": 2, "spectral_profile": [1.0, 0.0]}}, "config.model.spectral_profile"),
        # a valid profile list is refused too: no route reads one
        ("perimeter", {"model": {"dim": 2, "spectral_profile": [1.0, 0.5]}}, "config.model.spectral_profile"),
        ("perimeter", {"budgets": {"epsilons": [0.5, 0.2, 0.1]}}, "budget.epsilons"),
        ("surface", {"budgets": {"epsilons": [0.05, 0.03]}}, "budget.epsilons"),
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
        ("perimeter", {"budgets": None}, "config.budgets"),
        ("perimeter", {"budgets": [1000]}, "config.budgets"),
        ("perimeter", {"directions": {"candidates": []}}, "config.directions.candidates"),
        (
            "perimeter",
            {"directions": {"h": [0.0, 1.0], "candidates": [[1.0, 0.0]]}},
            "config.directions.candidates",
        ),
        (
            "surface",
            {"model": {"dim": 4}, "directions": {}, "subspaces": [[0], [0, 1, 2, 3]]},
            "config.subspaces[1]",
        ),
    ],
    ids=[
        "density_point_dim",
        "subspace_axis_range",
        "budget_count",
        "density_radius_bool",
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
        "spectral_profile_increasing",
        "spectral_profile_length",
        "spectral_profile_zero",
        "spectral_profile_list",
        "budget_epsilons_range",
        "budget_epsilons_count",
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
        "budgets_null",
        "budgets_list",
        "candidates_empty",
        "candidates_with_h",
        "subspace_four_axes",
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


@pytest.mark.parametrize("outputs", [{"csv": "report.json"}, {"report": "out.json", "csv": "out.json"}])
def test_csv_may_not_overwrite_the_report(tmp_path, capsys, outputs):
    cfg = _load("subspace_ellipsoid.json", outputs=outputs)
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    code = main(["surface", "--config", str(cfg_path), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config.outputs.csv" in err
    assert not out.exists()


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


@pytest.mark.parametrize("cfg", [[1, 2], "seed", 7, None], ids=["list", "string", "number", "null"])
def test_non_object_config_with_seed_flag(tmp_path, capsys, cfg):
    # the --seed override must not index into a config that is no object
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps(cfg))
    code = main(["perimeter", "--config", str(cfg_path), "--seed", "3", "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: config must be a JSON object\n"


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
    grid = json.loads((CONFIG_DIR / "kl_dimension_sweep.json").read_text())["grid"]
    assert [int(row.split(",")[1]) for row in rows[1:]] == grid["dims"]
    report = json.loads((tmp_path / "kl_dim_report.json").read_text())
    assert "successive_diff" in report["results"][1]


def test_surface_with_one_subspace_writes_its_value(tmp_path):
    cfg = _load(
        "subspace_ellipsoid.json",
        subspaces=[[0, 1]],
        budgets={"subspace_samples": 200, "inner_angles": 128},
    )
    cfg_path = tmp_path / "one.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["surface", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    (rec,) = json.loads((tmp_path / "subspace_report.json").read_text())["results"]
    assert rec["name"] == "subspace_value" and rec["lhs"] == rec["rhs"] and rec["se_l"] > 0.0
    rows = (tmp_path / "subspace_table.csv").read_text().strip().splitlines()
    assert len(rows) == 2 and rows[1].startswith("subspace,0+1,")


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


def test_density_points_share_one_estimator_call(tmp_path, monkeypatch):
    import convexgauss.cli as cli

    calls = []
    density = cli.lebesgue_density
    monkeypatch.setattr(
        cli, "lebesgue_density", lambda body, x, *a, **k: calls.append(x) or density(body, x, *a, **k)
    )
    points = [[1.0, 0.0], [0.0, -1.0], [0.6, 0.8]]
    cfg = _load("perimeter_ball.json", density={"points": points, "samples": 2000})
    cfg_path = tmp_path / "density.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["density", "--config", str(cfg_path), "--out", str(tmp_path)]) == 0
    assert len(calls) == 1 and np.shape(calls[0]) == (3, 2)
    results = json.loads((tmp_path / "perimeter_ball_report.json").read_text())["results"]
    assert [r["point"] for r in results] == points


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


# a valid spec of each test function and of each body shape in two
# dimensions, into which the schema-driven test below puts a bad value
_PSI_SPECS = {
    "constant": {},
    "coordinate": {"index": 0},
    "tanh": {"weights": [1.0, 0.0]},
    "distance_clamp": {"center": [0.0, 0.0]},
}
_BODY_SPECS = {
    "ball": {"radius": 1.0},
    "ellipsoid": {"semiaxes": [1.0, 0.5]},
    "halfspace": {"normal": [1.0, 0.0], "offset": 1.0},
    "slab": {"normal": [1.0, 0.0], "half_width": 1.0},
    "polytope": {"faces": [{"normal": [1.0, 0.0], "offset": 1.0}]},
    "kl_ellipsoid": {},
    "random_polytope": {},
    "cylinder": {"axis": [0.0, 1.0], "base": {"shape": "ball", "radius": 1.0}},
}
_FACE = "body.polytope.faces[i]"


def _schema_fields():
    """(section, field, kind) for every field of every schema entry; a
    nested section, and the section each polytope face is, flattened."""
    out = []

    def walk(section, schema):
        for key, kind in schema.items():
            out.append((section, key, kind))
            if isinstance(kind, dict):
                walk(f"{section}.{key}", kind)
            elif isinstance(kind.each, dict):
                walk(f"{section}.{key}[i]", kind.each)

    for section, schema in _SCHEMA.items():
        walk(section, schema)
    return out


def _with_bad_value(section, key, value):
    """perimeter_ball.json with `value` at section.key, and the name the
    error must give."""
    cfg = _load("perimeter_ball.json")
    head, _, rest = section.partition(".")
    if head == "config":
        target = cfg
        for part in filter(None, rest.split(".")):
            target = target.setdefault(part, {})
        target[key] = value
        return cfg, f"{section}.{key}"
    if head == "budget":
        cfg["budgets"] = {key: value}
        return cfg, f"budget.{key}"
    if head == "psi":
        cfg["psi"] = {"name": rest or "constant", **_PSI_SPECS.get(rest, {}), key: value}
        return cfg, f"psi.{key}"
    if section == _FACE:
        cfg["body"] = {"shape": "polytope", "faces": [{"normal": [1.0, 0.0], "offset": 1.0, key: value}]}
        return cfg, f"body.polytope.faces[0].{key}"
    shape = rest or "ball"
    cfg["body"] = {"shape": shape, **_BODY_SPECS[shape], key: value}
    return cfg, f"{section}.{key}"


@pytest.mark.parametrize(
    "section, key, kind", _schema_fields(), ids=[f"{s}.{k}" for s, k, _ in _schema_fields()]
)
def test_every_schema_field_rejects_a_wrong_kind(tmp_path, capsys, section, key, kind):
    # True, a string and an out-of-range number: each one the kind forbids
    # must make the run fail with an error naming the field
    bad = [v for v in (True, "x", -1) if isinstance(kind, dict) or not kind.valid(v, 2)]
    assert bad
    for value in bad:
        cfg, name = _with_bad_value(section, key, value)
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["perimeter", "--config", str(cfg_path), "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("error: ") and name in err, (value, err)


def _kind_text(section, key, kind):
    """A field's kind as the README's config-schema table words it."""
    if isinstance(kind, dict):
        return f"a JSON object: section `{section}.{key}`"
    text = kind.what
    if isinstance(kind.each, dict):
        text += f"; each a JSON object: section `{section}.{key}[i]`"
    elif kind.each is not None:
        text += f"; each {kind.each.what}"
    return text + ("; required" if kind.required else "")


def test_readme_schema_table_lists_the_schema():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    rows = set()
    for line in readme.split("Config schema")[1].splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if line.startswith("| `") and len(cells) == 3:
            rows.add(tuple(c.strip("`") if i < 2 else c for i, c in enumerate(cells)))
    expected = {(s, k, _kind_text(s, k, kind)) for s, k, kind in _schema_fields()}
    assert rows == expected


def test_budget_schema_lists_every_budget_field():
    assert list(_SCHEMA["budget"]) == [f.name for f in fields(Budget)]


@pytest.mark.parametrize(
    "overrides, field",
    [
        ({"directions": {"h": [10**400, 0]}}, "directions.h"),
        ({"body": {"shape": "ball", "radius": 10**400}}, "body.ball.radius"),
        ({"tolerances": {"perimeter_relative": 10**400}}, "tolerances.perimeter_relative"),
    ],
    ids=["direction", "radius", "tolerance"],
)
def test_number_too_large_for_a_float_names_field(tmp_path, capsys, overrides, field):
    # read as floats these would overflow; the config error names them instead
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps(_load("perimeter_ball.json", **overrides)))
    code = main(["perimeter", "--config", str(cfg_path), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 1 and err.startswith("error: ") and field in err
