"""Batch command-line interface.

Subcommands run verification suites and a dimension sweep from a JSON
config and write a machine-readable report whose determinism hash covers
everything except wall-clock metadata:

    convexgauss <subcommand> --config cfg.json [--seed N] [--out DIR] [--threads N]

Subcommands: perimeter | ibp | surface | gradcheck | converge-dim |
converge-subspace | density. Exit status: 0 all verdicts pass, 2 if any is
inconclusive, 1 on any failure or error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

import numpy as np
import scipy

from . import __version__
from .bodies import _SCHEMA, ConvexBody, _check_fields, kl_ellipsoid, lebesgue_density, load_body_spec
from .errors import ConvexGaussError, ParameterError
# choose_direction is not called here: it stays imported because
# perfbench/tracer.py wraps it in this module, until the in-library run
# recorder of ROADMAP item 7 replaces that tracer
from .graphs import (  # noqa: F401
    _pick_direction,
    choose_direction,
    decompose,
    default_direction_candidates,
    ray_cast_boundary,
)
from .ibp import VerificationReport, gradient_formula_check, psi_from_spec, verify_ibp
from .space import GaussianModel, TestFunction, brownian_kl_profile
from .surface import Budget, minkowski_content_perimeter, subspace_hausdorff, total_boundary_measure

__all__ = ["RunConfig", "run", "main"]

@dataclass
class RunConfig:
    """Validated run configuration; mirrors the JSON schema (bodies._SCHEMA
    "config")."""

    model: GaussianModel
    body: ConvexBody
    seed: int
    psi: Optional[TestFunction] = None
    k_list: list = field(default_factory=list)
    h: Optional[np.ndarray] = None
    candidates: Optional[list] = None
    budget: Budget = field(default_factory=Budget)
    outputs: dict = field(default_factory=dict)
    grid: dict = field(default_factory=dict)
    density: dict = field(default_factory=dict)
    subspaces: list = field(default_factory=list)
    tolerances: dict = field(default_factory=dict)
    raw: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(cfg: dict, threads_override: Optional[int] = None) -> "RunConfig":
        if not isinstance(cfg, dict):
            raise ParameterError("config must be a JSON object")
        model_cfg = cfg.get("model")
        dim = model_cfg.get("dim") if isinstance(model_cfg, dict) else None
        _check_fields("config", cfg, _SCHEMA["config"], ParameterError, dim)
        outputs = cfg.get("outputs", {})
        if outputs.get("csv", "table.csv") == outputs.get("report", "report.json"):
            raise ParameterError("config.outputs.csv must differ from the report's file name")
        profile = model_cfg.get("spectral_profile")
        model = GaussianModel(dim, brownian_kl_profile(dim) if profile == "brownian" else profile)
        budget = Budget.from_any(cfg.get("budgets", {}))
        if threads_override is not None:
            budget = replace(budget, threads=threads_override)
        psi = None
        if cfg.get("psi") is not None:
            psi = psi_from_spec(cfg["psi"])
            try:
                psi(np.zeros((1, dim)))
            except Exception as exc:
                raise ParameterError(
                    f"config.psi is inconsistent with model.dim={dim}: {exc}"
                ) from exc
        directions = cfg.get("directions", {})
        h = directions.get("h")
        candidates = directions.get("candidates")
        return RunConfig(
            model=model,
            body=load_body_spec(cfg["body"], dim=dim),
            seed=int(cfg["seed"]),
            psi=psi,
            k_list=[np.asarray(k, dtype=float) for k in directions.get("k", [])],
            h=None if h is None else np.asarray(h, dtype=float),
            candidates=None if candidates is None else [np.asarray(c, dtype=float) for c in candidates],
            budget=budget,
            outputs=outputs,
            grid=cfg.get("grid", {}),
            density=cfg.get("density", {}),
            subspaces=cfg.get("subspaces", []),
            tolerances=cfg.get("tolerances", {}),
            raw=cfg,
        )


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _record(name, lhs, rhs, se_l, se_r, tol, verdict, extra=None) -> dict:
    rec = {
        "name": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "se_l": float(se_l),
        "se_r": float(se_r),
        "diff": float(abs(lhs - rhs)),
        "tol": float(tol),
        "verdict": verdict,
    }
    if extra:
        rec.update(extra)
    return rec


def _record_from_report(name: str, report: VerificationReport, extra=None) -> dict:
    return _record(
        name,
        report.lhs.value,
        report.rhs.value,
        report.lhs.std_error,
        report.rhs.std_error,
        report.tolerance,
        report.verdict,
        extra,
    )


def _pinned_pair(config: RunConfig, body: ConvexBody, cast=None):
    """The GraphPair along the configured h, or along the direction
    choose_direction's rule picks among the candidates from cast, a
    ray_cast_boundary result for the config's boundary_samples and seed
    (made here when not given), keeping its vertical-mass estimate."""
    if config.h is not None:
        return decompose(body, config.h, seed=config.seed)
    cands = (
        config.candidates
        if config.candidates is not None
        else default_direction_candidates(body.dim, seed=config.seed)
    )
    _, nu, w = cast or ray_cast_boundary(body, config.budget.boundary_samples, config.seed)
    h, vertical_mass = _pick_direction(cands, nu, w)
    return decompose(body, h, seed=config.seed, vertical_mass=vertical_mass)


# ------------------------------------------------------------- subcommands


def _run_perimeter(config: RunConfig):
    body = config.body
    pair = _pinned_pair(config, body)
    graph_est = total_boundary_measure(pair, budget=config.budget, seed=config.seed)
    content_est = minkowski_content_perimeter(body, budget=config.budget, seed=config.seed)
    rel_tol = config.tolerances.get("perimeter_relative", 0.02)
    tol = max(
        3.0 * (graph_est.std_error + content_est.std_error),
        rel_tol * max(abs(graph_est.value), abs(content_est.value)),
    )
    verdict = "pass" if abs(graph_est.value - content_est.value) <= tol else "fail"
    rec = _record(
        "perimeter_graph_vs_content",
        graph_est.value,
        content_est.value,
        graph_est.std_error,
        content_est.std_error,
        tol,
        verdict,
        extra={"methods": [graph_est.method, content_est.method]},
    )
    return [rec], []


def _run_ibp(config: RunConfig):
    if config.psi is None:
        raise ParameterError("config.psi is required for the ibp subcommand")
    if not config.k_list:
        raise ParameterError("config.directions.k must be nonempty for ibp")
    reports = verify_ibp(
        _pinned_pair(config, config.body),
        config.psi,
        np.stack(config.k_list),
        budget=config.budget,
        seed=config.seed,
        tol=config.tolerances.get("ibp"),
    )
    records = [
        _record_from_report(f"ibp[k{i}]", report, extra={"k": report.metadata["k"]})
        for i, report in enumerate(reports)
    ]
    return records, []


def _run_surface(config: RunConfig):
    if not config.subspaces:
        raise ParameterError("config.subspaces is required for the surface subcommand")
    body = config.body
    n = body.dim
    values = []
    rows = []
    for axes in config.subspaces:
        F = np.eye(n)[list(axes)]
        t0 = time.perf_counter()
        est = subspace_hausdorff(body, F, budget=config.budget, seed=config.seed)
        wall = time.perf_counter() - t0
        values.append((axes, est))
        rows.append(
            {
                "axis": "subspace",
                "grid_point": "+".join(str(a) for a in axes),
                "value": est.value,
                "std_error": est.std_error,
                "wall_time_s": wall,
            }
        )
    records = []
    for (axes_a, a), (axes_b, b) in zip(values, values[1:]):
        tol = 3.0 * (a.std_error + b.std_error)
        verdict = "pass" if a.value <= b.value + tol else "fail"
        records.append(
            _record(
                f"monotone[{'+'.join(map(str, axes_a))}<={'+'.join(map(str, axes_b))}]",
                a.value,
                b.value,
                a.std_error,
                b.std_error,
                tol,
                verdict,
            )
        )
    if not records:
        est = values[0][1]
        records.append(
            _record("subspace_value", est.value, est.value, est.std_error, est.std_error, 0.0, "pass")
        )
    return records, rows


def _run_gradcheck(config: RunConfig):
    body = config.body
    cast = ray_cast_boundary(body, config.budget.boundary_samples, config.seed)
    pair = _pinned_pair(config, body, cast)
    errs = gradient_formula_check(pair, cast[0])
    usable = errs[~np.isnan(errs)]  # nan: vertical or degenerate points
    if not usable.size:
        raise ConvexGaussError("no usable boundary points for the gradient check")
    median = float(np.median(usable))
    tol = config.tolerances.get("gradcheck_median", 1e-3)
    verdict = "pass" if median <= tol else "fail"
    rec = _record(
        "gradient_formula_median",
        median,
        0.0,
        0.0,
        0.0,
        tol,
        verdict,
        extra={"points": int(usable.size), "skipped": int(errs.size - usable.size)},
    )
    return [rec], []


def _run_density(config: RunConfig):
    body = config.body
    radius = config.density.get("radius", 0.1)
    samples = config.density.get("samples", 20000)
    if "points" in config.density:
        pts = [np.asarray(p, dtype=float) for p in config.density["points"]]
    else:
        count = config.density.get("boundary_points", 16)
        pts, _, _ = ray_cast_boundary(body, count, config.seed)
    records = []
    for i, x in enumerate(pts):
        est = lebesgue_density(body, x, radius, samples=samples, seed=config.seed)
        lo = est.value - 3.0 * est.std_error
        hi = est.value + 3.0 * est.std_error
        verdict = "pass" if (lo > 0.0 and hi < 1.0) else "fail"
        records.append(
            _record(
                f"density[{i}]",
                est.value,
                0.5,
                est.std_error,
                0.0,
                3.0 * est.std_error,
                verdict,
                extra={"point": [float(v) for v in np.atleast_1d(x)]},
            )
        )
    return records, []


def _run_converge_dim(config: RunConfig):
    """Perimeter of the KL ellipsoid at each grid dimension, with the
    difference to the previous dimension; one CSV row per dimension."""
    dims = config.grid.get("dims")
    if not dims:
        raise ParameterError("config.grid.dims is required for converge-dim")
    scale = float(config.grid.get("scale", 1.0))
    rows = []
    records = []
    prev = None
    for d in dims:
        body = kl_ellipsoid(d, scale)
        t0 = time.perf_counter()
        pair = decompose(body, np.eye(d)[0], seed=config.seed)
        est = total_boundary_measure(pair, budget=config.budget, seed=config.seed)
        wall = time.perf_counter() - t0
        rows.append(
            {
                "axis": "dimension",
                "grid_point": d,
                "value": est.value,
                "std_error": est.std_error,
                "wall_time_s": wall,
            }
        )
        extra = {"successive_diff": (est.value - prev) if prev is not None else 0.0}
        records.append(
            _record(
                f"dim[{d}]",
                est.value,
                prev if prev is not None else est.value,
                est.std_error,
                0.0,
                0.0,
                "pass",
                extra=extra,
            )
        )
        prev = est.value
    return records, rows


# ------------------------------------------------------------------ driver


_DISPATCH = {
    "perimeter": _run_perimeter,
    "ibp": _run_ibp,
    "surface": _run_surface,
    "gradcheck": _run_gradcheck,
    "converge-dim": _run_converge_dim,
    "converge-subspace": _run_surface,
    "density": _run_density,
}


def run(
    subcommand: str,
    config: RunConfig,
    out_dir: Path = Path("."),
) -> int:
    """Execute a subcommand, write report (and CSV when produced), and return
    the exit status: 0 all pass, 2 any inconclusive, 1 any fail/error."""
    t0 = time.perf_counter()
    records, rows = _DISPATCH[subcommand](config)
    wall = time.perf_counter() - t0
    # thread counts never influence results, so they stay out of the hash
    raw_for_hash = json.loads(_canonical(config.raw))
    raw_for_hash.get("budgets", {}).pop("threads", None)
    report = {
        "config_hash": _sha(_canonical(raw_for_hash)),
        "seed": config.seed,
        "subcommand": subcommand,
        "results": records,
        "versions": {
            "convexgauss": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    report["determinism_hash"] = _sha(_canonical(report))
    report["meta"] = {"timestamp": time.time(), "wall_time_s": wall}

    out_dir.mkdir(parents=True, exist_ok=True)
    report_name = config.outputs.get("report", "report.json")
    report_path = out_dir / report_name
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    if rows:
        csv_name = config.outputs.get("csv", "table.csv")
        with open(out_dir / csv_name, "w", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["axis", "grid_point", "value", "std_error", "wall_time_s"]
            )
            writer.writeheader()
            writer.writerows(rows)

    return exit_code_for_verdicts([r["verdict"] for r in records])


def exit_code_for_verdicts(verdicts) -> int:
    """Exit-code contract: fail -> 1, else inconclusive -> 2, else 0."""
    if any(v == "fail" for v in verdicts):
        return 1
    if any(v == "inconclusive" for v in verdicts):
        return 2
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="convexgauss",
        description="Gaussian surface-measure and integration-by-parts checks "
        "for convex bodies",
    )
    parser.add_argument("subcommand", choices=_DISPATCH)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--threads", type=int, default=None, help="worker threads (results invariant)"
    )
    args = parser.parse_args(argv)
    try:
        cfg_dict = json.loads(Path(args.config).read_text())
        if args.seed is not None and isinstance(cfg_dict, dict):
            cfg_dict["seed"] = args.seed
        config = RunConfig.from_dict(cfg_dict, threads_override=args.threads)
        return run(args.subcommand, config, Path(args.out))
    except (ConvexGaussError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
