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
from .ibp import gradient_formula_check, psi_from_spec, verify_ibp
from .space import EstimateWithError, TestFunction
from .surface import Budget, minkowski_content_perimeter, subspace_hausdorff, total_boundary_measure

__all__ = ["RunConfig", "run", "main"]

_OUTPUTS = {"report": "report.json", "csv": "table.csv"}  # default file names

@dataclass
class RunConfig:
    """Validated run configuration; mirrors the JSON schema (bodies._SCHEMA
    "config")."""

    body: ConvexBody
    seed: int
    psi: Optional[TestFunction] = None
    k_list: list = field(default_factory=list)
    h: Optional[np.ndarray] = None
    candidates: Optional[list] = None
    budget: Budget = field(default_factory=Budget)
    outputs: dict = field(default_factory=lambda: dict(_OUTPUTS))
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
        outputs = {**_OUTPUTS, **cfg.get("outputs", {})}
        if outputs["csv"] == outputs["report"]:
            raise ParameterError("config.outputs.csv must differ from the report's file name")
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
        if h is not None and candidates is not None:
            raise ParameterError(
                "config.directions.candidates is unused when config.directions.h is set; give one of them"
            )
        return RunConfig(
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


def _record(name, lhs, rhs, tol, verdict, **extra) -> dict:
    """One result record; each side is an EstimateWithError or a bare
    number, whose standard error is 0, and extra adds subcommand fields."""
    (lhs, se_l), (rhs, se_r) = (
        (side.value, side.std_error) if isinstance(side, EstimateWithError) else (side, 0.0)
        for side in (lhs, rhs)
    )
    return {
        "name": name,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "se_l": float(se_l),
        "se_r": float(se_r),
        "diff": float(abs(lhs - rhs)),
        "tol": float(tol),
        "verdict": verdict,
        **extra,
    }


def _sweep(axis: str, points, label, estimate):
    """estimate(point) at each grid point, timed, with its CSV row (grid_point
    label(point)): returns the estimates and the rows."""
    estimates, rows = [], []
    for point in points:
        t0 = time.perf_counter()
        est = estimate(point)
        wall = time.perf_counter() - t0
        estimates.append(est)
        rows.append(
            {
                "axis": axis,
                "grid_point": label(point),
                "value": est.value,
                "std_error": est.std_error,
                "wall_time_s": wall,
            }
        )
    return estimates, rows


def _pinned_pair(config: RunConfig, cast=None):
    """The GraphPair of config.body along the configured h, or along the
    direction choose_direction's rule picks among the candidates from cast,
    a ray_cast_boundary result for the config's boundary_samples and seed
    (made here when not given), keeping its vertical-mass estimate."""
    body = config.body
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
    graph_est = total_boundary_measure(_pinned_pair(config), budget=config.budget, seed=config.seed)
    content_est = minkowski_content_perimeter(config.body, budget=config.budget, seed=config.seed)
    rel_tol = config.tolerances.get("perimeter_relative", 0.02)
    tol = max(
        3.0 * (graph_est.std_error + content_est.std_error),
        rel_tol * max(abs(graph_est.value), abs(content_est.value)),
    )
    verdict = "pass" if abs(graph_est.value - content_est.value) <= tol else "fail"
    methods = [graph_est.method, content_est.method]
    rec = _record("perimeter_graph_vs_content", graph_est, content_est, tol, verdict, methods=methods)
    return [rec], []


def _run_ibp(config: RunConfig):
    if config.psi is None:
        raise ParameterError("config.psi is required for the ibp subcommand")
    if not config.k_list:
        raise ParameterError("config.directions.k must be nonempty for ibp")
    reports = verify_ibp(
        _pinned_pair(config),
        config.psi,
        np.stack(config.k_list),
        budget=config.budget,
        seed=config.seed,
        tol=config.tolerances.get("ibp"),
    )
    records = [
        _record(f"ibp[k{i}]", r.lhs, r.rhs, r.tolerance, r.verdict, k=r.metadata["k"])
        for i, r in enumerate(reports)
    ]
    return records, []


def _run_surface(config: RunConfig):
    if not config.subspaces:
        raise ParameterError("config.subspaces is required for the surface subcommand")
    body = config.body
    label = lambda axes: "+".join(map(str, axes))
    ests, rows = _sweep(
        "subspace",
        config.subspaces,
        label,
        lambda axes: subspace_hausdorff(
            body, np.eye(body.dim)[list(axes)], budget=config.budget, seed=config.seed
        ),
    )
    records = []
    for axes_a, axes_b, a, b in zip(config.subspaces, config.subspaces[1:], ests, ests[1:]):
        tol = 3.0 * (a.std_error + b.std_error)
        verdict = "pass" if a.value <= b.value + tol else "fail"
        records.append(_record(f"monotone[{label(axes_a)}<={label(axes_b)}]", a, b, tol, verdict))
    if not records:
        records.append(_record("subspace_value", ests[0], ests[0], 0.0, "pass"))
    return records, rows


def _run_gradcheck(config: RunConfig):
    cast = ray_cast_boundary(config.body, config.budget.boundary_samples, config.seed)
    errs = gradient_formula_check(_pinned_pair(config, cast), cast[0])
    usable = errs[~np.isnan(errs)]  # nan: vertical or degenerate points
    if not usable.size:
        raise ConvexGaussError("no usable boundary points for the gradient check")
    median = float(np.median(usable))
    tol = config.tolerances.get("gradcheck_median", 1e-3)
    verdict = "pass" if median <= tol else "fail"
    counts = {"points": int(usable.size), "skipped": int(errs.size - usable.size)}
    return [_record("gradient_formula_median", median, 0.0, tol, verdict, **counts)], []


def _run_density(config: RunConfig):
    body = config.body
    if "points" in config.density:
        pts = np.asarray(config.density["points"], dtype=float)
    else:
        count = config.density.get("boundary_points", 16)
        pts, _, _ = ray_cast_boundary(body, count, config.seed)
    ests = lebesgue_density(
        body,
        pts,
        config.density.get("radius", 0.1),
        samples=config.density.get("samples", 20000),
        seed=config.seed,
    )
    records = []
    for i, (x, est) in enumerate(zip(pts, ests)):
        lo = est.value - 3.0 * est.std_error
        hi = est.value + 3.0 * est.std_error
        verdict = "pass" if (lo > 0.0 and hi < 1.0) else "fail"
        point = [float(v) for v in x]
        tol = 3.0 * est.std_error
        records.append(_record(f"density[{i}]", est, 0.5, tol, verdict, point=point))
    return records, []


def _run_converge_dim(config: RunConfig):
    """Perimeter of the KL ellipsoid at each grid dimension, with the
    difference to the previous dimension; one CSV row per dimension."""
    dims = config.grid.get("dims")
    if not dims:
        raise ParameterError("config.grid.dims is required for converge-dim")
    scale = float(config.grid.get("scale", 1.0))

    def perimeter(d):
        pair = decompose(kl_ellipsoid(d, scale), np.eye(d)[0], seed=config.seed)
        return total_boundary_measure(pair, budget=config.budget, seed=config.seed)

    ests, rows = _sweep("dimension", dims, lambda d: d, perimeter)
    records = []
    for d, est, prev in zip(dims, ests, [None] + ests[:-1]):
        prev_value = est.value if prev is None else prev.value
        diff = 0.0 if prev is None else est.value - prev.value
        records.append(_record(f"dim[{d}]", est, prev_value, 0.0, "pass", successive_diff=diff))
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
    report_text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    (out_dir / config.outputs["report"]).write_text(report_text)
    if rows:
        with open(out_dir / config.outputs["csv"], "w", newline="") as fh:
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
