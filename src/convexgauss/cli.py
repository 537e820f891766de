"""Batch command-line interface.

Subcommands run verification suites and convergence studies from a JSON
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
from .bodies import ConvexBody, kl_ellipsoid, lebesgue_density, load_body_spec
from .errors import ConvexGaussError, DegeneracyError, DomainError, ParameterError
from .graphs import choose_direction, decompose, default_direction_candidates, ray_cast_boundary
from .ibp import (
    VerificationReport,
    gradient_formula_check,
    lhs_volume_integral,
    psi_from_spec,
    verify_ibp,
)
from .space import GaussianModel, as_direction, brownian_kl_profile
from .surface import (
    Budget,
    minkowski_content_perimeter,
    subspace_hausdorff,
    total_boundary_measure,
)

SUBCOMMANDS = (
    "perimeter",
    "ibp",
    "surface",
    "gradcheck",
    "converge-dim",
    "converge-subspace",
    "density",
)

__all__ = ["RunConfig", "run", "convergence_study", "main"]


@dataclass
class RunConfig:
    """Validated run configuration; mirrors the JSON schema."""

    model: GaussianModel
    body_spec: dict
    seed: int
    psi_spec: Optional[dict] = None
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

    @property
    def body(self) -> ConvexBody:
        return load_body_spec(self.body_spec, dim=self.model.dim)

    @staticmethod
    def from_dict(cfg: dict, threads_override: Optional[int] = None) -> "RunConfig":
        if not isinstance(cfg, dict):
            raise ParameterError("config must be a JSON object")
        if "seed" not in cfg:
            raise ParameterError("config.seed is required (no wall-clock seeding)")
        model_cfg = cfg.get("model")
        if not isinstance(model_cfg, dict) or "dim" not in model_cfg:
            raise ParameterError("config.model.dim is required")
        profile = model_cfg.get("spectral_profile")
        if profile == "brownian":
            profile = brownian_kl_profile(int(model_cfg["dim"]))
        model = GaussianModel(int(model_cfg["dim"]), profile)
        if "body" not in cfg:
            raise ParameterError("config.body is required")
        directions = cfg.get("directions", {})
        k_list = [
            as_direction(np.asarray(k, dtype=float), dim=model.dim)
            for k in directions.get("k", [])
        ]
        h = directions.get("h")
        if h is not None:
            h = as_direction(np.asarray(h, dtype=float), dim=model.dim)
        candidates = directions.get("candidates")
        if candidates is not None:
            candidates = [
                as_direction(np.asarray(c, dtype=float), dim=model.dim)
                for c in candidates
            ]
        budget = Budget.from_any(cfg.get("budgets"))
        if threads_override is not None:
            budget = replace(budget, threads=threads_override)
        psi_spec = cfg.get("psi")
        if psi_spec is not None:
            psi = psi_from_spec(psi_spec)
            try:
                psi(np.zeros((1, model.dim)))
            except Exception as exc:
                raise ParameterError(
                    f"config.psi is inconsistent with model.dim={model.dim}: {exc}"
                ) from exc
        load_body_spec(cfg["body"], dim=model.dim)  # validate early
        density = cfg.get("density", {})
        if "points" in density:
            try:
                shape = np.asarray(density["points"], dtype=float).shape
            except (TypeError, ValueError):
                shape = None
            if shape is None or len(shape) != 2 or shape[1] != model.dim:
                raise ParameterError(
                    f"config.density.points must be a list of points with "
                    f"model.dim={model.dim} coordinates each: {density['points']!r}"
                )
        subspaces = cfg.get("subspaces", [])
        if not isinstance(subspaces, list):
            raise ParameterError(f"config.subspaces must be a list of axis lists: {subspaces!r}")
        for i, axes in enumerate(subspaces):
            valid = isinstance(axes, list) and all(
                type(a) is int and 0 <= a < model.dim for a in axes
            )
            if not valid or not axes or len(set(axes)) != len(axes):
                raise ParameterError(
                    f"config.subspaces[{i}] must list distinct integer axes in "
                    f"[0, {model.dim}): {axes!r}"
                )
        return RunConfig(
            model=model,
            body_spec=cfg["body"],
            seed=int(cfg["seed"]),
            psi_spec=psi_spec,
            k_list=k_list,
            h=h,
            candidates=candidates,
            budget=budget,
            outputs=cfg.get("outputs", {}),
            grid=cfg.get("grid", {}),
            density=density,
            subspaces=subspaces,
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


def _pinned_direction(config: RunConfig, body: ConvexBody):
    if config.h is not None:
        return config.h
    cands = (
        config.candidates
        if config.candidates is not None
        else default_direction_candidates(body.dim, seed=config.seed)
    )
    h, _ = choose_direction(
        body, cands, boundary_samples=config.budget.boundary_samples, seed=config.seed
    )
    return h


# ------------------------------------------------------------- subcommands


def _run_perimeter(config: RunConfig):
    body = config.body
    h = _pinned_direction(config, body)
    pair = decompose(body, h, seed=config.seed)
    graph_est = total_boundary_measure(body, pair, budget=config.budget, seed=config.seed)
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
    if config.psi_spec is None:
        raise ParameterError("config.psi is required for the ibp subcommand")
    if not config.k_list:
        raise ParameterError("config.directions.k must be nonempty for ibp")
    body = config.body
    psi = psi_from_spec(config.psi_spec)
    records = []
    for i, k in enumerate(config.k_list):
        report = verify_ibp(
            body,
            psi,
            k,
            budget=config.budget,
            seed=config.seed,
            h=config.h,
            candidates=config.candidates,
            tol=config.tolerances.get("ibp"),
        )
        records.append(
            _record_from_report(f"ibp[k{i}]", report, extra={"k": report.metadata["k"]})
        )
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
        est = subspace_hausdorff(
            body, F, budget=config.budget, seed=config.seed, h=config.h
        )
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
    h = _pinned_direction(config, body)
    pair = decompose(body, h, seed=config.seed)
    pts, _, _ = ray_cast_boundary(body, config.budget.boundary_samples, config.seed)
    errs = []
    skipped = 0
    for x in pts:
        try:
            errs.append(gradient_formula_check(body, pair, x))
        except (DomainError, DegeneracyError):
            skipped += 1
    if not errs:
        raise ConvexGaussError("no usable boundary points for the gradient check")
    median = float(np.median(errs))
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
        extra={"points": len(errs), "skipped": skipped},
    )
    return [rec], []


def _run_density(config: RunConfig):
    body = config.body
    radius = float(config.density.get("radius", 0.1))
    samples = int(config.density.get("samples", 20000))
    if "points" in config.density:
        pts = [np.asarray(p, dtype=float) for p in config.density["points"]]
    else:
        count = int(config.density.get("boundary_points", 16))
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


def convergence_study(config: RunConfig, axis: str):
    """One row per grid point: value, standard error, wall time.

    Axes: dimension (KL-ellipsoid perimeter vs dim), subspace (nested
    boundary measures), samples (volume-integral SE scaling), epsilon
    (content-oracle shells).
    """
    rows = []
    records = []
    if axis == "dimension":
        dims = config.grid.get("dims")
        if not dims:
            raise ParameterError("config.grid.dims is required for the dimension axis")
        scale = float(config.grid.get("scale", 1.0))
        prev = None
        for d in dims:
            body = kl_ellipsoid(int(d), scale)
            h = np.eye(int(d))[0]
            t0 = time.perf_counter()
            pair = decompose(body, h, seed=config.seed)
            est = total_boundary_measure(
                body, pair, budget=config.budget, seed=config.seed, check_vertical=False
            )
            wall = time.perf_counter() - t0
            rows.append(
                {
                    "axis": "dimension",
                    "grid_point": int(d),
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
    if axis == "subspace":
        return _run_surface(config)
    if axis == "samples":
        grid = config.grid.get("samples")
        if not grid:
            raise ParameterError("config.grid.samples is required for the samples axis")
        if config.psi_spec is None or not config.k_list:
            raise ParameterError("samples axis needs config.psi and directions.k")
        body = config.body
        psi = psi_from_spec(config.psi_spec)
        k = config.k_list[0]
        for n_s in grid:
            t0 = time.perf_counter()
            est = lhs_volume_integral(
                body, psi, k, budget=replace(config.budget, samples=int(n_s)), seed=config.seed
            )
            wall = time.perf_counter() - t0
            rows.append(
                {
                    "axis": "samples",
                    "grid_point": int(n_s),
                    "value": est.value,
                    "std_error": est.std_error,
                    "wall_time_s": wall,
                }
            )
            records.append(
                _record(f"samples[{n_s}]", est.value, est.value, est.std_error, 0.0, 0.0, "pass")
            )
        return records, rows
    if axis == "epsilon":
        body = config.body
        eps = config.grid.get("epsilons", list(config.budget.epsilons))
        t0 = time.perf_counter()
        est = minkowski_content_perimeter(
            body, budget=replace(config.budget, epsilons=tuple(eps)), seed=config.seed
        )
        wall = time.perf_counter() - t0
        for e, rate, se in zip(
            est.details["epsilons"], est.details["shell_rates"], est.details["shell_se"]
        ):
            rows.append(
                {
                    "axis": "epsilon",
                    "grid_point": e,
                    "value": rate,
                    "std_error": se,
                    "wall_time_s": wall,
                }
            )
        records.append(
            _record(
                "epsilon_intercept",
                est.value,
                est.value,
                est.std_error,
                0.0,
                0.0,
                "pass",
            )
        )
        return records, rows
    raise ParameterError(f"unknown convergence axis {axis!r}")


# ------------------------------------------------------------------ driver


_DISPATCH = {
    "perimeter": _run_perimeter,
    "ibp": _run_ibp,
    "surface": _run_surface,
    "gradcheck": _run_gradcheck,
    "density": _run_density,
    "converge-dim": lambda cfg: convergence_study(cfg, "dimension"),
    "converge-subspace": lambda cfg: convergence_study(cfg, "subspace"),
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
    parser.add_argument("subcommand", choices=SUBCOMMANDS)
    parser.add_argument("--config", required=True, help="path to a JSON run config")
    parser.add_argument("--seed", type=int, default=None, help="override config seed")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument(
        "--threads", type=int, default=None, help="worker threads (results invariant)"
    )
    args = parser.parse_args(argv)
    try:
        cfg_dict = json.loads(Path(args.config).read_text())
        if args.seed is not None:
            cfg_dict["seed"] = args.seed
        config = RunConfig.from_dict(cfg_dict, threads_override=args.threads)
        return run(args.subcommand, config, Path(args.out))
    except (ConvexGaussError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
