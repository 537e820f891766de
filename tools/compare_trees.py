"""Compare the outputs of two source trees: hashes, values and verdicts.

    python3 tools/compare_trees.py PARENT_ROOT

Runs, on the tree at PARENT_ROOT and then on this tree, the same list of
CLI calls:

* every call of the benchmark's ``boundary`` and ``ibp_volume`` workloads
  (``perfbench/workloads.generate``) at seeds 1 and 9001, each ``ibp`` call
  at one and at two threads;
* the four shipped demo configs in ``demos/configs``;
* three fixed 5-d calls on the Monte Carlo graph route, which neither
  reaches: ``converge-dim`` at dimension 5 and ``ibp`` on a halfspace and
  a slab, each ``ibp`` call at one and at two threads;
* three fixed calls on paths neither reaches either: a ``surface`` call
  on an off-centre ellipsoid, whose golden sweeps find inside points of
  thin sections that the lattice probe misses, a ``gradcheck`` call with
  no ``directions.h``, whose one ray cast both chooses the direction and
  gives the check points, and an ``ibp`` call with no ``directions.h``,
  whose pair keeps the chosen direction's vertical-mass estimate, at one
  and at two threads.

That is 47 calls in all.

The configs come from this tree and are only read. Each tree runs in its
own Python process with that tree's ``src`` first on the path. For every
call the tool prints the full ``determinism_hash`` on both trees, and for
every result record its verdict on both trees and the change of each of
its two values (``lhs`` and ``rhs``):

* a deterministic value (standard error 0 on both trees) by its relative
  change, |this - parent| / |parent|;
* a Monte Carlo value by its change in combined standard errors,
  (this - parent) / sqrt(se_parent^2 + se_this^2).

It ends with the number of differing hashes and the counts that break the
rule for value-changing changes: a verdict that changed, a deterministic
value that moved by more than 1e-6 relative, a Monte Carlo value that moved
by more than 3 combined standard errors, and a call whose records could not
be compared (it raised, or its records differ in number or name).

Exit status: 0 when every hash is equal, 3 when hashes differ but the rule
holds, 1 when the rule breaks, 2 when PARENT_ROOT holds no sources.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 9001)
WORKLOADS = ("boundary", "ibp_volume")
IBP_THREADS = (1, 2)
MAX_REL_CHANGE = 1e-6  # largest relative move of a deterministic value
MAX_SE_CHANGE = 3.0  # largest move of a Monte Carlo value, in combined errors
VALUES = (("lhs", "se_l"), ("rhs", "se_r"))
# shipped demo configs and the subcommand each one is run with
DEMOS = {
    "perimeter_ball": "perimeter",
    "ibp_halfspace": "ibp",
    "subspace_ellipsoid": "surface",
    "kl_dimension_sweep": "converge-dim",
}

# fixed calls on the Monte Carlo graph route (a hyperplane of dimension
# 4 or more), with the subcommand each one is run with
_HALF = [0.5, 0.5, 0.5, 0.5, 0.0]
_TILT = [0.0, 0.5, -0.5, 0.5, 0.5]
MONTE_CARLO = {
    "converge_dim5": (
        "converge-dim",
        {
            "model": {"dim": 5},
            "body": {"shape": "kl_ellipsoid", "scale": 1.0},
            "grid": {"dims": [5]},
            "budgets": {"samples": 20000},
            "seed": 5,
        },
    ),
    "ibp_halfspace5d": (
        "ibp",
        {
            "model": {"dim": 5},
            "body": {"shape": "halfspace", "normal": _HALF, "offset": 0.7},
            "psi": {"name": "tanh", "weights": [0.8, -0.6, 0.4, 0.7, 0.2], "offset": 1.0},
            "directions": {"k": [_HALF, [1.0, 0.0, 0.0, 0.0, 0.0]], "h": _HALF},
            "budgets": {"samples": 20000},
            "seed": 6,
        },
    ),
    "ibp_slab5d": (
        "ibp",
        {
            "model": {"dim": 5},
            "body": {"shape": "slab", "normal": _TILT, "half_width": 0.9},
            "psi": {"name": "coordinate", "index": 2},
            "directions": {"k": [_TILT, [0.0, 0.0, 1.0, 0.0, 0.0]], "h": _TILT},
            "budgets": {"samples": 20000},
            "seed": 7,
        },
    ),
}


# fixed calls on paths the benchmark does not reach: a surface call whose
# sections are centred off the lattice probe's points (at seed 11 the golden
# sweeps find 6 sections through [0] and 7 through [0, 1], of 151 and 109
# searched), and a gradcheck and an ibp call that choose their direction
FIXED = {
    "surface_offcentre_ellipsoid": (
        "surface",
        {
            "model": {"dim": 3},
            "body": {"shape": "ellipsoid", "semiaxes": [1.2, 1.0, 0.9], "translate": [0.25, 0.25, 0.1]},
            "subspaces": [[0], [0, 1]],
            "budgets": {"subspace_samples": 400, "inner_angles": 256},
            "seed": 11,
        },
    ),
    "gradcheck_chosen_ellipsoid": (
        "gradcheck",
        {
            "model": {"dim": 3},
            "body": {"shape": "ellipsoid", "semiaxes": [1.2, 0.9, 0.8]},
            "budgets": {"boundary_samples": 24},
            "seed": 12,
        },
    ),
    "ibp_chosen_ellipsoid": (
        "ibp",
        {
            "model": {"dim": 3},
            "body": {"shape": "ellipsoid", "semiaxes": [1.2, 0.9, 0.8]},
            "psi": {"name": "tanh", "weights": [0.5, -1.0, 0.3], "offset": 0.2},
            "directions": {"k": [[1.0, 0.0, 0.0], [0.0, 0.6, 0.8]]},
            "budgets": {"samples": 20000, "sphere_grid": [8, 16], "radial": 8, "boundary_samples": 200},
            "seed": 13,
        },
    ),
}


def jobs() -> list:
    """Every call to compare, as (label, subcommand, config, threads)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    out = []
    for name in WORKLOADS:
        for seed in SEEDS:
            for call in workloads.generate(name, seed).calls:
                label = f"{name}/seed{seed}/{call.name}"
                if call.subcommand == "ibp":
                    out += [
                        (f"{label}@{t}t", call.subcommand, call.config, t) for t in IBP_THREADS
                    ]
                else:
                    out.append((label, call.subcommand, call.config, call.threads))
    for name, subcommand in DEMOS.items():
        config = json.loads((ROOT / "demos" / "configs" / f"{name}.json").read_text())
        out.append((f"demo/{name}", subcommand, config, None))
    for group, calls in (("mc", MONTE_CARLO), ("fixed", FIXED)):
        for name, (subcommand, config) in calls.items():
            threads = IBP_THREADS if subcommand == "ibp" else (None,)
            label = f"{group}/{name}"
            out += [(label + (f"@{t}t" if t else ""), subcommand, config, t) for t in threads]
    return out


def worker(tree: Path) -> None:
    """Run the jobs read from stdin on the tree's sources and print a JSON
    object mapping each label to its hash and result records, or to the
    exception it raised."""
    sys.path.insert(0, str(tree / "src"))
    import convexgauss.cli as cli

    source = Path(cli.__file__).resolve()
    if tree.resolve() not in source.parents:
        raise SystemExit(f"imported convexgauss from {source}, not from {tree}")
    outputs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, subcommand, config, threads) in enumerate(json.load(sys.stdin)):
            out = Path(tmp) / str(i)
            try:
                parsed = cli.RunConfig.from_dict(copy.deepcopy(config), threads_override=threads)
                cli.run(subcommand, parsed, out)
                report = out / parsed.outputs.get("report", "report.json")
                report = json.loads(report.read_text())
                outputs[label] = {"hash": report["determinism_hash"], "results": report["results"]}
            except Exception as exc:  # a raising call is reported, not fatal
                outputs[label] = {"hash": f"raised {type(exc).__name__}: {exc}", "results": None}
    json.dump(outputs, sys.stdout)


def run_tree(tree: Path, calls: list) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree)],
        input=json.dumps(calls),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


def value_change(old: dict, new: dict, value: str, se: str):
    """(kind, change) of one value of a result record between two trees:
    ("deterministic", relative change) or ("monte_carlo", change in
    combined standard errors)."""
    a, b = old[value], new[value]
    spread = math.hypot(old[se], new[se])
    if spread > 0.0:
        return "monte_carlo", (b - a) / spread
    if a == b:
        return "deterministic", 0.0
    return "deterministic", abs(b - a) / abs(a) if a != 0.0 else math.inf


def compare_records(old, new, broken: dict, worst: dict) -> list:
    """Report lines for one call's records, counting rule breaks in broken
    and the largest changes in worst."""
    if old is None or new is None or [r["name"] for r in old] != [r["name"] for r in new]:
        broken["uncomparable"] += 1
        return ["  records cannot be compared"]
    lines = []
    for a, b in zip(old, new):
        same = a["verdict"] == b["verdict"]
        broken["verdicts"] += not same
        parts = [f"verdict {a['verdict']}/{b['verdict']}{'' if same else ' CHANGED'}"]
        for value, se in VALUES:
            kind, change = value_change(a, b, value, se)
            if kind == "deterministic":
                over, shown = change > MAX_REL_CHANGE, f"rel {change:.3g}"
            else:
                over, shown = abs(change) > MAX_SE_CHANGE, f"{change:+.3g} SE"
            flag = " OVER" if over else ""
            parts.append(f"{value} {a[value]:.16g} -> {b[value]:.16g} {shown}{flag}")
            broken[kind] += over
            worst[kind] = max(worst[kind], abs(change))
        lines.append(f"  {a['name']}: " + "; ".join(parts))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path, help="root of the tree to compare against")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.worker:
        worker(args.parent_root)
        return 0
    if not (args.parent_root / "src" / "convexgauss").is_dir():
        print(f"error: no convexgauss sources under {args.parent_root / 'src'}", file=sys.stderr)
        return 2
    calls = jobs()
    parent = run_tree(args.parent_root, calls)
    this = run_tree(ROOT, calls)
    differ = 0
    broken = {"verdicts": 0, "deterministic": 0, "monte_carlo": 0, "uncomparable": 0}
    worst = {"deterministic": 0.0, "monte_carlo": 0.0}
    for label, *_ in calls:
        old, new = parent[label], this[label]
        same = old["hash"] == new["hash"]
        differ += not same
        print(f"{label}: {'same' if same else 'DIFFERS'}")
        print(f"  parent {old['hash']}")
        print(f"  this   {new['hash']}")
        for line in compare_records(old["results"], new["results"], broken, worst):
            print(line)
    print(f"{differ} of {len(calls)} determinism hashes differ")
    print(
        f"rule: {broken['verdicts']} verdicts changed, "
        f"{broken['deterministic']} deterministic values moved more than {MAX_REL_CHANGE:g} "
        f"relative (largest {worst['deterministic']:.3g}), "
        f"{broken['monte_carlo']} Monte Carlo values moved more than {MAX_SE_CHANGE:g} "
        f"combined standard errors (largest {worst['monte_carlo']:.3g}), "
        f"{broken['uncomparable']} calls not comparable"
    )
    if any(broken.values()):
        return 1
    return 3 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
