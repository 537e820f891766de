"""Compare the determinism hashes of two source trees.

    python3 tools/compare_trees.py PARENT_ROOT

Runs, on the tree at PARENT_ROOT and then on this tree, the same list of
CLI calls:

* every call of the benchmark's ``boundary`` and ``ibp_volume`` workloads
  (``perfbench/workloads.generate``) at seeds 1 and 9001, each ``ibp`` call
  at one and at two threads;
* the four shipped demo configs in ``demos/configs``.

The configs come from this tree and are only read. Each tree runs in its
own Python process with that tree's ``src`` first on the path. The tool
prints every call's full ``determinism_hash`` on both trees, then the
number that differ, and exits 1 when any differs. A call that raises
reports the exception in place of its hash.
"""

from __future__ import annotations

import argparse
import copy
import json
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 9001)
WORKLOADS = ("boundary", "ibp_volume")
IBP_THREADS = (1, 2)
# shipped demo configs and the subcommand each one is run with
DEMOS = {
    "perimeter_ball": "perimeter",
    "ibp_halfspace": "ibp",
    "subspace_ellipsoid": "surface",
    "kl_dimension_sweep": "converge-dim",
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
    return out


def worker(tree: Path) -> None:
    """Run the jobs read from stdin on the tree's sources and print a JSON
    object mapping each label to its hash."""
    sys.path.insert(0, str(tree / "src"))
    import convexgauss.cli as cli

    source = Path(cli.__file__).resolve()
    if tree.resolve() not in source.parents:
        raise SystemExit(f"imported convexgauss from {source}, not from {tree}")
    hashes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (label, subcommand, config, threads) in enumerate(json.load(sys.stdin)):
            out = Path(tmp) / str(i)
            try:
                parsed = cli.RunConfig.from_dict(copy.deepcopy(config), threads_override=threads)
                cli.run(subcommand, parsed, out)
                report = out / parsed.outputs.get("report", "report.json")
                hashes[label] = json.loads(report.read_text())["determinism_hash"]
            except Exception as exc:  # a raising call is reported, not fatal
                hashes[label] = f"raised {type(exc).__name__}: {exc}"
    json.dump(hashes, sys.stdout)


def run_tree(tree: Path, calls: list) -> dict:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", str(tree)],
        input=json.dumps(calls),
        capture_output=True,
        text=True,
        check=True,
    )
    return json.loads(done.stdout)


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
    for label, *_ in calls:
        same = parent[label] == this[label]
        differ += not same
        print(f"{label}: {'same' if same else 'DIFFERS'}")
        print(f"  parent {parent[label]}")
        print(f"  this   {this[label]}")
    print(f"{differ} of {len(calls)} determinism hashes differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
