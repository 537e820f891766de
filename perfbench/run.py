"""convexgauss benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload boundary --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the program is imported from its ``src``.
The workload's call list is generated from ``--seed`` (see workloads.py).
One untimed warm-up pass fills caches and records every call's output
signature; timed passes then repeat the same list until ``--seconds`` have
passed, each call starting when the previous one returns. Timed calls are
scaled to a reference machine speed by a kernel run between them (see
calibrate.py). Every output is checked. With ``--trace 0`` the end-to-end
metrics are printed; with ``--trace 1`` traced and untraced passes
alternate and the per-layer metrics are printed, after an untimed check
that the shipped demo configs reproduce their recorded hashes. The last
line of output is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate  # the script's own directory is first on sys.path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_CALLS = 40  # timed calls a run keeps at least, so p75 has ten beyond it
MIN_TRACED_PASSES = 2

# determinism-hash prefixes of the shipped demo configs, by config name and
# subcommand, with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1 (the hash
# covers the library versions)
DEMO_HASHES = {
    ("perimeter_ball", "perimeter"): "cf701e22f601",
    ("ibp_halfspace", "ibp"): "d392ab7673f5",
    ("subspace_ellipsoid", "surface"): "9c28e7f7fa62",
    ("kl_dimension_sweep", "converge-dim"): "9e86e9df4834",
}


class Runner:
    """Runs passes of one workload and checks every output."""

    def __init__(self, work, out_dir: Path):
        import convexgauss.cli as cli

        self.cli = cli
        self.work = work
        self.out_dir = out_dir
        self.signatures = {}
        self.attempted = 0
        self.failed = 0
        self.failures = []  # one line per reason, for the log
        self.ref_errors = {}  # (call, record, field) -> (relative error, panel)

    def _outcome(self, name, reasons):
        """Count one attempted call, failed when it has any reasons."""
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.extend(f"{name}: {why}" for why in reasons)

    # ------------------------------------------------------------ calls

    def _cli_call(self, call, tracer):
        cfg = copy.deepcopy(call.config)
        out = self.out_dir / call.name
        t0 = time.perf_counter()
        with tracer.span("cli.call") if tracer is not None else contextlib.nullcontext():
            config = self.cli.RunConfig.from_dict(cfg, threads_override=call.threads)
            rc = self.cli.run(call.subcommand, config, out)
        elapsed = time.perf_counter() - t0
        report = json.loads((out / "report.json").read_text())
        return elapsed, rc, report

    def run_pass(self, tracer=None, kernel=None):
        """One pass over the call list; returns (wall seconds, call seconds by
        call name). A call that fails is not timed.

        With a calibration kernel, the kernel runs before every call and
        after the last; each call's time is scaled to reference speed by the
        mean kernel time on either side of it. The wall time is unscaled and
        leaves the kernel out."""
        times = {}
        before = kernel() if kernel is not None else None
        in_kernel = 0.0
        t_pass = time.perf_counter()
        for call in self.work.calls:
            try:
                elapsed, rc, report = self._cli_call(call, tracer)
                reasons = self._check_cli(call, rc, report)
            except Exception as exc:  # a call that raises is a failed call
                reasons = [f"raised {type(exc).__name__}: {exc}"]
            self._outcome(call.name, reasons)
            if kernel is not None:
                after = kernel()
                in_kernel += after
                if not reasons:
                    elapsed *= calibrate.REFERENCE_S / (0.5 * (before + after))
                before = after
            if not reasons:
                times[call.name] = elapsed
        return time.perf_counter() - t_pass - in_kernel, times

    # ----------------------------------------------------------- checks

    def _check_cli(self, call, rc, report):
        reasons = [] if rc == 0 else [f"exit status {rc}"]
        for rec in report["results"]:
            if rec["verdict"] != "pass":
                reasons.append(f"{rec['name']} verdict {rec['verdict']}")
        for ref in call.references:
            value = report["results"][ref.record][ref.field]
            # a zero reference marks a value that is itself a relative error
            err = abs(value) if ref.value == 0.0 else abs(value - ref.value) / abs(ref.value)
            self.ref_errors[(call.name, ref.record, ref.field)] = (err, call.panel)
            if not err <= ref.rel_bound:
                reasons.append(f"{ref.what}: relative error {err:.3e} above {ref.rel_bound:.1e}")
        digest = report["determinism_hash"]
        first = self.signatures.setdefault(call.name, digest)
        if digest != first:
            reasons.append(f"determinism_hash {digest} differs from an earlier identical call ({first})")
        return reasons

    def thread_check(self):
        """Run the chosen config at one and at two threads: equal hashes,
        and equal to the timed passes' hash."""
        name = self.work.thread_check
        if name is None:
            return
        call = next(c for c in self.work.calls if c.name == name)
        for threads in (1, 2):
            probe = copy.copy(call)
            probe.threads = threads
            try:
                _, rc, report = self._cli_call(probe, None)
                reasons = self._check_cli(probe, rc, report)
            except Exception as exc:
                reasons = [f"raised {type(exc).__name__}: {exc}"]
            self._outcome(f"{name} at {threads} thread(s)", reasons)

    def demo_check(self):
        """The shipped demo configs reproduce their recorded hash prefixes."""
        for (cfg_name, sub), prefix in DEMO_HASHES.items():
            cfg = json.loads((ROOT / "demos" / "configs" / f"{cfg_name}.json").read_text())
            out = self.out_dir / f"demo-{cfg_name}"
            try:
                self.cli.run(sub, self.cli.RunConfig.from_dict(cfg), out)
                got = json.loads((out / cfg["outputs"]["report"]).read_text())["determinism_hash"][:12]
                reasons = [] if got == prefix else [f"hash prefix {got}, expected {prefix}"]
            except Exception as exc:
                reasons = [f"raised {type(exc).__name__}: {exc}"]
            self._outcome(f"demo {cfg_name} ({sub})", reasons)

    def rel_err_max(self):
        panel = [err for err, is_panel in self.ref_errors.values() if is_panel]
        return max(panel) if panel else float("nan")


# ------------------------------------------------------------- metrics


def tail(values, guaranteed):
    """The highest listed percentile with at least ten samples beyond it in
    a pool of ``guaranteed`` calls, the fewest a run keeps, so the percentile
    does not change with the number of passes. A pool too small for that
    gives the median."""
    import numpy as np

    for p in TAIL_PERCENTILES:
        if guaranteed * (1.0 - p / 100.0) >= 10.0:
            return float(np.percentile(values, p)), p
    return float(np.percentile(values, 50.0)), 50.0


def measure_setup(workload, seed):
    """Median of several fresh set-ups, each in its own process and scaled
    to reference speed by the kernel it runs after setting up."""
    probe = HERE / "setup_probe.py"
    times, raw = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), "--workload", workload, "--seed", str(seed)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        setup, kernel = map(float, done.stdout.split()[-2:])
        raw.append(setup)
        times.append(setup * calibrate.REFERENCE_S / kernel)
    return statistics.median(times), statistics.median(raw), len(times)


def min_untraced_passes(work):
    return math.ceil(MIN_CALLS / len(work.calls))


def timed_passes(runner, seconds, tracer_factory=None):
    """Repeat passes until `seconds` have passed. Without a tracer factory
    every pass is untraced and its calls are scaled to reference speed; with
    one, untraced and traced passes alternate, neither scaled. Returns
    (untraced pass walls, their call times per pass, traced passes) where
    traced passes are (wall, tracer) pairs."""
    walls, calls, traced = [], [], []
    kernel = calibrate.Kernel() if tracer_factory is None else None
    min_passes = min_untraced_passes(runner.work) if tracer_factory is None else MIN_TRACED_PASSES
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(walls) < min_passes:
        wall, times = runner.run_pass(kernel=kernel)
        walls.append(wall)
        calls.append(times)
        if tracer_factory is not None:
            tracer = tracer_factory()
            tracer.install()
            try:
                wall, _ = runner.run_pass(tracer)
            finally:
                tracer.uninstall()
            traced.append((wall, tracer))
    return walls, calls, traced


def emit(name, value, unit, note=""):
    print(f"  {name:<32} {value:>14.6g} {unit:<6} {note}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None, help="input seed (default 1; 9001 is held out)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "convexgauss" / "__init__.py").is_file():
        print(f"error: no convexgauss sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    setup_s, setup_raw, setup_n = measure_setup(args.workload, args.seed)
    work = workloads.generate(args.workload, args.seed)
    print(f"workload {work.name} seed {args.seed}: {len(work.calls)} calls per pass, inputs {workloads.fingerprint(work)[:16]}")

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(work, Path(tmp))
        if args.trace:
            runner.demo_check()
        runner.run_pass()  # warm-up: records signatures, not timed
        if args.trace:
            import tracer as tracing

            walls, calls, traced = timed_passes(runner, args.seconds, tracing.Tracer)
        else:
            walls, calls, traced = timed_passes(runner, args.seconds)
        runner.thread_check()

    failed, attempted = runner.failed, runner.attempted
    problems = []  # run-level checks that are not calls
    metrics = {}
    if not args.trace:
        scaled = [sum(times.values()) for times in calls]
        pool = [t for times in calls for t in times.values()]
        tail_value, tail_p = tail(pool, min_untraced_passes(work) * len(work.calls))
        rows = [
            ("run_s", statistics.median(scaled), "s", f"median of {len(scaled)} passes at reference speed (unscaled median {statistics.median(walls):.4g})"),
            ("call_s.p50", statistics.median(pool), "s", f"median of {len(pool)} calls at reference speed"),
            ("call_s.tail", tail_value, "s", f"p{tail_p:g} of the same {len(pool)} calls"),
            ("setup_s", setup_s, "s", f"median of {setup_n} set-ups at reference speed (unscaled median {setup_raw:.4g})"),
            ("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "1 process"),
            ("pass_share", 1.0 - failed / attempted, "ratio", f"fail_share {failed}/{attempted} = {failed / attempted:.4g}"),
            ("rel_err.max", runner.rel_err_max(), "ratio", f"worst of {sum(1 for _, p in runner.ref_errors.values() if p)} panel references"),
        ]
    else:
        import tracer as tracing

        per_pass = [tracing.per_layer_metrics(t.roots, wall) for wall, t in traced]
        rows = []
        for name, (value, unit) in per_pass[0].items():
            values = [m[name][0] for m in per_pass]
            if unit == "s":
                rows.append((name, statistics.median(values), unit, f"median of {len(values)} traced passes"))
            else:
                if any(v != values[0] for v in values):
                    problems.append(f"count {name} differs between traced passes: {values}")
                rows.append((name, values[0], unit, "per pass, equal in every traced pass"))
        overhead = statistics.median(w for w, _ in traced) - statistics.median(walls)
        rows.append(("trace.overhead_s", overhead, "s", f"traced minus untraced run_s, {len(traced)} + {len(walls)} passes"))
        _write_spans(args, traced, tracing)

    for why in (runner.failures + problems)[:20]:
        print(f"FAILED {why}")
    print(f"metrics ({'per layer, traced' if args.trace else 'end to end, untraced'}):")
    for name, value, unit, note in rows:
        emit(name, value, unit, note)
        metrics[name] = {"value": value, "unit": unit}
    result = {
        "correct": failed == 0 and not problems and all(math.isfinite(m["value"]) for m in metrics.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def _write_spans(args, traced, tracing):
    """Write the spans of every traced pass, kept in memory until now."""
    out = ROOT / ".perfbench-trace"
    out.mkdir(exist_ok=True)
    path = out / f"{args.workload}-seed{args.seed}.json"
    passes = [tracing.spans_to_rows(t.roots) for _, t in traced]
    path.write_text(json.dumps({"workload": args.workload, "seed": args.seed, "passes": passes}))


if __name__ == "__main__":
    sys.exit(main())
