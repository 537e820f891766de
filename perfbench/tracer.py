"""Span and count recorders for the traced benchmark run.

The program is traced from outside: ``Tracer.install`` replaces the public
entry points of each convexgauss module with wrappers, in every module
namespace where other modules look them up, and ``Tracer.uninstall`` puts
the originals back. Bodies built through ``load_body_spec`` get counting
``contains`` and ``distance_outside`` callables. Oracle calls are too many
to keep one span each, so their rows and time are added to the span that
made them.

A span's self time is its duration minus the time its children and oracle
calls cover. Children that overlap (chunks run on worker threads) cover the
union of their intervals, and their own times are scaled by union / sum, so
the self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from dataclasses import replace

import numpy as np

LAYERS = ("cli", "ibp", "surface", "graphs", "bodies", "space")

# (module, attribute, span name). A name is wrapped in each module whose
# code looks it up, so calls across module boundaries are all seen; the list
# covers what the perimeter, surface, gradcheck and ibp subcommands reach.
PATCHES = (
    ("convexgauss.cli", "load_body_spec", "bodies.build"),
    ("convexgauss.graphs", "minkowski_functional", "bodies.gauge"),
    ("convexgauss.graphs", "minkowski_gradient_fd", "bodies.gauge"),
    ("convexgauss.ibp", "minkowski_gradient_fd", "bodies.gauge"),
    ("convexgauss.cli", "decompose", "graphs.decompose"),
    ("convexgauss.ibp", "decompose", "graphs.decompose"),
    ("convexgauss.cli", "choose_direction", "graphs.direction"),
    ("convexgauss.ibp", "choose_direction", "graphs.direction"),
    ("convexgauss.graphs", "choose_direction", "graphs.direction"),
    ("convexgauss.cli", "ray_cast_boundary", "graphs.direction"),
    ("convexgauss.graphs", "ray_cast_boundary", "graphs.direction"),
    ("convexgauss.cli", "default_direction_candidates", "graphs.direction"),
    ("convexgauss.ibp", "default_direction_candidates", "graphs.direction"),
    ("convexgauss.ibp", "boundary_classify", "graphs.classify"),
    ("convexgauss.ibp", "graph_value_and_gradient", "graphs.value_gradient"),
    ("convexgauss.surface", "_section_endpoints", "graphs.sections"),
    ("convexgauss.surface", "_golden_min_gauge", "graphs.golden"),
    ("convexgauss.cli", "total_boundary_measure", "surface.total"),
    ("convexgauss.cli", "minkowski_content_perimeter", "surface.content"),
    ("convexgauss.cli", "subspace_hausdorff", "surface.subspace"),
    ("convexgauss.ibp", "graph_surface_integral", "surface.graph"),
    ("convexgauss.surface", "graph_surface_integral", "surface.graph"),
    ("convexgauss.surface", "area_formula_integral", "surface.area"),
    ("convexgauss.cli", "verify_ibp", "ibp.verify"),
    ("convexgauss.ibp", "lhs_volume_integral", "ibp.lhs"),
    ("convexgauss.ibp", "rhs_surface_integral", "ibp.rhs"),
    ("convexgauss.cli", "gradient_formula_check", "ibp.gradcheck"),
    ("convexgauss.cli", "psi_from_spec", "ibp.psi"),
    ("convexgauss.ibp", "map_chunks", "space.map_chunks"),
    ("convexgauss.surface", "map_chunks", "space.map_chunks"),
    ("convexgauss.surface", "sample_gaussian", "space.sample"),
    ("convexgauss.surface", "gaussian_density", "space.density"),
    ("convexgauss.ibp", "adjoint_derivative", "space.adjoint"),
    ("convexgauss.space", "gauss_hermite_nodes", "space.gh_nodes"),
)


class Span:
    """One call of a wrapped entry point, with the oracle work it did itself."""

    __slots__ = (
        "name", "layer", "parent", "children", "t0", "t1", "counts",
        "contains_calls", "contains_rows", "contains_accepted", "contains_s",
        "distance_rows", "distance_s", "counts_accepted",
    )

    def __init__(self, name, layer, parent):
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children = []
        self.counts = {}
        self.contains_calls = 0
        self.contains_rows = 0
        self.contains_accepted = 0
        self.contains_s = 0.0
        self.distance_rows = 0
        self.distance_s = 0.0
        # accepted rows matter only for the Monte Carlo volume side
        self.counts_accepted = name.startswith("ibp.lhs")
        self.t0 = time.perf_counter()
        self.t1 = None

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value

    def oracle_counts(self):
        return {
            "contains.calls": self.contains_calls,
            "contains.rows": self.contains_rows,
            "contains.accepted": self.contains_accepted,
            "distance.rows": self.distance_rows,
        }


class Tracer:
    """Records spans in memory; one instance per traced pass."""

    def __init__(self):
        self.roots = []
        self._local = threading.local()
        self._saved = []
        self._skips = ()  # errors the gradient check counts as skipped points

    # ------------------------------------------------------------- spans

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name, layer=None, parent=None):
        stack = self._stack()
        parent = parent if parent is not None else (stack[-1] if stack else None)
        span = Span(name, layer or name.split(".", 1)[0], parent)
        if parent is None:
            self.roots.append(span)
        else:
            parent.children.append(span)
        stack.append(span)
        return span

    def close(self, span):
        span.t1 = time.perf_counter()
        stack = self._stack()
        stack.pop()

    @contextlib.contextmanager
    def span(self, name, layer=None):
        span = self.open(name, layer)
        try:
            yield span
        finally:
            self.close(span)

    # ---------------------------------------------------------- wrappers

    def _wrap(self, fn, name):
        if name == "space.map_chunks":
            return self._wrap_map_chunks(fn)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                out = fn(*args, **kwargs)
                if name == "bodies.build":
                    out = tracer.instrument(out)
            except tracer._skips:
                if name == "ibp.gradcheck":
                    span.add("skipped", 1)
                raise
            finally:
                tracer.close(span)
            tracer._count_result(span, name, args, kwargs, out)
            return out

        return wrapper

    def _count_result(self, span, name, args, kwargs, out):
        if name == "surface.graph":
            span.add("nodes", int(out.n_samples))
        elif name == "graphs.classify":
            span.add("calls", 1)
            span.add("vertical", int(out == "vertical"))
        elif name == "bodies.gauge":
            span.add("calls", 1)
        elif name == "space.sample":
            count = args[1] if len(args) > 1 else kwargs["count"]
            span.add("rows", int(count))

    def _wrap_map_chunks(self, fn):
        """Each chunk becomes a span on the thread that runs it, named after
        the span that called map_chunks, whose code the chunk runs."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(chunk_fn, count, threads=1):
            span = tracer.open("space.map_chunks")
            caller = span.parent
            chunk_name = (caller.name if caller is not None else "space") + ".chunk"
            chunk_layer = caller.layer if caller is not None else "space"

            def traced_chunk(idx, size):
                child = tracer.open(chunk_name, chunk_layer, parent=span)
                try:
                    return chunk_fn(idx, size)
                finally:
                    tracer.close(child)

            try:
                out = fn(traced_chunk, count, threads=threads)
            finally:
                tracer.close(span)
            span.add("chunks", len(out))
            span.add("rows", int(count))
            return out

        return wrapper

    def instrument(self, body):
        """A copy of the body whose oracles count rows and time."""
        tracer = self
        contains = body.contains
        distance = body.distance_outside

        def counting_contains(x):
            t0 = time.perf_counter()
            out = contains(x)
            dt = time.perf_counter() - t0
            span = tracer.current()
            if span is not None:
                span.contains_s += dt
                span.contains_calls += 1
                span.contains_rows += getattr(out, "size", 1)
                if span.counts_accepted:
                    span.contains_accepted += int(np.count_nonzero(out))
            return out

        counted = {"contains": counting_contains}
        if distance is not None:

            def counting_distance(x):
                t0 = time.perf_counter()
                out = distance(x)
                dt = time.perf_counter() - t0
                span = tracer.current()
                if span is not None:
                    span.distance_s += dt
                    span.distance_rows += np.size(out)
                return out

            counted["distance_outside"] = counting_distance
        return replace(body, **counted)

    def install(self):
        errors = importlib.import_module("convexgauss.errors")
        self._skips = (errors.DomainError, errors.DegeneracyError)
        for module_name, attr, name in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()


# ------------------------------------------------------------- summaries


def _union(intervals):
    total = 0.0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def _bump(table, key, value):
    table[key] = table.get(key, 0) + value


def summarize(roots):
    """Totals of one traced pass.

    Returns (layer_self, inclusive, totals, under):
    layer_self -- self seconds per layer;
    inclusive -- seconds per span name, over spans with no ancestor of the
    same name;
    totals -- every count summed over all spans, and the oracle seconds;
    under -- per span name, the counts in the subtrees of those same spans.
    """
    layer_self = dict.fromkeys(LAYERS, 0.0)
    inclusive, totals, under = {}, {}, {}

    def visit(span, weight, open_names):
        dur = span.t1 - span.t0
        kids = span.children
        kid_sum = sum(c.t1 - c.t0 for c in kids)
        kid_cover = _union([(c.t0, c.t1) for c in kids])
        kid_weight = weight * kid_cover / kid_sum if kid_sum > 0 else weight
        oracle_s = span.contains_s + span.distance_s
        layer_self[span.layer] += weight * max(0.0, dur - kid_cover - oracle_s)
        layer_self["bodies"] += weight * oracle_s
        _bump(totals, "contains.s", weight * span.contains_s)
        _bump(totals, "distance.s", weight * span.distance_s)
        subtree = span.oracle_counts()
        for key, value in span.counts.items():
            subtree[f"{span.name}:{key}"] = value
        for key, value in subtree.items():
            _bump(totals, key, value)
        outermost = span.name not in open_names
        if outermost:
            _bump(inclusive, span.name, weight * dur)
            open_names = open_names | {span.name}
        for child in kids:
            for key, value in visit(child, kid_weight, open_names).items():
                _bump(subtree, key, value)
        if outermost:
            agg = under.setdefault(span.name, {})
            for key, value in subtree.items():
                _bump(agg, key, value)
        return subtree

    for root in roots:
        visit(root, 1.0, frozenset())
    return layer_self, inclusive, totals, under


def per_layer_metrics(roots, pass_s):
    """The per-layer metrics of one traced pass that took ``pass_s`` seconds:
    name -> (value, unit). ``trace.overhead_s`` needs the untraced passes
    and is added by the caller."""
    layer_self, inclusive, totals, under = summarize(roots)

    def ratio(a, b):
        return a / b if b else 0.0

    def within(name, key):
        return under.get(name, {}).get(key, 0)

    contains_calls = totals.get("contains.calls", 0)
    contains_rows = totals.get("contains.rows", 0)
    nodes = totals.get("surface.graph:nodes", 0)
    classify_calls = totals.get("graphs.classify:calls", 0)
    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    seconds = {
        "ibp.lhs.s": "ibp.lhs",
        "ibp.rhs.s": "ibp.rhs",
        "ibp.gradcheck.s": "ibp.gradcheck",
        "surface.graph.s": "surface.graph",
        "surface.content.s": "surface.content",
        "surface.subspace.s": "surface.subspace",
        "graphs.decompose.s": "graphs.decompose",
        "graphs.direction.s": "graphs.direction",
        "graphs.classify.s": "graphs.classify",
        "bodies.build.s": "bodies.build",
        "bodies.gauge.s": "bodies.gauge",
        "space.gh_nodes.s": "space.gh_nodes",
    }
    m.update({metric: (inclusive.get(span, 0.0), "s") for metric, span in seconds.items()})
    m.update(
        {
            "ibp.lhs.acceptance": (
                ratio(within("ibp.lhs", "contains.accepted"), within("ibp.lhs", "contains.rows")),
                "ratio",
            ),
            "ibp.gradcheck.skipped": (totals.get("ibp.gradcheck:skipped", 0), "count"),
            "surface.graph.nodes": (nodes, "count"),
            "surface.rows_per_node": (ratio(within("surface.graph", "contains.rows"), nodes), "rows"),
            "graphs.classify.calls": (classify_calls, "count"),
            "graphs.classify.vertical": (totals.get("graphs.classify:vertical", 0), "count"),
            "graphs.rows_per_point": (
                ratio(within("graphs.classify", "contains.rows"), classify_calls),
                "rows",
            ),
            "bodies.contains.calls": (contains_calls, "count"),
            "bodies.contains.rows": (contains_rows, "count"),
            "bodies.contains.rows_per_call": (ratio(contains_rows, contains_calls), "rows"),
            "bodies.contains.s": (totals.get("contains.s", 0.0), "s"),
            "bodies.gauge.calls": (totals.get("bodies.gauge:calls", 0), "count"),
            "bodies.distance.rows": (totals.get("distance.rows", 0), "count"),
            "bodies.distance.s": (totals.get("distance.s", 0.0), "s"),
            "space.sample.rows": (
                totals.get("space.sample:rows", 0) + totals.get("space.map_chunks:rows", 0),
                "count",
            ),
            "space.chunks": (totals.get("space.map_chunks:chunks", 0), "count"),
            "trace.pass_s": (pass_s, "s"),
            "trace.unattributed_s": (pass_s - sum(layer_self[layer] for layer in LAYERS), "s"),
        }
    )
    return m


def spans_to_rows(roots):
    """Flat rows (id, parent id, name, start, end, counts) for writing out."""
    rows = []

    def visit(span, parent_id):
        sid = len(rows)
        rows.append([sid, parent_id, span.name, span.t0, span.t1, span.counts or None])
        for child in span.children:
            visit(child, sid)

    for root in roots:
        visit(root, None)
    return rows
