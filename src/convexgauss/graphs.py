"""Graph decomposition of a convex boundary along a direction.

Along a unit direction h, every section {t : y + t h in body} of an open
convex set is an open interval (g(y), f(y)) over the projected domain; the
boundary splits into the graph of the concave upper function f, the convex
lower function g, and a vertical remainder. This module locates sections,
classifies the four finiteness cases, evaluates f/g and their in-plane
gradients, classifies boundary points, and scores candidate directions by
the surface mass their vertical set carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .bodies import (
    DEFAULT_GAUGE_TOL,
    ConvexBody,
    bisect,
    minkowski_functional,
    minkowski_gradient_fd,
    orthonormal_complement,
)
from .errors import (
    DegenerateDirectionError,
    DomainError,
    MarginError,
    OracleIntegrityError,
    ParameterError,
)
from .space import DEFAULT_FD_STEP, EstimateWithError, as_direction

DEFAULT_SECTION_TOL = 1e-12
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
GOLDEN_STEPS = 80  # golden-section steps of every row that does not settle
GOLDEN_GAUGE_TOL = 1e-12  # relative tolerance of every golden-section gauge
GOLDEN_SETTLE_MARGIN = 1e-9  # a row settles once its minimum is provably this far above the stop level
EMPTY_SECTION_GRID = 5  # probes per axis of each zoom level of the empty-section proof
EMPTY_SECTION_LEVELS = 30  # zoom levels, each halving the probe spacing
EMPTY_SECTION_STEP = 1e-6  # forward-difference step of its slope bound

CASE_BOTH_INFINITE = "both_infinite"
CASE_F_FINITE_ONLY = "f_finite_only"
CASE_G_FINITE_ONLY = "g_finite_only"
CASE_BOTH_FINITE = "both_finite"

__all__ = [
    "GraphPair",
    "decompose",
    "function_graph",
    "section_interval",
    "classify_case",
    "graph_value_and_gradient",
    "boundary_classify",
    "choose_direction",
    "default_direction_candidates",
]


def _golden_min_gauge(body: ConvexBody, Y: np.ndarray, h: np.ndarray, stop=None):
    """Vectorized golden-section minimization of t -> gauge(y + t h) over
    [-T, T], T just past the body's reach.

    Returns (t_min, q_min) per row. The map is convex in t, so golden section
    is valid; it is the membership-only fallback for thin sections. Each step
    gauges both probes c and d of every searching row in one stacked call; a
    row's gauge depends only on that row, so the values are those of
    separate calls. Without `stop` every row runs GOLDEN_STEPS steps.

    `stop` is for callers that discard every row whose minimum is not below
    it. Such a row also gauges its bracket ends a and b once, and before
    each step bounds the map from below over all of [-T, T]: the chord
    (c, d) extended over [a, c] and [d, b], the chords (a, c) and (d, b)
    extended into [c, d], and for each piece given up so far the bound it
    had then, every probe taken at its worst case within the gauge
    tolerance. Once that bound exceeds stop + GOLDEN_SETTLE_MARGIN the row
    settles: it leaves the search and returns its better probe and that
    probe's gauge, which is >= stop. A probe below stop caps every later
    bound below it, so once each searching row has had one, the bounds stop.
    A row that never settles runs every step and returns exactly what a call
    without `stop` returns.
    """
    N = Y.shape[0]
    T = body.reach * (1.0 + 1e-9)
    rows = np.arange(N)
    t_min = np.empty(N)
    q_min = np.empty(N)
    Yr, Y2 = Y, np.concatenate([Y, Y])  # the searching rows, alone and twice

    def gauge(*params):
        # one stacked call: the searching rows at each parameter in turn
        k = len(params)
        X = (Y2 if k == 2 else np.concatenate([Yr] * k)) + np.concatenate(params)[:, None] * h
        return minkowski_functional(body, X, tol=GOLDEN_GAUGE_TOL).reshape(k, -1)

    a = np.full(N, -T)
    b = np.full(N, T)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    if stop is None:
        fc, fd = gauge(c, d)
    else:
        fc, fd, fa, fb = gauge(c, d, a, b)
        given_up = np.full(N, np.inf)  # bound of the map over the pieces given up
    for _ in range(GOLDEN_STEPS):
        if stop is not None:
            floors = _piece_floors(a, c, d, b, fa, fc, fd, fb)
            settled = np.minimum.reduce([given_up, *floors]) > stop + GOLDEN_SETTLE_MARGIN
            if settled.any():
                done = rows[settled]
                t_min[done] = np.where(fc < fd, c, d)[settled]
                q_min[done] = np.minimum(fc, fd)[settled]
                keep = ~settled
                rows, Yr, a, b, c, d, fa, fb, fc, fd, given_up, *floors = (
                    v[keep] for v in (rows, Yr, a, b, c, d, fa, fb, fc, fd, given_up, *floors)
                )
                if not rows.size:
                    return t_min, q_min
                Y2 = np.concatenate([Yr, Yr])
            if np.all(np.minimum(fc, fd) < stop):
                # a probe below stop caps every bound below it: no row left
                # can settle, so the rest is the plain search
                stop = None
        left = fc < fd
        if stop is not None:
            # the piece given up, [d, b] or [a, c], keeps the bound it has now
            given_up = np.minimum(given_up, np.where(left, floors[2], floors[0]))
            fa = np.where(left, fa, fc)
            fb = np.where(left, fd, fb)
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = gauge(c, d)
    t = 0.5 * (a + b)
    t_min[rows] = t
    q_min[rows] = gauge(t)[0]
    return t_min, q_min


def _chord_floor(t1, f1, t2, f2, s, delta):
    """Worst case at s of the line through (t1, f1) and (t2, f2) when each
    value may be off by delta. For s outside (t1, t2) it is a lower bound of
    any convex function within delta of f1 at t1 and of f2 at t2."""
    lam = (s - t1) / (t2 - t1)
    return f1 + (f2 - f1) * lam - delta * (np.abs(1.0 - lam) + np.abs(lam))


def _piece_floors(a, c, d, b, fa, fc, fd, fb):
    """Lower bounds of a convex map over [a, c], [c, d] and [d, b] from its
    gauged values at a < c < d < b, each taken at its worst case: the
    bisection brackets a gauge p to within GOLDEN_GAUGE_TOL * max(1, p),
    doubled here for the rounding of the probe points.

    Over [a, c] and [d, b] the chord (c, d) extended bounds the map; over
    [c, d] the larger of the chords (a, c) and (d, b) extended into it,
    whose minimum there is at c, at d or where the two lines cross. Each
    bound is linear on its piece, so the piece's ends give its minimum. A
    degenerate bracket (probes that rounding has merged) gives nan, which
    never settles a row.
    """
    delta = 2.0 * GOLDEN_GAUGE_TOL * np.maximum(1.0, np.maximum.reduce([fa, fc, fd, fb]))
    lo_c, lo_d = fc - delta, fd - delta
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        over_ac = np.minimum(lo_c, _chord_floor(c, fc, d, fd, a, delta))
        over_db = np.minimum(lo_d, _chord_floor(c, fc, d, fd, b, delta))
        # over [c, d]: the line (a, c) runs from lo_c to left_d, the line
        # (d, b) from right_c to lo_d
        left_d = _chord_floor(a, fa, c, fc, d, delta)
        right_c = _chord_floor(d, fd, b, fb, c, delta)
        over_cd = np.minimum(np.maximum(lo_c, right_c), np.maximum(left_d, lo_d))
        gap_c, gap_d = lo_c - right_c, left_d - lo_d
        cross = lo_c + gap_c / (gap_c - gap_d) * (left_d - lo_c)
        over_cd = np.where(gap_c * gap_d < 0, np.minimum(over_cd, cross), over_cd)
    return over_ac, over_cd, over_db


def _empty_sections(body, F, Ys):
    """Rows whose section Ys + span(F) of a bounded body is provably empty.

    Off the body the gauge p is >= 1, so a section is empty once p > 1 on
    its points within the outer radius, a disc of radius R about Ys (each
    row of Ys is orthogonal to F). At a section point x0 = Ys + z F, forward
    differences of step EMPTY_SECTION_STEP bound the directional derivative
    of the convex p from above along each of +/-F_i, every gauge taken at
    its worst case within GOLDEN_GAUGE_TOL as in the golden search.
    Subadditivity turns these into a lower bound -|v| * slope along every
    direction v of the section, and convexity into p >= p(x0) - |v| * slope
    on it, so p >= p(x0) - (R + |z|) * slope on the disc. A row is proved
    empty once that exceeds 1 + GOLDEN_SETTLE_MARGIN.

    x0 starts at Ys and zooms towards the section's minimum gauge: each
    level gauges x0's stencil and a grid of EMPTY_SECTION_GRID points per
    axis about x0 in one stacked call, moves x0 to the grid's best point and
    halves the grid. A row leaves once it is proved empty or a probe lies
    inside the body; a row left after EMPTY_SECTION_LEVELS levels is not
    proved empty.
    """
    N, n = Ys.shape
    m = F.shape[0]
    axis_grid = np.linspace(-1.0, 1.0, EMPTY_SECTION_GRID)
    grid = np.stack([g.ravel() for g in np.meshgrid(*([axis_grid] * m), indexing="ij")], axis=-1)
    G = grid.shape[0]
    stencil = EMPTY_SECTION_STEP * np.concatenate([np.eye(m), -np.eye(m)])
    radius = np.sqrt(np.maximum(body.outer_radius**2 - np.sum(Ys * Ys, axis=1), 0.0))
    empty = np.zeros(N, dtype=bool)
    rows = np.arange(N)
    z = np.zeros((N, m))
    width = radius.copy()  # half the side of each row's grid
    for _ in range(EMPTY_SECTION_LEVELS):
        Z = np.concatenate([z[:, None, :] + stencil, z[:, None, :] + width[:, None, None] * grid], axis=1)
        X = (Ys[rows][:, None, :] + Z @ F).reshape(-1, n)
        q = minkowski_functional(body, X, tol=GOLDEN_GAUGE_TOL).reshape(rows.size, -1)
        err = 2.0 * GOLDEN_GAUGE_TOL * np.maximum(1.0, q)
        p0 = q[:, 2 * m + G // 2] - err[:, 2 * m + G // 2]  # x0, the grid's centre
        rise = (q[:, : 2 * m] + err[:, : 2 * m] - p0[:, None]) / EMPTY_SECTION_STEP
        up = np.maximum(np.maximum(rise[:, :m], rise[:, m:]), 0.0)
        slope = np.sqrt(np.sum(up * up, axis=1))
        proved = p0 - (radius[rows] + np.linalg.norm(z, axis=1)) * slope > 1.0 + GOLDEN_SETTLE_MARGIN
        empty[rows[proved]] = True
        keep = ~proved & np.all(q + err >= 1.0, axis=1)
        z = Z[np.arange(rows.size), 2 * m + np.argmin(q[:, 2 * m :], axis=1)][keep]
        rows, width = rows[keep], 0.5 * width[keep]
        if not rows.size:
            break
    return empty


def _bisect_endpoint(body, Y, h, t_in, direction):
    """Bisect from an inside parameter t_in outward along +/-h, to
    DEFAULT_SECTION_TOL.

    Returns endpoint values with +/-inf where the reach bound is still inside
    (possible only for unbounded bodies).
    """
    T = body.reach * (1.0 + 1e-9)
    far = np.full(Y.shape[0], direction * T)
    inside_far = body.contains(Y + far[:, None] * h)
    if inside_far.any() and body.bounded:
        raise OracleIntegrityError(
            "membership oracle reports an inside point beyond the certified outer radius"
        )
    lo, hi = bisect(
        lambda t: body.contains(Y + t[:, None] * h),
        t_in,
        far,
        tol=DEFAULT_SECTION_TOL,
        active=~inside_far,
    )
    out = 0.5 * (hi + lo)
    out[inside_far] = direction * np.inf
    return out


def _section_endpoints(
    body: ConvexBody, h: np.ndarray, Y: np.ndarray, t_hint: Optional[np.ndarray] = None
):
    """Locate (g(y), f(y)) for a batch of y orthogonal to h.

    Returns (lower, upper, nonempty). Empty sections give (nan, nan, False).
    Finding an inside parameter tries the hint, then a 34-point probe (0 and
    33 points across the reach), then golden section on the gauge (convex in
    t), so thin sections near the projected rim are still resolved; each end
    is bisected from it on its own.
    """
    N = Y.shape[0]
    lower = np.full(N, np.nan)
    upper = np.full(N, np.nan)
    t_in = np.full(N, np.nan)

    if t_hint is not None:
        idx = np.flatnonzero(np.isfinite(t_hint))
        if idx.size:
            idx = idx[body.contains(Y[idx] + t_hint[idx][:, None] * h)]
            t_in[idx] = t_hint[idx]

    missing = np.flatnonzero(np.isnan(t_in))
    if missing.size:
        grid = np.concatenate([[0.0], np.linspace(-body.reach, body.reach, 33)])
        pts = Y[missing][:, None, :] + grid[None, :, None] * h
        hits = body.contains(pts.reshape(-1, body.dim)).reshape(-1, grid.shape[0])
        any_hit = hits.any(axis=1)
        t_in[missing[any_hit]] = grid[np.argmax(hits, axis=1)][any_hit]

    missing = np.flatnonzero(np.isnan(t_in))
    if missing.size and body.bounded:
        # points beyond the outer radius cannot meet the projected domain
        missing = missing[np.linalg.norm(Y[missing], axis=1) < body.outer_radius]
    if missing.size:
        # a row is kept only when its minimum gauge is below 1
        t_min, q_min = _golden_min_gauge(body, Y[missing], h, stop=1.0)
        found = q_min < 1.0 - 1e-12
        t_in[missing[found]] = t_min[found]

    nonempty = np.isfinite(t_in)
    if nonempty.any():
        Yn = Y[nonempty]
        tn = t_in[nonempty]
        if not body.contains(Yn + tn[:, None] * h).all():
            raise OracleIntegrityError(
                "section probe accepted by the gauge but rejected by membership"
            )
        upper[nonempty] = _bisect_endpoint(body, Yn, h, tn, +1.0)
        lower[nonempty] = _bisect_endpoint(body, Yn, h, tn, -1.0)
    return lower, upper, nonempty


def section_interval(body: ConvexBody, h, y) -> Optional[tuple]:
    """Open interval (g(y), f(y)) of the section through y along h.

    Returns None when y is outside the projected domain; endpoints that
    reach the body's reach bound are reported as +/-inf.
    """
    h = as_direction(h, dim=body.dim)
    y = np.asarray(y, dtype=float)
    if abs(float(y @ h)) > 1e-10:
        raise DomainError("y must be orthogonal to h (within 1e-10)")
    lower, upper, nonempty = _section_endpoints(body, h, y[None, :])
    if not nonempty[0]:
        return None
    return float(lower[0]), float(upper[0])


@dataclass(frozen=True)
class GraphPair:
    """Upper/lower boundary functions along a direction.

    ends(Y, t_hint=None) maps a batch Y of ambient points in the hyperplane
    orthogonal to h to (g, f), both ends of each section from one search,
    with +/-inf for a missing graph and nan outside the projected domain
    (its domain test); t_hint, per-row section parameters that may lie
    inside the body, only speeds up the search. basis rows span that
    hyperplane. body is the body decompose was given, which every route
    that needs a body reads; a function_graph pair has none.
    analytic_f_gradient is set by function_graph, whose only finite graph
    is f. _nodes holds one surface-integral node set per (budget, seed)
    (surface._NodeSet), shared by both graphs and every integrand.
    _vertical_mass is the surface-mass share of the boundary set
    vertical to the direction: choose_direction's estimate when decompose
    was given it, else made once by the first boundary sum
    (surface._check_vertical_mass).
    """

    direction: np.ndarray
    basis: np.ndarray
    case_tag: str
    ends: Callable[..., tuple]
    body: Optional[ConvexBody] = None
    analytic_f_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _nodes: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _vertical_mass: Optional[EstimateWithError] = field(default=None, compare=False, repr=False)

    @property
    def f_finite(self) -> bool:
        return self.case_tag in (CASE_BOTH_FINITE, CASE_F_FINITE_ONLY)

    @property
    def g_finite(self) -> bool:
        return self.case_tag in (CASE_BOTH_FINITE, CASE_G_FINITE_ONLY)


def _sample_domain_points(body: ConvexBody, h: np.ndarray, count: int, seed: int):
    """Points of the projected domain, obtained by projecting interior samples."""
    rng = np.random.default_rng([seed, 1])
    pts = []
    scale = min(body.reach, 8.0)
    for attempt in range(40):
        x = rng.standard_normal((max(count * 8, 64), body.dim)) * (
            scale if attempt % 2 else 1.0
        )
        x = x[body.contains(x)]
        if len(x):
            pts.append(x)
        if sum(len(p) for p in pts) >= count:
            break
    if not pts:
        # the certified interior ball always provides domain points
        u = rng.standard_normal((count, body.dim))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        x = 0.5 * body.margin_at_zero * u
        pts = [x]
    x = np.concatenate(pts, axis=0)[:count]
    t = x @ h
    return x - np.multiply.outer(t, h)


def classify_case(body: ConvexBody, h, probes: int = 16, seed: int = 0) -> str:
    """Which of the four finiteness cases holds for (f, g) along h.

    Probes sections at sampled domain points; convexity forces a consistent
    answer, so mixed probes raise OracleIntegrityError.
    """
    if probes < 8:
        raise ParameterError("probes must be >= 8")
    h = as_direction(h, dim=body.dim)
    Y = _sample_domain_points(body, h, probes, seed)
    lower, upper, nonempty = _section_endpoints(body, h, Y)
    if not nonempty.all():
        raise OracleIntegrityError("projected interior sample left the domain")
    f_inf = np.isinf(upper)
    g_inf = np.isinf(lower)
    if f_inf.any() != f_inf.all() or g_inf.any() != g_inf.all():
        raise OracleIntegrityError(
            "sections disagree on finiteness; oracle is not convex-consistent"
        )
    if f_inf.all() and g_inf.all():
        return CASE_BOTH_INFINITE
    if f_inf.all():
        return CASE_G_FINITE_ONLY
    if g_inf.all():
        return CASE_F_FINITE_ONLY
    return CASE_BOTH_FINITE


def decompose(
    body: ConvexBody, h, seed: int = 0, vertical_mass: Optional[EstimateWithError] = None
) -> GraphPair:
    """Build the GraphPair of a body along h. vertical_mass, when given, is
    choose_direction's estimate for h; the pair's boundary sums check it
    instead of ray-casting the boundary again."""
    h = as_direction(h, dim=body.dim)
    tag = classify_case(body, h, seed=seed)
    basis = orthonormal_complement(h)

    def ends(Y, t_hint=None):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return _section_endpoints(body, h, Y, t_hint=t_hint)[:2]

    return GraphPair(
        direction=h,
        basis=basis,
        case_tag=tag,
        ends=ends,
        body=body,
        _vertical_mass=vertical_mass,
    )


def function_graph(
    h,
    f: Callable[[np.ndarray], np.ndarray],
    gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None,
    domain: Optional[Callable[[np.ndarray], np.ndarray]] = None,
) -> GraphPair:
    """GraphPair for an analytically given upper function on the hyperplane
    orthogonal to h (domain defaults to the whole hyperplane).

    f (and gradient, when given) receive ambient points of that hyperplane;
    the gradient must be tangent to it.
    """
    h = as_direction(h)
    basis = orthonormal_complement(h)

    def ends(Y, t_hint=None):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        ends = np.stack([np.full(Y.shape[0], -np.inf), np.asarray(f(Y), dtype=float)])
        if domain is not None:
            ends = np.where(np.asarray(domain(Y), bool), ends, np.nan)
        return ends[0], ends[1]

    return GraphPair(
        direction=h,
        basis=basis,
        case_tag=CASE_F_FINITE_ONLY,
        ends=ends,
        body=None,
        analytic_f_gradient=gradient,
    )


def graph_value_and_gradient(pair: GraphPair, which: str, y):
    """Value and in-plane central-difference gradient of f or g, from a
    stencil of step DEFAULT_FD_STEP that shrinks at the domain edge.

    y: single ambient point (n,) or batch (N, n) in the hyperplane orthogonal
    to h. Gradients are ambient vectors orthogonal to h. Raises MarginError
    when a stencil point leaves the projected domain at the smallest step.
    """
    if which not in ("upper", "lower"):
        raise ParameterError("which must be 'upper' or 'lower'")
    Y = np.asarray(y, dtype=float)
    scalar = Y.ndim == 1
    Y = np.atleast_2d(Y)
    g, f = pair.ends(Y)
    vals = f if which == "upper" else g
    if np.any(~np.isfinite(vals)):
        raise MarginError("graph is infinite or y is outside the projected domain")
    grads, ok = _stencil_gradient(pair, Y, DEFAULT_FD_STEP)[which]
    _require_fit(ok)
    if scalar:
        return float(vals[0]), grads[0]
    return vals, grads


def _require_fit(ok):
    """Raise MarginError unless every stencil fit (ok from _stencil_gradient)."""
    if not ok.all():
        raise MarginError(
            f"{int((~ok).sum())} stencil point(s) exit the projected domain even "
            "at the smallest step; move y inward"
        )


def _stencil_gradient(pair, Y, steps, t_hint=None):
    """In-plane gradients of every finite graph of a pair at hyperplane
    points Y: f's analytic gradient where the pair has one, else central
    differences.

    All stencil values of a try come from one pair.ends call, with t_hint
    repeated over each row's stencil. A row whose stencil leaves the domain
    retries with its step divided by 8, for up to 7 tries while the step
    stays >= 1e-10. Returns {"upper" / "lower": (ambient gradients (N, n),
    ok mask)} over the finite graphs; rows that never fit are nan and
    flagged False.
    """
    if pair.analytic_f_gradient is not None:  # function_graph: f is the only finite graph
        grads = np.atleast_2d(np.asarray(pair.analytic_f_gradient(Y), dtype=float))
        return {"upper": (grads, np.ones(Y.shape[0], dtype=bool))}
    which = [w for w, finite in (("upper", pair.f_finite), ("lower", pair.g_finite)) if finite]
    basis = pair.basis
    N, d = Y.shape[0], basis.shape[0]
    grads_c = np.full((len(which), N, d), np.nan)
    step = np.asarray(steps, dtype=float) * np.ones(N)
    todo = np.ones(N, dtype=bool)
    offsets = np.stack([basis, -basis], axis=0)  # (2, d, n)
    for _ in range(7):
        if not todo.any():
            break
        idx = np.flatnonzero(todo)
        stencil = (
            Y[idx][:, None, None, :] + offsets[None, :, :, :] * step[idx, None, None, None]
        ).reshape(-1, Y.shape[1])
        hint = None if t_hint is None else np.repeat(t_hint[idx], 2 * d)
        g, f = pair.ends(stencil, hint)
        vals = np.stack([f if w == "upper" else g for w in which])
        vals = vals.reshape(len(which), len(idx), 2, d)
        good = np.isfinite(vals).all(axis=(0, 2, 3))
        if good.any():
            g = (vals[:, good, 0, :] - vals[:, good, 1, :]) / (2.0 * step[idx[good], None])
            grads_c[:, idx[good]] = g
            todo[idx[good]] = False
        step[todo] /= 8.0
        if float(step[todo].max(initial=0.0)) < 1e-10:
            break
    # ambient gradients, orthogonal to h
    return {w: (grads @ basis, ~todo) for w, grads in zip(which, grads_c)}


def _pair_body(pair: GraphPair) -> ConvexBody:
    """The body a pair was decomposed from. A function_graph pair has none,
    so it raises ParameterError for every route that needs the body."""
    if pair.body is None:
        raise ParameterError("a function_graph pair has no body; decompose a body for this")
    return pair.body


def _classify(pair: GraphPair, X: np.ndarray):
    """Labels (upper_graph / lower_graph / vertical) of boundary points X
    (N, n) of the pair's body and the ends (g, f) of their sections, from
    one pair.ends call; boundary_classify states the precondition and the
    match tolerance."""
    tol = DEFAULT_GAUGE_TOL
    p = minkowski_functional(_pair_body(pair), X, tol=tol)
    off = np.abs(p - 1.0) > 10.0 * tol
    if off.any():
        raise DomainError(f"x is not near the boundary: gauge(x) = {float(p[off][0])}")
    h = pair.direction
    t = X @ h
    lower, upper = pair.ends(X - np.outer(t, h))
    # empty sections give nan endpoints and missing graphs +/-inf: neither is near
    near = lambda end: np.abs(t - end) <= 100.0 * tol
    labels = np.where(near(upper), "upper_graph", np.where(near(lower), "lower_graph", "vertical"))
    return labels, lower, upper


def boundary_classify(pair: GraphPair, x):
    """Classify boundary points of the pair's body as upper_graph /
    lower_graph / vertical.

    x: one point (n,), giving one label, or a batch (N, n), giving a list of
    N labels. With tol = DEFAULT_GAUGE_TOL, the precondition is
    |gauge(x) - 1| <= 10*tol at every point, else DomainError, and the match
    tolerance is 100*tol.
    """
    X = np.asarray(x, dtype=float)
    labels, _, _ = _classify(pair, np.atleast_2d(X))
    return str(labels[0]) if X.ndim == 1 else labels.tolist()


def ray_cast_boundary(body: ConvexBody, count: int, seed: int):
    """Boundary points u/gauge(u) for uniformly random directions u, together
    with surface-importance weights relative to the Gaussian surface density.

    Weight = G_n(b) * |b|^(n-1) / <normal, u>, the Jacobian between direction
    sampling and boundary-area sampling. Directions that never exit an
    unbounded body are dropped (their boundary lies at infinity).
    """
    rng = np.random.default_rng([seed, 2])
    u = rng.standard_normal((count, body.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    p = minkowski_functional(body, u, tol=1e-12)
    hits = p > 1.0 / body.reach
    u = u[hits]
    b = u / p[hits][:, None]
    grads = minkowski_gradient_fd(body, b)
    norms = np.linalg.norm(grads, axis=1)
    ok = norms > 1e-12
    b, u, grads, norms = b[ok], u[ok], grads[ok], norms[ok]
    nu = grads / norms[:, None]
    cos = np.einsum("ij,ij->i", nu, u)
    cos = np.maximum(cos, 1e-6)
    r = np.linalg.norm(b, axis=1)
    dens = (2.0 * math.pi) ** (-0.5 * body.dim) * np.exp(-0.5 * r * r)
    w = dens * r ** (body.dim - 1) / cos
    return b, nu, w


def default_direction_candidates(dim: int, seed: int = 0):
    """Coordinate axes plus 8 random unit vectors."""
    rng = np.random.default_rng([seed, 3])
    cands = [np.eye(dim)[i] for i in range(dim)]
    v = rng.standard_normal((8, dim))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    cands.extend(v)
    return cands


def choose_direction(body: ConvexBody, candidates, boundary_samples: int = 1000, seed: int = 0):
    """Pick the candidate direction whose vertical boundary set carries the
    least estimated surface mass; a boundary normal within 1e-3 rad of
    orthogonal to h counts as vertical.

    Returns (direction, vertical_mass EstimateWithError). Raises
    DegenerateDirectionError when every candidate exceeds mass 0.5.
    """
    _, nu, w = ray_cast_boundary(body, boundary_samples, seed)
    return _pick_direction(candidates, nu, w)


def _pick_direction(candidates, nu, w):
    """choose_direction's rule on one ray cast's normals nu and weights w."""
    candidates = [as_direction(np.asarray(c, dtype=float), dim=nu.shape[1]) for c in candidates]
    if not candidates:
        raise ParameterError("candidates must be nonempty")
    best = None
    for h in candidates:
        est = _vertical_mass(nu, w, h)
        if best is None or est.value < best[1].value:
            best = (h, est)
    if best[1].value > 0.5:
        raise DegenerateDirectionError(
            f"all candidate directions are vertical-dominated (best mass "
            f"{best[1].value:.3f}); supply more candidates"
        )
    return best


def _vertical_mass(nu, w, h) -> EstimateWithError:
    """Share of the Gaussian surface measure on the boundary set vertical to
    h, estimated from ray-cast boundary normals nu with weights w
    (ray_cast_boundary): a normal within 1e-3 rad of orthogonal to h counts
    as vertical."""
    wsum = float(np.sum(w))
    vertical = np.abs(nu @ h) < math.sin(1e-3)
    mass = float(np.sum(w * vertical) / wsum) if wsum > 0 else 1.0
    # delta-method standard error of the weighted fraction
    if wsum > 0:
        resid = w * (vertical.astype(float) - mass)
        se = float(np.sqrt(np.sum(resid**2)) / wsum)
    else:
        se = 1.0
    return EstimateWithError(value=mass, std_error=se, n_samples=len(w), method="monte_carlo")


def _direction_vertical_mass(body: ConvexBody, h, boundary_samples: int, seed: int):
    """The vertical-mass estimate choose_direction makes for h, from the same
    ray cast, without its rule that rejects a mass above 0.5."""
    _, nu, w = ray_cast_boundary(body, boundary_samples, seed)
    return _vertical_mass(nu, w, h)
