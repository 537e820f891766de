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
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .bodies import (
    DEFAULT_GAUGE_TOL,
    ConvexBody,
    _face_products,
    _line_minimum,
    _line_section,
    _membership_along,
    _sections_missed,
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
GOLDEN_LOOKAHEAD = 5  # most golden steps served by one stacked gauge call
GOLDEN_LOOKAHEAD_ROWS = 512  # most rows of a stacked call that serves more than one step
GOLDEN_GAUGE_TOL = 1e-12  # relative tolerance of every golden-section gauge
SECTION_PROBE_POINTS = (33, 7, 7)  # probe points per axis of a line, a plane, a 3-space

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


def _golden_min_gauge(body: ConvexBody, Y: np.ndarray, h: np.ndarray):
    """(t_min, q_min) per row, the minimum of t -> gauge(y + t h), two empty
    arrays for no rows: the line search of _inside_points for thin sections,
    which first drops the rows the body's certificate proves miss it
    (bodies._sections_missed), and the projected-rim search of the polar
    nodes. A bounded body with faces, unmapped or shifted, gives the exact
    minimum (bodies._line_minimum); every other body runs golden-section
    minimization (the map is convex) over [-T, T], T just past the body's
    reach, for GOLDEN_STEPS steps per row.

    One stacked gauge call serves D steps: it gauges the probes c and d of
    every row's bracket and of each bracket that D - 1 more steps can lead
    to, 2^(D+1) - 2 probes a row, and the next D steps choose among them. D
    is the largest depth, up to GOLDEN_LOOKAHEAD, whose probes of all rows
    number at most GOLDEN_LOOKAHEAD_ROWS (1 beyond that). A row's gauge
    depends only on that row, and every row of the shared bisection meets
    its tolerance within the bisection's step cap, so each value is the one
    a separate call gives.
    """
    N = Y.shape[0]
    if not N:
        return np.empty(0), np.empty(0)
    exact = _line_minimum(body, Y, h)
    if exact is not None:
        return exact
    T = body.reach * (1.0 + 1e-9)

    def gauge(params):
        # one stacked call: the rows at each row of params in turn
        P = np.concatenate(params)
        X = np.tile(Y, (P.shape[0], 1)) + P.reshape(-1)[:, None] * h
        return minkowski_functional(body, X, tol=GOLDEN_GAUGE_TOL).reshape(P.shape)

    a = np.full(N, -T)
    b = np.full(N, T)
    cols = np.arange(N)
    level = depth = 0
    for step in range(GOLDEN_STEPS):
        if level == depth:
            # the largest D with (2^(D+1) - 2) * N <= GOLDEN_LOOKAHEAD_ROWS
            fit = (GOLDEN_LOOKAHEAD_ROWS // N + 2).bit_length() - 2
            depth = min(max(fit, 1), GOLDEN_LOOKAHEAD, GOLDEN_STEPS - step)
            vals = gauge(_probe_tree(a, b, depth))
            node = np.zeros(N, dtype=np.intp)  # each row's bracket at this level
            level = 0
        off = 2 ** (level + 1) - 2
        left = vals[off + node, cols] < vals[off + 2**level + node, cols]
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        node = np.where(left, node, node + 2**level)
        level += 1
    t = 0.5 * (a + b)
    return t, gauge([t[None]])[0]


def _probe_tree(a, b, depth):
    """Golden probes of the brackets (a, b) and of every bracket the next
    depth - 1 steps can lead to, as a list of (2^l, N) arrays: for each
    level l in turn the probes c, then the probes d, of its 2^l brackets.
    A step to the left, to (a, d), keeps a bracket's index in the next
    level; a step to the right, to (c, b), adds 2^l. Each bracket's probes
    are computed from its ends as the search computes them."""
    A, B = a[None], b[None]
    out = []
    for _ in range(depth):
        C = B - GOLDEN * (B - A)
        D = A + GOLDEN * (B - A)
        out += [C, D]
        A, B = np.concatenate([A, C]), np.concatenate([D, B])
    return out


def _bisect_endpoint(body, Y, h, t_in, far, tol):
    """Bisect each line Y + t h (h one direction or one per row) from an
    inside parameter t_in toward its far parameter `far` (one per row, or
    one value), until bodies.bisect's stop rule at `tol` (0: adjacent
    floats). Returns each end as the middle of its last bracket, or as
    +/-inf, by the sign of far, where the far point is inside; a bounded
    body must reject every far point, else OracleIntegrityError.
    """
    far = np.broadcast_to(far, t_in.shape)
    inside_far = body.contains(Y + far[:, None] * h)
    if inside_far.any() and body.bounded:
        raise OracleIntegrityError(
            "membership oracle reports an inside point beyond the certified outer radius"
        )
    lo, hi = bisect(_membership_along(body, h, Y), t_in, far, tol)
    out = 0.5 * (hi + lo)
    out[inside_far] = np.copysign(np.inf, far[inside_far])
    return out


def _inside_points(body: ConvexBody, Y: np.ndarray, F: np.ndarray, z_hint=None):
    """An inside point of each section Y + span(F), F holding 1 to 3
    orthonormal rows, in F's coordinates: (N, m), nan on empty sections.

    A row keeps its hint (z_hint, (N, m), may be nan) when `contains`
    accepts it. Of the rest, rows beyond a bounded body's outer radius and
    rows the body's certificate proves empty (bodies._sections_missed) are
    dropped before any probe; the others probe 0, unless every hint was 0,
    then a lattice of SECTION_PROBE_POINTS[m - 1] points per axis across
    the reach, less its centre row (the origin, or within a few ulps of the
    reach of it), the first accepted point winning. A row that no probe
    finds minimizes the gauge (convex along each axis, _golden_min_gauge)
    along F's axes, once for a line and twice otherwise, and is kept when
    its gauge ends below 1 - 1e-12; `contains` must accept every such
    point, else OracleIntegrityError.
    """
    N, m = Y.shape[0], F.shape[0]
    z = np.full((N, m), np.nan)
    if z_hint is not None:
        idx = np.flatnonzero(np.isfinite(z_hint).all(axis=1))
        if idx.size:
            idx = idx[body.contains(Y[idx] + z_hint[idx] @ F)]
            z[idx] = z_hint[idx]
    missing = np.flatnonzero(np.isnan(z[:, 0]))
    if missing.size and body.bounded:
        # points beyond the outer radius cannot meet the projected domain
        missing = missing[np.linalg.norm(Y[missing], axis=1) < body.outer_radius]
    if missing.size:
        missing = missing[~_sections_missed(body, Y[missing], F)]
    if missing.size:
        axis = np.linspace(-body.reach, body.reach, SECTION_PROBE_POINTS[m - 1])
        lattice = np.stack([g.ravel() for g in np.meshgrid(*([axis] * m), indexing="ij")], axis=-1)
        probes = np.delete(lattice, len(lattice) // 2, axis=0)
        if z_hint is None or np.any(z_hint):  # a hint of 0 on every row asked about 0
            probes = np.concatenate([np.zeros((1, m)), probes])
        pts = Y[missing][:, None, :] + (probes @ F)[None, :, :]
        hits = body.contains(pts.reshape(-1, body.dim)).reshape(missing.size, -1)
        found = hits.any(axis=1)
        z[missing[found]] = probes[np.argmax(hits, axis=1)[found]]
        missing = missing[~found]
    if missing.size:
        zi = np.zeros((missing.size, m))
        for _ in range(1 if m == 1 else 2):
            for k in range(m):
                base = Y[missing] + zi @ F - np.outer(zi[:, k], F[k])
                zi[:, k], q_min = _golden_min_gauge(body, base, F[k])
        found = q_min < 1.0 - 1e-12
        missing, zi = missing[found], zi[found]
        if not body.contains(Y[missing] + zi @ F).all():
            raise OracleIntegrityError(
                "section probe accepted by the gauge but rejected by membership"
            )
        z[missing] = zi
    return z


def _section_endpoints(
    body: ConvexBody,
    h: np.ndarray,
    Y: np.ndarray,
    t_hint: Optional[np.ndarray] = None,
    case: Optional[str] = None,
):
    """Locate (g(y), f(y)) for a batch of y orthogonal to h.

    Returns (lower, upper, nonempty). Empty sections give (nan, nan, False).
    A bounded body with faces, unmapped or shifted, gives the faces' exact
    ends (bodies._line_section), with no search. On every other body the
    inside parameter of each section comes from _inside_points (the hint,
    a 33-point probe of 0 and 32 points across the reach, then the gauge's
    line minimum, so thin sections near the projected rim are still
    resolved); each end is bisected from it on its own. An end that the
    body's case along h (classify_case) marks infinite is +/-inf on every
    nonempty section with no search: a recession direction of a convex body
    is a recession direction of each of its nonempty sections.
    """
    exact = _line_section(body, Y, h)
    if exact is not None:
        return exact[0], exact[1], np.isfinite(exact[0])
    lower, upper = np.full((2, Y.shape[0]), np.nan)
    t_in = _inside_points(body, Y, h[None], None if t_hint is None else t_hint[:, None])[:, 0]
    nonempty = np.isfinite(t_in)
    if nonempty.any():
        Yn, tn = Y[nonempty], t_in[nonempty]
        T = body.reach * (1.0 + 1e-9)
        if case in (CASE_G_FINITE_ONLY, CASE_BOTH_INFINITE):
            upper[nonempty] = np.inf
        else:
            upper[nonempty] = _bisect_endpoint(body, Yn, h, tn, T, DEFAULT_SECTION_TOL)
        if case in (CASE_F_FINITE_ONLY, CASE_BOTH_INFINITE):
            lower[nonempty] = -np.inf
        else:
            lower[nonempty] = _bisect_endpoint(body, Yn, h, tn, -T, DEFAULT_SECTION_TOL)
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
    hyperplane (orthonormal_complement of h). body is the body decompose
    was given, which every route that needs a body reads; a function_graph
    pair has none.
    analytic_f_gradient is set by function_graph, whose only finite graph
    is f. _nodes holds one surface-integral node set per (budget, seed)
    (surface._NodeSet), shared by both graphs and every integrand.
    _vertical_mass is the surface-mass share of the boundary set
    vertical to the direction: choose_direction's estimate when decompose
    was given it, else made once by the first boundary sum
    (surface._check_vertical_mass).
    """

    direction: np.ndarray
    case_tag: str
    ends: Callable[..., tuple]
    body: Optional[ConvexBody] = None
    analytic_f_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _nodes: dict = field(default_factory=dict, init=False, compare=False, repr=False)
    _vertical_mass: Optional[EstimateWithError] = field(default=None, compare=False, repr=False)

    @cached_property
    def basis(self) -> np.ndarray:
        return orthonormal_complement(self.direction)

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
        x = body.centre + 0.5 * body.centre_margin * u
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

    def ends(Y, t_hint=None):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        return _section_endpoints(body, h, Y, t_hint=t_hint, case=tag)[:2]

    return GraphPair(
        direction=h,
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

    def ends(Y, t_hint=None):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        ends = np.stack([np.full(Y.shape[0], -np.inf), np.asarray(f(Y), dtype=float)])
        if domain is not None:
            ends = np.where(np.asarray(domain(Y), bool), ends, np.nan)
        return ends[0], ends[1]

    return GraphPair(
        direction=h,
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
    # ambient gradients, orthogonal to h, row by row (_face_products), so a
    # point's gradient is the one its batch gives it; laid out row by row,
    # as a lone row is, since a sum along a row rounds by its layout
    ambient = lambda grads: np.ascontiguousarray(_face_products(grads, basis.T).T)
    return {w: (ambient(grads), ~todo) for w, grads in zip(which, grads_c)}


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
    t = _face_products(X, h)
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
    """Boundary points b = c + u/gauge(c + u) for uniformly random directions
    u from the body's centre c, together with surface-importance weights
    relative to the Gaussian surface density.

    Weight = G_n(b) * |b - c|^(n-1) / <normal, u>, the Jacobian between
    direction sampling and boundary-area sampling. Directions that never
    exit an unbounded body are dropped (their boundary lies at infinity).
    """
    rng = np.random.default_rng([seed, 2])
    u = rng.standard_normal((count, body.dim))
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    c = body.centre
    p = minkowski_functional(body, c + u, tol=1e-12)
    hits = p > 1.0 / (body.reach + float(np.linalg.norm(c)))
    u = u[hits]
    b = c + u / p[hits][:, None]
    grads = minkowski_gradient_fd(body, b)
    norms = np.linalg.norm(grads, axis=1)
    ok = norms > 1e-12
    b, u, grads, norms = b[ok], u[ok], grads[ok], norms[ok]
    nu = grads / norms[:, None]
    cos = np.einsum("ij,ij->i", nu, u)
    cos = np.maximum(cos, 1e-6)
    r = np.linalg.norm(b - c, axis=1)
    rb = np.linalg.norm(b, axis=1)
    dens = (2.0 * math.pi) ** (-0.5 * body.dim) * np.exp(-0.5 * rb * rb)
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
