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
GOLDEN_STEPS = 80  # fixed golden-section steps of the rim search

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
    """Vectorized golden-section minimization of t -> gauge(y + t h), run for
    GOLDEN_STEPS steps.

    Returns (t_min, q_min) per row. The map is convex in t, so golden section
    is valid; it is the membership-only fallback for thin sections. Each step
    gauges both probes c and d of every row in one stacked call; a row's gauge
    depends only on that row, so the values are those of two separate calls.
    """
    N = Y.shape[0]
    T = body.reach * (1.0 + 1e-9)
    a = np.full(N, -T)
    b = np.full(N, T)
    Y2 = np.concatenate([Y, Y])

    def gauge_pair(c, d):
        q = minkowski_functional(body, Y2 + np.concatenate([c, d])[:, None] * h, tol=1e-12)
        return q[:N], q[N:]

    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = gauge_pair(c, d)
    for _ in range(GOLDEN_STEPS):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = gauge_pair(c, d)
    t = 0.5 * (a + b)
    return t, minkowski_functional(body, Y + t[:, None] * h, tol=1e-12)


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
    body: ConvexBody,
    h: np.ndarray,
    Y: np.ndarray,
    t_hint: Optional[np.ndarray] = None,
    want_lower: bool = True,
    want_upper: bool = True,
):
    """Locate (g(y), f(y)) for a batch of y orthogonal to h.

    Returns (lower, upper, nonempty). Empty sections give (nan, nan, False);
    a side not requested stays nan. Finding an inside parameter goes coarse
    grid -> hint -> golden section on the gauge (convex in t), so thin
    sections near the projected rim are still resolved.
    """
    N = Y.shape[0]
    lower = np.full(N, np.nan)
    upper = np.full(N, np.nan)
    t_in = np.full(N, np.nan)

    if t_hint is not None:
        ok = np.isfinite(t_hint)
        if ok.any():
            pts = Y[ok] + t_hint[ok][:, None] * h
            hit = body.contains(pts)
            idx = np.flatnonzero(ok)[hit]
            t_in[idx] = t_hint[np.flatnonzero(ok)[hit]]

    missing = np.isnan(t_in)
    if missing.any():
        T = body.reach
        grid = np.concatenate([[0.0], np.linspace(-T, T, 33)])
        pts = Y[missing][:, None, :] + grid[None, :, None] * h
        hits = body.contains(pts.reshape(-1, body.dim)).reshape(-1, grid.shape[0])
        any_hit = hits.any(axis=1)
        first = np.argmax(hits, axis=1)
        vals = grid[first]
        idx = np.flatnonzero(missing)
        t_in[idx[any_hit]] = vals[any_hit]

    missing = np.isnan(t_in)
    if missing.any() and body.bounded:
        # points beyond the outer radius cannot meet the projected domain
        far = np.linalg.norm(Y[missing], axis=1) >= body.outer_radius
        missing[np.flatnonzero(missing)[far]] = False
    if missing.any():
        t_min, q_min = _golden_min_gauge(body, Y[missing], h)
        found = q_min < 1.0 - 1e-12
        idx = np.flatnonzero(missing)
        t_in[idx[found]] = t_min[found]

    nonempty = np.isfinite(t_in)
    if nonempty.any():
        Yn = Y[nonempty]
        tn = t_in[nonempty]
        if not body.contains(Yn + tn[:, None] * h).all():
            raise OracleIntegrityError(
                "section probe accepted by the gauge but rejected by membership"
            )
        if want_upper:
            upper[nonempty] = _bisect_endpoint(body, Yn, h, tn, +1.0)
        if want_lower:
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

    values(which, Y, t_hint=None) acts on a batch Y of ambient points in the
    hyperplane orthogonal to h and returns f ("upper") or g ("lower"), with
    +/-inf for a missing graph and nan outside the projected domain; t_hint,
    per-row section parameters that may lie inside the body, only speeds up
    the section search; a point is in the domain where values is not nan.
    basis rows span that hyperplane. _nodes holds one surface-integral node
    set per (budget, seed) (surface._NodeSet): its nodes and weights, the
    projected-rim and section searches made for them, and each graph's
    values, gradients and usable mask there, so both graphs and every
    integrand (one per direction k) share one set of searches.
    """

    direction: np.ndarray
    basis: np.ndarray
    case_tag: str
    values: Callable[..., np.ndarray]
    body: Optional[ConvexBody] = None
    analytic_f_gradient: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _nodes: dict = field(default_factory=dict, init=False, compare=False, repr=False)

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


def decompose(body: ConvexBody, h, seed: int = 0) -> GraphPair:
    """Build the GraphPair of a body along h."""
    h = as_direction(h, dim=body.dim)
    tag = classify_case(body, h, seed=seed)
    basis = orthonormal_complement(h)

    def values(which, Y, t_hint=None):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        lower, upper, nonempty = _section_endpoints(
            body, h, Y, t_hint=t_hint, want_lower=which == "lower", want_upper=which == "upper"
        )
        return np.where(nonempty, upper if which == "upper" else lower, np.nan)

    return GraphPair(direction=h, basis=basis, case_tag=tag, values=values, body=body)


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

    def values(which, Y, t_hint=None):
        Y = np.atleast_2d(np.asarray(Y, dtype=float))
        if which == "upper":
            vals = np.asarray(f(Y), dtype=float)
        else:
            vals = np.full(Y.shape[0], -np.inf)
        if domain is not None:
            vals = np.where(np.asarray(domain(Y), bool), vals, np.nan)
        return vals

    return GraphPair(
        direction=h,
        basis=basis,
        case_tag=CASE_F_FINITE_ONLY,
        values=values,
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
    vals = pair.values(which, Y)
    if np.any(~np.isfinite(vals)):
        raise MarginError("graph is infinite or y is outside the projected domain")

    if pair.analytic_f_gradient is not None and which == "upper":
        grads = np.atleast_2d(np.asarray(pair.analytic_f_gradient(Y), dtype=float))
    else:
        grads, ok = _stencil_gradient(pair, which, Y, DEFAULT_FD_STEP)
        if not ok.all():
            raise MarginError(
                f"{int((~ok).sum())} stencil point(s) exit the projected domain even "
                "at the smallest step; move y inward"
            )
    if scalar:
        return float(vals[0]), grads[0]
    return vals, grads


def _stencil_gradient(pair, which, Y, steps, t_hint=None):
    """In-plane central-difference gradients of one graph of a pair at
    hyperplane points Y.

    Stencil values come from pair.values with t_hint repeated over each
    row's stencil. A row whose stencil leaves the domain retries with its
    step divided by 8, for up to 7 tries while the step stays >= 1e-10.
    Returns (ambient gradients (N, n), ok mask); rows that never fit are nan
    and flagged False.
    """
    basis = pair.basis
    N, d = Y.shape[0], basis.shape[0]
    grads_c = np.full((N, d), np.nan)
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
        vals = pair.values(which, stencil, hint).reshape(len(idx), 2, d)
        good = np.isfinite(vals).all(axis=(1, 2))
        if good.any():
            g = (vals[good, 0, :] - vals[good, 1, :]) / (2.0 * step[idx[good], None])
            grads_c[idx[good]] = g
            todo[idx[good]] = False
        step[todo] /= 8.0
        if float(step[todo].max(initial=0.0)) < 1e-10:
            break
    return grads_c @ basis, ~todo  # ambient gradients, orthogonal to h


def boundary_classify(body: ConvexBody, pair: GraphPair, x):
    """Classify boundary points as upper_graph / lower_graph / vertical.

    x: one point (n,), giving one label, or a batch (N, n), giving a list of
    N labels. With tol = DEFAULT_GAUGE_TOL, the precondition is
    |gauge(x) - 1| <= 10*tol at every point, else DomainError, and the match
    tolerance is 100*tol.
    """
    tol = DEFAULT_GAUGE_TOL
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    p = minkowski_functional(body, X, tol=tol)
    off = np.abs(p - 1.0) > 10.0 * tol
    if off.any():
        raise DomainError(f"x is not near the boundary: gauge(x) = {float(p[off][0])}")
    h = pair.direction
    t = X @ h
    lower, upper, _ = _section_endpoints(body, h, X - np.outer(t, h))
    # empty sections give nan endpoints and missing graphs +/-inf: neither is near
    near = lambda end: np.abs(t - end) <= 100.0 * tol
    labels = np.where(near(upper), "upper_graph", np.where(near(lower), "lower_graph", "vertical"))
    return str(labels[0]) if scalar else labels.tolist()


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
    candidates = [as_direction(np.asarray(c, dtype=float), dim=body.dim) for c in candidates]
    if not candidates:
        raise ParameterError("candidates must be nonempty")
    b, nu, w = ray_cast_boundary(body, boundary_samples, seed)
    wsum = float(np.sum(w))
    best = None
    for h in candidates:
        vertical = np.abs(nu @ h) < math.sin(1e-3)
        mass = float(np.sum(w * vertical) / wsum) if wsum > 0 else 1.0
        # delta-method standard error of the weighted fraction
        if wsum > 0:
            resid = w * (vertical.astype(float) - mass)
            se = float(np.sqrt(np.sum(resid**2)) / wsum)
        else:
            se = 1.0
        est = EstimateWithError(value=mass, std_error=se, n_samples=len(w), method="monte_carlo")
        if best is None or mass < best[1].value:
            best = (h, est)
    if best[1].value > 0.5:
        raise DegenerateDirectionError(
            f"all candidate directions are vertical-dominated (best mass "
            f"{best[1].value:.3f}); supply more candidates"
        )
    return best
