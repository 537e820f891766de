"""Gaussian surface integrals over convex-body boundaries.

The boundary-graph integral with surface density G1(f(y)) sqrt(1+|grad f|^2)
against the transverse Gaussian measure is evaluated three ways, picked by
the geometry of the projected domain:

* bounded domain (bounded body): polar nodes, radial Gauss-Jacobi with the
  w(s) = (1-s)^(-1/2) endpoint weight that absorbs the rim singularity of
  sqrt(1+|grad f|^2), angular trapezoid/Gauss-Legendre grids ("polar");
* full hyperplane, dimension <= 3: tensor Gauss-Hermite ("gauss_hermite");
* otherwise: Monte Carlo over the transverse Gaussian ("monte_carlo").

Also here: finite-dimensional-subspace boundary measures with the polar
section parameterization, total boundary measure, and the independent
Minkowski-content perimeter oracle.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from . import space
from .bodies import _SCHEMA, ConvexBody, _check_fields, bisect
from .errors import (
    CaseError,
    DirectionError,
    OracleIntegrityError,
    ParameterError,
    UnsupportedOrderError,
)
# _section_endpoints is not called here: it stays imported because
# perfbench/tracer.py wraps it in this module, until the in-library run
# recorder of ROADMAP item 7 replaces that tracer
from .graphs import (  # noqa: F401
    GraphPair,
    _direction_vertical_mass,
    _empty_sections,
    _golden_min_gauge,
    _pair_body,
    _section_endpoints,
    _stencil_gradient,
)
from .space import EstimateWithError, gaussian_density, map_chunks, sample_gaussian

DOMAIN_TRUNCATION_RADIUS = 12.0  # Gaussian tail mass beyond is < 1e-30
MAX_VERTICAL_MASS = 0.01  # boundary share a graph route may leave unparameterized

__all__ = [
    "EstimateWithError",
    "Budget",
    "area_formula_integral",
    "graph_surface_integral",
    "epigraph_perimeter",
    "subspace_hausdorff",
    "total_boundary_measure",
    "minkowski_content_perimeter",
]


@dataclass(frozen=True)
class Budget:
    """Resolution knobs for the estimators; any field may come from a dict.

    Each field's kind is its entry in the config schema (bodies._SCHEMA
    "budget"); a bad field raises ParameterError naming it.
    """

    samples: int = 200_000
    quadrature_order: int = 64
    angles: int = 1024  # angular nodes for d=2 polar graph integrals
    sphere_grid: tuple = (64, 128)  # (polar, azimuthal) for d=3 graph integrals
    radial: int = 48
    inner_angles: int = 4096  # subspace sections, m=2
    inner_sphere_grid: tuple = (128, 256)  # subspace sections, m=3
    subspace_samples: int = 2000  # outer Monte Carlo draws for subspace measures
    epsilons: tuple = (0.08, 0.05, 0.03, 0.02)
    boundary_samples: int = 1000
    fd_step: float = 1e-5
    threads: int = 1

    def __post_init__(self):
        # tuples make a Budget hashable, so it can key the per-pair node cache
        for name in ("sphere_grid", "inner_sphere_grid", "epsilons"):
            value = getattr(self, name)
            if isinstance(value, list) or (isinstance(value, np.ndarray) and value.ndim == 1):
                object.__setattr__(self, name, tuple(value))
        _check_fields("budget", vars(self), _SCHEMA["budget"], ParameterError)

    @staticmethod
    def from_any(budget) -> "Budget":
        if budget is None:
            return Budget()
        if isinstance(budget, Budget):
            return budget
        if isinstance(budget, dict):
            _check_fields("budget", budget, _SCHEMA["budget"], ParameterError)
            return Budget(**budget)
        raise ParameterError(f"budget must be a Budget or dict, got {type(budget)}")


def _radial_rule(order: int):
    """Nodes s in (0,1) and weights for int_0^1 F(s) ds when F may carry an
    integrable (1-s)^(-1/2) rim singularity."""
    x, w = roots_jacobi(order, -0.5, 0.0)
    s = 0.5 * (x + 1.0)
    weights = (w / math.sqrt(2.0)) * np.sqrt(1.0 - s)
    return s, weights


def _angular_rule(d: int, budget: Budget, inner: bool = False):
    """Unit directions (K, d) and weights summing to the sphere area."""
    if d == 1:
        return np.array([[1.0], [-1.0]]), np.array([1.0, 1.0])
    if d == 2:
        k = budget.inner_angles if inner else budget.angles
        theta = (np.arange(k) + 0.5) * (2.0 * math.pi / k)
        u = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return u, np.full(k, 2.0 * math.pi / k)
    if d == 3:
        n_mu, n_th = budget.inner_sphere_grid if inner else budget.sphere_grid
        mu, glw = roots_legendre(n_mu)
        theta = (np.arange(n_th) + 0.5) * (2.0 * math.pi / n_th)
        mu_g, th_g = np.meshgrid(mu, theta, indexing="ij")
        sin_phi = np.sqrt(1.0 - mu_g**2)
        u = np.stack(
            [sin_phi * np.cos(th_g), sin_phi * np.sin(th_g), mu_g], axis=-1
        ).reshape(-1, 3)
        w = np.repeat(glw, n_th) * (2.0 * math.pi / n_th)
        return u, w
    raise UnsupportedOrderError(f"polar parameterization supports dim <= 3, got {d}")


def _graph_normal(grads: np.ndarray, h: np.ndarray):
    """Unit vector (-grad + h)/sqrt(1+|grad|^2) field of a graph."""
    sq = 1.0 + np.sum(np.square(grads), axis=-1)
    root = np.sqrt(sq)
    return (h[None, :] - grads) / root[:, None], root


def _g1(t):
    return np.exp(-0.5 * np.square(t)) / math.sqrt(2.0 * math.pi)


@dataclass
class _NodeSet:
    """The nodes of one graph route for one (budget, seed), shared by both
    graphs of a pair and by every integrand.

    Y holds the ambient nodes, steps their stencil steps and t_hint section
    parameters that may lie inside the body (or None). A quadrature rule
    carries weights shaped as its node grid, Monte Carlo the keep-mask of
    draws inside DOMAIN_TRUNCATION_RADIUS. graphs holds each finite graph's
    (values, gradients, usable mask), all filled on first use.
    """

    Y: np.ndarray
    steps: np.ndarray
    method: str
    weights: Optional[np.ndarray] = None
    keep: Optional[np.ndarray] = None
    t_hint: Optional[np.ndarray] = None
    details: Optional[dict] = None
    graphs: dict = field(default_factory=dict)

    def graph(self, pair: GraphPair, which: str):
        """Values, in-plane gradients and usable mask of one graph. The first
        call fills every finite graph from one section search of the nodes
        and one stencil call, whose hints are t_hint, else the midpoint of
        both ends, else one unit inward from the finite end."""
        if not self.graphs:
            g, f = pair.ends(self.Y, self.t_hint)
            idx = np.flatnonzero(np.isfinite(f if pair.f_finite else g))
            if self.t_hint is not None:
                hint = self.t_hint[idx]
            elif pair.f_finite and pair.g_finite:
                hint = 0.5 * (g[idx] + f[idx])
            else:  # the section is a ray: one unit inward is inside
                hint = f[idx] - 1.0 if pair.f_finite else g[idx] + 1.0
            stencils = _stencil_gradient(pair, self.Y[idx], self.steps[idx], t_hint=hint)
            for w, vals, finite in (("upper", f, pair.f_finite), ("lower", g, pair.g_finite)):
                if finite:
                    grads = np.full_like(self.Y, np.nan)
                    usable = np.isfinite(vals)
                    grads[idx], usable[idx] = stencils[w]
                    self.graphs[w] = vals, grads, usable
        return self.graphs[which]


def _node_set(pair: GraphPair, budget: Budget, seed: int) -> _NodeSet:
    """Build the nodes of the pair's route: polar for a bounded body in
    dimension <= 3, tensor Gauss-Hermite for the full hyperplane in
    dimension <= 3, Monte Carlo over the transverse Gaussian otherwise."""
    h, B = pair.direction, pair.basis
    d = B.shape[0]
    body = pair.body
    if body is not None and body.bounded and d <= 3:
        U_c, w_ang = _angular_rule(d, budget)
        t_at_min, q = _golden_min_gauge(body, U_c @ B, h)
        if np.any(q <= 0.0):
            raise OracleIntegrityError("projected gauge vanished for a bounded body")
        rho = 1.0 / q
        t_rim = t_at_min * rho
        s, w_rad = _radial_rule(budget.radial)
        # nodes: (radial, angular)
        Yc = s[:, None, None] * (rho[None, :, None] * U_c[None, :, :])  # coords (R,K,d)
        m0 = body.margin_at_zero
        fd = np.minimum(budget.fd_step, 0.2 * (1.0 - s)[:, None] * m0 * np.ones_like(rho)[None, :])
        dens = gaussian_density(d, Yc.reshape(-1, d)).reshape(len(s), len(w_ang))
        radial_jac = (s[:, None] * rho[None, :]) ** (d - 1) * rho[None, :]
        return _NodeSet(
            Y=Yc.reshape(-1, d) @ B,
            steps=fd.reshape(-1),
            method="polar",
            weights=w_rad[:, None] * w_ang[None, :] * radial_jac * dens,
            t_hint=(s[:, None] * t_rim[None, :]).reshape(-1),
            details={"angles": len(w_ang), "radial": len(s)},
        )
    if d <= 3:
        # looked up on the module at call time, so a wrapper installed there
        # (the benchmark's tracer) sees the call
        nodes_c, w = space.gauss_hermite_nodes(budget.quadrature_order, d)
        return _NodeSet(
            Y=nodes_c @ B,
            steps=np.full(len(w), budget.fd_step),
            method="gauss_hermite",
            weights=w,
            details={"order": budget.quadrature_order},
        )
    coords = sample_gaussian(d, budget.samples, seed, threads=budget.threads)
    # truncate the transverse domain; the dropped tail mass is < 1e-30
    keep = np.linalg.norm(coords, axis=1) <= DOMAIN_TRUNCATION_RADIUS
    coords = np.where(keep[:, None], coords, 0.0)
    return _NodeSet(
        Y=coords @ B,
        steps=np.full(budget.samples, budget.fd_step),
        method="monte_carlo",
        keep=keep,
    )


def graph_surface_integral(
    pair: GraphPair,
    which: str,
    integrand2: Callable[[np.ndarray, np.ndarray], np.ndarray],
    budget=None,
    seed: int = 0,
) -> EstimateWithError:
    """Surface integral over one boundary graph of phi(x, nu) d(surface),
    where nu is the graph normal (-grad + h)/sqrt(1 + |grad|^2).

    The pair keeps one node set per (budget, seed) in pair._nodes (see
    _node_set for the route), built on first use; both graphs and every
    integrand over it share its nodes, its section search and each graph's
    values and gradients. This call reduces phi(x, nu) G1(f) sqrt(1 +
    |grad f|^2) at the graph's usable nodes with the rule's weights, or
    averages it over the kept Monte Carlo draws. More than 0.5% unusable
    polar nodes raise OracleIntegrityError: every polar node lies strictly
    inside the projected domain, so that many failures mean the oracle
    contradicts itself.
    """
    budget = Budget.from_any(budget)
    if which not in ("upper", "lower"):
        raise ParameterError("which must be 'upper' or 'lower'")
    if not (pair.f_finite if which == "upper" else pair.g_finite):
        raise CaseError(f"the {which} graph is infinite (case {pair.case_tag})")
    nodes = pair._nodes.get((budget, seed))
    if nodes is None:
        nodes = pair._nodes[budget, seed] = _node_set(pair, budget, seed)
    vals, grads, usable = nodes.graph(pair, which)
    if nodes.method == "polar" and np.mean(~usable) > 0.005:
        raise OracleIntegrityError(
            f"{int((~usable).sum())} of {usable.size} polar nodes of a bounded "
            "body produced no usable section"
        )
    contrib = np.zeros(usable.size)
    idx = np.flatnonzero(usable)
    if idx.size:
        nu, root = _graph_normal(grads[idx], pair.direction)
        x = nodes.Y[idx] + vals[idx][:, None] * pair.direction
        contrib[idx] = np.asarray(integrand2(x, nu), dtype=float) * _g1(vals[idx]) * root
    if nodes.keep is None:
        total = float(np.sum(nodes.weights * contrib.reshape(nodes.weights.shape)))
        return EstimateWithError(total, 0.0, usable.size, nodes.method, dict(nodes.details))
    contrib = np.where(nodes.keep, contrib, 0.0)
    mean = float(np.mean(contrib))
    se = float(np.std(contrib, ddof=1) / math.sqrt(len(contrib)))
    return EstimateWithError(mean, se, usable.size, "monte_carlo")


def area_formula_integral(
    pair: GraphPair,
    which: str,
    integrand: Optional[Callable[[np.ndarray], np.ndarray]],
    budget=None,
    seed: int = 0,
) -> EstimateWithError:
    """Integral of a scalar function over one boundary graph against the
    Gaussian surface measure, via the graph parameterization
    int integrand(y + f(y) h) G1(f(y)) sqrt(1 + |grad f(y)|^2) dgamma_perp."""
    if integrand is None:
        fn = lambda x, nu: np.ones(x.shape[0])
    else:
        fn = lambda x, nu: np.asarray(integrand(x), dtype=float)
    return graph_surface_integral(pair, which, fn, budget=budget, seed=seed)


def epigraph_perimeter(graph, budget=None, seed: int = 0) -> EstimateWithError:
    """Gaussian perimeter of the region above a graph, inside its cylinder:
    the area-formula integral of 1 over the upper graph. `graph` is a
    GraphPair (use function_graph for an analytically given function)."""
    return area_formula_integral(graph, "upper", None, budget=budget, seed=seed)


def _inner_center(body, F, Ys, z0, reach):
    """Improve an inside point of each F-section to a robust center by
    per-axis endpoint bisection and midpointing (two passes)."""
    m = F.shape[0]
    z = z0.copy()
    for _ in range(2):
        for axis in range(m)[::-1]:
            e = F[axis]
            lo = _section_dir_bisect(body, Ys + z @ F, e, reach)
            hi = _section_dir_bisect(body, Ys + z @ F, -e, reach)
            shiftc = 0.5 * (lo - hi)
            z[:, axis] += shiftc
    return z


def _section_dir_bisect(body, X, u, reach):
    """Distance from inside points X to the boundary along +u (clipped)."""
    hi = np.full(X.shape[0], reach)
    far_inside = body.contains(X + hi[:, None] * u)
    lo, hi = bisect(
        lambda t: body.contains(X + t[:, None] * u), np.zeros(X.shape[0]), hi, steps=60
    )
    out = 0.5 * (lo + hi)
    out[far_inside] = reach
    return out


def subspace_hausdorff(body: ConvexBody, F, budget=None, seed: int = 0) -> EstimateWithError:
    """Boundary measure through an m-dimensional subspace F (orthonormal rows,
    1 <= m <= 3): outer Monte Carlo over the complementary Gaussian, inner
    polar integral of G_m over the boundary of each m-dimensional section.

    With m == dim the outer integral is a point mass and the result is
    deterministic.
    """
    budget = Budget.from_any(budget)
    F = np.atleast_2d(np.asarray(F, dtype=float))
    m, n = F.shape
    if n != body.dim:
        raise ParameterError(f"F has ambient dim {n}, body has {body.dim}")
    if m < 1 or m > 3:
        raise UnsupportedOrderError(f"subspace dimension must be 1..3, got {m}")
    if not np.allclose(F @ F.T, np.eye(m), atol=1e-10):
        raise ParameterError("F rows must be orthonormal")

    outer_dim = n - m
    reach = body.reach * (1.0 + 1e-9) + 1.0
    if outer_dim == 0:
        Ys = np.zeros((1, n))
        n_samples = 1
    else:
        n_samples = budget.subspace_samples
        X = sample_gaussian(n, n_samples, seed, threads=budget.threads)
        Ys = X - (X @ F.T) @ F

    # interior point of each section, in F coordinates
    z0 = np.zeros((Ys.shape[0], m))
    have = body.contains(Ys + z0 @ F)
    # lattice probe for sections missing the outer point
    if not have.all():
        grid1 = np.linspace(-0.8 * reach, 0.8 * reach, 7)
        lattice = np.stack(
            [g.ravel() for g in np.meshgrid(*([grid1] * m), indexing="ij")], axis=-1
        )
        missing = np.flatnonzero(~have)
        pts = Ys[missing][:, None, :] + (lattice @ F)[None, :, :]
        hits = body.contains(pts.reshape(-1, n)).reshape(len(missing), -1)
        anyhit = hits.any(axis=1)
        first = np.argmax(hits, axis=1)
        z0[missing[anyhit]] = lattice[first[anyhit]]
        have[missing[anyhit]] = True
    # golden sweeps along F axes for the still-missing (thin) sections
    missing = np.flatnonzero(~have)
    if missing.size and body.bounded:
        # points beyond the outer radius cannot meet the section
        missing = missing[np.linalg.norm(Ys[missing], axis=1) < body.outer_radius]
    if missing.size:
        zi = z0[missing].copy()
        # the membership test below rejects a row whose section is empty
        # whatever its sweeps return, so a row proved empty skips them; the
        # sweeps' points are still formed for every row, so each searched
        # row's arithmetic is that of the full batch
        if m >= 2 and body.bounded:
            search = ~_empty_sections(body, F, Ys[missing])
        else:
            search = np.ones(missing.size, dtype=bool)
        # with m == 1 the line is the whole section: one sweep finds it
        sweeps = 1 if m == 1 else 2
        for sweep in range(sweeps if search.any() else 0):
            for axis in range(m):
                base = Ys[missing] + zi @ F - np.outer(zi[:, axis], F[axis])
                # the last line only feeds the membership test below, which
                # rejects a row whose minimum gauge is not below 1
                last = sweep == sweeps - 1 and axis == m - 1
                tt, _ = _golden_min_gauge(body, base[search], F[axis], stop=1.0 if last else None)
                zi[search, axis] = tt
        got = search & body.contains(Ys[missing] + zi @ F)
        z0[missing[got]] = zi[got]
        have[missing[got]] = True

    inner_vals = np.zeros(Ys.shape[0])
    act = np.flatnonzero(have)
    if act.size:
        if m == 1:
            z_in = z0[act, 0]
            base = Ys[act] + z0[act] @ F
            up = z_in + _section_dir_bisect(body, base, F[0], reach)
            lo = z_in - _section_dir_bisect(body, base, -F[0], reach)
            for endpoint in (up, lo):
                finite = np.abs(endpoint - z_in) < reach * (1 - 1e-9)
                weight = gaussian_density(m, endpoint[:, None])
                inner_vals[act] += np.where(finite, weight, 0.0)
        else:
            zc = _inner_center(body, F, Ys[act], z0[act], reach)
            inner_vals[act] = _inner_polar_boundary(body, F, Ys[act], zc, budget, reach)
    if outer_dim == 0:
        return EstimateWithError(
            value=float(inner_vals[0]),
            std_error=0.0,
            n_samples=1,
            method="polar",
        )
    mean = float(np.mean(inner_vals))
    se = float(np.std(inner_vals, ddof=1) / math.sqrt(len(inner_vals)))
    return EstimateWithError(
        value=mean, std_error=se, n_samples=len(inner_vals), method="monte_carlo"
    )


def _inner_polar_boundary(body, F, Ys, zc, budget: Budget, reach):
    """Inner boundary integral of G_m over each section, polar around zc."""
    m = F.shape[0]
    U, w_ang = _angular_rule(m, budget, inner=True)
    n_rows = Ys.shape[0]
    out = np.zeros(n_rows)
    chunk = max(1, int(4_000_000 // max(1, U.shape[0])))
    for start in range(0, n_rows, chunk):
        sl = slice(start, min(n_rows, start + chunk))
        Yb = Ys[sl]
        zb = zc[sl]
        base = Yb + zb @ F  # ambient centers
        nb, K = base.shape[0], U.shape[0]
        centers = np.repeat(base, K, axis=0)
        dirs = np.tile(U @ F, (nb, 1))
        r = _section_dir_bisect(body, centers, dirs, reach).reshape(nb, K)
        # unreached rays (unbounded section): the Gaussian factor kills them
        zbnd = zb[:, None, :] + r[:, :, None] * U[None, :, :]
        gm = gaussian_density(m, zbnd.reshape(-1, m)).reshape(nb, K)
        if m == 2:
            dth = 2.0 * math.pi / K
            dr = _periodic_gradient(r, dth)
            surfel = np.sqrt(r * r + dr * dr)
            out[sl] = np.sum(gm * surfel * dth, axis=1)
        else:
            n_mu, n_th = budget.inner_sphere_grid
            rg = r.reshape(nb, n_mu, n_th)
            mu, glw = roots_legendre(n_mu)
            dth = 2.0 * math.pi / n_th
            r_th = _periodic_gradient(rg.reshape(nb * n_mu, n_th), dth).reshape(
                nb, n_mu, n_th
            )
            r_mu = np.gradient(rg, mu, axis=1)
            sin_phi = np.sqrt(1.0 - mu**2)[None, :, None]
            r_phi = -sin_phi * r_mu
            grad_sq = r_phi**2 + (r_th / np.maximum(sin_phi, 1e-9)) ** 2
            surfel = rg * np.sqrt(rg * rg + grad_sq)
            w = (glw[None, :, None] * dth) * np.ones_like(rg)
            out[sl] = np.sum(
                gm.reshape(nb, n_mu, n_th) * surfel * w, axis=(1, 2)
            )
    return out


def _periodic_gradient(r, dx):
    return (np.roll(r, -1, axis=-1) - np.roll(r, 1, axis=-1)) / (2.0 * dx)


def _check_vertical_mass(pair: GraphPair, budget: Budget, seed: int):
    """Raise DirectionError, naming the mass, when the boundary set vertical
    to the pair's direction carries more than MAX_VERTICAL_MASS of the
    surface measure beyond three standard errors. A pair without an estimate
    gets one here, from one ray cast of its body at budget.boundary_samples
    and seed, and keeps it for every later boundary sum."""
    if pair._vertical_mass is None:  # set once on the frozen pair
        est = _direction_vertical_mass(_pair_body(pair), pair.direction, budget.boundary_samples, seed)
        object.__setattr__(pair, "_vertical_mass", est)
    vmass = pair._vertical_mass
    if vmass.value - 3.0 * vmass.std_error > MAX_VERTICAL_MASS:
        raise DirectionError(
            f"vertical boundary mass {vmass.value:.3f} exceeds {MAX_VERTICAL_MASS}; "
            "choose a transverse direction"
        )


def _boundary_sum(pair: GraphPair, phi, budget: Budget, seed: int):
    """Sum over the finite graphs of the surface integrals of phi(x, nu),
    nu the outward unit normal: the graph normal on the upper graph, its
    negation (exact in floating point) on the lower one.

    Raises DirectionError when no graph is finite and when the boundary set
    vertical to the pair's direction is not negligible, for bounded and
    unbounded bodies alike, and ParameterError for a function_graph pair,
    which has no body to ray-cast for that check.
    """
    if not (pair.f_finite or pair.g_finite):
        raise DirectionError(
            "both graphs are infinite along this direction (cylinder-like body); "
            "pick a transverse direction"
        )
    _check_vertical_mass(pair, budget, seed)
    total = None
    for which, finite, outward in (
        ("upper", pair.f_finite, phi),
        ("lower", pair.g_finite, lambda x, nu: phi(x, -nu)),
    ):
        if finite:
            est = graph_surface_integral(pair, which, outward, budget=budget, seed=seed)
            total = est if total is None else total + est
    return total


def total_boundary_measure(pair: GraphPair, budget=None, seed: int = 0) -> EstimateWithError:
    """Total Gaussian surface measure of the boundary of the pair's body: the
    sum of the area-formula integrals (integrand 1) over the finite graphs.

    Requires the direction's vertical boundary set to be negligible; a
    vertical-dominated direction (e.g. a cylinder along h, or a prism
    graphed across two of its faces) raises DirectionError naming the fix.
    """
    budget = Budget.from_any(budget)
    return _boundary_sum(pair, lambda x, nu: np.ones(x.shape[0]), budget, seed)


def minkowski_content_perimeter(
    body: ConvexBody, budget=None, seed: int = 0
) -> EstimateWithError:
    """Independent perimeter oracle: Gaussian content of epsilon-shells
    (gamma(body_eps) - gamma(body))/eps extrapolated to eps -> 0, with common
    random numbers across the epsilon grid. The shells are budget.epsilons,
    sampled with budget.samples draws on budget.threads workers.

    Requires an exact Euclidean distance oracle on the body (all shipped
    shapes provide one).
    """
    budget = Budget.from_any(budget)
    samples = budget.samples
    eps = np.asarray(sorted(budget.epsilons, reverse=True), dtype=float)
    if len(eps) < 3:
        raise ParameterError("need at least 3 epsilon values")
    if np.any(eps <= 0) or np.any(eps > 0.1):
        raise ParameterError("epsilons must lie in (0, 0.1]")
    if body.distance_outside is None:
        raise ParameterError(
            f"body {body.shape_tag!r} has no distance oracle; the content "
            "perimeter needs exact Euclidean distances"
        )

    # chunked, deterministic: distances on common draws across all epsilons
    def chunk_stats(idx, size):
        rng = np.random.default_rng([seed, idx])
        x = rng.standard_normal((size, body.dim))
        d = np.asarray(body.distance_outside(x))
        return np.array([np.sum((d > 0) & (d < e)) for e in eps])

    counts = np.sum(map_chunks(chunk_stats, samples, threads=budget.threads), axis=0)
    p_shell = counts / samples
    m = p_shell / eps
    se_m = np.sqrt(np.maximum(p_shell * (1 - p_shell), 1.0 / samples) / samples) / eps

    # weighted polynomial fits in eps; the intercept is the content
    wts = 1.0 / np.maximum(se_m, 1e-12) ** 2
    lin = np.polynomial.polynomial.polyfit(eps, m, 1, w=np.sqrt(wts))
    p_lin = lin[0]
    # intercept standard error from the weighted design
    X = np.stack([np.ones_like(eps), eps], axis=-1)
    cov = np.linalg.inv(X.T @ (wts[:, None] * X))
    se_lin = math.sqrt(cov[0, 0])
    extrap_err = 0.0
    if len(eps) >= 4:
        quad = np.polynomial.polynomial.polyfit(eps, m, 2, w=np.sqrt(wts))
        extrap_err = abs(quad[0] - p_lin)
    diffs = np.diff(m)
    noise = 3.0 * np.sqrt(se_m[1:] ** 2 + se_m[:-1] ** 2)
    if np.any(diffs > noise) and np.any(diffs < -noise):
        warnings.warn(
            "Minkowski-content table is non-monotone beyond noise; "
            "extrapolation may be unreliable",
            RuntimeWarning,
        )
    se = math.hypot(se_lin, extrap_err)
    return EstimateWithError(
        value=float(p_lin),
        std_error=float(se),
        n_samples=int(samples),
        method="monte_carlo",
        details={
            "epsilons": [float(e) for e in eps],
            "shell_rates": [float(v) for v in m],
            "shell_se": [float(v) for v in se_m],
            "extrapolation_error": float(extrap_err),
        },
    )
