"""Open convex sets as membership oracles with certified structure.

Every body carries a vectorized membership predicate, a certified interior
ball, and either an outer radius or a per-direction reach bound. Bodies are
normalized at construction so that the origin is an interior point; when a
specification places the origin outside, the whole body is translated (the
shift is recorded on the body) so downstream gauge computations are valid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .errors import (
    BodySpecError,
    DomainError,
    OracleIntegrityError,
    ParameterError,
)
from .space import EstimateWithError, brownian_kl_profile

DEFAULT_GAUGE_TOL = 1e-10
UNBOUNDED_REACH = 50.0

__all__ = [
    "ConvexBody",
    "ball",
    "ellipsoid",
    "halfspace",
    "slab",
    "polytope",
    "cylinder",
    "translate",
    "from_oracle",
    "load_body_spec",
    "kl_ellipsoid",
    "random_polytope",
    "bisect",
    "minkowski_functional",
    "minkowski_gradient_fd",
    "lebesgue_density",
    "orthonormal_complement",
]


@dataclass(frozen=True)
class ConvexBody:
    """Membership-oracle representation of an open convex set.

    contains   -- vectorized predicate on arrays of shape (..., dim)
    interior_point / interior_margin -- certified open ball inside the body
    outer_radius -- None marks an unbounded body; reach (t_max) bounds every
                    line search instead, at negligible Gaussian mass cost
    distance_outside -- optional exact Euclidean distance to the closure,
                    used by the Minkowski-content perimeter oracle
    """

    contains: Callable[[np.ndarray], np.ndarray]
    interior_point: np.ndarray
    interior_margin: float
    outer_radius: Optional[float]
    shape_tag: str
    dim: int
    t_max: float = UNBOUNDED_REACH
    distance_outside: Optional[Callable[[np.ndarray], np.ndarray]] = None
    spec: Optional[dict] = None
    recentered_by: Optional[np.ndarray] = None

    @property
    def bounded(self) -> bool:
        return self.outer_radius is not None

    @property
    def reach(self) -> float:
        """Radius beyond which no line search needs to look."""
        return self.outer_radius if self.bounded else self.t_max

    @property
    def margin_at_zero(self) -> float:
        """Radius of a certified ball around the origin inside the body."""
        return self.interior_margin - float(np.linalg.norm(self.interior_point))

    def __post_init__(self):
        object.__setattr__(
            self, "interior_point", np.asarray(self.interior_point, dtype=float)
        )
        if self.interior_margin <= 0:
            raise BodySpecError("interior_margin must be positive")
        if self.margin_at_zero <= 0:
            raise BodySpecError(
                "body must contain the origin with positive margin after centering"
            )
        if not bool(self.contains(np.zeros(self.dim))):
            raise OracleIntegrityError(
                f"membership oracle rejects the origin for {self.shape_tag}"
            )


def _recenter(
    contains, x0, r0, outer_radius, tag, dim, distance=None, spec=None, t_max=UNBOUNDED_REACH
) -> ConvexBody:
    """Translate the body by -x0 when the origin is not certifiably interior."""
    x0 = np.asarray(x0, dtype=float)
    shift = None
    if r0 - np.linalg.norm(x0) <= 1e-6 * max(1.0, r0):
        shift = -x0
        inner = contains
        contains = lambda x, fn=inner, off=x0: fn(np.asarray(x, dtype=float) + off)
        if distance is not None:
            inner_d = distance
            distance = lambda x, fn=inner_d, off=x0: fn(np.asarray(x, dtype=float) + off)
        if outer_radius is not None:
            outer_radius = outer_radius + float(np.linalg.norm(x0))
        x0 = np.zeros(dim)
    return ConvexBody(
        contains=contains,
        interior_point=x0,
        interior_margin=r0,
        outer_radius=outer_radius,
        shape_tag=tag,
        dim=dim,
        t_max=t_max,
        distance_outside=distance,
        spec=spec,
        recentered_by=shift,
    )


def ball(radius: float, dim: int, center=None) -> ConvexBody:
    """Open Euclidean ball of given radius."""
    if radius <= 0:
        raise BodySpecError("ball: radius must be positive")
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    contains = lambda x: np.linalg.norm(np.asarray(x, float) - c, axis=-1) < radius
    distance = lambda x: np.maximum(
        0.0, np.linalg.norm(np.asarray(x, float) - c, axis=-1) - radius
    )
    return _recenter(
        contains,
        c,
        radius,
        radius + np.linalg.norm(c),
        "ball",
        dim,
        distance=distance,
        spec={"shape": "ball", "radius": radius},
    )


def ellipsoid(semiaxes) -> ConvexBody:
    """Open axis-aligned ellipsoid sum (x_i / s_i)^2 < 1."""
    s = np.asarray(semiaxes, dtype=float)
    if s.ndim != 1 or np.any(s <= 0):
        raise BodySpecError("ellipsoid: semiaxes must be a vector of positives")
    dim = s.shape[0]
    inv2 = 1.0 / (s * s)
    contains = lambda x: np.sum(np.square(np.asarray(x, float)) * inv2, axis=-1) < 1.0

    def distance(x0):
        x = np.atleast_2d(np.asarray(x0, dtype=float))
        out = np.zeros(x.shape[0])
        outside = np.sum(np.square(x) * inv2, axis=-1) > 1.0
        if outside.any():
            xo = x[outside]
            # nearest boundary point solves w_i = s_i^2 x_i / (s_i^2 + lam)
            lo = np.zeros(xo.shape[0])
            hi = np.full(xo.shape[0], float(np.max(s)))
            fx = lambda lam: np.sum(
                (s * s * xo) ** 2 / (s * s + lam[:, None]) ** 2 * inv2, axis=-1
            ) - 1.0
            while np.any(fx(hi) > 0):
                hi = np.where(fx(hi) > 0, hi * 2.0, hi)
            lo, hi = bisect(lambda lam: fx(lam) > 0, lo, hi, steps=200)
            lam = 0.5 * (lo + hi)
            w = s * s * xo / (s * s + lam[:, None])
            out[outside] = np.linalg.norm(xo - w, axis=-1)
        return out if np.ndim(x0) > 1 else float(out[0])

    return _recenter(
        contains,
        np.zeros(dim),
        float(np.min(s)),
        float(np.max(s)),
        "ellipsoid",
        dim,
        distance=distance,
        spec={"shape": "ellipsoid", "semiaxes": list(map(float, s))},
    )


def halfspace(normal, offset: float) -> ConvexBody:
    """Open halfspace <a, x> < c (a normalized internally)."""
    a = np.asarray(normal, dtype=float)
    nrm = np.linalg.norm(a)
    if nrm == 0:
        raise BodySpecError("halfspace: normal must be nonzero")
    a = a / nrm
    c = float(offset) / nrm
    dim = a.shape[0]
    contains = lambda x: np.asarray(x, float) @ a < c
    distance = lambda x: np.maximum(0.0, np.asarray(x, float) @ a - c)
    x0 = np.zeros(dim) if c > 0 else (c - 1.0) * a
    r0 = c if c > 0 else 1.0
    return _recenter(
        contains,
        x0,
        r0,
        None,
        "halfspace",
        dim,
        distance=distance,
        spec={"shape": "halfspace", "normal": list(map(float, a)), "offset": c},
    )


def _normalize_faces(faces, dim=None):
    normals, offsets = [], []
    for i, face in enumerate(faces):
        a = np.asarray(face["normal"], dtype=float)
        nrm = np.linalg.norm(a)
        if nrm == 0:
            raise BodySpecError(f"polytope: faces[{i}].normal is zero")
        if dim is not None and a.shape[0] != dim:
            raise BodySpecError(
                f"polytope: faces[{i}].normal has dim {a.shape[0]}, expected {dim}"
            )
        normals.append(a / nrm)
        offsets.append(float(face["offset"]) / nrm)
    return np.asarray(normals), np.asarray(offsets)


def polytope(faces) -> ConvexBody:
    """Open intersection of halfspaces <a_i, x> < c_i.

    The interior point and margin come from the Chebyshev-center LP; the
    outer radius (when the polytope is bounded) from per-axis extent LPs.
    """
    if not faces:
        raise BodySpecError(f"polytope: face list is empty: {faces!r}")
    A, c = _normalize_faces(faces)
    dim = A.shape[1]

    # Chebyshev center: maximize r subject to <a_i, x> + r <= c_i, r <= cap.
    cap = 1e6
    res = linprog(
        np.concatenate([np.zeros(dim), [-1.0]]),
        A_ub=np.hstack([A, np.ones((len(c), 1))]),
        b_ub=c,
        bounds=[(-cap, cap)] * dim + [(0, cap)],
        method="highs",
    )
    if not res.success or res.x[-1] <= 1e-12:
        raise BodySpecError(
            f"polytope: empty interior for face list {faces!r}"
        )
    x0, r0 = res.x[:dim], float(res.x[-1])

    # Per-axis extents decide boundedness and give an outer radius.
    box = np.zeros(dim)
    unbounded = False
    for i in range(dim):
        for sign in (1.0, -1.0):
            obj = np.zeros(dim)
            obj[i] = -sign
            ext = linprog(obj, A_ub=A, b_ub=c, bounds=[(None, None)] * dim, method="highs")
            if ext.status == 3:
                unbounded = True
                break
            if ext.success:
                box[i] = max(box[i], abs(ext.x[i]))
        if unbounded:
            break
    outer = None if unbounded else float(np.linalg.norm(box)) * (1 + 1e-9)

    contains = lambda x: np.all(np.asarray(x, float) @ A.T < c, axis=-1)

    def distance(x0):
        # Dykstra alternating projections onto the face halfspaces; vertex
        # projections converge geometrically, so iterate per-row to rest.
        x = np.atleast_2d(np.asarray(x0, dtype=float))
        z = x.copy()
        corr = np.zeros((len(c),) + x.shape)
        active = np.any(x @ A.T >= c, axis=-1)
        for _ in range(5000):
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            before = z[idx].copy()
            for i in range(len(c)):
                w = z[idx] + corr[i, idx]
                viol = np.maximum(0.0, w @ A[i] - c[i])
                z[idx] = w - viol[:, None] * A[i]
                corr[i, idx] = w - z[idx]
            moved = np.max(np.abs(z[idx] - before), axis=-1)
            active[idx[moved < 1e-13]] = False
        out = np.linalg.norm(x - z, axis=-1)
        out[contains(x)] = 0.0
        return out if np.ndim(x0) > 1 else float(out[0])

    spec = {
        "shape": "polytope",
        "faces": [
            {"normal": list(map(float, a)), "offset": float(b)} for a, b in zip(A, c)
        ],
    }
    return _recenter(contains, x0, r0, outer, "polytope", dim, distance=distance, spec=spec)


def slab(normal, half_width: float) -> ConvexBody:
    """Open slab |<a, x>| < w, a two-face polytope with closed-form distance."""
    a = np.asarray(normal, dtype=float)
    nrm = np.linalg.norm(a)
    if nrm == 0 or half_width <= 0:
        raise BodySpecError("slab: normal must be nonzero and half_width positive")
    a = a / nrm
    w = float(half_width)
    body = polytope(
        [{"normal": a, "offset": w}, {"normal": -a, "offset": w}]
    )
    distance = lambda x: np.maximum(0.0, np.abs(np.asarray(x, float) @ a) - w)
    return replace(
        body,
        shape_tag="slab",
        distance_outside=distance,
        spec={"shape": "slab", "normal": list(map(float, a)), "half_width": w},
    )


def orthonormal_complement(h: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis (rows) of the hyperplane orthogonal to h."""
    h = np.asarray(h, dtype=float)
    basis = null_space(h.reshape(1, -1)).T
    return basis


def cylinder(base: ConvexBody, axis) -> ConvexBody:
    """Base body extruded along a full line in direction `axis`.

    The base lives in the orthogonal complement of the axis, expressed in the
    deterministic complement basis; base.dim must equal ambient dim - 1.
    """
    axis = np.asarray(axis, dtype=float)
    nrm = np.linalg.norm(axis)
    if nrm == 0:
        raise BodySpecError("cylinder: axis must be nonzero")
    axis = axis / nrm
    dim = axis.shape[0]
    if base.dim != dim - 1:
        raise BodySpecError(
            f"cylinder: base dim {base.dim} must equal ambient dim - 1 = {dim - 1}"
        )
    B = orthonormal_complement(axis)  # (dim-1, dim) rows
    contains = lambda x: base.contains(np.asarray(x, float) @ B.T)
    distance = None
    if base.distance_outside is not None:
        distance = lambda x: base.distance_outside(np.asarray(x, float) @ B.T)
    x0 = B.T @ base.interior_point
    return _recenter(
        contains,
        x0,
        base.interior_margin,
        None,
        f"cylinder({base.shape_tag})",
        dim,
        distance=distance,
        spec={"shape": "cylinder", "base": base.spec, "axis": list(map(float, axis))},
    )


def translate(body: ConvexBody, v) -> ConvexBody:
    """Shift a body by v; re-centers (and records the shift) if the origin
    would otherwise stop being interior."""
    v = np.asarray(v, dtype=float)
    if v.shape != (body.dim,):
        raise BodySpecError(f"translate: vector has shape {v.shape}, expected ({body.dim},)")
    inner = body.contains
    contains = lambda x: inner(np.asarray(x, float) - v)
    distance = None
    if body.distance_outside is not None:
        inner_d = body.distance_outside
        distance = lambda x: inner_d(np.asarray(x, float) - v)
    outer = None if body.outer_radius is None else body.outer_radius + float(np.linalg.norm(v))
    spec = dict(body.spec or {})
    spec["translate"] = list(map(float, v))
    return _recenter(
        contains,
        body.interior_point + v,
        body.interior_margin,
        outer,
        body.shape_tag,
        body.dim,
        distance=distance,
        spec=spec,
        t_max=body.t_max,
    )


def from_oracle(
    contains, interior_point, interior_margin, outer_radius=None, tag="custom", t_max=UNBOUNDED_REACH
) -> ConvexBody:
    """Wrap a user membership oracle (e.g. a level set {G < 0}) as a body."""
    x0 = np.asarray(interior_point, dtype=float)
    return _recenter(
        contains, x0, interior_margin, outer_radius, tag, x0.shape[0], t_max=t_max
    )


def load_body_spec(spec: dict, dim: Optional[int] = None) -> ConvexBody:
    """Build a body from the structured-text schema.

    Shapes: ball, ellipsoid, halfspace, slab, polytope, cylinder; optional
    "translate" applies last. Raises BodySpecError naming the offending field.
    """
    if not isinstance(spec, dict) or "shape" not in spec:
        raise BodySpecError(f"body spec must be a mapping with a 'shape' field: {spec!r}")
    shape = spec["shape"]
    try:
        if shape == "ball":
            if dim is None:
                raise BodySpecError("body.ball requires the model dim")
            body = ball(float(spec["radius"]), dim)
        elif shape == "ellipsoid":
            body = ellipsoid(spec["semiaxes"])
        elif shape == "halfspace":
            body = halfspace(spec["normal"], spec["offset"])
        elif shape == "slab":
            body = slab(spec["normal"], spec["half_width"])
        elif shape == "polytope":
            body = polytope(spec.get("faces", []))
        elif shape == "kl_ellipsoid":
            if dim is None:
                raise BodySpecError("body.kl_ellipsoid requires the model dim")
            body = kl_ellipsoid(dim, float(spec.get("scale", 1.0)))
        elif shape == "random_polytope":
            if dim is None:
                raise BodySpecError("body.random_polytope requires the model dim")
            body = random_polytope(
                dim, int(spec.get("faces", 8)), int(spec.get("seed", 0))
            )
        elif shape == "cylinder":
            axis = np.asarray(spec["axis"], dtype=float)
            base = load_body_spec(spec["base"], dim=axis.shape[0] - 1)
            body = cylinder(base, axis)
        else:
            raise BodySpecError(f"body.shape: unknown shape {shape!r}")
    except KeyError as exc:
        raise BodySpecError(f"body.{shape}: missing field {exc.args[0]!r}") from exc
    if dim is not None and body.dim != dim:
        raise BodySpecError(f"body has dim {body.dim}, model declares {dim}")
    if "translate" in spec:
        body = translate(body, spec["translate"])
    return body


def kl_ellipsoid(dim: int, scale: float = 1.0) -> ConvexBody:
    """Demo ellipsoid whose whitened semiaxes grow like the inverse square
    roots of the Brownian covariance eigenvalues: the image of a fixed
    function-space ball under the spectral embedding."""
    profile = np.asarray(brownian_kl_profile(dim))
    body = ellipsoid(scale / np.sqrt(profile))
    return replace(body, spec={"shape": "kl_ellipsoid", "scale": float(scale)})


def random_polytope(
    dim: int, n_faces: int, seed: int, offset_range=(0.8, 1.6)
) -> ConvexBody:
    """Random polytope containing the origin: uniform face normals, offsets
    in offset_range. A bounding box is appended only when the random faces
    leave the polytope unbounded."""
    rng = np.random.default_rng([seed, 0])
    normals = rng.standard_normal((n_faces, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(*offset_range, size=n_faces)
    faces = [{"normal": a, "offset": c} for a, c in zip(normals, offsets)]
    body = polytope(faces)
    if body.bounded:
        return body
    hi = max(offset_range)
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        faces.append({"normal": e, "offset": 2.0 * hi})
        faces.append({"normal": -e, "offset": 2.0 * hi})
    return polytope(faces)


def bisect(inside_at, t_in, t_out, tol=None, relative=False, steps=None, active=None):
    """Vectorized bisection of per-row brackets whose t_in end passes the
    membership test inside_at (parameters (N,) -> bools (N,)) and whose t_out
    end fails it. Returns the shrunken (t_in, t_out).

    With `tol`, a row stops once |t_out - t_in| <= tol (times max(1, t_in)
    when `relative`), and the loop runs at most
    min(130, max(10, ceil(log2(widest gap / tol)) + 2)) steps; without it,
    exactly `steps` steps. Only `active` rows move (default: rows not yet
    within tolerance); the others are probed at their midpoint and left
    unchanged.
    """
    t_in = np.asarray(t_in, dtype=float)
    t_out = np.asarray(t_out, dtype=float)

    def unresolved(a, b):
        return np.abs(b - a) > (tol * np.maximum(1.0, a) if relative else tol)

    if tol is not None:
        gap0 = float(np.max(np.abs(t_out - t_in))) if t_in.size else 0.0
        steps = min(130, max(10, int(math.ceil(math.log2(max(gap0 / tol, 2.0)))) + 2))
        if active is None:
            active = unresolved(t_in, t_out)
    if active is None:
        active = np.ones(t_in.shape, dtype=bool)
    for _ in range(steps):
        if not active.any():
            break
        mid = 0.5 * (t_in + t_out)
        inside = inside_at(mid)
        t_in = np.where(active & inside, mid, t_in)
        t_out = np.where(active & ~inside, mid, t_out)
        if tol is not None:
            active = active & unresolved(t_in, t_out)
    return t_in, t_out


def minkowski_functional(body: ConvexBody, x, tol: float = DEFAULT_GAUGE_TOL):
    """Gauge p(x) = inf{lam > 0 : x in lam * body}, by bisection on lam.

    Accepts a single point (n,) or a batch (N, n); p(0) = 0 exactly.
    The bracket [|x|/outer_radius, |x|/margin] comes from the certified radii;
    a membership failure at the certified inner bracket raises
    OracleIntegrityError.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != body.dim:
        raise DomainError(f"point dim {X.shape[1]} != body dim {body.dim}")
    norms = np.linalg.norm(X, axis=1)
    p = np.zeros(X.shape[0])
    act = norms > 0
    if act.any():
        Xa = X[act]
        m0 = body.margin_at_zero
        hi = norms[act] / (0.9 * m0)
        if not np.all(body.contains(Xa / hi[:, None])):
            raise OracleIntegrityError(
                "membership oracle rejects points inside the certified interior ball"
            )
        if body.bounded:
            lo = norms[act] / body.outer_radius * (1.0 - 1e-12)
        else:
            lo = np.zeros_like(hi)
        hi, lo = bisect(
            lambda lam: body.contains(Xa / np.maximum(lam, 1e-250)[:, None]),
            hi,
            lo,
            tol=tol,
            relative=True,
        )
        p[act] = 0.5 * (hi + lo)
        # points essentially in the recession cone have gauge 0
        p[act] = np.where(hi <= tol, 0.0, p[act])
    return float(p[0]) if scalar else p


def minkowski_gradient_fd(
    body: ConvexBody,
    x,
    step: Optional[float] = None,
    tol: float = DEFAULT_GAUGE_TOL,
):
    """Central-difference gradient of the gauge at x (single point or batch).

    step must dominate the gauge tolerance: step >= tol^(1/3), else the
    stencil is noise-dominated and a ParameterError explains the bound.
    """
    min_step = tol ** (1.0 / 3.0)
    if step is None:
        step = min_step
    if step < min_step * (1.0 - 1e-9):
        raise ParameterError(
            f"step {step:g} is noise-dominated for gauge tolerance {tol:g}; "
            f"use step >= tol**(1/3) = {min_step:g}"
        )
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    if np.any(np.linalg.norm(X, axis=1) == 0.0):
        raise DomainError("gauge gradient is undefined at the origin")
    n = body.dim
    eye = np.eye(n)
    stencil = np.concatenate(
        [X[:, None, :] + step * eye[None, :, :], X[:, None, :] - step * eye[None, :, :]],
        axis=1,
    )  # (N, 2n, n)
    vals = minkowski_functional(body, stencil.reshape(-1, n), tol=tol).reshape(-1, 2 * n)
    grad = (vals[:, :n] - vals[:, n:]) / (2.0 * step)
    return grad[0] if scalar else grad


def lebesgue_density(
    body: ConvexBody, x, radius: float, samples: int = 20000, seed: int = 0
):
    """Monte Carlo estimate of vol(body ∩ B(x, radius)) / vol(B(x, radius)).

    Returns an EstimateWithError (monte_carlo method).
    """
    if radius <= 0:
        raise ParameterError("radius must be positive")
    if samples < 1000:
        raise ParameterError("samples must be >= 1e3")
    x = np.asarray(x, dtype=float)
    rng = np.random.default_rng([seed, 0])
    d = rng.standard_normal((samples, body.dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = radius * rng.uniform(size=samples) ** (1.0 / body.dim)
    pts = x + d * r[:, None]
    hits = body.contains(pts).astype(float)
    p = float(np.mean(hits))
    se = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
    return EstimateWithError(
        value=p, std_error=se, n_samples=samples, seed=seed, method="monte_carlo"
    )
