"""Open convex sets as membership oracles with certified structure.

Every body carries a vectorized membership predicate, a certified interior
ball, and either an outer radius or a per-direction reach bound. Bodies are
normalized at construction so that the origin is an interior point; when a
specification places the origin outside, the whole body is translated (the
shift is recorded on the body) so downstream gauge computations are valid.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np
from scipy.linalg import null_space
from scipy.optimize import linprog

from .errors import (
    BodySpecError,
    DomainError,
    OracleIntegrityError,
    ParameterError,
)
from .space import EstimateWithError, as_direction, brownian_kl_profile

DEFAULT_GAUGE_TOL = 1e-10
UNBOUNDED_REACH = 50.0
SECULAR_NEWTON_STEPS = 200  # cap on Newton steps of the ellipsoid distance
DYKSTRA_SWEEPS = 5000  # cap on Dykstra sweeps of the polytope distance

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
    outer_radius -- None marks an unbounded body; reach (UNBOUNDED_REACH)
                    bounds every line search instead, at negligible Gaussian
                    mass cost
    distance_outside -- optional exact Euclidean distance to the closure,
                    used by the Minkowski-content perimeter oracle
    """

    contains: Callable[[np.ndarray], np.ndarray]
    interior_point: np.ndarray
    interior_margin: float
    outer_radius: Optional[float]
    shape_tag: str
    dim: int
    distance_outside: Optional[Callable[[np.ndarray], np.ndarray]] = None
    spec: Optional[dict] = None
    recentered_by: Optional[np.ndarray] = None

    @property
    def bounded(self) -> bool:
        return self.outer_radius is not None

    @property
    def reach(self) -> float:
        """Radius beyond which no line search needs to look."""
        return self.outer_radius if self.bounded else UNBOUNDED_REACH

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


def _recenter(contains, x0, r0, outer_radius, tag, dim, distance=None, spec=None) -> ConvexBody:
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
        distance_outside=distance,
        spec=spec,
        recentered_by=shift,
    )


def ball(radius: float, dim: int) -> ConvexBody:
    """Open Euclidean ball of given radius centred at the origin (translate
    shifts it)."""
    if radius <= 0:
        raise BodySpecError("ball: radius must be positive")
    contains = lambda x: np.linalg.norm(np.asarray(x, float), axis=-1) < radius
    distance = lambda x: np.maximum(0.0, np.linalg.norm(np.asarray(x, float), axis=-1) - radius)
    return _recenter(
        contains,
        np.zeros(dim),
        radius,
        radius,
        "ball",
        dim,
        distance=distance,
        spec={"shape": "ball", "radius": radius},
    )


def ellipsoid(semiaxes) -> ConvexBody:
    """Open axis-aligned ellipsoid sum (x_i / s_i)^2 < 1.

    Its distance oracle projects a point outside onto the boundary through
    the root of the secular equation, by Newton's method from lam = 0
    (_secular_root).
    """
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
            # nearest boundary point w_i = s_i^2 x_i / (s_i^2 + lam)
            lam = _secular_root(s * s, s * s * xo * xo)
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


def _secular_root(s2, c):
    """Root lam >= 0, per row, of the ellipsoid projection's secular equation
    f(lam) = sum_i c_i / (s2_i + lam)^2 - 1, for rows with f(0) > 0 (points
    outside the ellipsoid with squared semiaxes s2, c_i = s2_i x_i^2).

    f is convex and decreasing on lam >= 0, so Newton's method from lam = 0
    climbs to the root without overshooting it. A row stops once a step no
    longer increases lam, which happens at the root to rounding.
    """
    lam = np.zeros(c.shape[0])
    active = np.ones(c.shape[0], dtype=bool)
    for _ in range(SECULAR_NEWTON_STEPS):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        u = s2 + lam[idx, None]
        ratio = c[idx] / (u * u)
        f = np.sum(ratio, axis=-1) - 1.0
        slope = -2.0 * np.sum(ratio / u, axis=-1)
        step = lam[idx] - f / slope
        rises = step > lam[idx]
        lam[idx[rises]] = step[rises]
        active[idx[~rises]] = False
    return lam


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


def _row_products(x, M) -> np.ndarray:
    """x @ M.T for points x of shape (..., n), with a lone point computed as
    a two-row product: numpy sends one row to a matrix-vector routine that
    rounds unlike the matrix product of a batch, so without this a point's
    membership could depend on how many points share its call."""
    x = np.asarray(x, float)
    if x.size != x.shape[-1]:
        return x @ M.T
    return (np.concatenate([x.reshape(1, -1)] * 2) @ M.T)[0].reshape(x.shape[:-1] + (len(M),))


def polytope(faces) -> ConvexBody:
    """Open intersection of halfspaces <a_i, x> < c_i.

    Per-axis extent LPs decide boundedness and give the outer radius of a
    bounded polytope. The interior point and margin come from the
    Chebyshev-center LP, except for an unbounded polytope with every offset
    positive (a slab, say): it keeps the origin, with margin min(c_i).

    Its distance oracle runs Dykstra's alternating projections onto the
    faces, each row until a sweep moves it by less than 1e-13 or for
    DYKSTRA_SWEEPS sweeps, on compact arrays of the rows still moving.
    """
    if not faces:
        raise BodySpecError(f"polytope: face list is empty: {faces!r}")
    A, c = _normalize_faces(faces)
    dim = A.shape[1]

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

    if unbounded and np.all(c > 0):
        # unit normals: the ball of radius min(c) about 0 meets no face. The
        # boxed LP below would put an unbounded polytope's centre on its
        # +-cap box, and every membership test would then add a 1e6 shift.
        x0, r0 = np.zeros(dim), float(np.min(c))
    else:
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

    def contains(x):
        # one comparison per face, ANDed column by column: the same booleans
        # as np.all(y < c, axis=-1), without a reduction over the short axis
        y = _row_products(x, A)
        ok = y[..., 0] < c[0]
        for i in range(1, len(c)):
            ok &= y[..., i] < c[i]
        return ok

    def distance(x0):
        # Dykstra alternating projections onto the face halfspaces; vertex
        # projections converge geometrically, so iterate per-row to rest.
        # Only rows still moving are kept, with their corrections, in
        # compact arrays; a row at rest is written back once.
        x = np.atleast_2d(np.asarray(x0, dtype=float))
        z = x.copy()
        idx = np.flatnonzero(np.any(x @ A.T >= c, axis=-1))
        zi = z[idx]
        corr = np.zeros((len(c),) + zi.shape)
        for _ in range(DYKSTRA_SWEEPS):
            if idx.size == 0:
                break
            before = zi
            for i in range(len(c)):
                w = zi + corr[i]
                viol = np.maximum(0.0, w @ A[i] - c[i])
                zi = w - viol[:, None] * A[i]
                corr[i] = w - zi
            rest = np.max(np.abs(zi - before), axis=-1) < 1e-13
            if rest.any():
                z[idx[rest]] = zi[rest]
                idx, zi, corr = idx[~rest], zi[~rest], corr[:, ~rest]
        z[idx] = zi  # rows still moving after DYKSTRA_SWEEPS sweeps
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
    contains = lambda x: base.contains(_row_products(x, B))
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
    )


def from_oracle(contains, interior_point, interior_margin, outer_radius=None) -> ConvexBody:
    """Wrap a user membership oracle (e.g. a level set {G < 0}) as a body
    tagged "custom"."""
    x0 = np.asarray(interior_point, dtype=float)
    return _recenter(contains, x0, interior_margin, outer_radius, "custom", x0.shape[0])


class _Kind(NamedTuple):
    """A kind of config value: the words an error uses for it and a
    predicate on (value, model dim). A list kind may name the kind (or the
    section schema) of its entries in `each`, which are then checked one by
    one, so an error names the entry; a `required` field must be present."""

    what: str
    valid: Callable
    each: object = None
    required: bool = False


def _is_number(value, integer: bool = False) -> bool:
    """A finite JSON number (an integer when asked), not a boolean. A number
    read as a float must fit one; an integer of any size is an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return integer


def _is_vector(value) -> bool:
    flat = isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1)
    return flat and all(_is_number(v) for v in value)


def _is_unit(value, dim) -> bool:
    """A list of numbers that as_direction takes as a direction in R^dim."""
    if not _is_vector(value):
        return False
    try:
        as_direction(value, dim=dim)
    except DomainError:
        return False
    return True


def _bounded(what: str, low, integer: bool = False, strict: bool = False) -> _Kind:
    return _Kind(what, lambda v, n: _is_number(v, integer) and (v > low if strict else v >= low))


def _list_of(what: str, each, nonempty: bool = False) -> _Kind:
    return _Kind(what, lambda v, n: isinstance(v, (list, tuple)) and (bool(v) or not nonempty), each)


def _nullable(kind: _Kind) -> _Kind:
    return kind._replace(what=f"{kind.what} or null", valid=lambda v, n: v is None or kind.valid(v, n))


def _required(kind: _Kind) -> _Kind:
    return kind._replace(required=True)


def _is_object(value, dim) -> bool:
    return isinstance(value, dict)


_NUMBER = _Kind("a number", lambda v, n: _is_number(v))
_INTEGER = _Kind("an integer", lambda v, n: _is_number(v, integer=True))
_VECTOR = _Kind("a list of numbers", lambda v, n: _is_vector(v))
_BODY = _Kind("a body spec (a JSON object)", _is_object)
_COUNT = _bounded("a positive integer", 1, integer=True)
_POSITIVE = _bounded("a positive number", 0, strict=True)
_NON_NEGATIVE = _bounded("a non-negative number", 0)
_INDEX = _bounded("an integer >= 0", 0, integer=True)
_UNIT = _Kind("a unit vector with model.dim entries", _is_unit)
_PAIR = _Kind(
    "a pair of positive integers",
    lambda v, n: isinstance(v, (tuple, list)) and len(v) == 2 and all(_COUNT.valid(x, n) for x in v),
)
_FILE_NAME = _Kind(
    "a bare file name with no directory part",
    lambda v, n: isinstance(v, str) and v == Path(v).name and v not in ("", ".."),
)

# Every field of every config section, with its kind. A dict in place of a
# kind is a nested section, checked as {} when absent. The "config" entry
# is the run config; "budget" holds the fields of surface.Budget; "psi"
# and "body" hold the fields every test function and every body shape
# takes, and "psi.<name>" and "body.<shape>" the fields of each one.
_SCHEMA = {
    "config": {
        "seed": _required(_INDEX),
        "model": {
            "dim": _required(_COUNT),
            "spectral_profile": _nullable(
                _Kind(
                    '"brownian" or a list of numbers',
                    lambda v, n: _is_vector(v) or (isinstance(v, str) and v == "brownian"),
                )
            ),
        },
        "body": _required(_BODY),
        "psi": _nullable(_Kind("a test function spec (a JSON object)", _is_object)),
        "directions": {
            "k": _list_of("a list of unit vectors", _UNIT),
            "h": _nullable(_UNIT),
            "candidates": _nullable(_list_of("a nonempty list of unit vectors", _UNIT, nonempty=True)),
        },
        "budgets": _Kind("a JSON object of budget fields", _is_object),
        "tolerances": {
            "perimeter_relative": _NON_NEGATIVE,
            "ibp": _NON_NEGATIVE,
            "gradcheck_median": _NON_NEGATIVE,
        },
        "density": {
            "samples": _bounded("an integer >= 1000", 1000, integer=True),
            "radius": _POSITIVE,
            "boundary_points": _COUNT,
            "points": _list_of(
                "a nonempty list of points",
                _Kind("a point with model.dim coordinates", lambda v, n: _is_vector(v) and len(v) == n),
                nonempty=True,
            ),
        },
        "grid": {
            "dims": _list_of("a list of integers", _bounded("an integer >= 2", 2, integer=True)),
            "scale": _POSITIVE,
        },
        "subspaces": _list_of(
            "a list of axis lists",
            _Kind(
                "a list of 1 to 3 distinct integer axes in [0, model.dim)",
                lambda v, n: isinstance(v, list)
                and 1 <= len(v) <= 3
                and all(_is_number(a, integer=True) and 0 <= a < n for a in v)
                and len(set(v)) == len(v),
            ),
        ),
        "outputs": {"report": _FILE_NAME, "csv": _FILE_NAME},
    },
    "budget": {
        "samples": _COUNT,
        "quadrature_order": _COUNT,
        "angles": _COUNT,
        "sphere_grid": _PAIR,
        "radial": _COUNT,
        "inner_angles": _COUNT,
        "inner_sphere_grid": _PAIR,
        "subspace_samples": _COUNT,
        "epsilons": _VECTOR,
        "boundary_samples": _COUNT,
        "fd_step": _POSITIVE,
        "threads": _COUNT,
    },
    "psi": {
        "name": _required(
            _Kind("a test function name", lambda v, n: isinstance(v, str) and f"psi.{v}" in _SCHEMA)
        ),
    },
    "psi.constant": {"value": _NUMBER},
    "psi.coordinate": {"index": _required(_INDEX)},
    "psi.tanh": {"weights": _required(_VECTOR), "offset": _NUMBER},
    "psi.distance_clamp": {"center": _required(_VECTOR), "inner": _NUMBER, "outer": _NUMBER},
    "body": {
        "shape": _required(
            _Kind("a body shape", lambda v, n: isinstance(v, str) and f"body.{v}" in _SCHEMA)
        ),
        "translate": _VECTOR,
    },
    "body.ball": {"radius": _required(_NUMBER)},
    "body.ellipsoid": {"semiaxes": _required(_VECTOR)},
    "body.halfspace": {"normal": _required(_VECTOR), "offset": _required(_NUMBER)},
    "body.slab": {"normal": _required(_VECTOR), "half_width": _required(_NUMBER)},
    "body.polytope": {
        "faces": _list_of(
            "a list of faces", {"normal": _required(_VECTOR), "offset": _required(_NUMBER)}
        ),
    },
    "body.kl_ellipsoid": {"scale": _NUMBER},
    "body.random_polytope": {"faces": _INTEGER, "seed": _INTEGER},
    "body.cylinder": {"axis": _required(_VECTOR), "base": _required(_BODY)},
}


def _check_fields(path: str, section, schema: dict, error, dim=None) -> None:
    """Check a config section against its schema (a dict of field -> kind
    or nested schema), given the model dim for the kinds that need it.
    Raises `error` naming the section's unknown keys, a missing required
    field, or the first field (or list entry) whose value is not of its
    kind."""
    if not isinstance(section, dict):
        raise error(f"{path} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(schema), key=str)
    if unknown:
        raise error(f"unknown {path} fields: {unknown}")
    for key, kind in schema.items():
        if key in section or isinstance(kind, dict):
            _check_value(f"{path}.{key}", section.get(key, {}), kind, error, dim)
        elif kind.required:
            raise error(f"missing field {path}.{key}")


def _check_value(name: str, value, kind, error, dim) -> None:
    if isinstance(kind, dict):
        _check_fields(name, value, kind, error, dim)
        return
    if not kind.valid(value, dim):
        raise error(f"{name} must be {kind.what}, got {value!r}")
    if kind.each is not None and value is not None:
        for i, entry in enumerate(value):
            _check_value(f"{name}[{i}]", entry, kind.each, error, dim)


def load_body_spec(spec: dict, dim: Optional[int] = None) -> ConvexBody:
    """Build a body from the structured-text schema.

    Shapes: ball, ellipsoid, halfspace, slab, polytope, kl_ellipsoid,
    random_polytope, cylinder; optional "translate" applies last. Raises
    BodySpecError naming the offending field, also for a missing or unknown
    field or a field that holds no value of its kind.
    """
    return _load_body(spec, dim, "body")


def _load_body(spec: dict, dim: Optional[int], path: str) -> ConvexBody:
    """load_body_spec for the spec found at config field `path`, which every
    error names (a cylinder's base is loaded at `path`.cylinder.base)."""
    if not isinstance(spec, dict) or "shape" not in spec:
        raise BodySpecError(f"{path} must be a mapping with a 'shape' field: {spec!r}")
    shape = spec["shape"]
    if not _SCHEMA["body"]["shape"].valid(shape, dim):
        raise BodySpecError(f"{path}.shape: unknown shape {shape!r}")
    # the fields every shape takes are named at `path`, the shape's own at `where`
    where, common = f"{path}.{shape}", _SCHEMA["body"]
    _check_fields(path, {k: v for k, v in spec.items() if k in common}, common, BodySpecError)
    own = {k: v for k, v in spec.items() if k not in common}
    _check_fields(where, own, _SCHEMA[f"body.{shape}"], BodySpecError)
    if dim is None and shape in ("ball", "kl_ellipsoid", "random_polytope"):
        raise BodySpecError(f"{where} requires the model dim")
    if shape == "ball":
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
        body = kl_ellipsoid(dim, float(spec.get("scale", 1.0)))
    elif shape == "random_polytope":
        body = random_polytope(dim, int(spec.get("faces", 8)), int(spec.get("seed", 0)))
    else:
        axis = np.asarray(spec["axis"], dtype=float)
        base = _load_body(spec["base"], axis.shape[0] - 1, f"{where}.base")
        body = cylinder(base, axis)
    if dim is not None and body.dim != dim:
        raise BodySpecError(f"{path} has dim {body.dim}, expected {dim}")
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


def random_polytope(dim: int, n_faces: int, seed: int) -> ConvexBody:
    """Random polytope containing the origin: uniform face normals, offsets
    uniform in (0.8, 1.6). A bounding box at 3.2 is appended only when the
    random faces leave the polytope unbounded."""
    rng = np.random.default_rng([seed, 0])
    normals = rng.standard_normal((n_faces, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.8, 1.6, size=n_faces)
    faces = [{"normal": a, "offset": c} for a, c in zip(normals, offsets)]
    body = polytope(faces)
    if body.bounded:
        return body
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        faces.append({"normal": e, "offset": 3.2})
        faces.append({"normal": -e, "offset": 3.2})
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
    unchanged. In both modes a row also stops after a step whose midpoint
    equalled one of its ends: after that step's update its midpoint is one
    of its ends again, so for a predicate that gives the same answer at the
    same point, further steps cannot move it and the result equals running
    every step.
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
        fixed = (mid == t_in) | (mid == t_out)
        t_in = np.where(active & inside, mid, t_in)
        t_out = np.where(active & ~inside, mid, t_out)
        active = active & ~fixed
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


def minkowski_gradient_fd(body: ConvexBody, x):
    """Central-difference gradient of the gauge at x (single point or batch),
    from gauges at tolerance DEFAULT_GAUGE_TOL and step DEFAULT_GAUGE_TOL^(1/3),
    the smallest step the gauge noise does not dominate.
    """
    step = DEFAULT_GAUGE_TOL ** (1.0 / 3.0)
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
    vals = minkowski_functional(body, stencil.reshape(-1, n)).reshape(-1, 2 * n)
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
    return EstimateWithError(value=p, std_error=se, n_samples=samples, method="monte_carlo")
