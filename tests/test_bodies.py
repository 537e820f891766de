import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import convexgauss as cg
from convexgauss.bodies import bisect, orthonormal_complement
from convexgauss.errors import BodySpecError, DomainError, OracleIntegrityError

TOL = 1e-10


def test_gauge_ball_is_scaled_norm():
    body = cg.ball(2.0, 3)
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 3))
    p = cg.minkowski_functional(body, x)
    expected = np.linalg.norm(x, axis=1) / 2.0
    assert np.allclose(p, expected, atol=TOL * 10, rtol=TOL * 10)


def test_gauge_zero_is_zero():
    body = cg.ball(1.0, 2)
    assert cg.minkowski_functional(body, np.zeros(2)) == 0.0


def test_gauge_halfspace_boundary_point():
    body = cg.halfspace([1.0, 0.0], 2.0)
    assert cg.minkowski_functional(body, [2.0, 0.0]) == pytest.approx(1.0, abs=1e-9)
    # recession direction: gauge 0
    assert cg.minkowski_functional(body, [-7.0, 3.0]) <= 1e-9


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.floats(-5, 5), min_size=2, max_size=2).filter(
        lambda v: np.linalg.norm(v) > 1e-3
    ),
    st.sampled_from([0.5, 2.0, 10.0]),
)
def test_gauge_positive_homogeneity(point, lam):
    body = cg.polytope(
        [
            {"normal": [1.0, 0.2], "offset": 1.0},
            {"normal": [-0.3, 1.0], "offset": 1.2},
            {"normal": [-1.0, -0.5], "offset": 0.9},
            {"normal": [0.4, -1.0], "offset": 1.1},
        ]
    )
    x = np.asarray(point)
    p1 = cg.minkowski_functional(body, x)
    p2 = cg.minkowski_functional(body, lam * x)
    assert p2 == pytest.approx(lam * p1, rel=10 * TOL, abs=10 * TOL * max(1, lam))


def test_gauge_level_set_consistency():
    body = cg.ellipsoid([1.0, 0.6])
    rng = np.random.default_rng(3)
    x = rng.uniform(-1.5, 1.5, size=(300, 2))
    p = cg.minkowski_functional(body, x)
    inside = body.contains(x)
    assert np.all(inside == (p < 1 - 2 * TOL) | (np.abs(p - 1) <= 2 * TOL))
    strict = np.abs(p - 1) > 2 * TOL
    assert np.array_equal(inside[strict], p[strict] < 1)


def test_gauge_midpoint_convexity():
    body = cg.random_polytope(3, 8, seed=5)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((200, 3))
    y = rng.standard_normal((200, 3))
    px = cg.minkowski_functional(body, x)
    py = cg.minkowski_functional(body, y)
    pm = cg.minkowski_functional(body, 0.5 * (x + y))
    assert np.all(pm <= 0.5 * (px + py) + 4 * TOL)


def test_gradient_ball_boundary():
    r = 1.5
    body = cg.ball(r, 3)
    x = np.array([0.9, -0.9, 0.9]) * (r / math.sqrt(3 * 0.81))
    x *= r / np.linalg.norm(x)
    g = cg.minkowski_gradient_fd(body, x)
    assert np.allclose(g, x / r**2, atol=1e-6)


def test_gradient_halfspace():
    body = cg.halfspace([1.0, 0.0], 2.0)  # gauge = x1/2 on the active side
    g = cg.minkowski_gradient_fd(body, [2.0, 0.3])
    assert np.allclose(g, [0.5, 0.0], atol=1e-6)


def test_gradient_rejects_origin():
    with pytest.raises(DomainError):
        cg.minkowski_gradient_fd(cg.ball(1.0, 2), np.zeros(2))


def test_density_deep_interior():
    body = cg.ball(1.0, 2)
    est = cg.lebesgue_density(body, [0.0, 0.0], 0.2, samples=20000, seed=1)
    assert est.value == pytest.approx(1.0, abs=3 * est.std_error + 1e-12)


def test_density_halfspace_boundary():
    body = cg.halfspace([1.0, 0.0], 1.0)
    est = cg.lebesgue_density(body, [1.0, 0.0], 0.3, samples=40000, seed=2)
    assert abs(est.value - 0.5) <= 3 * est.std_error


def test_density_square_vertex_quarter():
    # brute-force angular oracle: fraction of directions from the vertex
    # (1, 1) that point into the square (-1,1)^2
    angles = np.linspace(0, 2 * math.pi, 1_000_000, endpoint=False)
    dirs = np.stack([np.cos(angles), np.sin(angles)], axis=-1)
    probe = np.array([1.0, 1.0]) + 1e-9 * dirs
    inside = np.all(np.abs(probe) < 1.0, axis=1)
    oracle = inside.mean()  # = 0.25
    assert oracle == pytest.approx(0.25, abs=1e-5)

    body = cg.polytope(
        [
            {"normal": [1.0, 0.0], "offset": 1.0},
            {"normal": [-1.0, 0.0], "offset": 1.0},
            {"normal": [0.0, 1.0], "offset": 1.0},
            {"normal": [0.0, -1.0], "offset": 1.0},
        ]
    )
    est = cg.lebesgue_density(body, [1.0, 1.0], 0.1, samples=60000, seed=3)
    assert abs(est.value - oracle) <= 3 * est.std_error


def test_boundary_density_strictly_between_zero_and_one():
    shapes = [
        cg.ball(1.0, 2),
        cg.ellipsoid([1.0, 0.7]),
        cg.slab([1.0, 0.0], 1.0),
        cg.halfspace([1.0, 0.0], 1.0),
        cg.random_polytope(2, 6, seed=9),
    ]
    for body in shapes:
        from convexgauss.graphs import ray_cast_boundary

        pts, _, _ = ray_cast_boundary(body, 8, seed=11)
        for x in pts:
            est = cg.lebesgue_density(body, x, 0.1, samples=30000, seed=4)
            assert est.value - 3 * est.std_error > 0.0
            assert est.value + 3 * est.std_error < 1.0


def test_body_certified_interior_ball():
    for body in (cg.ball(1.0, 3), cg.random_polytope(3, 8, seed=2), cg.ellipsoid([1, 0.5, 0.4])):
        rng = np.random.default_rng(8)
        u = rng.standard_normal((12, 3))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        r = rng.uniform(0, 0.9 * body.interior_margin, size=12)
        pts = body.interior_point + u * r[:, None]
        assert np.all(body.contains(pts))


def test_body_midpoint_convexity_of_membership():
    body = cg.random_polytope(3, 10, seed=13)
    rng = np.random.default_rng(14)
    pts = rng.uniform(-2, 2, size=(4000, 3))
    inside = pts[body.contains(pts)]
    half = len(inside) // 2
    a, b = inside[:half], inside[half : 2 * half]
    assert np.all(body.contains(0.5 * (a + b)))


def test_centering_translates_bodies_away_from_origin():
    body = cg.halfspace([1.0, 0.0], -1.0)  # origin outside the raw spec
    assert body.recentered_by is not None
    assert bool(body.contains(np.zeros(2)))
    ball_far = cg.translate(cg.ball(0.5, 2), [5.0, 0.0])
    assert ball_far.recentered_by is not None
    assert bool(ball_far.contains(np.zeros(2)))


def test_translate_keeps_origin_when_interior():
    body = cg.translate(cg.ball(2.0, 2), [0.5, 0.0])
    assert body.recentered_by is None
    assert not bool(body.contains(np.array([-1.6, 0.0])))
    assert bool(body.contains(np.array([2.4, 0.0])))


def test_oracle_integrity_error_on_lying_margin():
    body = cg.from_oracle(
        contains=lambda x: np.linalg.norm(np.atleast_2d(x), axis=-1) < 0.1,
        interior_point=np.zeros(2),
        interior_margin=1.0,
        outer_radius=5.0,
    )
    with pytest.raises(OracleIntegrityError):
        cg.minkowski_functional(body, [3.0, 0.0])


def test_loader_round_trip_all_shapes():
    specs = [
        ({"shape": "ball", "radius": 1.0}, 2),
        ({"shape": "ellipsoid", "semiaxes": [1.0, 0.5]}, 2),
        ({"shape": "halfspace", "normal": [1, 0], "offset": 1.0}, 2),
        ({"shape": "slab", "normal": [1, 0], "half_width": 1.0}, 2),
        (
            {
                "shape": "polytope",
                "faces": [
                    {"normal": [1, 0], "offset": 1},
                    {"normal": [-1, 0], "offset": 1},
                    {"normal": [0, 1], "offset": 1},
                    {"normal": [0, -1], "offset": 1},
                ],
            },
            2,
        ),
        ({"shape": "cylinder", "base": {"shape": "ball", "radius": 1.0}, "axis": [0, 0, 1]}, 3),
        ({"shape": "ball", "radius": 1.0, "translate": [0.2, 0.0]}, 2),
        ({"shape": "kl_ellipsoid", "scale": 1.0}, 3),
    ]
    for spec, dim in specs:
        body = cg.load_body_spec(spec, dim=dim)
        assert body.dim == dim
        assert bool(body.contains(np.zeros(dim)))


def test_loader_rejects_empty_polytope_naming_faces():
    with pytest.raises(BodySpecError, match="face list"):
        cg.load_body_spec({"shape": "polytope", "faces": []}, dim=2)


def test_loader_rejects_empty_interior():
    faces = [
        {"normal": [1.0, 0.0], "offset": 1.0},
        {"normal": [-1.0, 0.0], "offset": -1.0},  # x1 > 1 and x1 < 1: empty
    ]
    with pytest.raises(BodySpecError, match="empty interior"):
        cg.load_body_spec({"shape": "polytope", "faces": faces}, dim=2)


def test_loader_rejects_unknown_shape_and_bad_fields():
    with pytest.raises(BodySpecError, match="unknown shape"):
        cg.load_body_spec({"shape": "torus"}, dim=2)
    with pytest.raises(BodySpecError, match="missing field"):
        cg.load_body_spec({"shape": "ball"}, dim=2)
    with pytest.raises(BodySpecError, match="requires the model dim"):
        cg.load_body_spec({"shape": "ball", "radius": 1.0}, dim=None)
    with pytest.raises(BodySpecError):
        cg.load_body_spec({"shape": "ellipsoid", "semiaxes": [1.0, -2.0]}, dim=2)


@pytest.mark.parametrize("kind", ["polytope", "cylinder"])
def test_membership_of_one_point_matches_its_batch(kind):
    # points on a face, where the last bit of <a, x> decides membership: a
    # point alone, as one row or as a vector, gets its answer in the batch
    rng = np.random.default_rng(1)
    for s in range(20):
        if kind == "polytope":
            body = cg.random_polytope(3, 8, s)
            faces = body.spec["faces"]
        else:
            base = cg.random_polytope(2, 6, s)
            body = cg.cylinder(base, [0.0, 0.6, 0.8])
            B = orthonormal_complement(np.array([0.0, 0.6, 0.8]))
            faces = [{"normal": B.T @ f["normal"], "offset": f["offset"]} for f in base.spec["faces"]]
        X = rng.uniform(-2.0, 2.0, (500, 3))
        for i, x in enumerate(X):
            face = faces[i % len(faces)]
            a = np.asarray(face["normal"])
            X[i] = x - (x @ a - face["offset"]) * a
        batch = body.contains(X)
        assert [bool(body.contains(X[i : i + 1])[0]) for i in range(len(X))] == batch.tolist()
        assert [bool(body.contains(x)) for x in X] == batch.tolist()


def test_distance_oracles_keep_batch_shape_for_one_row():
    shipped = [
        cg.ball(1.0, 2),
        cg.ellipsoid([1.0, 0.6]),
        cg.halfspace([1.0, 0.0], 1.0),
        cg.slab([1.0, 0.0], 1.0),
        cg.polytope([{"normal": e, "offset": 1.0} for e in np.vstack([np.eye(2), -np.eye(2)])]),
        cg.cylinder(cg.ball(1.0, 2), [0.0, 0.0, 1.0]),
        cg.translate(cg.ball(1.0, 2), [0.5, 0.0]),
        cg.kl_ellipsoid(3),
        cg.random_polytope(3, 8, 0),
    ]
    for body in shipped:
        far = np.full((1, body.dim), 10.0)
        d = body.distance_outside(far)
        assert isinstance(d, np.ndarray) and d.shape == (1,), body.shape_tag
        assert d[0] > 0.0
        assert d[0] == body.distance_outside(np.vstack([far, far]))[0]
        assert np.ndim(body.distance_outside(far[0])) == 0


def test_distance_oracles_match_projection():
    rng = np.random.default_rng(21)
    x = rng.uniform(-3, 3, size=(40, 2))

    # ellipsoid: compare against SLSQP projection
    semi = np.array([1.0, 0.6])
    body = cg.ellipsoid(semi)
    d = np.atleast_1d(body.distance_outside(x))
    for xi, di in zip(x, d):
        if np.sum((xi / semi) ** 2) <= 1:
            assert di == 0.0
            continue
        res = minimize(
            lambda w: np.sum((w - xi) ** 2),
            xi / np.linalg.norm(xi / semi),
            constraints=[{"type": "ineq", "fun": lambda w: 1 - np.sum((w / semi) ** 2)}],
        )
        assert di == pytest.approx(math.sqrt(res.fun), abs=1e-5)

    # polytope (Dykstra) against the same oracle
    poly = cg.polytope(
        [
            {"normal": [1.0, 0.1], "offset": 1.0},
            {"normal": [-0.8, 1.0], "offset": 1.1},
            {"normal": [-0.2, -1.0], "offset": 0.9},
            {"normal": [0.9, -0.4], "offset": 1.2},
            {"normal": [-1.0, -0.1], "offset": 1.0},
        ]
    )
    A = np.array([f["normal"] for f in poly.spec["faces"]])
    c = np.array([f["offset"] for f in poly.spec["faces"]])
    d = np.atleast_1d(poly.distance_outside(x))
    for xi, di in zip(x, d):
        if np.all(A @ xi < c):
            assert di == 0.0
            continue
        res = minimize(
            lambda w: np.sum((w - xi) ** 2),
            np.zeros(2),
            constraints=[{"type": "ineq", "fun": lambda w, A=A, c=c: c - A @ w}],
        )
        assert di == pytest.approx(math.sqrt(res.fun), abs=1e-6)


def test_cylinder_membership_and_distance():
    cyl = cg.cylinder(cg.ball(1.0, 2), [0.0, 0.0, 1.0])
    assert bool(cyl.contains(np.array([0.5, 0.0, 37.0])))
    assert not bool(cyl.contains(np.array([1.5, 0.0, -2.0])))
    d = np.atleast_1d(cyl.distance_outside(np.array([[2.0, 0.0, 11.0]])))
    assert d[0] == pytest.approx(1.0, abs=1e-12)


def _bisect_every_step(inside_at, t_in, t_out, tol=None, relative=False, steps=None, active=None):
    """bisect without the fixed-point stop: every step of the step count."""
    t_in = np.asarray(t_in, dtype=float)
    t_out = np.asarray(t_out, dtype=float)

    def unresolved(a, b):
        return np.abs(b - a) > (tol * np.maximum(1.0, a) if relative else tol)

    if tol is not None:
        gap0 = float(np.max(np.abs(t_out - t_in)))
        steps = min(130, max(10, int(math.ceil(math.log2(max(gap0 / tol, 2.0)))) + 2))
        if active is None:
            active = unresolved(t_in, t_out)
    if active is None:
        active = np.ones(t_in.shape, dtype=bool)
    for _ in range(steps):
        mid = 0.5 * (t_in + t_out)
        inside = inside_at(mid)
        t_in = np.where(active & inside, mid, t_in)
        t_out = np.where(active & ~inside, mid, t_out)
        if tol is not None:
            active = active & unresolved(t_in, t_out)
    return t_in, t_out


def _far_end(t_in, end):
    """A bracket's t_out: a float, or ("ulps", k) for k ulps beyond t_in."""
    if not isinstance(end, tuple):
        return end
    t = t_in
    for _ in range(abs(end[1])):
        t = float(np.nextafter(t, math.copysign(math.inf, end[1])))
    return t


_BRACKET = st.tuples(
    st.floats(-8.0, 8.0),
    st.one_of(st.floats(-8.0, 8.0), st.tuples(st.just("ulps"), st.integers(-3, 3))),
    st.floats(-8.0, 8.0),
    st.booleans(),
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_BRACKET, min_size=1, max_size=6),
    predicate=st.sampled_from(["below", "never", "always", "wiggle"]),
    mode=st.sampled_from(["steps", "absolute", "relative"]),
    steps=st.integers(0, 140),
    tol=st.sampled_from([1e-2, 1e-9, 1e-15, 1e-300]),
    masked=st.booleans(),
)
def test_bisect_fixed_point_stop_matches_every_step(rows, predicate, mode, steps, tol, masked):
    t_in = np.array([r[0] for r in rows])
    t_out = np.array([_far_end(r[0], r[1]) for r in rows])
    cut = np.array([r[2] for r in rows])
    inside_at = {
        "below": lambda t: t < cut,  # false at t_in when cut <= t_in
        "never": lambda t: np.zeros(t.shape, dtype=bool),
        "always": lambda t: np.ones(t.shape, dtype=bool),
        "wiggle": lambda t: np.sin(37.0 * t + cut) > 0.0,
    }[predicate]
    kwargs = {"steps": steps} if mode == "steps" else {"tol": tol, "relative": mode == "relative"}
    if masked:
        kwargs["active"] = np.array([r[3] for r in rows])
    got = bisect(inside_at, t_in, t_out, **kwargs)
    want = _bisect_every_step(inside_at, t_in, t_out, **kwargs)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=60, deadline=None)
@given(
    n_faces=st.integers(1, 12),
    dim=st.integers(1, 4),
    shape=st.sampled_from([(), (9,), (3, 5)]),
    seed=st.integers(0, 2**32 - 1),
)
def test_polytope_contains_equals_all_reduction(n_faces, dim, shape, seed):
    # face 0 is the first axis, so rows with x_0 = c_0 lie exactly on it
    rng = np.random.default_rng(seed)
    normals = np.vstack([np.eye(dim)[:1], rng.standard_normal((n_faces - 1, dim))])
    offsets = rng.uniform(0.2, 1.5, n_faces)
    body = cg.polytope([{"normal": a, "offset": b} for a, b in zip(normals, offsets)])
    A = np.array([face["normal"] for face in body.spec["faces"]])
    c = np.array([face["offset"] for face in body.spec["faces"]])
    x = rng.uniform(-2.0, 2.0, shape + (dim,))
    flat = x.reshape(-1, dim)
    flat[::3] = 0.0
    flat[::3, 0] = c[0]  # on face 0
    flat[1::4] = np.nan
    # a re-centred body tests x + x0
    shifted = x if body.recentered_by is None else x + -body.recentered_by
    expected = np.all(shifted @ A.T < c, axis=-1)
    got = body.contains(x)
    assert np.shape(got) == shape
    assert np.array_equal(got, expected)


@pytest.mark.parametrize(
    "faces",
    [
        [
            {"normal": [1.0, 2.0, 3.0], "offset": 1.010956},
            {"normal": [-1.0, -2.0, -3.0], "offset": 1.010956},
        ],
        [
            {"normal": [1.0, 0.0, 0.0], "offset": 1.0},
            {"normal": [0.0, 1.0, 0.0], "offset": 2.0},
            {"normal": [-1.0, -1.0, 0.0], "offset": 0.5},
        ],
    ],
    ids=["slab", "three_faces"],
)
def test_unbounded_polytope_keeps_origin_with_smallest_offset(faces):
    body = cg.polytope(faces)
    assert not body.bounded
    assert body.recentered_by is None
    assert np.array_equal(body.interior_point, np.zeros(3))
    smallest = min(f["offset"] / np.linalg.norm(f["normal"]) for f in faces)
    assert body.interior_margin == pytest.approx(smallest, rel=1e-15)


def test_slab_keeps_origin_and_half_width_margin():
    body = cg.slab([1.0, 2.0, 3.0], 1.010956)
    assert body.recentered_by is None
    assert body.interior_margin == 1.010956


def test_slab_rhs_matches_closed_form():
    # psi = x_i on |<n, x>| < w: both faces give <n, k> G1(w) * w n_i
    n = np.array([1.0, 2.0, -2.0]) / 3.0
    w, i = 1.010956, 1
    k = np.array([0.6, 0.0, 0.8])
    body = cg.slab(n, w)
    pair = cg.decompose(body, n)
    est = cg.rhs_surface_integral(pair, cg.coordinate(i), k, budget={"quadrature_order": 16})
    g1 = math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    expected = 2.0 * w * n[i] * (n @ k) * g1
    assert est.value == pytest.approx(expected, rel=1e-10, abs=0.0)
