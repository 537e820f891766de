import dataclasses
import functools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import null_space
from scipy.optimize import minimize

import convexgauss as cg
from convexgauss.bodies import _face_products, bisect, orthonormal_complement
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


@pytest.mark.parametrize(
    "spec",
    [
        {"shape": "ball", "radius": 1.0},
        {"shape": "ellipsoid", "semiaxes": [1.2, 1.0, 0.9]},
        {"shape": "random_polytope", "faces": 9, "seed": 4},
        {"shape": "cylinder", "axis": [0.0, 0.0, 1.0], "base": {"shape": "ball", "radius": 1.0}},
        {"shape": "slab", "normal": [0.6, 0.8, 0.0], "half_width": 0.7},
        {"shape": "ellipsoid", "semiaxes": [1.2, 1.0, 0.9], "translate": [0.3, -0.2, 0.1]},
    ],
    ids=["ball", "ellipsoid", "random_polytope", "cylinder", "slab", "translated_ellipsoid"],
)
@pytest.mark.parametrize("seed", [0, 7])
def test_density_batch_equals_one_point_calls(spec, seed):
    # one contains call for the batch, on the draws every point shares
    from convexgauss.graphs import ray_cast_boundary

    body = cg.load_body_spec(spec, dim=3)
    pts, _, _ = ray_cast_boundary(body, 6, seed)
    pts = np.vstack([pts, body.interior_point])
    batch = cg.lebesgue_density(body, pts, 0.1, samples=4000, seed=seed)
    assert isinstance(batch, list) and len(batch) == len(pts)
    for x, est in zip(pts, batch):
        assert est == cg.lebesgue_density(body, x, 0.1, samples=4000, seed=seed)
    assert cg.lebesgue_density(body, pts[:0], 0.1, samples=4000, seed=seed) == []


def test_density_rejects_a_point_of_the_wrong_dimension():
    with pytest.raises(cg.ParameterError):
        cg.lebesgue_density(cg.ball(1.0, 3), [1.0, 0.0], 0.1)


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
    # a body that leaves the origin no margin stays where its spec puts it,
    # and its gauge is taken about its interior point instead
    body = cg.halfspace([1.0, 0.0], -1.0)  # origin outside the raw spec
    assert not bool(body.contains(np.zeros(2)))
    assert np.array_equal(body.centre, body.interior_point) and body.centre.any()
    assert bool(body.contains(body.centre)) and body.centre_margin == body.interior_margin
    ball_far = cg.translate(cg.ball(0.5, 2), [5.0, 0.0])
    assert not bool(ball_far.contains(np.zeros(2)))
    assert np.array_equal(ball_far.centre, [5.0, 0.0])
    assert cg.minkowski_functional(ball_far, [5.25, 0.0]) == pytest.approx(0.5, abs=1e-9)


def test_translate_keeps_origin_when_interior():
    body = cg.translate(cg.ball(2.0, 2), [0.5, 0.0])
    assert not body.centre.any()
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


def _face_body(kind, s, rng):
    """A body with faces of each kind, drawn from seed s and rng."""
    if kind == "polytope":
        return cg.random_polytope(3, 8, s)
    if kind == "cylinder":
        return cg.cylinder(cg.random_polytope(2, 6, s), [0.0, 0.6, 0.8])
    if kind == "halfspace":
        return cg.halfspace(rng.standard_normal(10), rng.uniform(0.1, 2.0))
    if kind == "one_face_polytope":
        return cg.polytope([{"normal": rng.standard_normal(10), "offset": rng.uniform(0.1, 2.0)}])
    # a strip: a 2-d cylinder over an interval, read through a one-row projection
    base = cg.polytope([{"normal": [1.0], "offset": rng.uniform(0.1, 2.0)},
                        {"normal": [-1.0], "offset": rng.uniform(0.1, 2.0)}])
    return cg.cylinder(base, rng.standard_normal(2))


@pytest.mark.parametrize("kind", ["polytope", "cylinder", "halfspace", "one_face_polytope", "strip_cylinder"])
def test_membership_of_one_point_matches_its_batch(kind):
    # points on a face, where the last bit of <a, x> decides membership: a
    # point alone, as one row or as a vector, gets its answer in the batch
    rng = np.random.default_rng(1)
    for s in range(20):
        body = _face_body(kind, s, rng)
        cert = body.certificate
        normals = cert.A if cert.map is None else cert.A @ cert.map  # the faces in the body's coordinates
        X = rng.uniform(-2.0, 2.0, (500, body.dim))
        for i, x in enumerate(X):
            a, c = normals[i % len(normals)], cert.c[i % len(normals)]
            X[i] = x - (x @ a - c) * a
        batch = body.contains(X)
        assert [bool(body.contains(X[i : i + 1])[0]) for i in range(len(X))] == batch.tolist()
        assert [bool(body.contains(x)) for x in X] == batch.tolist()


def test_membership_of_one_point_matches_its_batch_on_a_wide_cylinder():
    # a cylinder over a 10-d ellipsoid, at points on its boundary: the
    # base's sum of 10 squares rounds by the layout of its coordinates, so
    # the map lays a batch's out as a lone point's
    rng = np.random.default_rng(2)
    for _ in range(5):
        base = cg.ellipsoid(rng.uniform(0.5, 2.0, 10))
        body = cg.cylinder(base, rng.standard_normal(11))
        Y = rng.standard_normal((500, 10))
        Y /= np.sqrt(np.sum(Y * Y * base.certificate.inv2, axis=1))[:, None]
        X = Y @ body.certificate.map
        assert [bool(body.contains(x)) for x in X] == body.contains(X).tolist()


def test_orthonormal_complement_is_scipy_null_space():
    # the same rows, bits and column-major layout as scipy's null space: a
    # matrix-vector product with the basis rounds by its layout
    rng = np.random.default_rng(14)
    for n in range(1, 17):
        axes = [s * e for e in np.eye(n) for s in (1.0, -1.0)]
        draws = rng.standard_normal((40, n))
        for h in axes + list(draws / np.linalg.norm(draws, axis=1, keepdims=True)):
            ref = null_space(h.reshape(1, -1)).T
            basis = orthonormal_complement(h)
            assert basis.shape == ref.shape == (n - 1, n)
            assert np.array_equal(basis, ref) and basis.strides == ref.strides


def test_ball_and_ellipsoid_sums_keep_numpy_bits():
    # both oracles sum their squares in order (_face_products); below 8
    # terms numpy adds in order too, so those bits are np.sum's
    in_order = lambda q: functools.reduce(np.add, np.moveaxis(q, -1, 0))
    rng = np.random.default_rng(15)
    for n in range(1, 17):
        semi = rng.uniform(0.3, 2.0, n)
        inv2 = 1.0 / (semi * semi)  # as the ellipsoid computes it
        for shape in [(), (5,), (4, 3)]:
            x = rng.standard_normal(shape + (n,)) * 10.0 ** rng.uniform(-3, 3, shape + (1,))
            q = np.square(x) * inv2
            assert np.array_equal(_face_products(np.square(x), inv2), in_order(q))
            assert np.array_equal(_face_products(np.square(x), np.ones(n)), in_order(np.square(x)))
            if n < 8:
                assert np.array_equal(in_order(q), np.sum(q, axis=-1))
                assert np.array_equal(np.sqrt(in_order(np.square(x))), np.linalg.norm(x, axis=-1))
            # points at the boundary to rounding, where a last bit decides
            y = x / np.linalg.norm(x, axis=-1, keepdims=True)
            assert np.array_equal(cg.ball(1.0, n).contains(y), np.sqrt(in_order(np.square(y))) < 1.0)
            z = y / np.sqrt(np.sum(np.square(y) * inv2, axis=-1, keepdims=True))
            assert np.array_equal(cg.ellipsoid(semi).contains(z), in_order(np.square(z) * inv2) < 1.0)


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


def test_distances_read_zero_wherever_contains_accepts():
    # points put on the boundary to rounding, which the last bit of
    # `contains` splits into inside and outside: every shipped distance
    # oracle reads 0 on the rows `contains` accepts, and at least 0 on the
    # others
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20_000, 3))
    a = np.array([0.48, -0.6, 0.64])
    semi = np.array([1.2, 1.0, 0.9])
    on_boundary = {
        "ball": (cg.ball(1.1, 3), 1.1 * x / np.linalg.norm(x, axis=1, keepdims=True)),
        "ellipsoid": (cg.ellipsoid(semi), x / np.sqrt(np.sum(np.square(x / semi), axis=1, keepdims=True))),
        "halfspace": (cg.halfspace(a, 0.7), x - np.outer(x @ a - 0.7, a)),
        "slab": (cg.slab(a, 0.7), x - np.outer(x @ a - np.copysign(0.7, x @ a), a)),
        "polytope": (cg.random_polytope(3, 8, 0), None),
    }
    body = on_boundary["polytope"][0]
    A, c = body.certificate.A, body.certificate.c
    face = rng.integers(0, len(c), x.shape[0])
    on_boundary["polytope"] = (body, 0.1 * x - (np.sum(0.1 * x * A[face], axis=1) - c[face])[:, None] * A[face])
    for kind, (body, y) in on_boundary.items():
        inside, d = body.contains(y), body.distance_outside(y)
        assert 0 < np.count_nonzero(inside) < len(y), kind
        assert np.all(d[inside] == 0.0) and np.all(d >= 0.0), kind


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


def _bisect_steps(t_in, t_out, tol):
    """bisect's step cap: 130 at tolerance 0, else from the widest gap."""
    if tol == 0:
        return 130
    gap0 = float(np.max(np.abs(t_out - t_in))) if t_in.size else 0.0
    return min(130, max(10, int(math.ceil(math.log2(max(gap0 / tol, 2.0)))) + 2))


def _bisect_every_step(inside_at, t_in, t_out, tol, relative=False):
    """bisect without the fixed-point stop: every step of the step count."""
    t_in = np.asarray(t_in, dtype=float)
    t_out = np.asarray(t_out, dtype=float)

    def unresolved(a, b):
        return np.abs(b - a) > (tol * np.maximum(1.0, a) if relative else tol)

    active = unresolved(t_in, t_out)
    for _ in range(_bisect_steps(t_in, t_out, tol)):
        mid = 0.5 * (t_in + t_out)
        inside = inside_at(mid)
        t_in = np.where(active & inside, mid, t_in)
        t_out = np.where(active & ~inside, mid, t_out)
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
)


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(_BRACKET, min_size=1, max_size=6),
    predicate=st.sampled_from(["below", "never", "always", "wiggle"]),
    relative=st.booleans(),
    tol=st.sampled_from([1e-2, 1e-9, 1e-15, 1e-300, 0.0]),
)
def test_bisect_fixed_point_stop_matches_every_step(rows, predicate, relative, tol):
    t_in = np.array([r[0] for r in rows])
    t_out = np.array([_far_end(r[0], r[1]) for r in rows])
    cut = np.array([r[2] for r in rows])
    inside_at = {
        "below": lambda t: t < cut,  # false at t_in when cut <= t_in
        "never": lambda t: np.zeros(t.shape, dtype=bool),
        "always": lambda t: np.ones(t.shape, dtype=bool),
        "wiggle": lambda t: np.sin(37.0 * t + cut) > 0.0,
    }[predicate]
    got = bisect(inside_at, t_in, t_out, tol, relative)
    want = _bisect_every_step(inside_at, t_in, t_out, tol, relative)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def _bisect_testing_every_step(inside_at, t_in, t_out, tol, relative=False):
    """bisect with both stop tests in every step, no free steps."""
    t_in = np.asarray(t_in, dtype=float)
    t_out = np.asarray(t_out, dtype=float)

    def unresolved(a, b):
        return np.abs(b - a) > (tol * np.maximum(1.0, a) if relative else tol)

    active = unresolved(t_in, t_out)
    for _ in range(_bisect_steps(t_in, t_out, tol)):
        if not active.any():
            break
        mid = 0.5 * (t_in + t_out)
        inside = inside_at(mid)
        fixed = (mid == t_in) | (mid == t_out)
        t_in = np.where(active & inside, mid, t_in)
        t_out = np.where(active & ~inside, mid, t_out)
        active = active & ~fixed & unresolved(t_in, t_out)
    return t_in, t_out


def _bracket_end(t_in, gap, level):
    """t_out of a bracket from t_in: ("wide", x) at x; ("ulps", k) k ulps
    away; ("above", f) f times the stop level away, so that with 1 < f <= 2
    the row stops after one step; ("zero", _) at 0, as an unbounded body's
    gauge bracket."""
    kind, x = gap
    if kind == "wide":
        return t_in + x
    if kind == "ulps":
        return _far_end(t_in, ("ulps", x))
    if kind == "above":
        return t_in + x * level
    return 0.0


_FREE_BRACKET = st.tuples(
    st.floats(-8.0, 8.0),
    st.sampled_from([1.0, 1e6]),
    st.one_of(
        st.tuples(st.just("wide"), st.floats(-16.0, 16.0)),
        st.tuples(st.just("ulps"), st.integers(-12, 12)),
        st.tuples(st.just("above"), st.sampled_from([-2.0, -1.5, 1.0 + 2.0**-40, 1.01, 2.0 + 2.0**-10, 2.5, 5.0])),
        st.tuples(st.just("zero"), st.just(0.0)),
    ),
)


@settings(max_examples=300, deadline=None)
@given(
    rows=st.lists(_FREE_BRACKET, min_size=1, max_size=6),
    relative=st.booleans(),
    tol=st.sampled_from([1e-2, 1e-9, 1e-12, 1e-15, 0.0]),
    seed=st.integers(0, 2**32 - 1),
)
# a gap just over twice the tolerance at |t| ~ 2e6: its first midpoint
# rounds the gap to within the tolerance, which a bound without both its
# rounding term and its factor 2 misses
@example(
    rows=[(1.7061724122748778, 1e6, ("above", 2.0 + 2.0**-10))],
    relative=False, tol=1e-9, seed=2,
)
def test_bisect_free_steps_equal_testing_every_step(rows, relative, tol, seed):
    # brackets of mixed widths at |t| up to 8 or 8e6 (where an ulp exceeds
    # the smaller tolerances), some a few ulps wide, some just wider than
    # the stop level, some ending at 0; the predicate answers at random, so
    # a row that moves in a step it should have stopped before changes the
    # result whatever its midpoint
    t_in = np.array([r[0] * r[1] for r in rows])
    level = tol * np.maximum(1.0, t_in) if relative else np.full(len(rows), tol)
    t_out = np.array([_bracket_end(t, r[2], lv) for t, r, lv in zip(t_in, rows, level)])
    runs = []
    for run in (bisect, _bisect_testing_every_step):
        rng = np.random.default_rng(seed)
        runs.append(run(lambda t: rng.random(t.shape) < 0.5, t_in, t_out, tol, relative))
    (got_in, got_out), (want_in, want_out) = runs
    assert np.array_equal(got_in, want_in) and np.array_equal(got_out, want_out)


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
    expected = np.all(x @ A.T < c, axis=-1)
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
        # HiGHS's presolve calls this slab's block-diagonal extent LP
        # infeasible, not unbounded: polytope() turns presolve off
        [
            {"normal": [0.48, -0.6, 0.64], "offset": 0.9},
            {"normal": [-0.48, 0.6, -0.64], "offset": 0.9},
        ],
    ],
    ids=["slab", "three_faces", "tilted_slab"],
)
def test_unbounded_polytope_keeps_origin_with_smallest_offset(faces):
    body = cg.polytope(faces)
    assert not body.bounded
    assert not body.centre.any()
    assert np.array_equal(body.interior_point, np.zeros(3))
    smallest = min(f["offset"] / np.linalg.norm(f["normal"]) for f in faces)
    assert body.interior_margin == pytest.approx(smallest, rel=1e-15)


@pytest.mark.parametrize("dim, faces, seed", [(2, 5, 521), (3, 4, 903), (3, 5, 386)])
def test_random_polytope_whose_block_extent_lp_ends_unsolved_gets_its_box(dim, faces, seed):
    # HiGHS ends the block extent LP of these random faces with no answer
    # (status 4); the separate per-axis LPs find them unbounded, so
    # random_polytope adds its box at 3.2
    body = cg.random_polytope(dim, faces, seed)
    assert len(body.spec["faces"]) == faces + 2 * dim
    assert 3.2 < body.outer_radius < 3.2 * math.sqrt(dim) * 1.001


def test_slab_keeps_origin_and_half_width_margin():
    body = cg.slab([1.0, 2.0, 3.0], 1.010956)
    assert not body.centre.any()
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


# ------------------------------------------------------------ certificates

CERTIFIED_KINDS = ["ball", "ellipsoid", "halfspace", "slab", "polytope"]


def _certified_body(kind, n, rng):
    """A body of each certified shape, drawn from rng, and its gauge."""
    if kind == "ball":
        radius = rng.uniform(0.3, 3.0)
        return cg.ball(radius, n), lambda X: np.linalg.norm(X, axis=1) / radius
    if kind == "ellipsoid":
        s = rng.uniform(0.2, 3.0, n)
        return cg.ellipsoid(s), lambda X: np.sqrt(np.sum((X / s) ** 2, axis=1))
    if kind == "halfspace":
        body = cg.halfspace(rng.standard_normal(n), rng.uniform(0.01, 3.0))
    elif kind == "slab":
        body = cg.slab(rng.standard_normal(n), rng.uniform(0.01, 3.0))
    else:
        body = cg.random_polytope(n, int(rng.integers(n + 1, 13)), int(rng.integers(1000)))
    A, c = body.certificate.A, body.certificate.c
    return body, lambda X: np.maximum(np.max(X @ A.T / c, axis=1), 0.0)


def _wrapped(body, wrap, rng):
    """The body under `wrap` (None, "translate" or "cylinder"), with the maps
    of the base's points and directions (rows) to the wrapped body's."""
    if wrap is None:
        return body, lambda X: X, lambda V: V
    if wrap == "translate":
        # the shift leaves the origin outside some bodies, centring them off it
        v = rng.uniform(-2.0, 2.0, body.dim)
        return cg.translate(body, v), lambda X: X + v, lambda V: V
    axis = rng.standard_normal(body.dim + 1)
    axis /= np.linalg.norm(axis)
    B = orthonormal_complement(axis)
    along = lambda W: W @ B + rng.uniform(-3.0, 3.0, (W.shape[0], 1)) * axis
    return cg.cylinder(body, axis), along, lambda V: along(np.atleast_2d(V)).reshape(V.shape[:-1] + (-1,))


def _along_faces(body, W, P, rng):
    """W with half its rows turned nearly parallel to the face that binds
    at the matching row of P: its component along that face's normal shrunk
    by 1e-3 to 1e-1, so the row products cancel and the rounding bound is
    far above the product itself. Rows of a body with no faces are kept."""
    if not hasattr(body.certificate, "A"):
        return W
    A, c = body.certificate.A, body.certificate.c
    normal = A[np.argmax(P @ A.T / c, axis=1)]
    along = np.sum(W * normal, axis=1, keepdims=True)
    shrink = 1.0 - 10.0 ** rng.uniform(-3.0, -1.0, (W.shape[0], 1))
    return np.where(rng.random((W.shape[0], 1)) < 0.5, W - shrink * along * normal, W)


def _decided_rows_equal_the_oracle(body, V, U, t, truth, rows):
    """Every row the certificate decides gets the oracle's answer, more
    than a quarter of them are decided, and the bisections' predicate
    equals the oracle on every row."""
    from convexgauss.bodies import _decider, _membership_along

    inside, undecided = _decider(body.certificate, V, body.centre if U is None else U, U is None)(t)
    decided = ~undecided
    assert decided.sum() > rows // 4
    assert np.array_equal(inside[decided], truth[decided])
    assert not inside[undecided].any()
    assert np.array_equal(_membership_along(body, V, U)(t), truth)


@settings(max_examples=120, deadline=None)
@given(
    kind=st.sampled_from(CERTIFIED_KINDS),
    wrap=st.sampled_from([None, "translate", "cylinder"]),
    n=st.integers(2, 12),
    mode=st.sampled_from(["ray", "line", "line_per_row"]),
    seed=st.integers(0, 2**32 - 1),
)
@example(kind="ellipsoid", wrap="cylinder", n=2, mode="ray", seed=0)
@example(kind="polytope", wrap="cylinder", n=2, mode="line_per_row", seed=1)
def test_certificate_decides_only_what_the_oracle_answers(kind, wrap, n, mode, seed):
    # rays and lines whose parameters lie 1e-16 to 1e-6 relative from the
    # exact crossing, on either side, on a certified body, its translate
    # (centred off the origin when the shift leaves the origin outside) or
    # a cylinder over it (a 1-d base at n = 2): rays from the body's centre
    # c through a boundary point x_b at t_star, c + V / t with V = t_star
    # (x_b - c), and lines through x_b crossing it at t_star. A quadratic's
    # rays from the origin take the ray rule's ends on t; lines, and every
    # other ray, take both families' value and band at the step
    rng = np.random.default_rng(seed)
    n = min(n, 5) if kind == "polytope" else n
    base, gauge = _certified_body(kind, n - (wrap == "cylinder"), rng)
    body, to_point, to_dir = _wrapped(base, wrap, rng)
    rows = 300
    rel = rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-16.0, -6.0, rows)
    X = rng.standard_normal((rows, base.dim)) * 10.0 ** rng.uniform(-1.0, 1.0, (rows, 1))
    if mode == "ray":
        X = _along_faces(base, X, X, rng)
    p = gauge(X)
    # base points on the boundary; a row in the recession cone keeps its point
    xb = to_point(X / np.where(p > 0, p, 1.0)[:, None])
    t_star = 10.0 ** rng.uniform(-1.0, 1.0, rows) if mode == "ray" else rng.uniform(-50.0, 50.0, rows)
    t = np.where(p > 0, t_star * (1.0 + rel), rng.uniform(0.1, 10.0, rows))
    if mode == "ray":
        c = body.centre
        V, U = t_star[:, None] * (xb - c), None
        pts = c + V / t[:, None] if c.any() else V / t[:, None]
    else:
        W = rng.standard_normal((rows, base.dim) if mode == "line_per_row" else base.dim)
        if mode == "line_per_row":
            W = _along_faces(base, W, X, rng)
        V = to_dir(W)
        V /= np.linalg.norm(V, axis=-1, keepdims=True)
        U = xb - t_star[:, None] * V
        pts = U + t[:, None] * V
    _decided_rows_equal_the_oracle(body, V, U, t, body.contains(pts), rows)


@pytest.mark.parametrize(
    "body",
    [cg.halfspace(np.linspace(-1.0, 1.0, 10) + 0.05, 0.7), cg.cylinder(cg.slab([1.0], 0.6), [0.6, 0.8])],
    ids=["halfspace", "strip_cylinder"],
)
def test_a_step_sends_contains_only_its_undecided_rows(body):
    # lines through boundary points x_b, crossing at t_star; a tenth of the
    # rows sit 1e-16 relative from the crossing, where the certificate
    # cannot tell, and the rest far from it: one `contains` call gets the
    # undecided rows alone, and every answer is the whole batch's
    from convexgauss.bodies import _decider, _membership_along

    cert = body.certificate
    a = cert.A[0] if cert.map is None else cert.A[0] @ cert.map  # the face's normal
    rng = np.random.default_rng(3)
    rows = 200
    W = rng.standard_normal((rows, body.dim))
    xb = W - (W @ a - cert.c[0])[:, None] * a
    V = rng.standard_normal(body.dim)
    V /= np.linalg.norm(V)
    t_star = rng.uniform(-5.0, 5.0, rows)
    U = xb - t_star[:, None] * V
    near = np.arange(rows) % 10 == 0
    t = t_star + np.where(near, 1e-16 * np.abs(t_star), rng.choice([-1.0, 1.0], rows) * rng.uniform(0.1, 1.0, rows))
    seen = []
    counted = dataclasses.replace(body, contains=lambda x: seen.append(len(x)) or body.contains(x))
    seen.clear()
    inside = _membership_along(counted, V, U)(t)
    undecided = _decider(cert, V, U, ray=False)(t)[1]
    assert 0 < undecided.sum() <= rows // 4
    assert seen == [int(undecided.sum())]
    assert np.array_equal(inside, body.contains(U + t[:, None] * V))


_NEG = np.array([0.6, 0.0, 0.8])


@pytest.mark.parametrize(
    "body, crossing",
    [
        # <a, c + V / t> = -0.5 at t = <a, V> / (-0.5 - <a, c>), for <a, V> > 0
        (cg.halfspace(_NEG, -0.5), lambda c, V: V @ _NEG / (-0.5 - c @ _NEG)),
        # the centre is the disk's own, so |V / t| = 1 at t = |V|
        (cg.translate(cg.ball(1.0, 2), [3.0, 0.0]), lambda c, V: np.linalg.norm(V, axis=1)),
    ],
    ids=["halfspace", "translated_disk"],
)
def test_rays_from_a_centre_off_the_origin_get_the_oracles_answer(body, crossing):
    # the gauge's rays c + V / t from the centre c, with t 1e-16 to 1e-6
    # relative from the crossing (a random t for a ray that never crosses)
    rng = np.random.default_rng(7)
    rows = 400
    c = body.centre
    assert c.any()
    V = rng.standard_normal((rows, body.dim)) * 10.0 ** rng.uniform(-1.0, 1.0, (rows, 1))
    rel = rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-16.0, -6.0, rows)
    t_star = crossing(c, V)
    t = np.where(t_star > 0, t_star * (1.0 + rel), rng.uniform(0.1, 10.0, rows))
    _decided_rows_equal_the_oracle(body, V, None, t, body.contains(c + V / t[:, None]), rows)


def test_bodies_without_closed_form_have_no_certificate():
    assert cg.from_oracle(lambda x: np.linalg.norm(x, axis=-1) < 1.0, np.zeros(2), 1.0).certificate is None
    # a wrapper of a wrapper keeps no certificate
    assert cg.translate(cg.translate(cg.ball(1.0, 2), [0.1, 0.0]), [0.0, 0.1]).certificate is None
    assert cg.cylinder(cg.translate(cg.ball(1.0, 2), [0.1, 0.0]), [0.0, 0.0, 1.0]).certificate is None
    # a body centred off the origin keeps its closed form
    off_centre = cg.halfspace([1.0, 0.0], -1.0)
    assert off_centre.centre.any() and off_centre.certificate is not None
    shapes = [cg.ball(1.0, 2), cg.ellipsoid([1.0, 2.0]), cg.kl_ellipsoid(2), cg.halfspace([1.0, 1.0], 0.5),
              cg.slab([1.0, 1.0], 0.5), _box((1.0, 0.5)), cg.random_polytope(2, 8, 1)]
    for body in shapes:
        assert body.certificate is not None and body.certificate.map is None
        translated = cg.translate(body, [3.0, 0.5])
        assert np.array_equal(translated.certificate.map, [3.0, 0.5])
        cylinder = cg.cylinder(body, [0.0, 0.6, 0.8])
        assert cylinder.certificate.map.shape == (2, 3)
        assert type(translated.certificate) is type(cylinder.certificate) is type(body.certificate)


def test_face_behind_the_origin_misses_no_line_that_meets_the_body():
    # x1 < -0.5 leaves the origin outside, so the body keeps its place and
    # its certificate; the line along e2 at x1 = -0.5 - 1e-10 meets it,
    # which a miss margin scaling the negative offset would deny
    from convexgauss.bodies import _sections_missed

    body = cg.polytope([{"normal": [1.0, 0.0], "offset": -0.5}, {"normal": [-1.0, 0.0], "offset": 2.0},
                        {"normal": [0.0, 1.0], "offset": 1.0}, {"normal": [0.0, -1.0], "offset": 1.0}])
    assert body.centre.any() and body.certificate is not None
    U = np.array([[-0.5 - 1e-10, 0.0]])
    assert body.contains(U).all()
    assert not _sections_missed(body, U, np.array([[0.0, 1.0]])).any()


def test_certificate_leaves_rows_out_of_range_to_the_oracle():
    from convexgauss.bodies import _decider

    body = cg.ellipsoid([1.0, 2.0])
    V = np.array([[1e60, 0.0], [1e-60, 0.0], [1.0, np.nan], [1.0, 0.0]])
    inside, undecided = _decider(body.certificate, V, np.zeros(2), True)(np.array([2e60, 2e-60, 1.0, 2.0]))
    assert undecided.tolist() == [True, True, True, False] and inside[3]
    box = _box((1.0, 1.0))
    U = np.array([[1e60, 0.0], [0.0, 0.0]])
    for body in (box, cg.translate(box, [0.5, 0.0])):
        inside, undecided = _decider(body.certificate, np.array([0.0, 1.0]), U, False)(np.array([0.0, 0.5]))
        assert undecided.tolist() == [True, False] and inside[1]
    # a shift beyond the range leaves every row undecided
    far = cg.translate(cg.ellipsoid([1.0, 2.0]), [1e60, 0.0])
    inside, undecided = _decider(far.certificate, np.array([0.0, 1.0]), U + [1e60, 0.0], False)(np.array([0.0, 0.5]))
    assert undecided.all()


def test_steps_whose_value_overflows_get_the_oracles_answer_and_warn_nothing():
    # a ray c + V / t from a centre off the origin is decided as the line
    # from c at s = 1/t: at s = 2e154 the disk's value overflows while its
    # band does not, which decides the row outside, and at s = 1e250 both
    # overflow, which leaves it undecided; a face's value overflows at s =
    # 1e300. Every decided row gets the oracle's answer, and no step warns
    from convexgauss.bodies import _decider

    disk = cg.translate(cg.ball(1.0, 2), [3.0, 0.0])
    cases = [
        (disk, np.eye(2), 5e-155, [False, False]),
        (disk, np.eye(2), 1e-250, [True, True]),
        # the second ray runs along the face: its value stays finite
        (cg.halfspace([0.6, 0.8], -0.5), np.array([[6e9, 8e9], [-8e9, 6e9]]), 1e-300, [False, True]),
    ]
    for body, V, t, left in cases:
        assert body.centre.any()
        with np.errstate(over="ignore", invalid="ignore"):
            truth = body.contains(body.centre + V / t)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            inside, undecided = _decider(body.certificate, V, body.centre, True)(np.full(len(V), t))
        assert np.array_equal(inside[~undecided], truth[~undecided]) and not inside[undecided].any()
        assert undecided.tolist() == left


# ------------------------------------------- polytopes that hold the origin

def _box(widths):
    """The box |x_i| < widths[i]."""
    n = len(widths)
    return cg.polytope(
        [{"normal": [float(i == k) * sign for k in range(n)], "offset": w} for i, w in enumerate(widths) for sign in (1.0, -1.0)]
    )


def test_box_off_its_chebyshev_centre_keeps_the_origin():
    # |x1| < 1, |x2| < 0.5, |x3| < 1: the Chebyshev LP puts the centre of a
    # ball of radius 0.5 at a point as far as 0.71 from the origin; the body
    # keeps the origin with margin 0.5 and its perimeter is the product
    # formula's sum_i 2 phi(w_i) prod_(k != i) (2 Phi(w_k) - 1)
    body = _box((1.0, 0.5, 1.0))
    assert not body.centre.any()
    assert body.certificate is not None
    assert np.array_equal(body.interior_point, np.zeros(3)) and body.interior_margin == 0.5
    phi = lambda w: math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    mass = lambda w: math.erf(w / math.sqrt(2.0))
    w = (1.0, 0.5, 1.0)
    exact = sum(2.0 * phi(w[i]) * math.prod(mass(w[k]) for k in range(3) if k != i) for i in range(3))
    assert exact == pytest.approx(0.5811934, abs=1e-7)
    graph = cg.total_boundary_measure(cg.decompose(body, [0.48, -0.6, 0.64]))
    assert graph.value == pytest.approx(exact, rel=0.01)
    content = cg.minkowski_content_perimeter(body, budget={"samples": 200_000}, seed=0)
    assert abs(content.value - exact) < 3.0 * content.std_error


# The box |x_i| < w_i at n = 2, 3 and 4 against its product formula P =
# sum_i 2 phi(w_i) prod_(k != i) (2 Phi(w_k) - 1). Measured relative errors:
# the graph route along the diagonal reads +5.4e-5 (n = 2) and +1.2e-4
# (n = 3) at the default budget, and +3.1e-3 at n = 4 at the reduced polar
# grid below (the default takes 14 s there); subspace_hausdorff(F = I)
# reads -5.2e-4 (n = 2) and -1.43% (0.572875 against 0.581193, n = 3),
# each with std_error 0 (ROADMAP items 3 and 13).
@pytest.mark.parametrize(
    "widths, graph_budget, graph_err, subspace_err",
    [
        ((1.0, 0.5), None, 1e-4, 6e-4),
        ((1.0, 0.5, 1.0), None, 2e-4, 1.5e-2),
        ((1.0, 0.5, 1.0, 0.8), {"sphere_grid": (16, 32), "radial": 12}, 4e-3, None),
    ],
    ids=["n2", "n3", "n4"],
)
def test_box_product_formula(widths, graph_budget, graph_err, subspace_err):
    n = len(widths)
    body = _box(widths)
    assert not body.centre.any()
    phi = lambda w: math.exp(-0.5 * w * w) / math.sqrt(2.0 * math.pi)
    mass = lambda w: math.erf(w / math.sqrt(2.0))
    exact = sum(2.0 * phi(widths[i]) * math.prod(mass(w) for k, w in enumerate(widths) if k != i) for i in range(n))
    content = cg.minkowski_content_perimeter(body, budget={"samples": 200_000}, seed=0)
    assert abs(content.value - exact) < 3.0 * content.std_error
    graph = cg.total_boundary_measure(cg.decompose(body, np.ones(n) / math.sqrt(n)), budget=graph_budget)
    assert graph.std_error == 0.0 and abs(graph.value - exact) <= graph_err * exact
    if subspace_err is not None:
        subspace = cg.subspace_hausdorff(body, np.eye(n))
        assert subspace.std_error == 0.0 and abs(subspace.value - exact) <= subspace_err * exact


def test_random_polytopes_are_never_moved():
    # every offset lies in (0.8, 1.6), so each holds the origin
    assert not any(cg.random_polytope(3, 8, s).centre.any() for s in range(200))


@pytest.mark.parametrize("shared", [True, False])
def test_face_certificate_blocks_join_to_one_block(monkeypatch, shared):
    # a face certificate takes its exact gauges, line sections and line
    # minima (one direction for every row) in blocks of rows, each checked
    # by one membership call; the blocks must join to what one block over
    # every row gives, and a line's steps, which take no blocks, must not
    # depend on them
    from convexgauss import bodies

    body = cg.random_polytope(3, 12, 5)
    rng = np.random.default_rng(3)
    rows = 2 * bodies.CERTIFICATE_BLOCK_ROWS + 17
    U = rng.uniform(-1.5, 1.5, (rows, 3))
    V = rng.standard_normal(3 if shared else (rows, 3))
    t = rng.uniform(-3.0, 3.0, rows)

    def values():
        found = [bodies._decider(body.certificate, V, U, False)(t), [bodies._exact_gauge(body, U)],
                 bodies._line_section(body, U, V)]
        return found + [bodies._line_minimum(body, U, V)] if shared else found

    blocked = values()
    # line minima take blocks of rows times faces over face pairs: 64 times
    # the rows makes one block of each
    monkeypatch.setattr(bodies, "CERTIFICATE_BLOCK_ROWS", 64 * rows)
    whole = values()
    for got, want in zip(blocked, whole):
        assert all(np.array_equal(g, w, equal_nan=True) for g, w in zip(got, want))
    assert not blocked[0][1].all() and np.isfinite(blocked[2][0]).any()
