import dataclasses
import math

import numpy as np
import pytest

import convexgauss as cg
from convexgauss.errors import (
    DegenerateDirectionError,
    DomainError,
    MarginError,
    OracleIntegrityError,
    ParameterError,
)
from convexgauss.graphs import GOLDEN, GOLDEN_STEPS, _golden_min_gauge

E1_2, E2_2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
E1_3, E3_3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])


def test_section_circle_chord(disk):
    lo, hi = cg.section_interval(disk, E2_2, np.array([0.6, 0.0]))
    assert lo == pytest.approx(-0.8, abs=1e-9)
    assert hi == pytest.approx(0.8, abs=1e-9)


def test_section_halfspace_ray():
    hs = cg.halfspace([1.0, 0.0], 1.0)
    lo, hi = cg.section_interval(hs, E1_2, np.array([0.0, 0.5]))
    assert lo == -math.inf
    assert hi == pytest.approx(1.0, abs=1e-9)


def test_section_cylinder_full_line(cyl3):
    lo, hi = cg.section_interval(cyl3, E3_3, np.array([0.5, 0.0, 0.0]))
    assert lo == -math.inf and hi == math.inf


def test_section_empty_outside_domain(disk):
    assert cg.section_interval(disk, E2_2, np.array([1.5, 0.0])) is None


def test_section_requires_orthogonal_y(disk):
    with pytest.raises(DomainError):
        cg.section_interval(disk, E2_2, np.array([0.1, 0.3]))


def test_classify_cases(disk, cyl3):
    assert cg.classify_case(disk, E2_2) == "both_finite"
    assert cg.classify_case(cg.halfspace([1.0, 0.0], 1.0), E1_2) == "f_finite_only"
    assert cg.classify_case(cyl3, E3_3) == "both_infinite"
    flipped = cg.halfspace([-1.0, 0.0], 1.0)  # x1 > -1
    assert cg.classify_case(flipped, E1_2) == "g_finite_only"


def test_classify_rejects_inconsistent_oracle():
    # sections along e1 are rays for x2 > 0 but bounded for x2 in (-1, 0):
    # no convex set behaves like that, so the finiteness probe must trip
    def lying(x):
        x = np.atleast_2d(x)
        upper = x[..., 1] > 0
        return (x[..., 1] > -1) & (upper | (np.abs(x[..., 0]) < 1))

    body = cg.from_oracle(lying, np.zeros(2), 0.5, outer_radius=None)
    with pytest.raises(OracleIntegrityError):
        cg.classify_case(body, E1_2, probes=64, seed=2)


def test_graph_values_on_disk(disk):
    pair = cg.decompose(disk, E2_2)
    v, g = cg.graph_value_and_gradient(pair, "upper", np.array([0.0, 0.0]))
    assert v == pytest.approx(1.0, abs=1e-9)
    assert np.allclose(g, 0.0, atol=1e-6)
    v, g = cg.graph_value_and_gradient(pair, "upper", np.array([0.6, 0.0]))
    assert v == pytest.approx(0.8, abs=1e-9)
    assert g[0] == pytest.approx(-0.75, abs=1e-6)
    assert abs(float(g @ pair.direction)) <= 1e-10


def test_graph_tilted_halfspace():
    # {x2 < a x1 + c}: upper graph along e2 is the line a*y1 + c
    a, c = 0.7, 1.2
    hs = cg.halfspace([-a, 1.0], c)
    pair = cg.decompose(hs, E2_2)
    y = np.array([0.4, 0.0])
    v, g = cg.graph_value_and_gradient(pair, "upper", y)
    assert v == pytest.approx(a * 0.4 + c, abs=1e-8)
    assert g[0] == pytest.approx(a, abs=1e-6)


def test_graph_lower_of_disk(disk):
    pair = cg.decompose(disk, E2_2)
    v, g = cg.graph_value_and_gradient(pair, "lower", np.array([0.6, 0.0]))
    assert v == pytest.approx(-0.8, abs=1e-9)
    assert g[0] == pytest.approx(0.75, abs=1e-6)


def test_graph_margin_error_outside_domain(disk):
    pair = cg.decompose(disk, E2_2)
    with pytest.raises(MarginError):
        cg.graph_value_and_gradient(pair, "upper", np.array([1.2, 0.0]))


def test_boundary_classify_examples(disk, cyl3):
    pair = cg.decompose(disk, E2_2)
    assert cg.boundary_classify(pair, np.array([0.6, 0.8])) == "upper_graph"
    assert cg.boundary_classify(pair, np.array([0.6, -0.8])) == "lower_graph"
    pair3 = cg.decompose(cyl3, E3_3)
    assert cg.boundary_classify(pair3, np.array([1.0, 0.0, 5.0])) == "vertical"


def test_boundary_classify_requires_boundary(disk):
    pair = cg.decompose(disk, E2_2)
    with pytest.raises(DomainError):
        cg.boundary_classify(pair, np.array([0.2, 0.2]))


def test_boundary_classify_searches_its_points_once(ball3):
    calls = []
    pair = cg.decompose(ball3, E3_3)
    counting = lambda Y, t_hint=None: calls.append(len(Y)) or pair.ends(Y, t_hint)
    pts = 1.5 * np.array([[0.6, 0.0, 0.8], [0.0, 0.6, -0.8], [0.28, 0.96, 0.0]])
    labels = cg.boundary_classify(dataclasses.replace(pair, ends=counting), pts)
    assert labels == cg.boundary_classify(pair, pts) == ["upper_graph", "lower_graph", "vertical"]
    assert calls == [3]


@pytest.mark.parametrize(
    "call",
    [
        lambda pair: cg.total_boundary_measure(pair, budget={"quadrature_order": 8}),
        lambda pair: cg.verify_ibp(pair, cg.constant(1.0), E1_2, budget={"samples": 1000}),
        lambda pair: cg.boundary_classify(pair, np.array([0.5, 0.0])),
        lambda pair: cg.gradient_formula_check(pair, np.array([0.5, 0.0])),
    ],
    ids=["total_boundary_measure", "verify_ibp", "boundary_classify", "gradient_formula_check"],
)
def test_function_graph_pair_has_no_body(call):
    pair = cg.function_graph(E2_2, lambda y: np.full(len(np.atleast_2d(y)), 0.5))
    with pytest.raises(ParameterError, match="function_graph"):
        call(pair)


def test_choose_direction_ball(disk):
    h, mass = cg.choose_direction(disk, [E1_2, E2_2], boundary_samples=400, seed=5)
    assert mass.value <= 3 * mass.std_error + 1e-9


def test_choose_direction_rejects_cylinder_axis(cyl3):
    h, mass = cg.choose_direction(cyl3, [E1_3, E3_3], boundary_samples=600, seed=6)
    assert np.allclose(h, E1_3)
    assert mass.value < 0.05
    with pytest.raises(DegenerateDirectionError):
        cg.choose_direction(cyl3, [E3_3], boundary_samples=600, seed=6)


def test_choose_direction_cube_prefers_diagonal():
    faces = []
    for i in range(3):
        for s in (1.0, -1.0):
            n = np.zeros(3)
            n[i] = s
            faces.append({"normal": n, "offset": 1.0})
    cube = cg.polytope(faces)
    diag = np.ones(3) / math.sqrt(3)
    # hand oracle: for h = e1 the four faces with normals +-e2, +-e3 are
    # vertical; for the diagonal no face normal is orthogonal to h
    normals = np.array([f["normal"] for f in faces])
    assert np.sum(np.abs(normals @ E1_3) < 1e-12) == 4
    assert np.all(np.abs(normals @ diag) > 0.5)
    h, mass = cg.choose_direction(cube, [E1_3, diag], boundary_samples=800, seed=7)
    assert np.allclose(h, diag)
    assert mass.value <= 1e-6


def test_section_scaling_nesting():
    for lam in (0.5, 2.0):
        body = cg.ball(1.0, 2)
        scaled = cg.ball(lam, 2)
        y = np.array([0.3, 0.0])
        lo, hi = cg.section_interval(body, E2_2, y)
        lo2, hi2 = cg.section_interval(scaled, E2_2, lam * y)
        assert lo2 == pytest.approx(lam * lo, abs=lam * 1e-9)
        assert hi2 == pytest.approx(lam * hi, abs=lam * 1e-9)


def test_graph_gauge_consistency():
    body = cg.ellipsoid([1.0, 0.7, 0.5])
    h = E3_3
    pair = cg.decompose(body, h)
    rng = np.random.default_rng(8)
    pts = rng.uniform(-0.5, 0.5, size=(20, 3))
    pts[:, 2] = 0.0
    inside = ~np.isnan(pair.ends(pts)[1])
    g, f = pair.ends(pts[inside])
    pf = cg.minkowski_functional(body, pts[inside] + f[:, None] * h)
    pg = cg.minkowski_functional(body, pts[inside] + g[:, None] * h)
    assert np.allclose(pf, 1.0, atol=1e-8)
    assert np.allclose(pg, 1.0, atol=1e-8)


@pytest.mark.parametrize(
    "body", [cg.ellipsoid([1.2, 0.9, 0.8, 0.7]), cg.random_polytope(4, 10, 0)], ids=["ellipsoid", "polytope"]
)
def test_graph_gradient_of_a_point_is_its_batchs(body):
    # numpy rounds a lone row's matrix product unlike a batch's; the stencil
    # maps each row's gradient by sums taken coordinate by coordinate, so a
    # point alone gets the bits it gets in its batch
    h = np.array([0.3, -0.5, 0.8, 0.2]) / math.sqrt(1.02)
    pair = cg.decompose(body, h)
    Y = 0.2 * np.random.default_rng(0).standard_normal((40, 4))
    Y -= np.outer(Y @ h, h)
    values, grads = cg.graph_value_and_gradient(pair, "upper", Y)
    for y, value, grad in zip(Y, values, grads):
        v, g = cg.graph_value_and_gradient(pair, "upper", y)
        assert v == value and np.array_equal(g, grad)


def test_graph_concavity_convexity_midpoints():
    body = cg.random_polytope(3, 8, seed=31)
    pair = cg.decompose(body, E3_3)
    rng = np.random.default_rng(9)
    pts = rng.uniform(-0.3, 0.3, size=(2000, 3))
    pts[:, 2] = 0.0
    a, b = pts[:1000], pts[1000:]
    ok = ~np.isnan(pair.ends(a)[1]) & ~np.isnan(pair.ends(b)[1])
    a, b = a[ok], b[ok]
    (ga, fa), (gb, fb) = pair.ends(a), pair.ends(b)
    gm, fm = pair.ends(0.5 * (a + b))
    assert np.all(fm >= 0.5 * (fa + fb) - 1e-8)
    assert np.all(gm <= 0.5 * (ga + gb) + 1e-8)


def test_classification_coverage_ball(ball3):
    h = cg.normalize_direction([0.3, -0.5, 0.8])
    pair = cg.decompose(ball3, h)
    from convexgauss.graphs import ray_cast_boundary

    pts, _, _ = ray_cast_boundary(ball3, 300, seed=10)
    labels = cg.boundary_classify(pair, pts)
    frac = np.mean([lab in ("upper_graph", "lower_graph") for lab in labels])
    assert frac >= 0.99


# a bounded polytope's line minimum is exact, so its golden search runs on
# the same set as a from_oracle body
_POLYTOPE = cg.random_polytope(3, 10, 4)
_POLYTOPE_ORACLE = cg.from_oracle(
    _POLYTOPE.contains, _POLYTOPE.interior_point, _POLYTOPE.interior_margin, _POLYTOPE.outer_radius
)


def _golden_two_calls(body, Y, h):
    """The rim search with its two probes gauged in separate calls."""
    T = body.reach * (1.0 + 1e-9)
    a = np.full(Y.shape[0], -T)
    b = np.full(Y.shape[0], T)
    gauge = lambda t: cg.minkowski_functional(body, Y + t[:, None] * h, tol=1e-12)
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = gauge(c), gauge(d)
    for _ in range(GOLDEN_STEPS):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c = b - GOLDEN * (b - a)
        d = a + GOLDEN * (b - a)
        fc, fd = gauge(c), gauge(d)
    t = 0.5 * (a + b)
    return t, gauge(t)


@pytest.mark.parametrize(
    "body, h",
    [
        (cg.ellipsoid([1.3, 0.8, 1.1]), E3_3),
        (_POLYTOPE_ORACLE, E3_3),
        (cg.cylinder(cg.ball(1.0, 2), [0.0, 0.0, 1.0]), E1_3),
        (cg.translate(cg.ball(0.7, 3), [2.0, 0.5, 0.0]), E3_3),
    ],
    ids=["ellipsoid", "polytope", "cylinder", "off_centre"],
)
def test_golden_paired_probes_match_two_calls(body, h):
    if body.shape_tag == "ball":  # the translated ball's gauge is about its own centre
        assert body.centre.any()
    rng = np.random.default_rng(5)
    Y = rng.standard_normal((24, 3))
    Y -= np.outer(Y @ h, h)
    Y *= (rng.uniform(0.0, 1.5, 24) * min(body.reach, 3.0) / np.linalg.norm(Y, axis=1))[:, None]
    t, q = _golden_min_gauge(body, Y, h)
    t_ref, q_ref = _golden_two_calls(body, Y, h)
    assert np.array_equal(t, t_ref)
    assert np.array_equal(q, q_ref)


def test_section_probe_asks_33_rows_a_line():
    # lines along e2 through (y, 0) miss the disk about (0, 2) at t = 0 and
    # meet it further up, so each one probes its origin and the lattice: 33
    # rows, the lattice's centre row being that origin again
    from convexgauss.graphs import SECTION_PROBE_POINTS, _section_endpoints

    body = cg.translate(cg.ball(1.0, 2), [0.0, 2.0])
    rows = []

    def counted(x):
        rows.append(len(np.atleast_2d(x)))
        return body.contains(x)

    Y = np.outer(np.linspace(-0.9, 0.9, 7), E1_2)
    lower, upper, nonempty = _section_endpoints(dataclasses.replace(body, contains=counted), E2_2, Y)
    assert nonempty.all() and np.allclose(upper - lower, 2.0 * np.sqrt(1.0 - Y[:, 0] ** 2))
    assert SECTION_PROBE_POINTS[0] == 33
    assert rows.count(33 * len(Y)) == 1 and 34 * len(Y) not in rows


def test_subspace_section_probe_asks_32_rows_a_line():
    # the subspace route hints each section at its origin, which the hint
    # check asks about first, so the probe skips 0 and asks the lattice
    # alone: 32 rows a line, and the same inside points as the graph route
    from convexgauss.graphs import _inside_points

    body = cg.translate(cg.ball(1.0, 2), [0.0, 2.0])
    rows = []

    def counted(x):
        rows.append(len(np.atleast_2d(x)))
        return body.contains(x)

    counting = dataclasses.replace(body, contains=counted)
    rows.clear()  # the body's own check of its centre
    Y = np.outer(np.linspace(-0.9, 0.9, 7), E1_2)
    z = _inside_points(counting, Y, E2_2[None], np.zeros((len(Y), 1)))
    assert rows == [len(Y), 32 * len(Y)]
    rows.clear()
    assert np.array_equal(_inside_points(counting, Y, E2_2[None]), z)
    assert rows == [33 * len(Y)]
