import importlib.util
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import convexgauss as cg
from convexgauss.errors import (
    DegeneracyError,
    DirectionError,
    DomainError,
    MassError,
    OracleIntegrityError,
)
from convexgauss.graphs import ray_cast_boundary

from conftest import G1_AT_1, HALF_PERIM

E1_2, E2_2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
E1_3, E2_3 = np.eye(3)[0], np.eye(3)[1]


# ------------------------------------------------------------ volume integral


def test_lhs_halfspace_constant(halfspace3):
    est = cg.lhs_volume_integral(
        halfspace3, cg.constant(1.0), E1_3, budget={"samples": 400_000}, seed=1
    )
    # oracle: -int_{-inf}^{1} t phi(t) dt = phi(1)
    assert abs(est.value - G1_AT_1) <= 3 * est.std_error


def test_lhs_ball_constant_odd_symmetry(ball3):
    est = cg.lhs_volume_integral(
        ball3, cg.constant(1.0), E1_3, budget={"samples": 200_000}, seed=2
    )
    assert abs(est.value) <= 3 * est.std_error


def test_lhs_halfspace_coordinate(halfspace3):
    # oracle: int_{-inf}^1 (1 - t^2) phi(t) dt = phi(1), via
    # int t^2 phi = Phi(c) - c phi(c)
    c = 1.0
    oracle = stats.norm.cdf(c) - (stats.norm.cdf(c) - c * stats.norm.pdf(c))
    assert oracle == pytest.approx(G1_AT_1, abs=1e-12)
    est = cg.lhs_volume_integral(
        halfspace3, cg.coordinate(0), E1_3, budget={"samples": 400_000}, seed=3
    )
    assert abs(est.value - oracle) <= 3 * est.std_error


def test_lhs_rejects_negligible_mass():
    tiny = cg.ball(0.02, 2)
    with pytest.raises(MassError):
        cg.lhs_volume_integral(tiny, cg.constant(1.0), E1_2, budget={"samples": 10_000}, seed=4)


def test_lhs_se_scaling(halfspace3):
    ses = [
        cg.lhs_volume_integral(
            halfspace3, cg.constant(1.0), E1_3, budget={"samples": n}, seed=20240817
        ).std_error
        for n in (20000, 80000, 320000)
    ]
    # SE shrinks like 1/sqrt(n) within 20%
    assert ses[2] == pytest.approx(ses[0] / 4.0, rel=0.2)


def test_lhs_standard_errors_are_honest_across_seeds():
    # psi = 1 along the unit normal k = a of <a, x> < c: the integrand is
    # -<a, x> on the body, whose mean is -int_{-inf}^c s phi(s) ds = phi(c);
    # over 200 seeds, |error| <= 3 SE holds for at least 97% and z^2
    # averages near 1 (a standard error 10 times too large reads 0.01)
    a, c = np.array([0.6, 0.0, 0.8]), 0.7
    body, exact = cg.halfspace(a, c), stats.norm.pdf(c)
    z = np.array([
        (est.value - exact) / est.std_error
        for est in (
            cg.lhs_volume_integral(body, cg.constant(1.0), a, budget={"samples": 20_000}, seed=seed)
            for seed in range(200)
        )
    ])
    assert np.mean(np.abs(z) <= 3.0) >= 0.97
    assert 0.5 <= np.mean(z * z) <= 2.0


# ----------------------------------------------------------- surface integral


def test_rhs_halfspace_flat(halfspace3):
    pair = cg.decompose(halfspace3, E1_3)
    est = cg.rhs_surface_integral(pair, cg.constant(1.0), E1_3, seed=5)
    assert est.value == pytest.approx(G1_AT_1, rel=1e-9)


def test_rhs_ball_odd_integrand(disk):
    pair = cg.decompose(disk, E2_2)
    est = cg.rhs_surface_integral(pair, cg.constant(1.0), E1_2, seed=6)
    assert abs(est.value) <= 1e-8


def test_rhs_ball_coordinate_squared(disk):
    # x1 against <nu, e1> integrates cos^2 over the circle: e^{-1/2}/2
    pair = cg.decompose(disk, E2_2)
    est = cg.rhs_surface_integral(pair, cg.coordinate(0), E1_2, seed=7)
    assert est.value == pytest.approx(HALF_PERIM, rel=2e-4)


# -------------------------------------------------------------------- verify


def test_verify_halfspace_closed_form(halfspace3):
    report = cg.verify_ibp(
        cg.decompose(halfspace3, E1_3, seed=8),
        cg.constant(1.0),
        E1_3,
        budget={"samples": 400_000},
        seed=8,
    )
    assert report.verdict == "pass"
    assert abs(report.lhs.value - G1_AT_1) <= 3 * report.lhs.std_error
    assert report.rhs.value == pytest.approx(G1_AT_1, rel=1e-9)


def test_verify_ball3_tanh(ball3):
    report = cg.verify_ibp(
        cg.decompose(ball3, np.array([0.0, 0.0, 1.0]), seed=9),
        cg.tanh_of([1.0, 1.0, 0.0]),
        E2_3,
        budget={"samples": 400_000},
        seed=9,
    )
    assert report.verdict == "pass"


def test_verify_direction_invariance(disk):
    reports = [
        cg.verify_ibp(
            cg.decompose(disk, h, seed=10),
            cg.tanh_of([0.5, -1.0]),
            E1_2,
            budget={"samples": 300_000},
            seed=10,
        )
        for h in (E1_2, E2_2, cg.normalize_direction([1.0, 1.0]))
    ]
    assert all(r.verdict == "pass" for r in reports)
    vals = [r.rhs.value for r in reports]
    assert max(vals) - min(vals) <= 1e-3


def test_verify_level_set_matches_shape_spec():
    # same ellipsoid entering once by spec and once as a level-set oracle
    semi = np.array([1.0, 2.0])
    spec_body = cg.ellipsoid(semi)
    level_body = cg.from_oracle(
        contains=lambda x: np.sum(np.square(np.atleast_2d(x)) / semi**2, axis=-1) < 1.0,
        interior_point=np.zeros(2),
        interior_margin=1.0,
        outer_radius=2.0,
    )
    psi = cg.coordinate(1)  # nonzero two-sided value ~0.21
    cfgs = {"budget": {"samples": 200_000}, "seed": 11}
    ra = cg.verify_ibp(cg.decompose(spec_body, E2_2, seed=11), psi, E2_2, **cfgs)
    rb = cg.verify_ibp(cg.decompose(level_body, E2_2, seed=11), psi, E2_2, **cfgs)
    assert ra.verdict == "pass" and rb.verdict == "pass"
    assert ra.rhs.value == pytest.approx(rb.rhs.value, abs=1e-6)
    assert ra.lhs.value == pytest.approx(rb.lhs.value, abs=1e-12)


def _chosen_pair(body, seed):
    """The pair along the default candidate choose_direction picks, keeping
    its vertical-mass estimate."""
    cands = cg.default_direction_candidates(body.dim, seed=seed)
    h, mass = cg.choose_direction(body, cands, seed=seed)
    return cg.decompose(body, h, seed=seed, vertical_mass=mass)


def test_verify_auto_direction(disk):
    pair = _chosen_pair(disk, 12)
    mass = pair._vertical_mass
    report = cg.verify_ibp(pair, cg.tanh_of([1.0, 0.0]), E1_2, budget={"samples": 150_000}, seed=12)
    assert report.verdict == "pass"
    assert report.metadata["h"] == pair.direction.tolist()
    assert report.metadata["vertical_mass"] == mass.value
    assert pair._vertical_mass is mass


def test_verify_auto_direction_ray_casts_once(disk, monkeypatch):
    calls = []
    original = cg.graphs.ray_cast_boundary

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cg.graphs, "ray_cast_boundary", counting)
    pair = _chosen_pair(disk, 12)
    cg.verify_ibp(pair, cg.tanh_of([1.0, 0.0]), E1_2, budget={"samples": 20_000}, seed=12)
    assert len(calls) == 1


def test_verify_zero_identity_is_inconclusive_not_fail(disk):
    # psi == 1, k = e1 on a centered ball: both sides are 0 by symmetry, so
    # the noise-dominance rule must flag the run instead of passing on luck
    report = cg.verify_ibp(
        cg.decompose(disk, E2_2, seed=12), cg.constant(1.0), E1_2, budget={"samples": 50_000}, seed=12
    )
    assert abs(report.lhs.value) <= 3 * report.lhs.std_error
    assert abs(report.rhs.value) <= 1e-8
    assert report.verdict == "inconclusive"


def _tanh_without_gradient(weights):
    w = np.asarray(weights, dtype=float)
    return cg.TestFunction(
        evaluator=lambda x: np.tanh(np.atleast_2d(x) @ w),
        lipschitz_bound=float(np.linalg.norm(w)),
        name="tanh, central differences",
    )


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize(
    "body, psi, ks, h, budget",
    [
        # Gauss-Hermite right side
        (
            cg.halfspace(E1_3, 0.8),
            cg.tanh_of([0.5, -1.0, 0.3]),
            [E1_3, cg.normalize_direction([1.0, 1.0, 0.0])],
            E1_3,
            {"samples": 140_000, "quadrature_order": 16},
        ),
        # polar right side, direction chosen
        (
            cg.ball(1.5, 3),
            cg.coordinate(0),
            [E1_3, E2_3, cg.normalize_direction([1.0, -1.0, 1.0])],
            None,
            {"samples": 140_000, "sphere_grid": (8, 16), "radial": 8},
        ),
        # Monte Carlo right side
        (
            cg.halfspace(np.eye(5)[0], 0.8),
            cg.constant(1.0),
            [np.eye(5)[0], cg.normalize_direction([1.0, 1.0, 0.0, 0.0, 1.0])],
            np.eye(5)[0],
            {"samples": 66_000},
        ),
        # central differences along each k
        (
            cg.halfspace(E1_3, 0.8),
            _tanh_without_gradient([0.5, -1.0, 0.3]),
            [E1_3, cg.normalize_direction([0.0, 1.0, 1.0])],
            E1_3,
            {"samples": 140_000, "quadrature_order": 16},
        ),
    ],
    ids=["halfspace_gauss_hermite", "ball_polar", "halfspace5_monte_carlo", "no_gradient"],
)
def test_verify_stack_equals_one_call_per_k(body, psi, ks, h, budget, threads):
    budget = {**budget, "threads": threads}
    # a fresh pair per call, so no call reuses another's nodes
    pair = lambda: _chosen_pair(body, 13) if h is None else cg.decompose(body, h, seed=13)
    stacked = cg.verify_ibp(pair(), psi, np.stack(ks), budget=budget, seed=13)
    single = [cg.verify_ibp(pair(), psi, k, budget=budget, seed=13) for k in ks]
    assert len(stacked) == len(ks)
    for a, b in zip(stacked, single):
        assert a.lhs == b.lhs
        assert a.rhs == b.rhs
        assert (a.lhs.std_error, a.rhs.std_error) == (b.lhs.std_error, b.rhs.std_error)
        assert a.tolerance == b.tolerance
        assert a.verdict == b.verdict
        assert a.metadata == b.metadata


@pytest.mark.parametrize("threads", [1, 2])
def test_verify_runs_the_surface_side_as_one_task_beside_the_volume_side(
    halfspace3, monkeypatch, threads
):
    # at every thread count the whole right side, every k in order, is one
    # task on the pool that draws the volume chunks, so it runs off the
    # caller's thread; at one thread the chunks queue behind it
    seen = []
    original = cg.ibp.rhs_surface_integral

    def recording(*args, **kwargs):
        seen.append(threading.get_ident())
        return original(*args, **kwargs)

    monkeypatch.setattr(cg.ibp, "rhs_surface_integral", recording)
    ks = np.stack([E1_3, cg.normalize_direction([1.0, 1.0, 0.0])])
    budget = {"samples": 140_000, "quadrature_order": 16, "threads": threads}
    pair = cg.decompose(halfspace3, E1_3, seed=5)
    reports = cg.verify_ibp(pair, cg.constant(1.0), ks, budget=budget, seed=5)
    assert len(reports) == 2 and len(seen) == 2 and seen[0] == seen[1]
    assert seen[0] != threading.get_ident()


def _unbounded_square_prism():
    # |x1| < 1, |x2| < 1 in R^3: graphed along e1, its vertical faces carry
    # half of its surface measure
    faces = [{"normal": v, "offset": 1.0} for v in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])]
    return cg.polytope(faces)


@pytest.mark.parametrize("threads", [1, 2])
def test_verify_raises_the_one_thread_error_and_leaves_no_thread(monkeypatch, threads):
    budget = {"samples": 140_000, "threads": threads}
    before = threading.active_count()
    tiny = cg.decompose(cg.ball(0.02, 2), E2_2, seed=4)
    with pytest.raises(MassError):
        cg.verify_ibp(tiny, cg.constant(1.0), E1_2, budget=budget, seed=4)
    assert threading.active_count() == before
    prism = cg.decompose(_unbounded_square_prism(), E1_3, seed=0)
    with pytest.raises(DirectionError, match="vertical boundary mass"):
        cg.verify_ibp(prism, cg.constant(1.0), E1_3, budget=budget, seed=0)
    assert threading.active_count() == before

    # when both sides fail, the volume side's error is the one raised
    def failing(*args, **kwargs):
        raise DirectionError("surface side failed")

    monkeypatch.setattr(cg.ibp, "rhs_surface_integral", failing)
    with pytest.raises(MassError):
        cg.verify_ibp(tiny, cg.constant(1.0), E1_2, budget=budget, seed=4)
    assert threading.active_count() == before


# ---------------------------------------------------------- gradient formula


def test_gradient_formula_ball(disk):
    pair = cg.decompose(disk, E2_2)
    for x in (np.array([0.6, 0.8]), np.array([0.6, -0.8]), np.array([0.0, 1.0])):
        rel = cg.gradient_formula_check(pair, x)
        assert rel <= 1e-6


def test_gradient_formula_halfspace():
    hs = cg.halfspace([0.6, 0.8], 1.0)
    pair = cg.decompose(hs, E2_2)
    x = np.array([0.0, 1.25])  # on the boundary: <a, x> = 1
    rel = cg.gradient_formula_check(pair, x)
    assert rel <= 1e-6


def test_gradient_formula_vertical_raises(cyl3):
    pair = cg.decompose(cyl3, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DomainError):
        cg.gradient_formula_check(pair, np.array([1.0, 0.0, 2.0]))


def test_gradient_formula_polytope_median():
    body = cg.random_polytope(3, 8, seed=23)
    h = cg.normalize_direction([0.23, -0.44, 0.87])
    pair = cg.decompose(body, h)
    pts, _, _ = ray_cast_boundary(body, 100, seed=24)
    errs = cg.gradient_formula_check(pair, pts)
    errs = errs[~np.isnan(errs)]
    assert len(errs) >= 90
    assert float(np.median(errs)) <= 1e-3


def _benchmark_gradcheck_bodies():
    """(body, h, points) of the benchmark's fixed gradient checks and of
    acceptance criterion 4."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclasses look the module up there
    spec.loader.exec_module(workloads)
    cases = []
    for call in workloads._gradchecks():
        cfg = call.config
        body = cg.load_body_spec(cfg["body"], dim=cfg["model"]["dim"])
        count = cfg["budgets"]["boundary_samples"]
        pts, _, _ = ray_cast_boundary(body, count, cfg["seed"])
        cases.append((body, cg.normalize_direction(cfg["directions"]["h"]), pts))
    body = cg.random_polytope(3, 8, seed=40)
    pts, _, _ = ray_cast_boundary(body, 100, seed=41)
    cases.append((body, cg.normalize_direction([0.23, -0.44, 0.87]), pts))
    return cases


def test_gradient_formula_batch_matches_single_points():
    for body, h, pts in _benchmark_gradcheck_bodies():
        pair = cg.decompose(body, h)
        labels = cg.boundary_classify(pair, pts)
        assert labels == [cg.boundary_classify(pair, x) for x in pts]
        errs = cg.gradient_formula_check(pair, pts)
        for x, err in zip(pts, errs):
            try:
                single = cg.gradient_formula_check(pair, x)
            except (DomainError, DegeneracyError):
                assert np.isnan(err)
            else:
                assert err == pytest.approx(single, rel=1e-8)


@pytest.mark.parametrize("n", [8, 10])
def test_gradient_formula_of_a_point_is_its_batchs_in_high_dimension(n):
    # from dimension 8 numpy's matrix-vector routine rounds a row by its
    # place in its batch; <x, h> is summed coordinate by coordinate, so a
    # point alone gets the label and the bits it gets in its batch
    body = cg.ellipsoid(np.linspace(0.8, 1.6, n))
    pair = cg.decompose(body, np.ones(n) / math.sqrt(n))
    pts, _, _ = ray_cast_boundary(body, 40, 3)
    labels = cg.boundary_classify(pair, pts)
    errs = cg.gradient_formula_check(pair, pts)
    assert "vertical" not in labels
    for x, label, err in zip(pts, labels, errs):
        assert cg.boundary_classify(pair, x) == label
        assert np.float64(cg.gradient_formula_check(pair, x)).tobytes() == err.tobytes()


def test_gradient_formula_batch_gives_nan_at_vertical_point(cyl3):
    # along e1 the cylinder's boundary points (0, +-1, z) are vertical
    pair = cg.decompose(cyl3, np.array([1.0, 0.0, 0.0]))
    pts = np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.3]])
    errs = cg.gradient_formula_check(pair, pts)
    assert errs.shape == (2,)
    assert errs[0] <= 1e-6 and np.isnan(errs[1])
    assert errs[0] == pytest.approx(cg.gradient_formula_check(pair, pts[0]), rel=1e-8)
    with pytest.raises(DomainError):
        cg.gradient_formula_check(pair, pts[1])


def _ellipsoid_points_on_both_graphs():
    body = cg.ellipsoid([1.2, 0.9, 0.7])
    pair = cg.decompose(body, np.array([0.0, 0.0, 1.0]))
    pts, _, _ = ray_cast_boundary(body, 40, seed=5)
    assert {"upper_graph", "lower_graph"} <= set(cg.boundary_classify(pair, pts))
    return body, pair, pts


def test_gradient_check_searches_its_points_once(monkeypatch):
    body, pair, pts = _ellipsoid_points_on_both_graphs()
    search, stencil = cg.graphs._section_endpoints, cg.graphs._stencil_gradient
    searches, in_stencil = [], []

    def counted_search(*args, **kwargs):
        if not in_stencil:
            searches.append(args[2].shape[0])
        return search(*args, **kwargs)

    def flagged_stencil(*args, **kwargs):
        in_stencil.append(True)
        try:
            return stencil(*args, **kwargs)
        finally:
            in_stencil.pop()

    monkeypatch.setattr(cg.graphs, "_section_endpoints", counted_search)
    monkeypatch.setattr(cg.graphs, "_stencil_gradient", flagged_stencil)
    monkeypatch.setattr(cg.ibp, "_stencil_gradient", flagged_stencil, raising=False)
    cg.gradient_formula_check(pair, pts)
    assert searches == [len(pts)]


def test_gradient_check_equals_classification_then_per_graph_gradients():
    body, pair, pts = _ellipsoid_points_on_both_graphs()
    errs = cg.gradient_formula_check(pair, pts)
    # the reference: labels, then each graph's own values and gradients
    labels = np.asarray(cg.boundary_classify(pair, pts))
    h = pair.direction
    Y = pts - np.outer(pts @ h, h)
    formula = np.full(pts.shape, np.nan)
    for which, sign in (("upper", 1.0), ("lower", -1.0)):
        rows = np.flatnonzero(labels == f"{which}_graph")
        val, grad = cg.graph_value_and_gradient(pair, which, Y[rows])
        den = sign * (val - np.einsum("ij,ij->i", grad, Y[rows]))
        formula[rows] = sign * (h - grad) / den[:, None]
    rows = np.flatnonzero(~np.isnan(formula[:, 0]))
    fd = cg.minkowski_gradient_fd(body, pts[rows])
    ref = np.full(len(pts), np.nan)
    ref[rows] = np.linalg.norm(formula[rows] - fd, axis=1) / np.linalg.norm(fd, axis=1)
    assert np.array_equal(errs, ref, equal_nan=True)


def test_alfred_denominator_positive_on_upper_graph():
    body = cg.random_polytope(3, 8, seed=29)
    h = cg.normalize_direction([0.1, 0.2, 0.97])
    pair = cg.decompose(body, h)
    rng = np.random.default_rng(30)
    y = rng.uniform(-0.3, 0.3, size=(50, 3))
    y -= np.outer(y @ h, h)
    inside = ~np.isnan(pair.ends(y)[1])
    vals, grads = cg.graph_value_and_gradient(pair, "upper", y[inside])
    dens = vals - np.einsum("ij,ij->i", grads, y[inside])
    assert np.all(dens > 0)


def test_unit_normals_everywhere(disk):
    pair = cg.decompose(disk, E2_2)
    rng = np.random.default_rng(31)
    y = np.zeros((40, 2))
    y[:, 0] = rng.uniform(-0.9, 0.9, size=40)
    vals, grads = cg.graph_value_and_gradient(pair, "upper", y)
    nu = (pair.direction[None, :] - grads) / np.sqrt(
        1 + np.sum(grads**2, axis=1)
    )[:, None]
    assert np.allclose(np.linalg.norm(nu, axis=1), 1.0, atol=1e-12)


def test_two_rhs_routes_agree_pointwise(disk):
    # gauge-gradient route <grad p/|grad p|, k> vs graph-normal route
    # +-<nu, k> at matched boundary points
    pair = cg.decompose(disk, E2_2)
    k = cg.normalize_direction([0.8, -0.6])
    for sign, x in ((1.0, np.array([0.6, 0.8])), (-1.0, np.array([0.6, -0.8]))):
        t = float(x @ pair.direction)
        y = x - t * pair.direction
        val, grad = cg.graph_value_and_gradient(
            pair, "upper" if sign > 0 else "lower", y
        )
        nu = (pair.direction - grad) / math.sqrt(1 + float(grad @ grad))
        gp = cg.minkowski_gradient_fd(disk, x)
        route_gauge = float(gp @ k) / np.linalg.norm(gp)
        route_normal = sign * float(nu @ k)
        assert route_gauge == pytest.approx(route_normal, abs=1e-6)


# ------------------------------------------------------------ vector measure


def test_vector_measure_slab_cancellation(slab2):
    budget = {"samples": 200_000}
    report = cg.verify_ibp(
        cg.decompose(slab2, E1_2, seed=13), cg.constant(1.0), E1_2, budget=budget, seed=13
    )
    pair = cg.decompose(slab2, E1_2)
    # both graph terms of <nu, k>, each against its own graph normal, equal
    # G1(1) and cancel in the signed assembly
    for which in ("upper", "lower"):
        term = cg.graph_surface_integral(pair, which, lambda x, nu: nu @ E1_2, budget=budget)
        assert term.value == pytest.approx(G1_AT_1, rel=1e-9)
    assert abs(report.rhs.value) <= 1e-9
    assert abs(report.lhs.value) <= 3 * report.lhs.std_error


def test_vector_measure_orthogonal_direction(halfspace3):
    report = cg.verify_ibp(
        cg.decompose(halfspace3, E1_3, seed=14),
        cg.constant(1.0),
        E2_3,
        budget={"samples": 100_000},
        seed=14,
    )
    assert abs(report.rhs.value) <= 1e-9
    assert abs(report.lhs.value) <= 3 * report.lhs.std_error


def test_vector_measure_ball_coordinate(disk):
    report = cg.verify_ibp(
        cg.decompose(disk, E2_2, seed=15),
        cg.coordinate(1),
        E2_2,
        budget={"samples": 400_000},
        seed=15,
    )
    assert report.verdict == "pass"
    assert report.rhs.value == pytest.approx(HALF_PERIM, rel=1e-3)
    assert abs(report.lhs.value - HALF_PERIM) <= 3 * report.lhs.std_error


# ------------------------------------------------------------------ psi lib


def test_psi_library_respects_lipschitz_bounds():
    for psi in (
        cg.constant(2.0),
        cg.coordinate(1),
        cg.tanh_of([1.0, -2.0], offset=0.5),
        cg.distance_clamp([0.5, 0.0], inner=0.5, outer=1.5),
    ):
        cg.validate_test_function(psi, dim=2, seed=16)


def test_psi_validation_catches_liars():
    liar = cg.TestFunction(
        evaluator=lambda x: np.tanh(3.0 * np.atleast_2d(x)[:, 0]),
        lipschitz_bound=0.1,
        name="liar",
    )
    with pytest.raises(OracleIntegrityError):
        cg.validate_test_function(liar, dim=2, seed=17)


def test_psi_from_spec_round_trip():
    specs = [
        {"name": "constant", "value": 2.0},
        {"name": "coordinate", "index": 1},
        {"name": "tanh", "weights": [1.0, 1.0, 0.0]},
        {"name": "distance_clamp", "center": [0.0, 0.0], "inner": 0.5, "outer": 1.0},
    ]
    for spec in specs:
        psi = cg.psi_from_spec(spec)
        assert isinstance(psi, cg.TestFunction)


@pytest.mark.parametrize("rows", [1, 7, 65536])
@pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
def test_tanh_gradient_equals_the_broadcast_product(rows, dim):
    rng = np.random.default_rng([rows, dim])
    w = rng.standard_normal(dim)
    x = rng.standard_normal((rows, dim))
    t = np.tanh(x @ w + 0.3)
    assert np.array_equal(cg.tanh_of(w, offset=0.3).analytic_gradient(x), (1.0 - t * t)[:, None] * w)
