import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import integrate

import convexgauss as cg
import convexgauss.graphs as graphs
import convexgauss.surface as surface
from convexgauss.errors import CaseError, DirectionError, ParameterError, UnsupportedOrderError
from convexgauss.graphs import _stencil_gradient
from convexgauss.surface import Budget, _NodeSet

from conftest import DISK_PERIM, G1_AT_1, HALF_PERIM, INV_SQRT_2PI

E1_2, E2_2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
E1_3 = np.array([1.0, 0.0, 0.0])


def G1(t):
    return np.exp(-0.5 * np.square(t)) / math.sqrt(2 * math.pi)


# --------------------------------------------------------------- area formula


def test_area_formula_flat_graph_through_origin():
    # f == 0 on the whole hyperplane: surface mass G1(0) * 1 = 1/sqrt(2 pi)
    pair = cg.function_graph(E1_2, lambda y: np.zeros(len(np.atleast_2d(y))))
    est = cg.area_formula_integral(pair, "upper", None, seed=0)
    assert est.method == "gauss_hermite"
    assert est.std_error == 0.0
    assert est.value == pytest.approx(INV_SQRT_2PI, rel=1e-12)


@pytest.mark.parametrize("a", [0.5, -1.0, 3.0])
def test_area_formula_tilted_hyperplane(a):
    # closed-form Gaussian expectation: E[G1(aY)] sqrt(1+a^2) = 1/sqrt(2 pi)
    pair = cg.function_graph(
        E2_2,
        lambda y, a=a: a * np.atleast_2d(y)[:, 0],
        gradient=lambda y, a=a: np.tile([a, 0.0], (len(np.atleast_2d(y)), 1)),
    )
    est = cg.area_formula_integral(pair, "upper", None, seed=0)
    assert est.value == pytest.approx(INV_SQRT_2PI, rel=1e-5)


def test_area_formula_disk_upper_graph(disk):
    # frozen oracle: adaptive quadrature of
    #   G1(sqrt(1-y^2)) / sqrt(1-y^2) * G1(y) over (-1, 1)
    oracle, err = integrate.quad(
        lambda y: G1(math.sqrt(1 - y * y)) / math.sqrt(1 - y * y) * G1(y),
        -1,
        1,
        points=[-1, 1],
        limit=200,
    )
    assert oracle == pytest.approx(HALF_PERIM, abs=1e-9)  # = e^{-1/2}/2 by symmetry
    pair = cg.decompose(disk, E2_2)
    est = cg.area_formula_integral(pair, "upper", None, seed=0)
    assert est.method == "polar"
    assert est.value == pytest.approx(oracle, rel=2e-4)


def test_area_formula_with_nonunit_integrand(disk):
    pair = cg.decompose(disk, E2_2)
    est = cg.area_formula_integral(
        pair, "upper", lambda x: np.square(x[:, 0]), seed=0
    )
    # oracle: int x1^2 over upper half circle with Gaussian surface density
    oracle, _ = integrate.quad(
        lambda y: y * y * G1(math.sqrt(1 - y * y)) / math.sqrt(1 - y * y) * G1(y),
        -1,
        1,
        points=[-1, 1],
        limit=200,
    )
    assert est.value == pytest.approx(oracle, rel=2e-3)


def test_area_formula_infinite_graph_raises():
    hs = cg.halfspace([1.0, 0.0], 1.0)
    pair = cg.decompose(hs, E1_2)
    with pytest.raises(CaseError):
        cg.area_formula_integral(pair, "lower", None)


# ---------------------------------------------------------------- epigraphs


def test_epigraph_constant_height():
    for c in (0.0, 1.0, -0.7):
        pair = cg.function_graph(
            E1_3, lambda y, c=c: np.full(len(np.atleast_2d(y)), c)
        )
        est = cg.epigraph_perimeter(pair, seed=0)
        assert est.value == pytest.approx(float(G1(c)), rel=1e-12)


@pytest.mark.parametrize("a", [0.0, 1.0, 3.0])
def test_epigraph_hyperplane_through_origin(a):
    pair = cg.function_graph(E2_2, lambda y, a=a: a * np.atleast_2d(y)[:, 0])
    est = cg.epigraph_perimeter(pair, seed=0)
    assert est.value == pytest.approx(INV_SQRT_2PI, rel=5e-3)


def test_epigraph_absolute_value_kink():
    # oracle: 1-d adaptive quadrature of sqrt(2) G1(|y|) G1(y); evaluates to
    # 1/sqrt(2 pi) because G1 is even
    a, c = 1.0, 0.0
    oracle, _ = integrate.quad(
        lambda y: math.sqrt(1 + a * a) * G1(abs(a * y) + c) * G1(y),
        -np.inf,
        np.inf,
    )
    assert oracle == pytest.approx(INV_SQRT_2PI, abs=1e-9)
    pair = cg.function_graph(
        E2_2, lambda y: np.abs(a * np.atleast_2d(y)[:, 0]) + c
    )
    est = cg.epigraph_perimeter(pair, seed=0)
    assert est.value == pytest.approx(oracle, rel=1e-6)


def test_epigraph_shifted_vee():
    # same oracle with an offset, no longer a symmetric special case
    a, c = 1.3, 0.4
    oracle, _ = integrate.quad(
        lambda y: math.sqrt(1 + a * a) * G1(abs(a * y) + c) * G1(y),
        -np.inf,
        np.inf,
    )
    pair = cg.function_graph(
        E2_2, lambda y: np.abs(a * np.atleast_2d(y)[:, 0]) + c
    )
    # a kink off the symmetry axis limits Gauss-Hermite to ~1e-3 relative
    est = cg.epigraph_perimeter(pair, budget={"quadrature_order": 256}, seed=0)
    assert est.value == pytest.approx(oracle, rel=5e-3)


def test_function_graph_stencil_shrinks_at_domain_edge():
    # f(y) = y1/2 on |y1| < 1: the 1e-5 stencil at a node 5e-6 inside the
    # domain edge leaves the domain, so the step shrinks instead of the node
    # being dropped; the node outside the domain stays unusable
    pair = cg.function_graph(
        E2_2,
        lambda y: 0.5 * np.atleast_2d(y)[:, 0],
        domain=lambda y: np.abs(np.atleast_2d(y)[:, 0]) < 1.0,
    )
    Y = np.array([[0.0, 0.0], [1.0 - 5e-6, 0.0], [1.5, 0.0]])
    # a rule whose only weight sits on the edge node reads its contribution
    weights = np.array([0.0, 1.0, 0.0])
    nodes = _NodeSet(Y, np.full(3, 1e-5), "gauss_hermite", weights=weights, details={})
    pair._nodes[Budget(), 0] = nodes
    est = cg.graph_surface_integral(pair, "upper", lambda x, nu: nu[:, 0])
    _, grads, usable = nodes.graphs["upper"]
    assert usable.tolist() == [True, True, False]
    assert grads[1] == pytest.approx([0.5, 0.0], rel=1e-8)
    # nu_1 * sqrt(1 + |grad f|^2) = -1/2, times the Gaussian factor G1(f)
    assert est.value == pytest.approx(-0.5 * G1(0.5 * (1.0 - 5e-6)), rel=1e-8)


# ------------------------------------------------------- subspace measures


def test_subspace_halfspace_single_axis():
    hs = cg.halfspace([1.0, 0.0, 0.0], 1.0)
    est = cg.subspace_hausdorff(hs, [E1_3], budget={"subspace_samples": 2000}, seed=1)
    assert est.value == pytest.approx(G1_AT_1, abs=3 * est.std_error + 1e-9)


def test_subspace_full_space_disk(disk):
    est = cg.subspace_hausdorff(disk, np.eye(2), seed=2)
    assert est.method == "polar"
    assert est.std_error == 0.0
    assert est.value == pytest.approx(math.exp(-0.5), rel=1e-4)


def test_subspace_monotone_nested_chain():
    body = cg.ellipsoid([1.0, 0.7, 0.5])
    budget = {"subspace_samples": 1200, "inner_angles": 1024}
    vals = []
    for axes in ([0], [0, 1], [0, 1, 2]):
        F = np.eye(3)[axes]
        vals.append(
            cg.subspace_hausdorff(body, F, budget=budget, seed=3)
        )
    for a, b in zip(vals, vals[1:]):
        tol = 3.0 * (a.std_error + b.std_error)
        assert a.value <= b.value + tol
    # the full-space value equals the perimeter computed through the graphs
    pair = cg.decompose(body, E1_3)
    perim = cg.total_boundary_measure(pair, seed=3)
    assert vals[-1].value == pytest.approx(perim.value, rel=5e-3)


def test_subspace_rejects_large_m():
    body = cg.ball(1.0, 4)
    with pytest.raises(UnsupportedOrderError):
        cg.subspace_hausdorff(body, np.eye(4), seed=0)


# ------------------------------------------------- total boundary + content


def test_total_boundary_disk(disk):
    pair = cg.decompose(disk, E2_2)
    est = cg.total_boundary_measure(pair, seed=0)
    assert est.value == pytest.approx(DISK_PERIM, rel=1e-4)


def test_total_boundary_searches_the_rim_once(monkeypatch):
    body = cg.ellipsoid([1.2, 0.9, 1.1])
    h = np.array([0.0, 0.0, 1.0])
    budget = {"angles": 96, "radial": 12}
    # one pair per graph: each side searches its own rim, as two calls would
    upper = cg.area_formula_integral(cg.decompose(body, h), "upper", None, budget=budget)
    lower = cg.area_formula_integral(cg.decompose(body, h), "lower", None, budget=budget)
    searches = []
    search = surface._golden_min_gauge
    monkeypatch.setattr(
        surface, "_golden_min_gauge", lambda *args: searches.append(args) or search(*args)
    )
    est = cg.total_boundary_measure(cg.decompose(body, h), budget=budget)
    assert len(searches) == 1
    assert est.value == (upper + lower).value


def _row_counting(body):
    """The body with a contains that appends each call's row count to rows."""
    rows = []

    def contains(x):
        out = body.contains(x)
        rows.append(np.size(out))
        return out

    return replace(body, contains=contains), rows


@pytest.mark.parametrize(
    "body, h, budget, changed, seed",
    [
        (cg.ball(1.0, 2), E2_2, {"angles": 64, "radial": 8}, {"radial": 9}, 0),
        (cg.ball(1.0, 2), E2_2, {"angles": 64, "radial": 8}, {"fd_step": 2e-5}, 0),
        (cg.ball(1.0, 2), E2_2, {"angles": 64, "radial": 8}, {}, 1),
        (cg.halfspace(E1_3, 1.0), E1_3, {"quadrature_order": 8}, {"quadrature_order": 9}, 0),
        (cg.halfspace(np.eye(5)[0], 1.0), np.eye(5)[0], {"samples": 500}, {}, 1),
    ],
    ids=["polar_radial", "polar_fd_step", "polar_seed", "gh_order", "mc_seed"],
)
def test_graph_nodes_are_evaluated_once_per_budget_and_seed(body, h, budget, changed, seed):
    body, rows = _row_counting(body)
    pair = cg.decompose(body, h)
    integrands = [lambda x, nu: nu[:, 0], lambda x, nu: x[:, 0] * nu[:, -1]]
    first = [cg.graph_surface_integral(pair, "upper", f, budget=budget) for f in integrands]
    rows.clear()
    again = [cg.graph_surface_integral(pair, "upper", f, budget=budget) for f in integrands]
    assert rows == []  # no section search: the nodes come from the pair
    assert [e.value for e in again] == [e.value for e in first]
    # another budget field that sets the nodes, or another seed, evaluates them anew
    cg.graph_surface_integral(pair, "upper", integrands[0], budget={**budget, **changed}, seed=seed)
    assert sum(rows) > 0
    if pair.g_finite:  # the other graph costs no oracle rows: it was filled with the first
        rows.clear()
        cg.graph_surface_integral(pair, "lower", integrands[0], budget=budget)
        assert rows == []


def _separate_graph_nodes(pair, which, Y, fd_steps, t_hint):
    """Node values, gradients and usable mask of one graph of a pair whose
    graphs are both finite, worked out for that graph alone: its end of a
    section search of the nodes, the other end searched again for the
    stencil hint, and a shrinking central-difference stencil of its own."""
    end = 1 if which == "upper" else 0

    def values(Z, hint=None):
        return graphs._section_endpoints(pair.body, pair.direction, Z, t_hint=hint)[end]

    vals = values(Y, t_hint)
    usable = np.isfinite(vals)
    idx = np.flatnonzero(usable)
    if t_hint is not None:
        hint = t_hint[idx]
    else:
        other = graphs._section_endpoints(pair.body, pair.direction, Y[idx])[1 - end]
        hint = 0.5 * (vals[idx] + other)
    B = pair.basis
    d = B.shape[0]
    step = fd_steps[idx].copy()
    grads = np.full((idx.size, d), np.nan)
    todo = np.ones(idx.size, dtype=bool)
    for _ in range(7):
        rows = np.flatnonzero(todo)
        Z = Y[idx][rows][:, None, None, :] + np.stack([B, -B])[None] * step[rows, None, None, None]
        v = values(Z.reshape(-1, Y.shape[1]), np.repeat(hint[rows], 2 * d)).reshape(-1, 2, d)
        good = np.isfinite(v).all(axis=(1, 2))
        grads[rows[good]] = (v[good, 0] - v[good, 1]) / (2.0 * step[rows[good], None])
        todo[rows[good]] = False
        step[todo] /= 8.0
        if not todo.any() or step[todo].max() < 1e-10:
            break
    ambient = np.full_like(Y, np.nan)
    ambient[idx] = grads @ B
    usable[idx] = ~todo
    return vals, ambient, usable


@pytest.mark.parametrize(
    "body, h, budget, method",
    [
        (
            cg.slab([1.0, 2.0, -2.0], 0.9),
            np.array([1.0, 2.0, -2.0]) / 3.0,
            {"quadrature_order": 12},
            "gauss_hermite",
        ),
        (cg.ellipsoid([1.2, 0.8, 0.6]), E1_3, {"angles": 64, "radial": 6}, "polar"),
        (cg.kl_ellipsoid(5), np.eye(5)[0], {"samples": 400}, "monte_carlo"),
    ],
    ids=["slab_gh", "ellipsoid_polar", "kl5_mc"],
)
def test_both_graphs_share_one_section_search(monkeypatch, body, h, budget, method):
    pair = cg.decompose(body, h)
    assert pair.f_finite and pair.g_finite
    node_searches, in_stencil = [], []

    def stencil(*args, **kwargs):
        in_stencil.append(True)
        try:
            return _stencil_gradient(*args, **kwargs)
        finally:
            in_stencil.pop()

    def counted(search):
        def wrapper(*args, **kwargs):
            if not in_stencil:
                node_searches.append(args[2].shape[0])
            return search(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(surface, "_stencil_gradient", stencil)
    monkeypatch.setattr(surface, "_section_endpoints", counted(graphs._section_endpoints))
    monkeypatch.setattr(graphs, "_section_endpoints", counted(graphs._section_endpoints))
    for which in ("upper", "lower"):
        est = cg.graph_surface_integral(pair, which, lambda x, nu: nu[:, 0], budget=budget)
        assert est.method == method
    # one search over the node set, where separate graphs searched 2 or 4 times
    assert len(node_searches) == 1
    monkeypatch.undo()
    (nodes,) = pair._nodes.values()
    for which in ("upper", "lower"):
        separate = _separate_graph_nodes(pair, which, nodes.Y, nodes.steps, nodes.t_hint)
        for got, want in zip(nodes.graphs[which], separate):
            assert np.array_equal(got, want, equal_nan=True)


def test_both_graphs_share_one_stencil_call(monkeypatch):
    pair = cg.decompose(cg.ellipsoid([1.2, 0.8, 0.6]), E1_3)
    budget = {"angles": 64, "radial": 6}
    stencils = []
    monkeypatch.setattr(
        surface, "_stencil_gradient", lambda *a, **kw: stencils.append(a) or _stencil_gradient(*a, **kw)
    )
    for which in ("upper", "lower"):
        cg.graph_surface_integral(pair, which, lambda x, nu: nu[:, 0], budget=budget)
    assert len(stencils) == 1
    monkeypatch.undo()
    (nodes,) = pair._nodes.values()
    for which in ("upper", "lower"):
        separate = _separate_graph_nodes(pair, which, nodes.Y, nodes.steps, nodes.t_hint)
        for got, want in zip(nodes.graphs[which], separate):
            assert np.array_equal(got, want, equal_nan=True)


@pytest.mark.parametrize(
    "body, h, budget, builder",
    [
        (cg.ellipsoid([1.2, 0.8, 0.6]), E1_3, {"angles": 64, "radial": 6}, "_golden_min_gauge"),
        (cg.slab(E1_3, 0.9), E1_3, {"quadrature_order": 12}, "gauss_hermite_nodes"),
        (cg.slab(np.eye(5)[0], 0.9), np.eye(5)[0], {"samples": 400}, "sample_gaussian"),
    ],
    ids=["polar", "gauss_hermite", "monte_carlo"],
)
def test_one_node_set_serves_both_graphs_and_every_integrand(
    monkeypatch, body, h, budget, builder
):
    module = cg.space if builder == "gauss_hermite_nodes" else surface
    calls = []
    build = getattr(module, builder)
    monkeypatch.setattr(module, builder, lambda *a, **kw: calls.append(a) or build(*a, **kw))
    pair = cg.decompose(body, h)
    ks = np.eye(body.dim)[:3]
    psi = cg.tanh_of(np.linspace(0.5, -0.5, body.dim))
    one = [cg.rhs_surface_integral(pair, psi, k, budget=budget, seed=2) for k in ks]
    both = cg.total_boundary_measure(pair, budget=budget, seed=2)
    assert len(calls) == 1 and len(pair._nodes) == 1
    assert set(next(iter(pair._nodes.values())).graphs) == {"upper", "lower"}
    # each integrand equals its own call on a fresh pair bit for bit
    for k, est in zip(ks, one):
        fresh = cg.rhs_surface_integral(cg.decompose(body, h), psi, k, budget=budget, seed=2)
        assert (est.value, est.std_error) == (fresh.value, fresh.std_error)
    fresh = cg.total_boundary_measure(cg.decompose(body, h), budget=budget, seed=2)
    assert (both.value, both.std_error) == (fresh.value, fresh.std_error)
    # another seed is another node set
    calls.clear()
    cg.total_boundary_measure(pair, budget=budget, seed=3)
    assert len(calls) == 1 and len(pair._nodes) == 2


def test_total_boundary_rejects_vertical_faces_of_unbounded_prism():
    # the infinite square prism |x1| < 1, |x2| < 1 graphed along e1: its
    # faces x2 = +/-1 are vertical and carry half of its Gaussian perimeter
    # 4 phi(1) (2 Phi(1) - 1) = 0.661, which the two finite graphs miss
    faces = [{"normal": v, "offset": 1.0} for v in ([1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0])]
    prism = cg.polytope(faces)
    assert not prism.bounded
    pair = cg.decompose(prism, E1_3)
    with pytest.raises(DirectionError, match="vertical boundary mass"):
        cg.total_boundary_measure(pair, seed=0)
    with pytest.raises(DirectionError, match="vertical boundary mass"):
        cg.rhs_surface_integral(pair, cg.constant(1.0), E1_3, seed=0)


def test_total_boundary_halfspace():
    hs = cg.halfspace([1.0, 0.0], 1.0)
    pair = cg.decompose(hs, E1_2)
    est = cg.total_boundary_measure(pair, seed=0)
    assert est.method == "gauss_hermite"
    assert est.value == pytest.approx(G1_AT_1, rel=1e-10)


def test_total_boundary_slab(slab2):
    pair = cg.decompose(slab2, E1_2)
    est = cg.total_boundary_measure(pair, seed=0)
    assert est.value == pytest.approx(2 * G1_AT_1, rel=1e-10)


def test_total_boundary_cylinder_needs_transverse_direction(cyl3):
    pair = cg.decompose(cyl3, np.array([0.0, 0.0, 1.0]))
    with pytest.raises(DirectionError):
        cg.total_boundary_measure(pair, seed=0)


def test_symmetric_body_has_equal_graph_halves(disk):
    pair = cg.decompose(disk, E2_2)
    up = cg.area_formula_integral(pair, "upper", None, seed=0)
    lo = cg.area_formula_integral(pair, "lower", None, seed=0)
    assert up.value == pytest.approx(lo.value, rel=1e-6)


def test_graph_integrals_finite_for_all_shapes():
    shapes = [
        (cg.ball(1.0, 3), E1_3),
        (cg.ellipsoid([1.2, 0.8, 0.6]), E1_3),
        (cg.random_polytope(3, 8, seed=17), E1_3),
        (cg.slab([1.0, 0.0, 0.0], 1.0), E1_3),
    ]
    for body, h in shapes:
        pair = cg.decompose(body, h)
        est = cg.total_boundary_measure(pair, seed=1)
        assert np.isfinite(est.value) and np.isfinite(est.std_error)
        assert est.value > 0


def test_minkowski_content_halfspace():
    hs = cg.halfspace([1.0, 0.0, 0.0], 1.0)
    est = cg.minkowski_content_perimeter(hs, budget={"samples": 300_000}, seed=4)
    assert abs(est.value - G1_AT_1) <= max(3 * est.std_error, 0.02 * G1_AT_1)


def test_minkowski_content_disk(disk):
    est = cg.minkowski_content_perimeter(disk, budget={"samples": 300_000}, seed=5)
    assert abs(est.value - DISK_PERIM) <= max(3 * est.std_error, 0.02 * DISK_PERIM)


def test_minkowski_content_slab(slab2):
    est = cg.minkowski_content_perimeter(slab2, budget={"samples": 300_000}, seed=6)
    assert abs(est.value - 2 * G1_AT_1) <= max(3 * est.std_error, 0.04 * G1_AT_1)


def test_minkowski_content_validates_epsilons(disk):
    with pytest.raises(ParameterError):
        cg.minkowski_content_perimeter(disk, budget={"epsilons": (0.5, 0.2, 0.1)})
    with pytest.raises(ParameterError):
        cg.minkowski_content_perimeter(disk, budget={"epsilons": (0.05, 0.03)})


def test_estimate_invariant_deterministic_methods_have_zero_se():
    with pytest.raises(ParameterError):
        cg.EstimateWithError(1.0, 0.1, 10, "gauss_hermite")
    with pytest.raises(ParameterError):
        cg.EstimateWithError(1.0, 0.0, 10, "bogus")
    est = cg.EstimateWithError(1.0, 0.0, 10, "polar")
    assert est.method == "polar"


def test_monte_carlo_branch_high_dimension():
    body = cg.ball(1.5, 5)
    pair = cg.decompose(body, np.eye(5)[0])
    est = cg.total_boundary_measure(pair, budget={"samples": 20_000}, seed=7)
    assert est.method == "monte_carlo"
    assert est.std_error > 0
    # cross-check against the full-dimensional deterministic value in 3-d:
    # here just sanity-bound the estimate
    assert 0.0 < est.value < 2.0
