"""Early stops of the boundary searches against the loops they replace.

The golden-section search settles a row once a lower bound proves that its
line misses the body, the ellipsoid distance solves its secular equation by
Newton's method, and Dykstra's polytope projection gathers its active rows
once per sweep. The references below are the loops each of these replaced:
the golden search run for every one of its GOLDEN_STEPS steps, the
ellipsoid distance by doubling and 200 bisection steps, and Dykstra's sweep
gathering its rows once per face.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexgauss as cg
import convexgauss.graphs as graphs
import convexgauss.surface as surface
from convexgauss.bodies import bisect, minkowski_functional
from convexgauss.errors import DegenerateDirectionError, DirectionError
from convexgauss.graphs import GOLDEN, GOLDEN_STEPS

E1_3, E3_3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])


def _golden_reference(body, Y, h, stop=None):
    """Golden section on t -> gauge(y + t h) for every one of GOLDEN_STEPS
    steps, whatever `stop` says."""
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


def _ellipsoid_distance_reference(s, x):
    """Distance outside the ellipsoid with semiaxes s: the secular root by
    doubling its bracket, then 200 bisection steps."""
    inv2 = 1.0 / (s * s)
    out = np.zeros(x.shape[0])
    outside = np.sum(np.square(x) * inv2, axis=-1) > 1.0
    if outside.any():
        xo = x[outside]
        lo = np.zeros(xo.shape[0])
        hi = np.full(xo.shape[0], float(np.max(s)))
        fx = lambda lam: np.sum((s * s * xo) ** 2 / (s * s + lam[:, None]) ** 2 * inv2, axis=-1) - 1.0
        while np.any(fx(hi) > 0):
            hi = np.where(fx(hi) > 0, hi * 2.0, hi)
        lo, hi = bisect(lambda lam: fx(lam) > 0, lo, hi, steps=200)
        lam = 0.5 * (lo + hi)
        w = s * s * xo / (s * s + lam[:, None])
        out[outside] = np.linalg.norm(xo - w, axis=-1)
    return out


def _dykstra_reference(A, c, x):
    """Distance outside the polytope <A_i, x> < c_i by Dykstra's projections,
    gathering the active rows once per face."""
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
    out[np.all(x @ A.T < c, axis=-1)] = 0.0
    return out


def _random_body(kind, rng):
    if kind == "ellipsoid":
        return cg.ellipsoid(rng.uniform(0.3, 2.0, 3))
    if kind == "polytope":
        return cg.random_polytope(3, int(rng.integers(4, 12)), int(rng.integers(0, 1000)))
    # translated: re-centred when the shift leaves the origin outside
    return cg.translate(cg.ellipsoid(rng.uniform(0.3, 2.0, 3)), rng.uniform(-1.5, 1.5, 3))


def _random_lines(body, rng, rows):
    h = rng.standard_normal(3)
    h /= np.linalg.norm(h)
    Y = rng.standard_normal((rows, 3))
    Y -= np.outer(Y @ h, h)
    Y *= (rng.uniform(0.0, 1.6, rows) * min(body.reach, 3.0) / np.linalg.norm(Y, axis=1))[:, None]
    return Y, h


# --------------------------------------------------------------- golden


@settings(max_examples=20, deadline=None)
@given(
    kind=st.sampled_from(["ellipsoid", "polytope", "translated"]),
    seed=st.integers(0, 2**32 - 1),
    rows=st.integers(1, 24),
)
def test_golden_stop_keeps_every_found_row(kind, seed, rows):
    rng = np.random.default_rng(seed)
    body = _random_body(kind, rng)
    Y, h = _random_lines(body, rng, rows)
    t_ref, q_ref = _golden_reference(body, Y, h)
    t, q = graphs._golden_min_gauge(body, Y, h)
    assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)
    t, q = graphs._golden_min_gauge(body, Y, h, stop=1.0)
    found = q < 1.0 - 1e-12
    assert np.array_equal(found, q_ref < 1.0 - 1e-12)
    assert np.array_equal(t[found], t_ref[found]) and np.array_equal(q[found], q_ref[found])
    settled = (t != t_ref) | (q != q_ref)
    assert np.all(q[settled] >= 1.0)


def test_golden_lone_searching_row_keeps_its_full_batch_gauge():
    # one line through the body among lines far outside it: once those
    # settle, the last gauge is of one row, which a polytope's oracle must
    # round as it does in the full batch
    rng = np.random.default_rng(0)
    for seed in range(40):
        body = cg.random_polytope(3, 9, seed)
        h = rng.standard_normal(3)
        h /= np.linalg.norm(h)
        Y = rng.standard_normal((6, 3))
        Y -= np.outer(Y @ h, h)
        Y *= (np.r_[0.2, np.full(5, 3.0 * body.outer_radius)] / np.linalg.norm(Y, axis=1))[:, None]
        t, q = graphs._golden_min_gauge(body, Y, h, stop=1.0)
        t_ref, q_ref = _golden_reference(body, Y, h)
        assert np.all(q[1:] >= 1.0)
        assert (t[0], q[0]) == (t_ref[0], q_ref[0])


def _counting_gauge(monkeypatch):
    calls = []
    gauge = graphs.minkowski_functional
    monkeypatch.setattr(
        graphs, "minkowski_functional", lambda *a, **kw: calls.append(len(a[1])) or gauge(*a, **kw)
    )
    return calls


@pytest.mark.parametrize(
    "body", [cg.ellipsoid([1.2, 0.8, 0.6]), cg.random_polytope(3, 10, 4)], ids=["ellipsoid", "polytope"]
)
def test_golden_settles_lines_that_miss_within_twenty_gauges(monkeypatch, body):
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((300, 3))
    Y[:, 2] = 0.0
    # every point of a line lies at least 1.1 outer radii from the origin
    Y *= (rng.uniform(1.1, 2.0, 300) * body.outer_radius / np.linalg.norm(Y, axis=1))[:, None]
    calls = _counting_gauge(monkeypatch)
    t, q = graphs._golden_min_gauge(body, Y, E3_3, stop=1.0)
    assert len(calls) < 20
    assert np.all(q >= 1.0)
    monkeypatch.undo()
    _, q_ref = _golden_reference(body, Y, E3_3)
    assert np.all(q_ref >= 1.0 - 1e-12)


def test_rim_search_runs_every_golden_step(monkeypatch):
    body = cg.translate(cg.ellipsoid([1.2, 0.9, 0.7]), [0.3, -0.2, 0.25])
    pair = cg.decompose(body, E3_3)
    calls = _counting_gauge(monkeypatch)
    searches = []
    search = surface._golden_min_gauge

    def recorded(body, Y, h, **kw):
        start = len(calls)
        out = search(body, Y, h, **kw)
        searches.append((Y, kw, len(calls) - start, out))
        return out

    monkeypatch.setattr(surface, "_golden_min_gauge", recorded)
    cg.total_boundary_measure(pair, budget={"angles": 48, "radial": 6}, seed=1)
    (Y, kw, gauges, (t, q)), = searches
    # one stacked gauge per step, one before the first and one at the end
    assert kw == {} and gauges == GOLDEN_STEPS + 2
    t_ref, q_ref = _golden_reference(body, Y, E3_3)
    assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)


def _with_reference_golden(monkeypatch):
    monkeypatch.setattr(surface, "_golden_min_gauge", _golden_reference)
    monkeypatch.setattr(graphs, "_golden_min_gauge", _golden_reference)


def _without_empty_section_proofs(monkeypatch):
    monkeypatch.setattr(surface, "_empty_sections", lambda body, F, Ys: np.zeros(Ys.shape[0], dtype=bool))


def _orthonormal_rows(m, n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, m)))
    return q.T


# sections centred off the lattice probe's points, so that the golden sweeps
# find inside points of thin sections as well as settle empty ones
_OFF3 = cg.translate(cg.ellipsoid([1.2, 1.0, 0.9]), [0.25, 0.25, 0.1])
_OFF4 = cg.translate(cg.ellipsoid([1.2, 1.0, 0.9, 0.8]), [0.25, 0.25, 0.1, 0.1])


@pytest.mark.parametrize(
    "body, F",
    [
        (_OFF3, np.eye(3)[[0]]),
        (_OFF3, np.eye(3)[[0, 1]]),
        (_OFF4, np.eye(4)[[0, 1, 2]]),
        (_OFF3, _orthonormal_rows(1, 3, 1)),
        (_OFF3, _orthonormal_rows(2, 3, 2)),
        (_OFF4, _orthonormal_rows(3, 4, 3)),
        (cg.random_polytope(3, 9, 2), _orthonormal_rows(2, 3, 4)),
    ],
    ids=["m1_axis", "m2_axis", "m3_axis", "m1_oblique", "m2_oblique", "m3_oblique", "m2_polytope"],
)
def test_subspace_measure_equals_full_golden_search(monkeypatch, body, F):
    budget = {"subspace_samples": 120, "inner_angles": 128, "inner_sphere_grid": (8, 16)}
    stops = []
    search = surface._golden_min_gauge
    monkeypatch.setattr(
        surface,
        "_golden_min_gauge",
        lambda body, Y, h, stop=None: stops.append(stop) or search(body, Y, h, stop=stop),
    )
    est = cg.subspace_hausdorff(body, F, budget=budget, seed=3)
    m = F.shape[0]
    # a line that is the section is swept once and settles, else only the
    # last line settles; with m >= 2 the sweeps run only when some section
    # is not proved empty
    sweeps = [1.0] if m == 1 else [None] * (2 * m - 1) + [1.0]
    assert stops == sweeps or (m >= 2 and stops == [])
    _with_reference_golden(monkeypatch)
    _without_empty_section_proofs(monkeypatch)
    ref = cg.subspace_hausdorff(body, F, budget=budget, seed=3)
    assert (est.value, est.std_error) == (ref.value, ref.std_error)


def test_subspace_sweeps_skip_rows_beyond_the_outer_radius(monkeypatch):
    body = cg.ellipsoid([1.0, 0.7, 0.5])
    searched = []
    search = surface._golden_min_gauge
    monkeypatch.setattr(
        surface,
        "_golden_min_gauge",
        lambda body, Y, h, stop=None: searched.append(Y) or search(body, Y, h, stop=stop),
    )
    est = cg.subspace_hausdorff(body, np.eye(3)[[0]], budget={"subspace_samples": 400}, seed=4)
    # the first sweep's lines pass through the projected draws themselves
    assert searched and np.all(np.linalg.norm(searched[0], axis=1) < body.outer_radius)
    _with_reference_golden(monkeypatch)
    ref = cg.subspace_hausdorff(body, np.eye(3)[[0]], budget={"subspace_samples": 400}, seed=4)
    assert (est.value, est.std_error) == (ref.value, ref.std_error)


def _section_rows(rng, F, outer, rows):
    """Rows orthogonal to F, spread over the outer radius."""
    Y = rng.standard_normal((rows, F.shape[1]))
    Y -= (Y @ F.T) @ F
    return Y * (rng.uniform(0.0, outer, rows) / np.linalg.norm(Y, axis=1))[:, None]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([3, 4]), m=st.sampled_from([2, 3]))
def test_empty_section_proof_holds_on_ellipsoids(seed, n, m):
    m = min(m, n - 1)
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.4, 2.0, n)
    v = rng.uniform(-0.3, 0.3, n) * s.min()  # the origin stays inside
    body = cg.translate(cg.ellipsoid(s), v)
    F = _orthonormal_rows(m, n, int(rng.integers(0, 1000)))
    Y = _section_rows(rng, F, body.outer_radius, 60)
    empty = graphs._empty_sections(body, F, Y)
    # least squares gives each section's smallest (x - v)^T diag(s^-2) (x - v)
    D = 1.0 / s
    for y in Y[empty]:
        z = np.linalg.lstsq((D * F).T, -D * (y - v), rcond=None)[0]
        assert np.sum((D * (y + z @ F - v)) ** 2) > 1.0


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_faces=st.integers(5, 12))
def test_empty_section_proof_holds_on_polytopes(seed, n_faces):
    from scipy.optimize import linprog

    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_faces, 3))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    c = rng.uniform(0.6, 1.5, n_faces)
    body = cg.polytope([{"normal": a, "offset": ci} for a, ci in zip(A, c)])
    if not body.bounded:
        return
    F = _orthonormal_rows(2, 3, int(rng.integers(0, 1000)))
    Y = _section_rows(rng, F, body.outer_radius, 40)
    empty = graphs._empty_sections(body, F, Y)
    for y in Y[empty]:
        # the largest slack t of A (y + z F) + t <= c over the section
        res = linprog(
            np.r_[0.0, 0.0, -1.0],
            A_ub=np.c_[A @ F.T, np.ones(n_faces)],
            b_ub=c - A @ y,
            bounds=[(None, None), (None, None), (None, 1.0)],
        )
        assert res.status == 0 and -res.fun <= 0.0


def test_empty_sections_near_the_support_are_proved(monkeypatch):
    # planes z = y3 of the benchmark's seed-1 ellipsoid whose smallest gauge
    # is at most 0.2% above 1: every one is proved empty, no sweep runs, and
    # the measure is that of the full sweeps
    s = np.array([0.828637, 1.310211, 0.921074])
    body = cg.ellipsoid(s)
    F = np.eye(3)[[0, 1]]
    Y = np.outer(s[2] * np.linspace(1.002, 1.4, 50), [0.0, 0.0, 1.0])
    assert graphs._empty_sections(body, F, Y).all()
    searches = []
    search = surface._golden_min_gauge
    monkeypatch.setattr(
        surface, "_golden_min_gauge", lambda *a, **kw: searches.append(a) or search(*a, **kw)
    )
    budget = {"subspace_samples": 80, "inner_angles": 128}
    est = cg.subspace_hausdorff(body, F, budget=budget, seed=5)
    assert searches == []
    _without_empty_section_proofs(monkeypatch)
    ref = cg.subspace_hausdorff(body, F, budget=budget, seed=5)
    assert searches and (est.value, est.std_error) == (ref.value, ref.std_error)


def test_gradient_check_near_the_rim_equals_full_golden_search(monkeypatch):
    # sections along e3 are centred at t = 0.25, between the section probe's
    # grid points, so the thin ones near the projected rim need the golden
    # search; at phi = 0.004 some stencil points leave the projected domain
    body = cg.translate(cg.ellipsoid([1.2, 0.9, 0.7]), [0.3, -0.2, 0.25])
    assert body.recentered_by is None
    phi = np.array([0.004, 0.004, 0.01, 0.02, 0.04, 0.06])
    theta = np.linspace(0.3, 5.9, phi.size)
    X = np.array([0.3, -0.2, 0.25]) + np.stack(
        [1.2 * np.cos(phi) * np.cos(theta), 0.9 * np.cos(phi) * np.sin(theta), 0.7 * np.sin(phi)],
        axis=-1,
    )
    pair = cg.decompose(body, E3_3)
    rows = {"found": 0, "settled": 0}
    search = graphs._golden_min_gauge

    def recorded(body, Y, h, stop=None):
        t, q = search(body, Y, h, stop=stop)
        rows["found"] += int(np.sum(q < 1.0 - 1e-12))
        rows["settled"] += int(np.sum(q >= 1.0))
        return t, q

    monkeypatch.setattr(graphs, "_golden_min_gauge", recorded)
    errs = cg.gradient_formula_check(pair, X)
    assert rows["found"] > 0 and rows["settled"] > 0
    _with_reference_golden(monkeypatch)
    ref = cg.gradient_formula_check(pair, X)
    assert np.array_equal(errs, ref, equal_nan=True)


# ------------------------------------------------------------ distances


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_ellipsoid_distance_matches_bisection(dim, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.2, 3.0, dim)
    body = cg.ellipsoid(s)
    u = rng.standard_normal((200, dim))
    gauge = np.sqrt(np.sum(u * u / (s * s), axis=1))
    # half the points inside, half outside by factors up to 5
    x = u / gauge[:, None] * np.concatenate([rng.uniform(0.1, 0.99, 100), rng.uniform(1.001, 5.0, 100)])[:, None]
    d = body.distance_outside(x)
    ref = _ellipsoid_distance_reference(s, x)
    assert np.array_equal(d == 0.0, ref == 0.0)
    assert np.all(np.abs(d - ref) <= 1e-12 * ref)


@settings(max_examples=25, deadline=None)
@given(
    dim=st.integers(2, 4),
    n_faces=st.integers(2, 10),
    seed=st.integers(0, 2**32 - 1),
)
def test_dykstra_distance_equals_per_face_gathering(dim, n_faces, seed):
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((n_faces, dim))
    faces = [{"normal": a, "offset": c} for a, c in zip(normals, rng.uniform(0.3, 1.5, n_faces))]
    body = cg.polytope(faces)
    A = np.array([f["normal"] for f in body.spec["faces"]])
    c = np.array([f["offset"] for f in body.spec["faces"]])
    x = 2.0 * rng.standard_normal((150, dim))
    # a re-centred body's oracles see x + its interior point
    shifted = x if body.recentered_by is None else x - body.recentered_by
    assert np.array_equal(body.distance_outside(x), _dykstra_reference(A, c, shifted))


# ---------------------------------------------------- vertical mass of h


def test_given_direction_reports_its_vertical_mass():
    # the prism |x1| < 1, |x2| < 0.5 graphed along e1: its faces x2 = +/-0.5
    # are vertical and carry most of its Gaussian perimeter
    faces = [
        {"normal": v, "offset": o}
        for v, o in (([1, 0, 0], 1.0), ([-1, 0, 0], 1.0), ([0, 1, 0], 0.5), ([0, -1, 0], 0.5))
    ]
    prism = cg.polytope(faces)
    pair = cg.decompose(prism, E1_3)
    with pytest.raises(DirectionError) as err:
        cg.total_boundary_measure(pair, budget={"angles": 32}, seed=0)
    assert not isinstance(err.value, DegenerateDirectionError)
    message = str(err.value)
    assert "vertical boundary mass 0.7" in message and "transverse direction" in message
    assert "candidates" not in message
    # the mass is choose_direction's estimate for e1, from the same ray cast
    assert f"{graphs._direction_vertical_mass(prism, E1_3, 1000, 0).value:.3f}" in message


@pytest.fixture
def casts(monkeypatch):
    """Arguments of every ray_cast_boundary call made during the test, in
    graphs or in the CLI."""
    from convexgauss import cli

    made = []
    cast = graphs.ray_cast_boundary
    counted = lambda *a, **kw: made.append(a) or cast(*a, **kw)
    monkeypatch.setattr(graphs, "ray_cast_boundary", counted)
    monkeypatch.setattr(cli, "ray_cast_boundary", counted)
    return made


def test_chosen_perimeter_direction_casts_rays_once(casts, tmp_path):
    from convexgauss import cli

    config = {
        "model": {"dim": 3},
        "body": {"shape": "ellipsoid", "semiaxes": [1.2, 0.9, 0.8]},
        "budgets": {"samples": 20000, "angles": 64, "radial": 8},
        "seed": 3,
    }
    cli.run("perimeter", cli.RunConfig.from_dict(config), tmp_path)
    assert len(casts) == 1
    (report,) = tmp_path.glob("*.json")
    assert math.isfinite(json.loads(report.read_text())["results"][0]["lhs"])


def test_chosen_gradcheck_direction_casts_rays_once(casts, tmp_path):
    from convexgauss import cli

    config = {
        "model": {"dim": 3},
        "body": {"shape": "ellipsoid", "semiaxes": [1.2, 0.9, 0.8]},
        "budgets": {"boundary_samples": 100},
        "seed": 3,
    }
    parsed = cli.RunConfig.from_dict(config)
    cli.run("gradcheck", parsed, tmp_path)
    assert [args[1:] for args in casts] == [(100, 3)]
    (report,) = tmp_path.glob("*.json")
    # the same median as choosing the direction and casting its points apart
    body = parsed.body
    cands = cg.default_direction_candidates(3, seed=3)
    h, mass = cg.choose_direction(body, cands, boundary_samples=100, seed=3)
    pts, _, _ = graphs.ray_cast_boundary(body, 100, 3)
    errs = cg.gradient_formula_check(cg.decompose(body, h, seed=3, vertical_mass=mass), pts)
    assert json.loads(report.read_text())["results"][0]["lhs"] == float(np.median(errs[~np.isnan(errs)]))


def test_chosen_ibp_direction_casts_rays_once(casts, tmp_path):
    from convexgauss import cli

    config = {
        "model": {"dim": 3},
        "body": {"shape": "ellipsoid", "semiaxes": [1.2, 0.9, 0.8]},
        "psi": {"name": "tanh", "weights": [0.5, -1.0, 0.3]},
        "directions": {"k": [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]},
        "budgets": {"samples": 20000, "sphere_grid": [8, 16], "radial": 8, "boundary_samples": 100},
        "seed": 3,
    }
    parsed = cli.RunConfig.from_dict(config)
    cli.run("ibp", parsed, tmp_path)
    assert [args[1:] for args in casts] == [(100, 3)]
    (report,) = tmp_path.glob("*.json")
    # the same right sides as choosing the direction in the library
    body = parsed.body
    cands = cg.default_direction_candidates(3, seed=3)
    h, mass = cg.choose_direction(body, cands, boundary_samples=100, seed=3)
    reports = cg.verify_ibp(
        cg.decompose(body, h, seed=3, vertical_mass=mass),
        parsed.psi,
        np.stack(parsed.k_list),
        budget=parsed.budget,
        seed=3,
    )
    records = json.loads(report.read_text())["results"]
    assert [r["rhs"] for r in records] == [r.rhs.value for r in reports]


def test_pair_casts_rays_once_for_all_its_boundary_sums(casts):
    body = cg.ellipsoid([1.2, 0.8])
    pair = cg.decompose(body, [1.0, 0.0])
    budget = {"angles": 64, "radial": 8}
    cg.total_boundary_measure(pair, budget=budget, seed=2)
    for k in ([1.0, 0.0], [0.0, 1.0], [0.6, 0.8]):
        cg.rhs_surface_integral(pair, cg.coordinate(0), k, budget=budget, seed=2)
    assert len(casts) == 1


def test_pair_checks_the_estimate_it_was_given(casts):
    ball = cg.ball(1.0, 3)
    given = cg.EstimateWithError(0.7, 0.01, 100, "monte_carlo")
    pair = cg.decompose(ball, E1_3, vertical_mass=given)
    with pytest.raises(DirectionError, match=r"vertical boundary mass 0\.700"):
        cg.total_boundary_measure(pair, budget={"angles": 32}, seed=0)
    assert casts == []


def test_converge_dim_checks_each_dimension(casts, tmp_path):
    from convexgauss import cli

    config = {
        "model": {"dim": 3, "spectral_profile": "brownian"},
        "body": {"shape": "kl_ellipsoid", "scale": 1.0},
        "grid": {"dims": [2, 3], "scale": 1.0},
        "budgets": {"angles": 64, "radial": 8, "sphere_grid": [8, 16], "boundary_samples": 200},
        "seed": 5,
    }
    assert cli.run("converge-dim", cli.RunConfig.from_dict(config), tmp_path) == 0
    assert [(body.dim, count) for body, count, _ in casts] == [(2, 200), (3, 200)]
