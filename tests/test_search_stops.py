"""Early exits of the boundary searches against the loops they replace.

A section search skips the rows whose section a quadratic certificate
proves misses the body, the golden search serves several steps from one
stacked gauge call, the ellipsoid distance solves its secular equation by
Newton's method, and Dykstra's polytope projection gathers its active rows
once per sweep. The references below are the loops each of these replaced:
the golden search on every row, one gauge call a step, for every one of its
GOLDEN_STEPS steps, the ellipsoid distance by doubling and bisection to
adjacent floats, and Dykstra's sweep gathering its rows once per face. The
quadratic's section test is audited against exact references.
"""

import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexgauss as cg
import convexgauss.graphs as graphs
import convexgauss.surface as surface
from convexgauss.bodies import SECTION_MISS_MARGIN, _sections_missed, bisect, minkowski_functional
from convexgauss.errors import DegenerateDirectionError, DirectionError, OracleIntegrityError
from convexgauss.graphs import GOLDEN, GOLDEN_STEPS

E1_3, E3_3 = np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0])


def _golden_reference(body, Y, h):
    """Golden section on t -> gauge(y + t h), one gauge call a step, for
    every one of GOLDEN_STEPS steps."""
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
    doubling its bracket, then bisection to adjacent floats."""
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
        lo, hi = bisect(lambda lam: fx(lam) > 0, lo, hi, tol=0.0)
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
    # translated: centred off the origin when the shift leaves the origin outside
    return cg.translate(cg.ellipsoid(rng.uniform(0.3, 2.0, 3)), rng.uniform(-1.5, 1.5, 3))


def _oracle_twin(body):
    """The same set as a from_oracle body, which has no closed form: every
    section search on it runs in full, and its line searches run golden
    section where a bounded polytope's are exact."""
    return cg.from_oracle(body.contains, body.interior_point, body.interior_margin, body.outer_radius)


def _random_lines(body, rng, rows, h=None):
    if h is None:
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
def test_section_search_keeps_every_found_row(kind, seed, rows):
    rng = np.random.default_rng(seed)
    body = _random_body(kind, rng)
    search = _oracle_twin(body) if kind == "polytope" else body
    Y, h = _random_lines(body, rng, rows)
    t_ref, q_ref = _golden_reference(search, Y, h)
    t, q = graphs._golden_min_gauge(search, Y, h)
    assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)
    # a row the certificate proves misses is one the search rejects, and
    # every other row gets the ends of the search on every row
    missed = _sections_missed(body, Y, h[None])
    assert np.all(q_ref[missed] >= 1.0)
    ends = graphs._section_endpoints(search, h, Y)
    with pytest.MonkeyPatch.context() as patch:
        _reference_sections(patch)
        ref = graphs._section_endpoints(search, h, Y)
    assert all(np.array_equal(a, b, equal_nan=True) for a, b in zip(ends, ref))


def test_golden_lone_searching_row_keeps_its_full_batch_gauge():
    # one line through the body searched alone, against the search of it
    # among lines far outside it: a polytope's oracle must round the lone
    # row as it does in the full batch (searched on the oracle twin, as the
    # polytope's own line minimum is exact)
    rng = np.random.default_rng(0)
    for seed in range(40):
        body = cg.random_polytope(3, 9, seed)
        h = rng.standard_normal(3)
        h /= np.linalg.norm(h)
        Y = rng.standard_normal((6, 3))
        Y -= np.outer(Y @ h, h)
        Y *= (np.r_[0.2, np.full(5, 3.0 * body.outer_radius)] / np.linalg.norm(Y, axis=1))[:, None]
        t, q = graphs._golden_min_gauge(_oracle_twin(body), Y[:1], h)
        t_ref, q_ref = _golden_reference(_oracle_twin(body), Y, h)
        assert (t[0], q[0]) == (t_ref[0], q_ref[0])


@pytest.mark.parametrize("rows, depth", [(1, 5), (3, 5), (40, 2), (300, 1)])
@pytest.mark.parametrize(
    "body, h",
    [
        (cg.ellipsoid([1.3, 0.8, 1.1]), E3_3),
        (_oracle_twin(cg.random_polytope(3, 10, 4)), E3_3),
        (cg.cylinder(cg.ball(1.0, 2), [0.0, 0.0, 1.0]), E1_3),
        (cg.translate(cg.ball(0.7, 3), [2.0, 0.5, 0.0]), E3_3),
    ],
    ids=["ellipsoid", "polytope", "cylinder", "recentered"],
)
def test_golden_lookahead_equals_one_step_a_gauge(monkeypatch, body, h, rows, depth):
    # rows sets the lookahead depth: (2^(depth+1) - 2) * rows probes fit 512
    # rows, up to depth 5; the search makes one stacked gauge call per
    # depth steps and one more for its result
    rng = np.random.default_rng(rows)
    Y, _ = _random_lines(body, rng, rows, h)
    t_ref, q_ref = _golden_reference(body, Y, h)
    calls = _counting_gauge(monkeypatch)
    t, q = graphs._golden_min_gauge(body, Y, h)
    assert len(calls) == -(-GOLDEN_STEPS // depth) + 1
    assert calls[0] == (2 ** (depth + 1) - 2) * rows
    assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)


def test_golden_search_of_no_rows_returns_empty_arrays(monkeypatch):
    calls = _counting_gauge(monkeypatch)
    t, q = graphs._golden_min_gauge(cg.ellipsoid([1.2, 0.8, 0.6]), np.zeros((0, 3)), E3_3)
    assert t.shape == q.shape == (0,) and calls == []


# --------------------------------------------------------- line minimum


def _exact_line_minimum(body, y, h, t):
    """In rationals, on the faces of a polytope or of its translate, about
    the body's centre p: the minimum over every t of the gauge along y + t h
    by LP duality (the largest alpha_j over faces with beta_j = 0 and the
    largest crossing value of a pair beta_j > 0 > beta_k), and the gauge at
    the given t."""
    cert = body.certificate
    v = np.zeros(body.dim) if cert.map is None else cert.map
    dot = lambda a, x: sum(Fraction(ai) * Fraction(xi) for ai, xi in zip(a, x))
    alpha, beta = [], []
    for a, cj in zip(cert.A, cert.c):
        d = Fraction(cj) + dot(a, v) - dot(a, body.centre)
        alpha.append((dot(a, y) - dot(a, body.centre)) / d)
        beta.append(dot(a, h) / d)
    pairs = [(bj * ak - bk * aj) / (bj - bk) for aj, bj in zip(alpha, beta) for ak, bk in zip(alpha, beta) if bj > 0 > bk]
    level = [aj for aj, bj in zip(alpha, beta) if bj == 0]
    return max(pairs + level), max(aj + Fraction(t) * bj for aj, bj in zip(alpha, beta))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 4), n_faces=st.integers(3, 12), shift=st.booleans())
def test_line_minimum_of_faces_is_the_lp_minimum(seed, n, n_faces, shift):
    # with `shift`, on a translate that leaves the origin outside, whose
    # gauge is taken about its certified ball's centre
    rng = np.random.default_rng(seed)
    body = cg.random_polytope(n, n_faces, int(rng.integers(0, 1000)))
    if shift:
        body = cg.translate(body, rng.choice([-1.0, 1.0], n) * rng.uniform(3.5, 5.0, n))
        assert body.centre.any()
    h = rng.standard_normal(n)
    h /= np.linalg.norm(h)
    Y = body.centre + 2.0 * rng.standard_normal((12, n))
    t, q = graphs._golden_min_gauge(body, Y, h)
    for y, ti, qi in zip(Y, t, q):
        low, at_t = _exact_line_minimum(body, y, h, ti)
        assert abs(qi - low) <= 1e-12 * max(low, 1) and at_t - low <= 1e-12 * max(low, 1)


def test_line_minimum_of_a_box_along_an_axis():
    # along e3 the faces x1 = +-1 and x2 = +-0.5 are parallel to h (beta_j
    # = 0), so the gauge max(|x1|, 2 |x2|, |t| / 2) takes its minimum
    # max(|x1|, 2 |x2|) on a whole interval of t; the last line passes
    # through the centre
    box = cg.polytope(
        [{"normal": sign * e, "offset": w} for e, w in zip(np.eye(3), (1.0, 0.5, 2.0)) for sign in (1.0, -1.0)]
    )
    Y = np.array([[0.3, 0.1, 0.0], [0.9, -0.45, 0.0], [-1.5, 0.2, 0.0], [0.2, 0.7, 0.0], [0.0, 0.0, 0.0]])
    t, q = graphs._golden_min_gauge(box, Y, E3_3)
    assert np.array_equal(q, np.maximum(np.abs(Y[:, 0]), 2.0 * np.abs(Y[:, 1])))
    assert np.all(np.abs(t) <= 2.0 * q)


@pytest.mark.parametrize("shift", [None, [2.5, -3.0, 1.0]], ids=["polytope", "translated"])
def test_line_minimum_agrees_with_golden_search_on_the_oracle_twin(shift):
    body = cg.random_polytope(3, 10, 4)
    if shift is not None:
        body = cg.translate(body, shift)
    Y, h = _random_lines(body, np.random.default_rng(12), 60)
    Y += body.centre - (body.centre @ h) * h  # lines about the centre
    t, q = graphs._golden_min_gauge(body, Y, h)
    t_gold, q_gold = graphs._golden_min_gauge(_oracle_twin(body), Y, h)
    # a line that meets the body has its minimum within the golden search's
    # interval; beyond it, that interval can only raise the golden minimum.
    # Each golden gauge is a bisection that stops within 1e-12 max(1, q)
    err = 1e-11 * np.maximum(q, 1.0)
    meets = q_gold < 1.0
    assert meets.sum() > 10 and not meets.all()
    assert np.all(np.abs(q - q_gold)[meets] <= err[meets])
    assert np.all(q <= q_gold + err)
    gauge = minkowski_functional(body, Y + t[:, None] * h, tol=1e-12)
    assert np.all(np.abs(gauge - q) <= err)


@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_line_minimum_checks_the_oracle(scale):
    # an oracle for the polytope with its offsets scaled: a smaller one
    # rejects the point just inside the minimum's rim, a larger one accepts
    # the point just outside it
    body = cg.random_polytope(3, 10, 4)
    cert = body.certificate
    other = cg.polytope([{"normal": a, "offset": scale * c} for a, c in zip(cert.A, cert.c)])
    Y, h = _random_lines(body, np.random.default_rng(3), 20)
    graphs._golden_min_gauge(body, Y, h)
    with pytest.raises(OracleIntegrityError):
        graphs._golden_min_gauge(dataclasses.replace(body, contains=other.contains), Y, h)


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
def test_section_search_skips_lines_proved_to_miss(monkeypatch, body):
    # lines along e3 within the outer radius whose every point has gauge
    # above 1.01: the certificate decides each, so no golden search gauges
    rng = np.random.default_rng(8)
    Y = rng.standard_normal((600, 3))
    Y[:, 2] = 0.0
    Y *= (rng.uniform(0.5, 1.0, 600) * body.outer_radius / np.linalg.norm(Y, axis=1))[:, None]
    _, q_ref = _golden_reference(body, Y, E3_3)
    Y = Y[q_ref > 1.01]
    assert len(Y) > 100
    calls = _counting_gauge(monkeypatch)
    _, _, nonempty = graphs._section_endpoints(body, E3_3, Y)
    assert calls == [] and not nonempty.any()


def test_rim_search_runs_every_golden_step(monkeypatch):
    body = cg.translate(cg.ellipsoid([1.2, 0.9, 0.7]), [0.3, -0.2, 0.25])
    pair = cg.decompose(body, E3_3)
    calls = _counting_gauge(monkeypatch)
    searches = []
    search = surface._golden_min_gauge

    def recorded(body, Y, h):
        start = len(calls)
        out = search(body, Y, h)
        searches.append((Y, len(calls) - start, out))
        return out

    monkeypatch.setattr(surface, "_golden_min_gauge", recorded)
    cg.total_boundary_measure(pair, budget={"angles": 48, "radial": 6}, seed=1)
    (Y, gauges, (t, q)), = searches
    # 48 rows fit a lookahead of two steps, 6 probes a row in 288 rows, so
    # one stacked gauge serves every two steps; one more gauges the result
    assert gauges == GOLDEN_STEPS // 2 + 1 == 41
    t_ref, q_ref = _golden_reference(body, Y, E3_3)
    assert np.array_equal(t, t_ref) and np.array_equal(q, q_ref)


def test_rim_search_of_a_polytope_runs_no_golden_step(monkeypatch):
    # the polar nodes of a bounded polytope take the faces' line minimum:
    # the rim search gauges nothing, and the measure is the golden search's
    # on the oracle twin within the twin's gauge tolerance
    body = cg.random_polytope(3, 10, 4)
    budget = {"angles": 48, "radial": 6}
    calls = _counting_gauge(monkeypatch)
    searches = []
    search = surface._golden_min_gauge

    def recorded(body, Y, h):
        start = len(calls)
        out = search(body, Y, h)
        searches.append(len(calls) - start)
        return out

    monkeypatch.setattr(surface, "_golden_min_gauge", recorded)
    est = cg.total_boundary_measure(cg.decompose(body, E3_3), budget=budget, seed=1)
    ref = cg.total_boundary_measure(cg.decompose(_oracle_twin(body), E3_3), budget=budget, seed=1)
    assert searches == [0, GOLDEN_STEPS // 2 + 1]
    assert est.value == pytest.approx(ref.value, rel=1e-9, abs=0.0)


def _reference_sections(patch):
    """Section searches as they ran before certificates decided sections:
    the reference golden search on every row."""
    patch.setattr(graphs, "_golden_min_gauge", _golden_reference)
    patch.setattr(graphs, "_sections_missed", lambda body, U, F: np.zeros(U.shape[0], dtype=bool))


def _recorded_golden(monkeypatch):
    """The lines Y of every golden search the subspace route makes."""
    searched = []
    search = graphs._golden_min_gauge
    monkeypatch.setattr(graphs, "_golden_min_gauge", lambda body, Y, h: searched.append(Y) or search(body, Y, h))
    return searched


def _orthonormal_rows(m, n, seed):
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, m)))
    return q.T


# sections centred off the section probe's points, so that the golden sweeps
# find inside points of thin sections as well as search empty ones; the
# translates prove most empty sections empty, their from_oracle twins none
_OFF3 = cg.translate(cg.ellipsoid([1.2, 1.0, 0.9]), [0.25, 0.25, 0.1])
_OFF4 = cg.translate(cg.ellipsoid([1.2, 1.0, 0.9, 0.8]), [0.25, 0.25, 0.1, 0.1])
_OFF3_ORACLE, _OFF4_ORACLE = _oracle_twin(_OFF3), _oracle_twin(_OFF4)


@pytest.mark.parametrize(
    "body, F",
    [
        (_OFF3_ORACLE, np.eye(3)[[0]]),
        (_OFF3, np.eye(3)[[0, 1]]),
        (_OFF4, np.eye(4)[[0, 1, 2]]),
        (_OFF3_ORACLE, _orthonormal_rows(1, 3, 1)),
        (_OFF3_ORACLE, _orthonormal_rows(2, 3, 2)),
        (_OFF4_ORACLE, _orthonormal_rows(3, 4, 3)),
        (_oracle_twin(cg.random_polytope(3, 9, 2)), _orthonormal_rows(2, 3, 4)),
        (cg.random_polytope(3, 10, 4), _orthonormal_rows(1, 3, 6)),
        (cg.ellipsoid([1.2, 1.0, 0.9]), _orthonormal_rows(2, 3, 6)),
        (cg.cylinder(cg.ellipsoid([1.1, 0.8]), [0.0, 0.0, 1.0]), _orthonormal_rows(1, 3, 7)),
    ],
    ids=[
        "m1_axis", "m2_axis", "m3_axis", "m1_oblique", "m2_oblique", "m3_oblique",
        "m2_polytope", "m1_polytope", "m2_ellipsoid", "m1_cylinder",
    ],
)
def test_subspace_measure_equals_full_golden_search(monkeypatch, body, F):
    budget = {"subspace_samples": 120, "inner_angles": 128, "inner_sphere_grid": (8, 16)}
    searched = _recorded_golden(monkeypatch)
    est = cg.subspace_hausdorff(body, F, budget=budget, seed=3)
    # each searched row runs every sweep: one line for m = 1, 2m for m >= 2
    assert searched and len(searched) == (1 if F.shape[0] == 1 else 2 * F.shape[0])
    _reference_sections(monkeypatch)
    ref = cg.subspace_hausdorff(body, F, budget=budget, seed=3)
    assert (est.value, est.std_error) == (ref.value, ref.std_error)


def test_subspace_sweeps_skip_rows_beyond_the_outer_radius(monkeypatch):
    # a body without a certificate searches every row within the outer
    # radius that the section probe misses
    wrapper = cg.translate(cg.ellipsoid([1.0, 0.7, 0.5]), [0.1, 0.05, 0.05])
    body = _oracle_twin(wrapper)
    assert body.certificate is None
    searched = _recorded_golden(monkeypatch)
    est = cg.subspace_hausdorff(body, np.eye(3)[[0]], budget={"subspace_samples": 400}, seed=4)
    # the first sweep's lines pass through the projected draws themselves
    assert searched and np.all(np.linalg.norm(searched[0], axis=1) < body.outer_radius)
    # the translate proves those sections empty and reads the same measure
    searched.clear()
    on_wrapper = cg.subspace_hausdorff(wrapper, np.eye(3)[[0]], budget={"subspace_samples": 400}, seed=4)
    assert not searched and (on_wrapper.value, on_wrapper.std_error) == (est.value, est.std_error)
    _reference_sections(monkeypatch)
    ref = cg.subspace_hausdorff(body, np.eye(3)[[0]], budget={"subspace_samples": 400}, seed=4)
    assert (est.value, est.std_error) == (ref.value, ref.std_error)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("body", [_OFF3, cg.random_polytope(3, 10, 4)], ids=["off_centre", "polytope"])
def test_line_sections_match_the_graph_routes_ends(body, k):
    # the m = 1 subspace route against section_interval on the same projected
    # draws: the mean of G1 at both ends, an empty section counting 0; some
    # of these lines miss the origin
    e = np.eye(3)[k]
    X = cg.sample_gaussian(3, 300, 21)
    ends = [cg.section_interval(body, e, y) for y in X - np.outer(X @ e, e)]
    found = [end for end in ends if end is not None]
    assert any(not g < 0.0 < f for g, f in found)
    G1 = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)
    ref = sum(G1(g) + G1(f) for g, f in found) / len(ends)
    est = cg.subspace_hausdorff(body, e[None], budget={"subspace_samples": 300}, seed=21)
    assert est.value == pytest.approx(ref, rel=1e-12, abs=0.0)


# The audit of the quadratic's section test against an exact reference, in
# rational arithmetic on the same floats: its least-squares minimum from
# its normal equations. Double precision (lstsq) only sizes the rows: near
# the level it cannot tell a decision a few units in the last place wrong.
# Each example draws rows whose minimum gauge is spread over (0.5, 3),
# near-tangent rows at 1 +/- 10^(-12 .. -6), and rows within 8 units in the
# last place of the level.
LEVEL = Fraction(1.0 + SECTION_MISS_MARGIN)
ULP = 2.0**-52


def _solve_exact(C, b):
    """C z = b by Gaussian elimination in rationals (C symmetric positive)."""
    m = len(b)
    M = [list(row) + [rhs] for row, rhs in zip(C, b)]
    for k in range(m):
        for r in range(k + 1, m):
            f = M[r][k] / M[k][k]
            M[r] = [x - f * y for x, y in zip(M[r], M[k])]
    z = [Fraction(0)] * m
    for k in reversed(range(m)):
        z[k] = (M[k][m] - sum(M[k][j] * z[j] for j in range(k + 1, m))) / M[k][k]
    return z


def _form_minimum(inv2, F, u):
    """Exact minimum of sum_i inv2_i x_i^2 over x in u + span(F)."""
    f = [[Fraction(v) for v in row] for row in F]
    u = [Fraction(v) for v in u]
    n = len(u)
    C = [[sum(inv2[i] * fk[i] * fl[i] for i in range(n)) for fl in f] for fk in f]
    b = [sum(inv2[i] * fk[i] * u[i] for i in range(n)) for fk in f]
    z = _solve_exact(C, [-v for v in b])
    return sum(inv2[i] * u[i] * u[i] for i in range(n)) + sum(bk * zk for bk, zk in zip(b, z))


def _audit_rows(rng, F, min_gauge, rows=8):
    """Rows u (general, with components along F) scaled so the section u +
    span(F) has each drawn minimum gauge; min_gauge maps rows to their
    double-precision minimum gauges, which scale linearly with the row. A
    row whose section reaches gauge 0 (it meets the body, or runs off into
    an unbounded one) keeps its place, with target 0."""
    n = F.shape[1]
    U = rng.standard_normal((3 * rows, n))
    U += 10.0 ** rng.uniform(-1.0, 3.0, (3 * rows, 1)) * (rng.standard_normal((3 * rows, F.shape[0])) @ F)
    target = np.concatenate([
        rng.uniform(0.5, 3.0, rows),
        1.0 + rng.choice([-1.0, 1.0], rows) * 10.0 ** rng.uniform(-12.0, -6.0, rows),
        (1.0 + SECTION_MISS_MARGIN) * (1.0 + rng.uniform(-8.0, 8.0, rows) * ULP),
    ])
    mu = min_gauge(U)
    keep = mu > 0.0
    U[keep] *= (target[keep] / mu[keep])[:, None]
    target[~keep] = 0.0
    return U, target


def _cylinder_of(base, rng):
    """A cylinder over base along a random axis, its projection B, and the
    exact image x B^T of a float vector x in rationals."""
    body = cg.cylinder(base, rng.standard_normal(base.dim + 1))
    B = body.certificate.map
    return body, B, lambda x: [sum(Fraction(a) * Fraction(b) for a, b in zip(x, row)) for row in B]


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), m=st.integers(1, 3), ball=st.booleans(),
    wrap=st.sampled_from([None, "shift", "cylinder"]),
)
def test_empty_section_proof_holds_on_ellipsoids(seed, n, m, ball, wrap):
    # with "shift", on the ellipsoid translated by v, whose sections U + v +
    # span(F) are checked at the exact U + v - v; with "cylinder", on a
    # cylinder over it (a 2-d strip over an interval at n = 1), whose lines
    # U + s F are checked at their exact image U B^T + s F B^T, and whose
    # planes stay undecided
    n = n if wrap == "cylinder" else max(n, 2)
    m = 1 if wrap == "cylinder" else min(m, n - 1)
    rng = np.random.default_rng(seed)
    if ball:
        r = rng.uniform(0.3, 2.0)
        body, inv2 = cg.ball(r, n), [1 / Fraction(r) ** 2] * n
    else:
        body = cg.ellipsoid(rng.uniform(0.3, 2.0, n))
        inv2 = [Fraction(v) for v in body.certificate.inv2]
    v = rng.uniform(-3.0, 3.0, n) if wrap == "shift" else np.zeros(n)
    image = lambda x: [Fraction(a) - Fraction(b) for a, b in zip(x, v)]
    B = np.eye(n)
    if wrap == "shift":
        body = cg.translate(body, v)
    elif wrap == "cylinder":
        (body, B, image), v = _cylinder_of(body, rng), np.zeros(n + 1)
    F = _orthonormal_rows(m, B.shape[1], int(rng.integers(0, 1000)))
    D = np.sqrt(np.asarray(inv2, dtype=float))

    def min_gauge(U):
        # the least-squares minimum of |D (u + z F)| over z, in the base; 0
        # where F's image spans the base, as every line of a strip off its
        # axis meets it
        G, Ub = F @ B.T, U @ B.T
        if np.linalg.matrix_rank(G) == G.shape[1]:
            return np.zeros(len(U))
        z = np.linalg.lstsq((D * G).T, -(D * Ub).T, rcond=None)[0]
        return np.linalg.norm(D * (Ub + z.T @ G), axis=1)

    U, target = _audit_rows(rng, F, min_gauge)
    missed = _sections_missed(body, U + v, F)
    for u, decided in zip(U + v, missed):
        if decided:
            assert _form_minimum(inv2, [image(f) for f in F] if wrap == "cylinder" else F, image(u)) > LEVEL * LEVEL
    assert missed[target > 1.01].all()
    if wrap == "cylinder":
        assert not _sections_missed(body, U, _orthonormal_rows(2, n + 1, 0)).any()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 4), n_faces=st.integers(1, 12), cylinder=st.booleans())
def test_halfspace_sections_are_never_decided(seed, n, n_faces, cylinder):
    # one face makes a halfspace; with `cylinder`, on a cylinder over the
    # polytope (a polygon at n = 2, a strip over an interval or a half-line
    # at n = 1). No line or plane section is proved empty, near or far:
    # faces decide bisection steps, not sections
    n = n if cylinder else max(n, 2)
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n_faces, n))
    body = cg.polytope([{"normal": a, "offset": c} for a, c in zip(A, rng.uniform(0.3, 1.5, n_faces))])
    if cylinder:
        body = _cylinder_of(body, rng)[0]
    assert body.certificate is not None
    U = rng.standard_normal((40, body.dim)) * 10.0 ** rng.uniform(-1.0, 3.0, (40, 1))
    for m in range(1, min(body.dim, 3)):
        assert not _sections_missed(body, U, _orthonormal_rows(m, body.dim, int(rng.integers(0, 1000)))).any()
    # lines parallel to a halfspace's face, far outside it
    halfspace = cg.halfspace([0.6, 0.8, 0.0], 0.5)
    U = np.outer(np.linspace(1.0, 40.0, 30), [0.6, 0.8, 0.0])
    assert not _sections_missed(halfspace, U, np.array([[0.8, -0.6, 0.0]])).any()


def test_empty_sections_near_the_support_are_proved(monkeypatch):
    # the benchmark's seed-1 surface call (boundary workload): every empty
    # plane and line of its ellipsoid, the nearest 0.2% above the support,
    # is proved empty, so no golden search runs, and the measure is that of
    # the full sweeps
    s = np.array([0.828637, 1.310211, 0.921074])
    body = cg.ellipsoid(s)
    Y = np.outer(s[2] * np.linspace(1.002, 1.4, 50), [0.0, 0.0, 1.0])
    assert _sections_missed(body, Y, np.eye(3)[[0, 1]]).all()
    searches = _recorded_golden(monkeypatch)
    budget = {"subspace_samples": 80, "inner_angles": 256, "inner_sphere_grid": (12, 24)}
    for F in (np.eye(3)[[0]], np.eye(3)[[0, 1]]):
        est = cg.subspace_hausdorff(body, F, budget=budget, seed=127943183)
        assert searches == []
        with monkeypatch.context() as patch:
            patch.setattr(graphs, "_sections_missed", lambda body, U, F: np.zeros(U.shape[0], dtype=bool))
            ref = cg.subspace_hausdorff(body, F, budget=budget, seed=127943183)
        assert searches and (est.value, est.std_error) == (ref.value, ref.std_error)
        searches.clear()


def test_gradient_check_near_the_rim_equals_full_golden_search(monkeypatch):
    # sections along e3 are centred at t = 0.25, between the section probe's
    # grid points, so the thin ones near the projected rim need the golden
    # search; at phi = 0.004 some stencil points leave the projected domain.
    # The translate's certificate proves the missed sections empty, so its
    # from_oracle twin, which has none, shows the golden search missing them
    wrapper = cg.translate(cg.ellipsoid([1.2, 0.9, 0.7]), [0.3, -0.2, 0.25])
    body = _oracle_twin(wrapper)
    assert not body.centre.any()
    phi = np.array([0.004, 0.004, 0.01, 0.02, 0.04, 0.06])
    theta = np.linspace(0.3, 5.9, phi.size)
    X = np.array([0.3, -0.2, 0.25]) + np.stack(
        [1.2 * np.cos(phi) * np.cos(theta), 0.9 * np.cos(phi) * np.sin(theta), 0.7 * np.sin(phi)],
        axis=-1,
    )
    pair = cg.decompose(body, E3_3)
    rows = {"found": 0, "missed": 0}
    search = graphs._golden_min_gauge

    def recorded(body, Y, h):
        t, q = search(body, Y, h)
        rows["found"] += int(np.sum(q < 1.0 - 1e-12))
        rows["missed"] += int(np.sum(q >= 1.0))
        return t, q

    monkeypatch.setattr(graphs, "_golden_min_gauge", recorded)
    errs = cg.gradient_formula_check(pair, X)
    assert rows["found"] > 0 and rows["missed"] > 0
    # the translate proves the missed sections empty and gives the same errors
    rows["missed"] = 0
    assert np.array_equal(cg.gradient_formula_check(cg.decompose(wrapper, E3_3), X), errs, equal_nan=True)
    assert rows["missed"] == 0
    _reference_sections(monkeypatch)
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
    assert np.array_equal(body.distance_outside(x), _dykstra_reference(A, c, x))


# ------------------------------------------------ content-route screen


def _screen_body(kind, seed):
    """One body of the content-route screen tests, built from a seed."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 5))
    if kind == "polytope":
        # offsets as in the Dykstra test above: some bodies are centred off the origin
        n_faces = int(rng.integers(dim + 1, 11))
        normals = rng.standard_normal((n_faces, dim))
        offsets = rng.uniform(0.3, 1.5, n_faces)
        return cg.polytope([{"normal": a, "offset": c} for a, c in zip(normals, offsets)])
    if kind == "ellipsoid":
        return cg.ellipsoid(rng.uniform(0.3, 2.0, dim))
    if kind == "translated_ellipsoid":
        s = rng.uniform(0.5, 2.0, dim)
        v = rng.standard_normal(dim)
        return cg.translate(cg.ellipsoid(s), 0.6 * s.min() * v / np.linalg.norm(v))
    if kind == "slab":
        return cg.slab(rng.standard_normal(dim), rng.uniform(0.2, 1.5))
    if kind == "halfspace":
        return cg.halfspace(rng.standard_normal(dim), rng.uniform(0.01, 0.1))
    base = cg.ellipsoid(rng.uniform(0.3, 2.0, dim - 1))
    return cg.cylinder(base, rng.standard_normal(dim))


SCREEN_KINDS = ["polytope", "ellipsoid", "translated_ellipsoid", "slab", "halfspace", "cylinder"]


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(SCREEN_KINDS), seed=st.integers(0, 2**32 - 1))
def test_content_screen_equals_distances_of_every_draw(kind, seed):
    body = _screen_body(kind, seed)
    rows = []

    def distance(x):
        rows.append(len(x))
        return body.distance_outside(x)

    budget, seed = surface.Budget(samples=6000), seed % 1000
    counted = dataclasses.replace(body, distance_outside=distance)
    est = cg.minkowski_content_perimeter(counted, budget=budget, seed=seed)
    # the unscreened reference: a membership oracle that keeps every draw,
    # so each draw gets a distance, counted into the same shells
    everything = dataclasses.replace(body, contains=lambda x: np.ones(np.shape(x)[:-1], dtype=bool))
    ref = cg.minkowski_content_perimeter(everything, budget=budget, seed=seed)
    assert est.value == ref.value
    assert est.std_error == ref.std_error
    assert est.details == ref.details
    # on the same draws: only those the screen keeps got a distance, and
    # every draw closer than max(eps) is one of them
    x = cg.space.sample_gaussian(body.dim, budget.samples, seed)
    eps = max(budget.epsilons)
    c = body.centre
    kept = body.contains(c + (x - c) / (1.0 + 2.0 * eps / body.centre_margin))
    assert sum(rows) == int(np.count_nonzero(kept))
    near = body.distance_outside(x) < eps
    assert near.any()
    assert kept[near].all()


# ------------------------------------------------- known-infinite section ends


# an unbounded polytope with one infinite graph along e2
WEDGE = cg.polytope([{"normal": [1.0, 0.2, 0.0], "offset": 0.8}, {"normal": [-0.3, 1.0, 0.0], "offset": 1.1}])


@pytest.mark.parametrize(
    "body, h, infinite_ends",
    [
        (cg.halfspace([1.0, -0.5, 0.3], 0.7), [0.6, 0.0, 0.8], 1),
        (cg.halfspace([0.2, 0.4, 0.1, -0.9], 0.4), [0.0, 0.0, 0.0, -1.0], 1),
        (WEDGE, [0.0, 1.0, 0.0], 1),
        (cg.cylinder(cg.ellipsoid([1.1, 0.8]), [0.0, 0.0, 1.0]), [0.0, 0.0, 1.0], 2),
    ],
)
def test_known_infinite_section_ends_skip_their_search(body, h, infinite_ends):
    calls = []  # rows of each membership call

    def contains(x):
        calls.append(np.size(x) // body.dim)
        return body.contains(x)

    counted = dataclasses.replace(body, contains=contains)
    pair = cg.decompose(counted, h, seed=2)
    rng = np.random.default_rng(5)
    X = 3.0 * rng.standard_normal((400, body.dim))
    Y = X - np.outer(X @ pair.direction, pair.direction)
    calls.clear()
    g, f = pair.ends(Y)
    with_case = list(calls)
    calls.clear()
    lower, upper, _ = graphs._section_endpoints(counted, pair.direction, Y)
    # the same ends bit for bit, with one far-point pass fewer per infinite end
    assert np.array_equal(g, lower, equal_nan=True)
    assert np.array_equal(f, upper, equal_nan=True)
    nonempty = ~np.isnan(g)
    assert nonempty.any()
    assert np.all(np.isinf(g[nonempty]).astype(int) + np.isinf(f[nonempty]) == infinite_ends)
    assert len(calls) - len(with_case) == infinite_ends
    assert sum(calls) - sum(with_case) == infinite_ends * int(np.count_nonzero(nonempty))


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
