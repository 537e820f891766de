"""Closed forms of face bodies against their membership-only twins.

Every body with faces takes its gauge from them (bodies._exact_gauge), and
a bounded polytope, or a translate of one, its section ends, ray exits and
line minima too (bodies._exact_faces), each block of rows checked by one
membership call. The twin dataclasses.replace(body, certificate=None) is
the same set with no closed form, whose searches bisect; the values agree
within those searches' tolerances. On every other face body (a halfspace,
a slab, an unbounded polytope, a cylinder) the section and ray searches
still bisect, and the certificate only decides their steps: from the same
inside points they equal the twin's bit for bit.
"""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import convexgauss as cg
import convexgauss.bodies as bodies
import convexgauss.graphs as graphs
import convexgauss.surface as surface
from convexgauss.bodies import bisect, minkowski_functional
from convexgauss.cli import main
from convexgauss.errors import OracleIntegrityError


def _membership_only(body):
    return dataclasses.replace(body, certificate=None)


def _lines(body, rng, rows):
    n = body.dim
    h = rng.standard_normal(n)
    h /= np.linalg.norm(h)
    Y = body.centre + rng.uniform(0.0, 1.2) * body.outer_radius * rng.standard_normal((rows, n)) / np.sqrt(n)
    return Y - np.outer((Y - body.centre) @ h, h), h


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5), shift=st.booleans())
@example(seed=1000, n=2, shift=False)  # random_polytope(2, 5, 521), whose block extent LP ends unsolved
def test_exact_faces_agree_with_membership_only_twin(seed, n, shift):
    rng = np.random.default_rng(seed)
    body = cg.random_polytope(n, int(rng.integers(n + 1, 14)), int(rng.integers(0, 1000)))
    if shift:
        body = cg.translate(body, rng.uniform(-4.0, 4.0, n))
    assert bodies._exact_faces(body) is not None
    twin = _membership_only(body)
    Y, h = _lines(body, rng, 40)
    lo, hi, met = graphs._section_endpoints(body, h, Y)
    lo_t, hi_t, met_t = graphs._section_endpoints(twin, h, Y)
    # the same rows are empty, and the ends of the others agree within the
    # twin's bisection tolerance (1e-12) and a few of its roundings
    assert np.array_equal(met, met_t)
    assert np.all(np.isnan(lo[~met])) and np.all(np.isnan(hi[~met]))
    assert np.all(np.abs(lo - lo_t)[met] <= 1e-10) and np.all(np.abs(hi - hi_t)[met] <= 1e-10)
    # gauges within 1e-11 relative of the twin's bisection at tolerance 1e-13
    X = body.centre + 2.0 * rng.standard_normal((60, n))
    q, q_t = minkowski_functional(body, X), minkowski_functional(twin, X, tol=1e-13)
    assert np.all(np.abs(q - q_t) <= 1e-11 * q_t)
    # ray lengths of the subspace route from inside points, one direction a row
    U = rng.standard_normal((50, n))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    C = body.centre + 0.5 * body.centre_margin * U[::-1]
    reach = body.reach * (1.0 + 1e-9) + 1.0
    r, r_t = surface._section_dir_bisect(body, C, U, reach), surface._section_dir_bisect(twin, C, U, reach)
    assert np.all(np.abs(r - r_t) <= 1e-12)


def test_section_ends_of_a_box_are_its_faces():
    # lines along (0.6, 0.8, 0) through the box |x1| < 1, |x2| < 0.5, |x3| < 2
    box = cg.polytope(
        [{"normal": sign * e, "offset": w} for e, w in zip(np.eye(3), (1.0, 0.5, 2.0)) for sign in (1.0, -1.0)]
    )
    h = np.array([0.6, 0.8, 0.0])
    Y = np.array([[0.0, 0.0, 0.0], [0.8, -0.6, 1.0], [0.0, 0.0, 2.5], [4.0, -3.0, 0.0]])
    lo, hi, met = graphs._section_endpoints(box, h, Y)
    assert met.tolist() == [True, True, False, False]
    # the first line leaves through x2 = +-0.5 at t = +-0.625; the second
    # enters through x2 = -0.5 at t = 0.125 and leaves through x1 = 1 at t = 1/3
    assert lo[:2] == pytest.approx([-0.625, 0.125], rel=1e-15)
    assert hi[:2] == pytest.approx([0.625, 1.0 / 3.0], rel=1e-15)


def _unbounded_polytope(rng, n):
    """3 to 6 faces whose normals all have a last coordinate below 0, so
    that e_n is a recession direction."""
    A = rng.standard_normal((int(rng.integers(3, 7)), n))
    A[:, -1] = -np.abs(A[:, -1])
    return cg.polytope([{"normal": a, "offset": c} for a, c in zip(A, rng.uniform(0.5, 1.5, len(A)))])


_BAND_BODIES = {
    "halfspace": lambda rng: cg.halfspace(rng.standard_normal(3), rng.uniform(0.2, 2.0)),
    # its certified ball leaves the origin no margin: gauges are taken about
    # a centre off the origin
    "off_centre_halfspace": lambda rng: cg.halfspace(rng.standard_normal(3), -rng.uniform(0.2, 2.0)),
    "slab": lambda rng: cg.slab(rng.standard_normal(3), rng.uniform(0.2, 2.0)),
    "unbounded_polytope": lambda rng: _unbounded_polytope(rng, 3),
    "translated_slab": lambda rng: cg.translate(cg.slab(rng.standard_normal(3), 0.8), rng.uniform(-1.5, 1.5, 3)),
    "polygon_cylinder": lambda rng: cg.cylinder(
        cg.random_polytope(2, int(rng.integers(3, 9)), int(rng.integers(1000))), rng.standard_normal(3)
    ),
}


def _with_offsets(body, offsets):
    """The contains of the body with its face offsets replaced, under the
    same shift or projection."""
    cert = body.certificate
    base = cg.polytope([{"normal": a, "offset": c} for a, c in zip(cert.A, offsets)])
    if cert.map is None:
        return base.contains
    return (cg.translate(base, cert.map) if cert.map.ndim == 1 else cg.cylinder(base, body.spec["axis"])).contains


def _far_polytope(s):
    return cg.translate(cg.random_polytope(3, 10, 4), [s, 0.3 * s, 0.0])


@pytest.mark.parametrize("s", [1e2, 1e8])
def test_closed_forms_hold_far_from_the_origin(s):
    # the oracle rounds x - v by about 1e-8 at s = 1e8: the check's margin
    # grows with |v|, and the values are those of the polytope shifted by
    # s = 10, both taken about the ball centre, within that rounding
    near, far = _far_polytope(10.0), _far_polytope(s)
    v = far.centre - near.centre
    rng = np.random.default_rng(5)
    h = np.array([0.0, 0.0, 1.0])
    Y = near.centre + 0.6 * rng.standard_normal((50, 3))
    Y[:, 2] = near.centre[2]
    tol = 1e-13 + 2e-15 * s
    t, q = graphs._golden_min_gauge(far, Y + v, h)
    t0, q0 = graphs._golden_min_gauge(near, Y, h)
    assert np.all(np.abs(q - q0) <= tol) and np.all(np.abs(t - t0) <= tol * np.maximum(1.0, np.abs(t0)) / q0.min())
    lo, hi, met = graphs._section_endpoints(far, h, Y + v)
    lo0, hi0, met0 = graphs._section_endpoints(near, h, Y)
    assert np.array_equal(met, met0) and 10 < met.sum() < 50
    assert np.all(np.abs(lo - lo0)[met] <= tol * 1e3) and np.all(np.abs(hi - hi0)[met] <= tol * 1e3)
    X = near.centre + 2.0 * rng.standard_normal((50, 3))
    assert np.all(np.abs(minkowski_functional(far, X + v) - minkowski_functional(near, X)) <= tol * 1e3)


@pytest.mark.parametrize("s", [0.0, 1e8])
@pytest.mark.parametrize("scale", [0.9, 1.1])
def test_closed_forms_check_the_oracle(s, scale):
    # a substitute oracle for a shrunken or grown polytope, swapped in with
    # dataclasses.replace, disagrees with the faces at every closed form
    body = _far_polytope(s)
    other = dataclasses.replace(body, contains=_with_offsets(body, scale * body.certificate.c))
    rng = np.random.default_rng(6)
    h = np.array([0.48, -0.6, 0.64])
    Y = body.centre + 0.5 * rng.standard_normal((30, 3))
    Y -= np.outer((Y - body.centre) @ h, h)
    X = body.centre + 0.8 * rng.standard_normal((30, 3))
    U = rng.standard_normal((30, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    C = np.repeat(body.centre[None], 30, axis=0)
    searches = [
        lambda b: graphs._golden_min_gauge(b, Y, h),
        lambda b: graphs._section_endpoints(b, h, Y),
        lambda b: minkowski_functional(b, X),
        lambda b: surface._section_dir_bisect(b, C, U, body.reach + 1.0),
    ]
    for search in searches:
        search(body)
        with pytest.raises(OracleIntegrityError):
            search(other)
    # a halfspace and a polygon cylinder take their gauges alone from the
    # faces, which catch an oracle whose offsets are 1e-6 larger (smaller at
    # scale 0.9)
    for kind in ("halfspace", "polygon_cylinder"):
        body = _BAND_BODIES[kind](rng)
        other = dataclasses.replace(body, contains=_with_offsets(body, body.certificate.c + np.copysign(1e-6, scale - 1.0)))
        X = body.centre + 2.0 * rng.standard_normal((30, 3))
        minkowski_functional(body, X)
        with pytest.raises(OracleIntegrityError):
            minkowski_functional(other, X)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("kind", sorted(_BAND_BODIES))
def test_face_bodies_on_the_band_search_like_their_twins(kind, seed):
    # gauges are the faces' closed form, within the twin's bisection at
    # tolerance 1e-13 and zero on the same rows; the certificate decides a
    # line step's rows only where the oracle would answer alike, so from
    # the same inside points the section ends and the subspace route's exits
    # bisect as the twin's do, bit for bit. The golden sweeps that find
    # inside points read the exact gauges, which moves the ends within the
    # sections' tolerance, and the subspace measure within 1e-12
    rng = np.random.default_rng(seed)
    body = _BAND_BODIES[kind](rng)
    assert body.certificate is not None and bodies._exact_faces(body) is None
    assert kind != "off_centre_halfspace" or body.centre.any()
    twin = _membership_only(body)
    h = rng.standard_normal(3)
    h /= np.linalg.norm(h)
    Y = body.centre + 2.0 * rng.standard_normal((60, 3))
    Y -= np.outer((Y - body.centre) @ h, h)
    for end, end_t in zip(cg.decompose(body, h).ends(Y), cg.decompose(twin, h).ends(Y)):
        finite = np.isfinite(end_t)
        assert np.array_equal(np.isfinite(end), finite) and np.array_equal(end[~finite], end_t[~finite], equal_nan=True)
        assert np.all(np.abs(end[finite] - end_t[finite]) <= 1e-10)
    t_in = graphs._inside_points(twin, Y, h[None])[:, 0]
    met = np.isfinite(t_in)
    T = body.reach * (1.0 + 1e-9)
    for far in (T, -T):
        end, end_t = (graphs._bisect_endpoint(b, Y[met], h, t_in[met], far, graphs.DEFAULT_SECTION_TOL) for b in (body, twin))
        assert np.array_equal(end, end_t)
    # one direction a row: the subspace route's exits from inside points
    U = rng.standard_normal((60, 3))
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    C = body.centre + 0.5 * body.centre_margin * U[::-1]
    reach = body.reach * (1.0 + 1e-9) + 1.0
    assert np.array_equal(surface._section_dir_bisect(body, C, U, reach), surface._section_dir_bisect(twin, C, U, reach))
    X = body.centre + 3.0 * rng.standard_normal((60, 3))
    q, q_t = minkowski_functional(body, X), minkowski_functional(twin, X, tol=1e-13)
    assert np.array_equal(q == 0.0, q_t == 0.0)
    assert np.all(np.abs(q - q_t) <= 1e-11 * np.maximum(1.0, q))
    budget = {"subspace_samples": 40, "inner_angles": 64}
    est, est_t = (cg.subspace_hausdorff(b, np.eye(3)[[0]], budget=budget, seed=seed) for b in (body, twin))
    assert est.value == pytest.approx(est_t.value, rel=1e-12, abs=0.0)
    assert est.std_error == pytest.approx(est_t.std_error, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", sorted(_BAND_BODIES))
def test_face_body_gauges_run_no_bisection(monkeypatch, kind):
    calls = []
    monkeypatch.setattr(bodies, "bisect", lambda *a, **k: calls.append(1) or bisect(*a, **k))
    body = _BAND_BODIES[kind](np.random.default_rng(4))
    q = minkowski_functional(body, body.centre + 2.0 * np.random.default_rng(5).standard_normal((40, 3)))
    assert not calls and np.all(np.isfinite(q)) and np.any(q > 0.0)


def test_face_gauges_vanish_on_the_recession_cone():
    # |<a, x>| < 1 about the origin on its mid-plane <a, x> = 0, whose points
    # 2^j (a_2, -a_1, 0) + z e_3 have products that cancel exactly, and
    # <a, x> < -0.5 about an inner point c off the origin where <a, x - c> <= 0
    a = np.array([0.6, 0.8, 0.0])
    rng = np.random.default_rng(2)
    plane = 2.0 ** rng.integers(-3, 4, (30, 1)) * [0.8, -0.6, 0.0] + rng.standard_normal((30, 1)) * [0.0, 0.0, 1.0]
    slab = cg.slab(a, 1.0)
    assert np.all(bodies._face_products(plane, slab.certificate.A) == 0.0)
    assert np.all(minkowski_functional(slab, plane) == 0.0)
    half = cg.halfspace(a, -0.5)
    c = half.centre
    behind = c + plane - rng.uniform(0.1, 3.0, (30, 1)) * a
    assert c.any() and np.all(bodies._face_products(behind - c, a) <= 0.0)
    assert np.all(minkowski_functional(half, behind) == 0.0)


@pytest.mark.parametrize(
    "subcommand, fields",
    [
        ("perimeter", {"directions": {"h": [0.48, -0.6, 0.64]}, "budgets": {"angles": 48, "radial": 6, "samples": 5000}}),
        ("gradcheck", {"directions": {"h": [0.48, -0.6, 0.64]}, "budgets": {"boundary_samples": 24}}),
        ("surface", {"subspaces": [[0], [0, 1]], "budgets": {"subspace_samples": 60, "inner_angles": 64}}),
    ],
    ids=["perimeter", "gradcheck", "surface"],
)
def test_bounded_polytope_cli_calls_run_no_search(tmp_path, monkeypatch, subcommand, fields):
    # no bisection and no golden-section step runs on a bounded polytope,
    # plain or translated
    counts = {"bisect": 0, "golden": 0}

    def counting(name, fn):
        return lambda *a, **k: counts.__setitem__(name, counts[name] + 1) or fn(*a, **k)

    for module in (bodies, graphs):
        monkeypatch.setattr(module, "bisect", counting("bisect", bodies.bisect))
    monkeypatch.setattr(graphs, "_probe_tree", counting("golden", graphs._probe_tree))
    for translate in (None, [0.2, -0.1, 0.15]):
        body = {"shape": "random_polytope", "faces": 10, "seed": 4}
        if translate is not None:
            body["translate"] = translate
        cfg = {"model": {"dim": 3}, "body": body, "seed": 3, **fields}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main([subcommand, "--config", str(path), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["results"]
    assert counts == {"bisect": 0, "golden": 0}
