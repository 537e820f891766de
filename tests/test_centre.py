"""Bodies whose certified ball leaves the origin no margin.

Such a body stays where its spec puts it, and its gauge is the Minkowski
functional with respect to its centre, an inner point off the origin. The
values here are checked against closed forms and quadrature, and the
paper's P(Omega, .) against a change of the inner point alone, which needs
no reference.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

import convexgauss as cg
from convexgauss.cli import RunConfig, run
from convexgauss.errors import OracleIntegrityError

# Gaussian perimeters of unit disks, by scipy.integrate.quad of the 2-d
# Gaussian density along the circle: about (3, 0) and about (0.5, 0)
DISK_AT_3 = 0.03288652175708784
DISK_AT_HALF = 0.5692416282291917
PHI_HALF = math.exp(-0.125) / math.sqrt(2.0 * math.pi)  # standard normal density at 0.5
DISK_AT_3_SPEC = {"shape": "ball", "radius": 1.0, "translate": [3.0, 0.0]}
E2 = np.array([0.0, 1.0])


def test_translated_disk_graph_and_content_routes():
    body = cg.load_body_spec(DISK_AT_3_SPEC, dim=2)
    assert np.array_equal(body.centre, [3.0, 0.0])
    graph = cg.total_boundary_measure(cg.decompose(body, E2))
    assert graph.method == "polar"
    assert graph.value == pytest.approx(DISK_AT_3, rel=1e-4)
    content = cg.minkowski_content_perimeter(body, seed=0)
    assert abs(content.value - DISK_AT_3) < 3.0 * content.std_error


def test_translated_disk_perimeter_record(tmp_path):
    config = RunConfig.from_dict(
        {"model": {"dim": 2}, "body": DISK_AT_3_SPEC, "directions": {"h": [0.0, 1.0]}, "seed": 21}
    )
    assert run("perimeter", config, tmp_path) == 0
    record = json.loads((tmp_path / config.outputs["report"]).read_text())["results"][0]
    assert record["verdict"] == "pass"
    assert record["lhs"] == pytest.approx(DISK_AT_3, rel=1e-4)


def test_translated_disk_ray_cast_and_gradient_formula():
    # rays from the centre (3, 0) end on the circle, 2 pi times their mean
    # weight estimates the perimeter, and the gauge-gradient formula about
    # the centre matches the finite-difference gradient
    from convexgauss.graphs import ray_cast_boundary

    body = cg.load_body_spec(DISK_AT_3_SPEC, dim=2)
    b, nu, w = ray_cast_boundary(body, 2000, 0)
    assert np.allclose(np.linalg.norm(b - [3.0, 0.0], axis=1), 1.0, rtol=0.0, atol=1e-12)
    mean, se = 2.0 * math.pi * np.mean(w), 2.0 * math.pi * np.std(w) / math.sqrt(len(w))
    assert abs(mean - DISK_AT_3) < 3.0 * se
    errs = cg.gradient_formula_check(cg.decompose(body, E2), b[np.abs(nu[:, 1]) > 0.3][:8])
    assert np.all(errs < 1e-6)


def test_halfspace_with_negative_offset_matches_phi():
    # <a, x> < -0.5: its Gaussian perimeter is phi(0.5), and so is either
    # side of the identity with psi = 1 and k = a, E[-<a, x>; <a, x> < -0.5]
    a = np.array([0.6, 0.0, 0.8])
    body = cg.halfspace(a, -0.5)
    assert body.centre.any() and body.certificate is not None
    pair = cg.decompose(body, a)
    assert cg.total_boundary_measure(pair).value == pytest.approx(PHI_HALF, abs=1e-9)
    report = cg.verify_ibp(pair, cg.constant(1.0), a, budget={"samples": 200_000}, seed=3)
    assert report.rhs.value == pytest.approx(PHI_HALF, abs=1e-9)
    assert abs(report.lhs.value - PHI_HALF) <= 3.0 * report.lhs.std_error
    assert report.verdict == "pass"


def test_from_oracle_rejects_an_interior_point_outside_the_body():
    disk = lambda x: np.linalg.norm(np.asarray(x, float) - [3.0, 0.0], axis=-1) < 1.0
    with pytest.raises(OracleIntegrityError):
        cg.from_oracle(disk, [5.0, 0.0], 0.5)


def test_perimeter_and_ibp_do_not_depend_on_the_inner_point():
    # one disk about (0.5, 0), once with its centre at the origin and once
    # at (0.9, 0); the measured gaps are 1.1e-5 relative on the perimeter
    # and 5e-5 relative on the right side
    at_origin = cg.translate(cg.ball(1.0, 2), [0.5, 0.0])
    inner = cg.from_oracle(at_origin.contains, [0.9, 0.0], 0.1, outer_radius=1.5)
    assert not at_origin.centre.any()
    assert np.array_equal(inner.centre, [0.9, 0.0])
    psi, k = cg.tanh_of([0.7, -0.4], 0.2), np.array([0.6, 0.8])
    perimeters, sides = [], []
    for body in (at_origin, inner):
        pair = cg.decompose(body, E2)
        perimeters.append(cg.total_boundary_measure(pair).value)
        sides.append(cg.rhs_surface_integral(pair, psi, k).value)
    assert perimeters == pytest.approx([DISK_AT_HALF] * 2, rel=3e-5)
    assert abs(perimeters[0] - perimeters[1]) <= 2e-5 * DISK_AT_HALF
    assert abs(sides[0] - sides[1]) <= 1e-4 * abs(sides[0])
    # a wrapper of the oracle keeps the centre, and every bit of the value
    wrapped = dataclasses.replace(inner, contains=lambda x: inner.contains(x))
    assert np.array_equal(wrapped.centre, inner.centre)
    assert cg.total_boundary_measure(cg.decompose(wrapped, E2)).value == perimeters[1]
