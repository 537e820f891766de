import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import convexgauss as cg
from convexgauss.errors import DomainError, ParameterError


def test_density_at_origin_1d():
    assert cg.gaussian_density(1, [0.0]) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-15)


def test_density_at_one_1d():
    assert cg.gaussian_density(1, [1.0]) == pytest.approx(
        math.exp(-0.5) / math.sqrt(2 * math.pi), abs=1e-15
    )


def test_density_origin_2d():
    assert cg.gaussian_density(2, [0.0, 0.0]) == pytest.approx(1.0 / (2 * math.pi), abs=1e-15)


def test_density_rejects_nonfinite():
    with pytest.raises(DomainError):
        cg.gaussian_density(1, [np.nan])


def test_density_normalizes_to_one():
    # non-circular check: 1-d trapezoid of the density over [-12, 12], then
    # tensor powers for m = 2, 3
    z = np.linspace(-12.0, 12.0, 240_001)
    one_d = np.trapezoid(cg.gaussian_density(1, z[:, None]), z)
    for m in (1, 2, 3):
        assert one_d**m == pytest.approx(1.0, abs=1e-10)


def test_gauss_hermite_weights_normalized():
    for m in (1, 2, 3):
        _, w = cg.gauss_hermite_nodes(32, m)
        assert float(np.sum(w)) == pytest.approx(1.0, abs=1e-12)


def test_split_axis_aligned():
    y, t = cg.split_along([3.0, 4.0], [1.0, 0.0])
    assert t == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(y, [0.0, 4.0], atol=1e-12)


def test_split_x_equals_h():
    h = np.array([0.6, 0.8])
    y, t = cg.split_along(h, h)
    assert t == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(y, 0.0, atol=1e-12)


def test_split_parallel_diagonal():
    h = np.array([1.0, 1.0]) / math.sqrt(2)
    y, t = cg.split_along([1.0, 1.0], h)
    assert t == pytest.approx(math.sqrt(2), abs=1e-12)
    assert np.allclose(y, 0.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=2, max_size=6))
def test_split_is_isometric(coords):
    x = np.asarray(coords)
    n = len(coords)
    h = np.zeros(n)
    h[0] = 0.6
    h[1] = 0.8
    y, t = cg.split_along(x, h)
    assert abs(float(x @ x) - (float(y @ y) + t * t)) <= 1e-10
    assert np.allclose(y + t * h, x, atol=1e-12)
    assert abs(float(y @ h)) <= 1e-12


def test_adjoint_constant():
    psi = cg.constant(1.0)
    x = np.array([2.5, -0.3, 0.7])
    val = cg.adjoint_derivative(psi, [1.0, 0.0, 0.0], x)
    assert val == pytest.approx(-2.5, abs=1e-12)


def test_adjoint_linear_coordinate():
    # psi(x) = <h, x>: adjoint value is 1 - t^2 at <h,x> = t
    h = np.array([1.0, 0.0])
    psi = cg.coordinate(0)
    for t in (-1.3, 0.0, 0.4, 2.0):
        x = np.array([t, 0.8])
        assert cg.adjoint_derivative(psi, h, x) == pytest.approx(1 - t * t, abs=1e-10)


def test_adjoint_tanh_matches_finite_difference():
    psi_analytic = cg.tanh_of([1.0, 0.0])
    psi_fd = cg.TestFunction(
        evaluator=psi_analytic.evaluator, lipschitz_bound=1.0, name="tanh-fd"
    )
    x = np.zeros(2)
    h = np.array([1.0, 0.0])
    val = cg.adjoint_derivative(psi_analytic, h, x)
    # independent oracle: central finite difference with step 1e-5
    fd = (math.tanh(1e-5) - math.tanh(-1e-5)) / 2e-5
    assert val == pytest.approx(1.0, abs=1e-12)
    assert cg.adjoint_derivative(psi_fd, h, x, fd_step=1e-5) == pytest.approx(fd, abs=1e-12)


def test_adjoint_rejects_bad_step():
    with pytest.raises(ParameterError):
        cg.adjoint_derivative(cg.constant(), [1.0, 0.0], np.zeros(2), fd_step=0.0)


def test_sampler_mean_within_clt_bound():
    n = 10**6
    x = cg.sample_gaussian(3, n, seed=42)
    bound = 4.0 / math.sqrt(n)
    assert np.all(np.abs(x.mean(axis=0)) < bound)


def test_sampler_deterministic_and_thread_invariant():
    a = cg.sample_gaussian(4, 200_000, seed=7)
    b = cg.sample_gaussian(4, 200_000, seed=7)
    c = cg.sample_gaussian(4, 200_000, seed=7, threads=4)
    assert np.array_equal(a, b)
    assert np.array_equal(a, c)


def test_whole_space_integration_by_parts():
    # cylindrical smooth phi, psi: E[phi d_h psi] = -E[psi (d_h phi - phi h(x))]
    phi = cg.tanh_of([1.0, 0.0, 0.0])
    psi = cg.tanh_of([0.5, 0.5, 0.0], offset=0.3)
    h = np.array([1.0, 0.0, 0.0])
    n = 400_000
    xa = cg.sample_gaussian(3, n, seed=101)
    xb = cg.sample_gaussian(3, n, seed=202)

    lhs_vals = phi(xa) * ((1 - psi(xa) ** 2) * 0.5)  # d_h psi = sech^2 * w_1
    rhs_vals = -psi(xb) * cg.adjoint_derivative(phi, h, xb)
    se = math.hypot(
        np.std(lhs_vals) / math.sqrt(n), np.std(rhs_vals) / math.sqrt(n)
    )
    assert abs(lhs_vals.mean() - rhs_vals.mean()) <= 3.0 * se


def test_direction_validation():
    with pytest.raises(DomainError):
        cg.as_direction([1.0, 1.0])
    v = cg.normalize_direction([3.0, 4.0])
    assert np.allclose(v, [0.6, 0.8])
