"""Ray exits of bounded quadratics from their closed-form root.

On a ball, an ellipsoid, a kl_ellipsoid and a translate of one, the
subspace route's ray exits (surface._section_dir_bisect) take the larger
root of q(P + t u) = 1 and walk from it to the float pair where `contains`
flips (bodies._quadratic_exit). The membership-only twin,
dataclasses.replace(body, certificate=None), bisects the same rays to
adjacent floats. Near the boundary the float oracle can flip more than
once along an oblique ray, so the two may end at different flips a few
ulps apart; along a coordinate axis it flips once and they agree bit for
bit.
"""

import dataclasses

import numpy as np
import pytest

import convexgauss as cg
import convexgauss.bodies as bodies
import convexgauss.surface as surface
from convexgauss.errors import OracleIntegrityError

_QUADRATICS = {
    "ball": lambda n: cg.ball(1.3, n),
    "ellipsoid": lambda n: cg.ellipsoid(np.linspace(0.6, 1.4, n)),
    "kl_ellipsoid": lambda n: cg.kl_ellipsoid(n, 0.8),
    "translated_ellipsoid": lambda n: cg.translate(cg.ellipsoid(np.linspace(1.4, 0.6, n)), np.full(n, 0.15)),
    "translated_ball": lambda n: cg.translate(cg.ball(0.9, n), np.linspace(-0.3, 0.3, n)),
}


def _rays(body, rng, rows, one_direction=False, axis=False):
    n = body.dim
    if axis:
        U = np.zeros((rows, n))
        U[np.arange(rows), rng.integers(0, n, rows)] = rng.choice([-1.0, 1.0], rows)
    else:
        U = rng.standard_normal((1 if one_direction else rows, n))
        U /= np.linalg.norm(U, axis=1, keepdims=True)
    X = body.centre + 0.9 * body.centre_margin * rng.uniform(-1.0, 1.0, (rows, n)) / np.sqrt(n)
    return X, U[0] if one_direction else U


def _exits(body, X, U):
    # a search radius past every exit from an inside point, so none is clipped
    return surface._section_dir_bisect(body, X, U, 2.0 * body.reach + 1.0)


def _is_flip_midpoint(body, X, U, t):
    # t is 0.5 (lo + hi) of adjacent floats lo < hi with lo inside and hi
    # outside; that midpoint rounds to lo or to hi
    def inside(s):
        return body.contains(X + s[:, None] * U)

    up, down = np.nextafter(t, np.inf), np.nextafter(t, -np.inf)
    as_lo = inside(t) & ~inside(up) & (0.5 * (t + up) == t)
    as_hi = inside(down) & ~inside(t) & (0.5 * (down + t) == t)
    return as_lo | as_hi


@pytest.mark.parametrize("one_direction", [False, True], ids=["direction_per_row", "one_direction"])
@pytest.mark.parametrize("n", [2, 3, 5, 9])
@pytest.mark.parametrize("kind", sorted(_QUADRATICS))
def test_snapped_exits_are_oracle_flips_near_the_twins_bisection(kind, n, one_direction):
    body = _QUADRATICS[kind](n)
    twin = dataclasses.replace(body, certificate=None)
    rng = np.random.default_rng([n, len(kind), one_direction])
    X, U = _rays(body, rng, 400, one_direction)
    far = np.linalg.norm(X, axis=1) + 2.0 * body.reach + 1.0
    # the root, not the fallback bisection, gives (nearly) every exit
    assert np.mean(np.isnan(bodies._quadratic_exit(body, X, U, far))) < 0.05
    t, t_twin = _exits(body, X, U), _exits(twin, X, U)
    assert np.all(_is_flip_midpoint(body, X, U if U.ndim == 2 else np.broadcast_to(U, X.shape), t))
    boundary = np.linalg.norm(X + t[:, None] * U, axis=1)
    assert np.all(np.abs(t - t_twin) <= 16.0 * np.spacing(boundary))
    # a lone ray gets its batch's exit
    for i in (0, 7, 399):
        alone = _exits(body, X[i : i + 1], U if U.ndim == 1 else U[i : i + 1])
        assert alone[0] == t[i]


@pytest.mark.parametrize("n", [2, 4, 7])
@pytest.mark.parametrize("kind", sorted(_QUADRATICS))
def test_snapped_exits_along_an_axis_equal_the_twins_bit_for_bit(kind, n):
    body = _QUADRATICS[kind](n)
    twin = dataclasses.replace(body, certificate=None)
    X, U = _rays(body, np.random.default_rng([n, len(kind)]), 600, axis=True)
    assert np.array_equal(_exits(body, X, U), _exits(twin, X, U))


def test_rows_the_walk_leaves_bisect_as_the_twin_does(monkeypatch):
    # with no float to walk, no row finds its flip, and every row takes the
    # bisection the twin runs
    body = _QUADRATICS["translated_ellipsoid"](4)
    twin = dataclasses.replace(body, certificate=None)
    X, U = _rays(body, np.random.default_rng(3), 200)
    monkeypatch.setattr(bodies, "SNAP_FLOATS", 0)
    far = np.linalg.norm(X, axis=1) + 2.0 * body.reach + 1.0
    assert np.isnan(bodies._quadratic_exit(body, X, U, far)).all()
    assert np.array_equal(_exits(body, X, U), _exits(twin, X, U))


def test_snapped_exits_keep_the_far_point_check():
    # an oracle that accepts every point accepts the far point too
    body = _QUADRATICS["ellipsoid"](3)
    always = dataclasses.replace(body, contains=lambda x: np.ones(np.shape(x)[:-1], dtype=bool))
    X, U = _rays(body, np.random.default_rng(5), 20)
    with pytest.raises(OracleIntegrityError):
        _exits(always, X, U)


def test_bodies_beyond_the_snap_bisect():
    # a cylinder over an ellipse (a projection) and a from_oracle body have no exit formula
    rng = np.random.default_rng(8)
    for body in (
        cg.cylinder(cg.ellipsoid([1.1, 0.8]), [0.0, 0.0, 1.0]),
        cg.from_oracle(lambda x: np.sum(np.square(x), axis=-1) < 1.0, np.zeros(3), 0.5, 1.0),
    ):
        X, U = _rays(body, rng, 10)
        assert bodies._quadratic_exit(body, X, U, np.full(10, 5.0)) is None
