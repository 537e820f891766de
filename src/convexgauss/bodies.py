"""Open convex sets as membership oracles with certified structure.

Every body carries a vectorized membership predicate, a certified interior
ball, and either an outer radius or a per-direction reach bound. A body is
never moved: its gauge is the Minkowski functional with respect to an inner
point, the body's centre, which is the origin unless the certified ball
leaves the origin no margin, and the ball's centre then. Every shipped
shape, and a translate or cylinder of one, carries its closed form; a body
with faces takes its gauge from it (_exact_gauge), and a bounded polytope or
its translate its section ends and line minima too (_exact_faces).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import (
    BodySpecError,
    DomainError,
    OracleIntegrityError,
    ParameterError,
)
from .space import EstimateWithError, as_direction, brownian_kl_profile

DEFAULT_GAUGE_TOL = 1e-10
UNBOUNDED_REACH = 50.0
SECULAR_NEWTON_STEPS = 200  # cap on Newton steps of the ellipsoid distance
DYKSTRA_SWEEPS = 5000  # cap on Dykstra sweeps of the polytope distance

__all__ = [
    "ConvexBody",
    "ball",
    "ellipsoid",
    "halfspace",
    "slab",
    "polytope",
    "cylinder",
    "translate",
    "from_oracle",
    "load_body_spec",
    "kl_ellipsoid",
    "random_polytope",
    "bisect",
    "minkowski_functional",
    "minkowski_gradient_fd",
    "lebesgue_density",
    "orthonormal_complement",
]


@dataclass(frozen=True)
class ConvexBody:
    """Membership-oracle representation of an open convex set.

    contains   -- vectorized predicate on arrays of shape (..., dim)
    interior_point / interior_margin -- certified open ball inside the body,
                    about whose centre the gauge is taken when it leaves
                    the origin no margin (centre)
    outer_radius -- None marks an unbounded body; reach (UNBOUNDED_REACH)
                    bounds every line search instead, at negligible Gaussian
                    mass cost
    distance_outside -- optional exact Euclidean distance to the closure,
                    used by the Minkowski-content perimeter oracle
    certificate  -- optional closed form of `contains` (_Quadratic or
                    _Faces) from the arrays it reads, through the map of a
                    translate or cylinder; from_oracle bodies and wrappers
                    of wrappers have none. Its oracle and map round each
                    row alike in any batch (_face_products, _row_sum), so a
                    row gets its batch's answer in any subset, and the
                    bisections (_membership_along) send `contains` only the
                    rows the certificate leaves undecided, also when
                    dataclasses.replace swaps `contains`: a substitute
                    oracle that must see every row belongs on from_oracle.
                    On every body with faces the faces give the gauge as a
                    value (_exact_gauge), and on a bounded one, unmapped or
                    shifted (_exact_faces), the section ends, ray exits and
                    line minima too, which `contains` only checks
                    (_check_rim); replacing the certificate with None makes
                    any body membership-only.
    """

    contains: Callable[[np.ndarray], np.ndarray]
    interior_point: np.ndarray
    interior_margin: float
    outer_radius: Optional[float]
    shape_tag: str
    dim: int
    distance_outside: Optional[Callable[[np.ndarray], np.ndarray]] = None
    spec: Optional[dict] = None
    certificate: Optional[_Quadratic | _Faces] = None

    @property
    def bounded(self) -> bool:
        return self.outer_radius is not None

    @property
    def reach(self) -> float:
        """Radius beyond which no line search needs to look."""
        return self.outer_radius if self.bounded else UNBOUNDED_REACH

    @property
    def centre(self) -> np.ndarray:
        """The inner point gauges are taken about: the origin, unless the
        certified ball leaves it no margin (_off_centre), then the ball's."""
        if _off_centre(self.interior_point, self.interior_margin):
            return self.interior_point
        return np.zeros(self.dim)

    @property
    def centre_margin(self) -> float:
        """Radius of a certified ball about the centre inside the body."""
        return self.interior_margin - float(np.linalg.norm(self.interior_point - self.centre))

    def __post_init__(self):
        object.__setattr__(
            self, "interior_point", np.asarray(self.interior_point, dtype=float)
        )
        if self.interior_margin <= 0:
            raise BodySpecError("interior_margin must be positive")
        if not bool(self.contains(self.centre)):
            raise OracleIntegrityError(
                f"membership oracle rejects the centre of {self.shape_tag}"
            )


def _off_centre(x0, r0) -> bool:
    """Whether the ball B(x0, r0) leaves no certified margin about the origin."""
    return r0 - np.linalg.norm(x0) <= 1e-6 * max(1.0, r0)


# Certificates. With u = 2^-53, forming a point fl(U + fl(s V)) or fl(V / lam)
# puts coordinate i within 2u w_i of the exact point, w_i = |U_i| + |s||V_i|
# (s = 1/lam on a ray, U = 0). The oracle's value at the formed point is then
# within (n+8)u sum_i inv2_i w_i^2 of the exact quadratic form, and within
# (n+3)u sum_i |a_ji| w_i of the exact row product <a_j, x> of face j; the
# closed form of either, evaluated from its own products, is within the same
# bound. A map reads the line in its base's coordinates (_lift), with w =
# WU + |s| WV: U - v and V under a shift, WU = |U| + |v|, WV = |V|; U B^T
# and V B^T under a projection, WU = |U||B|^T, WV = |V||B|^T. The shift, or
# the projection's sums of k = B.shape[1] terms, put the base's point and
# the closed form's lifted line e = 1, or k, more u w_i from the exact ones;
# a ray c + V / t, decided as the line from c at s = fl(1/t), adds e = 1.
# A projection's section test reads a line U + s F as a unit line of the
# base: G = fl(F B^T) is within k u WV_i of F B^T, so with g = fl(|G|), at
# sigma = s g, U B^T + sigma fl(G / g) with weights WV / g is within (k + 1)
# u (WU_i + |sigma| WV_i / g) of the exact image U B^T + sigma F B^T / g
# (the division adds u; g's rounding sets the speed): e = k + 1. Only g >
# CERTIFICATE_BAND k u |WV| is tested, so F B^T / g has length within 2% of
# 1, which the quadratic's test, made for unit directions, allows.
# Each such u adds at most 2u sum_i inv2_i w_i^2, or u sum_i |a_ji| w_i, so
# band(n + 2e) covers both. A row is decided only when the closed form clears
# its threshold by CERTIFICATE_BAND times that bound, sized at the step's own
# |s| (plus CERTIFICATE_FLOOR on lines, which covers underflow): the band is
# more than 30 times the sum of both errors, which leaves room for the
# rounding of the band and of the test themselves, so a decided row gets the
# oracle's answer. On a line both families take the value and its band at
# the step (_line_rule); on a quadratic's ray from its base's origin the two
# scale alike with 1/lam, so the test becomes two ends on lam per row
# (_Quadratic.ray). Every other ray is the line from its start at s = 1/t
# (_decider), up to 1e250, where a quadratic's value may overflow: outside
# while its band is finite, as the oracle's sum, else nan. A certificate
# needs its thresholds and weights within CERTIFIED_RANGE and leaves
# undecided every row whose weights lie outside it, so no product of the
# argument above overflows or underflows unseen.
UNIT_ROUNDOFF = 2.0**-53
CERTIFICATE_BAND = 64.0
CERTIFICATE_FLOOR = 1e-300
CERTIFIED_RANGE = (1e-50, 1e50)
CERTIFICATE_BLOCK_ROWS = 2048  # rows of each block of a face certificate's values and their oracle checks
SECTION_MISS_MARGIN = 1e-9  # a section misses once its minimum gauge clears 1 by this
CHECK_MARGIN = 1e-9  # least relative gauge margin of a closed form's oracle check (_check_rim)


def _rows_certified(W) -> np.ndarray:
    """Rows of the weights W a certificate may decide: entries finite and
    at most the range's top."""
    return np.max(W, axis=-1) <= CERTIFIED_RANGE[1]  # False on nan and inf


class _Quadratic(NamedTuple):
    """Certificate of sum_i inv2_i x_i^2 < 1: the ellipsoid's own test, and
    the ball's |x| < radius with inv2_i = 1 / radius^2 (the square root and
    the squared radius round by a few u, which the band covers)."""

    inv2: np.ndarray
    map: Optional[np.ndarray] = None  # a shift v or a projection B (_lift)

    def band(self, n: int) -> float:
        return CERTIFICATE_BAND * (n + 8) * UNIT_ROUNDOFF

    def ray(self, V, WV, extra):
        # q(V / lam) = c2 / lam^2 with the bound K a2 / lam^2, a2 = sum_i
        # inv2_i WV_i^2: inside for lam^2 > c2 + K a2, outside below c2 - K a2;
        # each rounded root moved one float outward is past the exact one, so a
        # decided set only shrinks; rows whose WV leaves the range stay undecided
        c2, Ka2 = np.square(V) @ self.inv2, self.band(V.shape[-1] + extra) * (np.square(WV) @ self.inv2)
        lam_in = np.nextafter(np.sqrt(c2 + Ka2), np.inf)
        lam_out = np.nextafter(np.sqrt(np.maximum(c2 - Ka2, 0.0)), -np.inf)
        top = np.max(WV, axis=-1)  # V / lam scales by V alone, so WV needs the floor too
        off = ~((top >= CERTIFIED_RANGE[0]) & (top <= CERTIFIED_RANGE[1]))  # True on nan
        lam_in[off], lam_out[off] = np.inf, -np.inf

        def decide(lam):
            inside = lam > lam_in
            return inside, ~(inside | (lam < lam_out))

        return decide

    def line(self, U, V, WU, WV, extra):
        # q(U + s V) = c0 + 2 s c1 + s^2 c2; its bound's sum is
        # sum_i inv2_i (WU_i + |s| WV_i)^2 = a0 + 2 |s| a1 + s^2 a2
        K = self.band(U.shape[-1] + extra)
        c0, c1, c2 = np.square(U) @ self.inv2, 2.0 * ((U * V) @ self.inv2), np.square(V) @ self.inv2
        Kc0 = K * (np.square(WU) @ self.inv2) + CERTIFICATE_FLOOR
        Kc0[~(_rows_certified(WU) & _rows_certified(WV))] = np.inf
        Ka1, Kc2 = 2.0 * K * ((WU * WV) @ self.inv2), K * (np.square(WV) @ self.inv2)
        return _line_rule(lambda s, a: (c0 + s * (c1 + s * c2), Kc0 + a * (Ka1 + a * Kc2)), 1.0)

    def missed(self, U, F, WU, WF, extra):
        # The least-squares minimum of q over x = U + z F sits at z* =
        # -C^-1 b, C = F diag(inv2) F^T, b = F diag(inv2) U. At the computed
        # z, q is strongly convex in z with Hessian 2C >= min(inv2) I (F's
        # rows are orthonormal to within 1e-10, or 2% on a projection), so
        # min q >= q(x) - |g|^2 / min(inv2) with g = F diag(inv2) x; the test
        # subtracts four times that, which covers its own rounding. Forming
        # x puts coordinate i within (m+1)u w_i of the exact point, w_i = WU_i
        # + sum_k |z_k| WF_ki, so q and g get a line's band with 2m more terms
        K = self.band(U.shape[-1] + 2 * F.shape[0] + extra)
        FW = F * self.inv2
        z = -np.linalg.solve(FW @ F.T, FW @ U.T).T
        x = U + z @ F
        w = WU + np.abs(z) @ WF
        with np.errstate(over="ignore", invalid="ignore"):
            g = np.linalg.norm(x @ FW.T, axis=1) + K * np.linalg.norm(w @ (WF * self.inv2).T, axis=1)
            low = _row_sum(np.square(x) * self.inv2) - K * (np.square(w) @ self.inv2)
            low -= 4.0 * g * g / np.min(self.inv2)
        return _rows_certified(WU) & np.isfinite(low) & (low > (1.0 + SECTION_MISS_MARGIN) ** 2)


class _Faces(NamedTuple):
    """Certificate of <a_j, x> < c_j for every face j (unit rows a_j of A):
    polytope, slab and halfspace. Its arrays run face by face along their
    first axis, so each reduction over the faces runs across the rows, not
    along a short last axis: at each step of a line, as the quadratic's
    value is taken there, and in each value. gauge, line_section and
    line_min are values: the gauge, which every body with faces takes in
    place of its bisection (_exact_gauge), and a line's section and the
    gauge's minimum along a line, which a bounded body, unmapped or
    shifted, takes in place of its searches (_exact_faces). They take each
    row's face products by the oracle's own rule (_face_products), so a
    row's value never depends on its batch."""

    A: np.ndarray
    c: np.ndarray
    map: Optional[np.ndarray] = None  # a shift v or a projection B (_lift)

    def band(self, n: int) -> float:
        return CERTIFICATE_BAND * (n + 3) * UNIT_ROUNDOFF

    def line(self, U, V, WU, WV, extra):
        # face j's closed form less c_j, D_j + s <a_j, V>, and its bound K (S_j(WU)
        # + |s| S_j(WV)), S_j(W) = sum_i |a_ji| W_i; V is one direction or one a row
        K, absA = self.band(U.shape[-1] + extra), np.abs(self.A)
        D, KSU = self.A @ U.T - self.c[:, None], K * (absA @ WU.T) + CERTIFICATE_FLOOR
        KSU[:, ~(_rows_certified(WU) & _rows_certified(WV))] = np.inf
        VA, KSV = self.A @ np.atleast_2d(V).T, K * (absA @ np.atleast_2d(WV).T)
        return _line_rule(lambda s, a: (D + s * VA, KSU + a * KSV), 0.0)

    def _read(self, X):
        # X B^T under a projection B, as the cylinder's oracle reads it; a shift moves the offsets (depths)
        return _project(X, self.map) if self.map is not None and self.map.ndim == 2 else X

    def depths(self, p):
        """d_j = b_j - <a_j, p>, the offset of face j from p: b = c + A v
        under a shift v, and p read as p B^T under a projection B."""
        shifted = self.map is not None and self.map.ndim == 1
        b = self.c + _face_products(self.map, self.A) if shifted else self.c
        return b - _face_products(self._read(p), self.A)

    def gauge(self, X, p):
        # about p the gauge is max(0, max_j <a_j, x - p> / d_j): x is inside
        # exactly when every face's term is below 1, and the terms of a point
        # of the recession cone are all at most 0
        q = np.max(_face_products(self._read(X - p), self.A) / self.depths(p)[:, None], axis=0)
        return np.maximum(q, 0.0)

    def line_section(self, Y, h):
        # {t : <a_j, y + t h - v> < c_j for every j} (v = 0 without a shift),
        # as the oracle reads it: face j's slack s_j = c_j - <a_j, y - v>
        # against its slope g_j = <a_j, h> gives t < s_j / g_j where g_j > 0
        # and t > s_j / g_j where g_j < 0, and a face with g_j = 0 holds
        # everywhere (s_j > 0) or nowhere. (lo, hi) per row, h one direction
        # or one per row; both nan where the line misses.
        slack = self.c[:, None] - _face_products(Y if self.map is None else Y - self.map, self.A)
        slope = _face_products(np.atleast_2d(h), self.A)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = slack / slope
        lo = np.max(np.where(slope < 0.0, t, -np.inf), axis=0)
        hi = np.min(np.where(slope > 0.0, t, np.inf), axis=0)
        missed = ~(lo < hi) | np.any((slope == 0.0) & ~(slack > 0.0), axis=0)
        return np.where(missed, np.nan, np.stack([lo, hi]))

    def line_min(self, Y, h, p):
        # About p the gauge along y + t h is max_j (alpha_j + t beta_j),
        # alpha_j = <a_j, y - p> / d_j, beta_j = <a_j, h> / d_j (depths). By
        # LP duality its minimum over faces with beta_j != 0 is the largest
        # (beta_j alpha_k - beta_k alpha_j) / (beta_j - beta_k) of a pair
        # beta_j > 0 > beta_k, at their crossing t = (alpha_k - alpha_j) /
        # (beta_j - beta_k) (a face above it would make a larger pair); faces
        # with beta_j = 0 add max alpha_j at every t, so q, the gauge there,
        # is the minimum. (t, q) per row; None when the slopes (the same for
        # every row) lack a sign.
        d = self.depths(p)
        beta = _face_products(h, self.A) / d
        pos, neg = np.flatnonzero(beta > 0.0), np.flatnonzero(beta < 0.0)
        if not (pos.size and neg.size):
            return None
        j, k = np.repeat(pos, neg.size), np.tile(neg, pos.size)
        gap = beta[j] - beta[k]

        def ends(Y):
            alpha = _face_products(Y - p, self.A) / d[:, None]
            best = np.argmax((beta[j, None] * alpha[k] - beta[k, None] * alpha[j]) / gap[:, None], axis=0)
            rows = np.arange(Y.shape[0])
            t = (alpha[k[best], rows] - alpha[j[best], rows]) / gap[best]
            return np.stack([t, self.gauge(Y + t[:, None] * h, p)])

        return _by_blocks(ends, Y, rows=max(1, CERTIFICATE_BLOCK_ROWS * len(d) // gap.size))


def _face_products(X, A) -> np.ndarray:
    """<a_j, x> for faces j (rows of A, or A itself when 1-d) along the
    first axis and points x of any leading shape (..., n), summed
    coordinate by coordinate: shape A.shape[:-1] + X.shape[:-1].

    Every per-row product that decides an answer (an oracle, a map, a
    closed-form value, a graph point) takes this rule. Elementwise
    operations round each entry alike in a batch of any size, so a point
    gets the same bits alone, as a vector or in any subset of a batch,
    where a matrix product rounds a row by its place in its batch.
    """
    X = np.asarray(X, dtype=float)
    A = np.reshape(A, A.shape[:-1] + (1,) * (X.ndim - 1) + A.shape[-1:])
    P = A[..., 0] * X[..., 0]
    for i in range(1, A.shape[-1]):
        P += A[..., i] * X[..., i]
    return P


def _project(X, B) -> np.ndarray:
    """X B^T by _face_products, each row's coordinates laid out together as
    a lone point's are: a sum over them (the ellipsoid's, from 8 terms)
    rounds by their layout."""
    return np.ascontiguousarray(np.moveaxis(_face_products(X, B), 0, -1))


def _by_blocks(ends, *arrays, rows=None):
    """ends(*arrays) on blocks of `rows` rows (CERTIFICATE_BLOCK_ROWS when
    None), joined along the last axis: a face certificate's arrays hold a
    row per face, and blocks keep them as small as the oracle's own row
    products. A 1-d array (one direction for every row) goes to each block
    whole; no rows make one empty block."""
    N, rows = arrays[0].shape[0], rows or CERTIFICATE_BLOCK_ROWS
    return np.concatenate(
        [
            ends(*(a if a.ndim == 1 else a[start : start + rows] for a in arrays))
            for start in range(0, max(N, 1), rows)
        ],
        axis=-1,
    )


def _line_rule(terms, level):
    """decide(s) -> (inside, undecided) on a line from terms(s, |s|) =
    (value, band), per row or per face along the first axis: inside where
    value + band is below level on every face, outside where value - band
    is above it on one; an infinite band decides nothing."""

    def decide(s):
        value, band = terms(s, np.abs(s))
        high, low = value + band, value - band
        if high.ndim > 1:
            high, low = np.max(high, axis=0), np.max(low, axis=0)
        inside = high < level
        return inside, ~(inside | (low > level))

    return decide


def _certificate(kind, *arrays):
    """kind(*arrays) when every threshold and weight lies in CERTIFIED_RANGE
    (the last array: inv2, or the face offsets), else None."""
    w = np.abs(arrays[-1])
    return kind(*arrays) if np.all((w >= CERTIFIED_RANGE[0]) & (w <= CERTIFIED_RANGE[1])) else None


def _lift(cert, U, V):
    """(U', V', WU, WV, extra): the line U + s V through the certificate's
    map, with the weights and extra band terms of the comment above."""
    M = cert.map
    if M is None:
        return U, V, np.abs(U), np.abs(V), 0
    if M.ndim == 1:
        return U - M, V, np.abs(U) + np.abs(M), np.abs(V), 2
    return U @ M.T, V @ M.T, np.abs(U) @ np.abs(M).T, np.abs(V) @ np.abs(M).T, 2 * M.shape[1]


def _decider(cert, V, U, ray: bool):
    """decide(t) -> (inside, undecided) at U + t V on a line, or U + V / t on
    a ray (only quadratics ask rays: every face gauge is exact): the ray rule
    when U lifts to the base's origin with weight 0, else the line at s = 1/t."""
    U, V, WU, WV, extra = _lift(cert, U, V)
    if not ray:
        return cert.line(U, V, WU, WV, extra)
    if isinstance(cert, _Quadratic) and not WU.any():
        return cert.ray(V, WV, extra)
    decide = cert.line(*np.broadcast_arrays(U, V, WU, WV), extra + 2)
    return np.errstate(over="ignore", invalid="ignore")(lambda t: decide(1.0 / t))


def _membership_along(body: ConvexBody, V, U=None):
    """The membership test a bisection asks of its points: U + t V on lines
    (V one direction or one per row), or, with U None, c + V / t on rays
    from the body's centre c, the points of the gauge at t (t > 0).

    Returns inside_at(t), which maps a parameter per row to body.contains
    of those points. The certificate (_decider) decides the rows it can;
    the rest go to `contains` in one call, as a subset. A point is formed
    by the same elementwise expression on a subset as on the whole batch,
    and every certified oracle rounds a row alike in any batch
    (_face_products, _row_sum), so every answer is the one the whole batch gets, and
    a bisection takes the same steps with or without the certificate. Once
    a step leaves more than a quarter of the rows undecided, most brackets
    lie within the band about their crossing, where later steps keep them:
    that step and every later one go to `contains` whole.
    """
    V = np.asarray(V, dtype=float)
    c = body.centre

    def points(t, rows=slice(None)):
        if U is None:
            P = V[rows] / t[rows][:, None]
            return c + P if c.any() else P
        return U[rows] + t[rows][:, None] * (V if V.ndim == 1 else V[rows])

    if body.certificate is None:
        return lambda t: body.contains(points(t))
    decide = _decider(body.certificate, V, c if U is None else U, U is None)

    def inside_at(t):
        nonlocal decide
        if decide is None:
            return body.contains(points(t))
        inside, undecided = decide(t)
        if not undecided.any():
            return inside
        rows = np.flatnonzero(undecided)
        if 4 * rows.size > t.size:
            decide = None
        if decide is None:
            return body.contains(points(t))
        inside[rows] = body.contains(points(t, rows))
        return inside

    return inside_at


def _sections_missed(body: ConvexBody, U, F) -> np.ndarray:
    """Rows (N,) whose section U + span(F) a quadratic certificate proves
    misses the body, F holding 1 to 3 orthonormal rows: its minimum gauge
    clears 1 + SECTION_MISS_MARGIN by more than the band. A shift keeps F,
    and a projection proves lines alone, as unit lines of the base whose
    image clears its rounding (above UNIT_ROUNDOFF). Every other row, and
    every section of a body with faces, is False. A search drops the decided
    rows, which leaves every other row its answer: the oracle rounds a row
    alike in any batch.
    """
    none = np.zeros(U.shape[0], dtype=bool)
    cert = body.certificate
    if not isinstance(cert, _Quadratic):
        return none
    U, G, WU, WG, extra = _lift(cert, U, F)
    if cert.map is not None and cert.map.ndim == 2:
        g = float(np.linalg.norm(G))
        if F.shape[0] > 1 or not g > CERTIFICATE_BAND * cert.map.shape[1] * UNIT_ROUNDOFF * np.linalg.norm(WG):
            return none
        G, WG, extra = G / g, WG / g, extra + 2
    return cert.missed(U, G, WU, WG, extra)


def _exact_faces(body: ConvexBody) -> Optional[_Faces]:
    """The face certificate whose closed forms give the body's line sections
    and line minima in place of every search: that of a bounded body whose
    faces have no map or a shift. None for every other body."""
    cert = body.certificate
    if body.bounded and isinstance(cert, _Faces) and (cert.map is None or cert.map.ndim == 1):
        return cert
    return None


def _check_rim(body: ConvexBody, cert: _Faces, D, q, w: float, inner: int) -> None:
    """Check a face closed form against `contains` in one call: a point x =
    c + D (rows of D) whose gauge about the centre c the form puts at q,
    pushed out to c + D / (q (1 - e)), must be outside, and, for the first
    `inner` rows, pulled in to c + D / (q (1 + e)), inside; else
    OracleIntegrityError.

    w bounds |x| + |c| plus the length of the step the form took to x (|t|
    on a line) over the batch. By the comment above UNIT_ROUNDOFF, with unit
    normals and |v| the shift's length (0 unshifted), the oracle's face
    values at the scaled points and the form's, relative to q, are within
    band (|c| + |v| + w / q) / min_j d_j of exact (depths d_j), and e is
    that bound, at least CHECK_MARGIN. A projection B's base coordinates are
    sums of k = B.shape[1] terms over unit rows, each within k u |x| of
    exact, which the base's face products then sum over k - 1 unit
    normals: (k^1.5 + k) u |x| for the oracle and as much for the form,
    within band(k + 4) |x| for k up to 900. Rows with q <= 0 (x = c, or the
    recession cone), or a bound of 1/2 or more (where rounding hides a point
    from its scaled copies), are not checked."""
    c, M = body.centre, cert.map
    v = float(np.linalg.norm(M)) if M is not None and M.ndim == 1 else 0.0
    with np.errstate(divide="ignore"):
        e = cert.band(body.dim + 4) * (np.linalg.norm(c) + v + w / q) / np.min(cert.depths(c))
    act = (q > 0.0) & (e < 0.5)
    if not act.all():
        inner = int(np.count_nonzero(act[:inner]))
        D, q, e = D[act], q[act], e[act]
    e = np.maximum(e, CHECK_MARGIN)
    P = np.empty((inner + len(q), D.shape[1]))
    np.divide(D[:inner], (q[:inner] * (1.0 + e[:inner]))[:, None], out=P[:inner])
    np.divide(D, (q * (1.0 - e))[:, None], out=P[inner:])
    if c.any():
        P += c
    inside = body.contains(P)
    if not inside[:inner].all() or inside[inner:].any():
        raise OracleIntegrityError("membership oracle disagrees with the faces' closed form")


def _bound(X) -> float:
    """An upper bound on the length of every row of X (or of X, one row)."""
    return math.sqrt(X.shape[-1]) * float(np.max(np.abs(X), initial=0.0))


def _exact_gauge(body: ConvexBody, X):
    """_Faces.gauge about the centre on a body with faces, bounded or not,
    under any map, else None; each block of CERTIFICATE_BLOCK_ROWS rows
    checked by one _check_rim call."""
    cert, c = body.certificate, body.centre
    if not isinstance(cert, _Faces):
        return None

    def checked(X):
        q = cert.gauge(X, c)
        _check_rim(body, cert, X - c, q, _bound(X) + _bound(c), len(q))
        return q

    return _by_blocks(checked, X)


def _line_section(body: ConvexBody, Y, h):
    """(lo, hi), _Faces.line_section of the lines y + t h (h one direction
    or one per row) on a body with exact faces (_exact_faces), else None.
    One _check_rim call checks each block of CERTIFICATE_BLOCK_ROWS rows:
    both ends of a section lie at gauge 1, and every point of a missed
    line, y among them, at gauge 1 or more, so y pushed out must be
    outside."""
    cert, c = _exact_faces(body), body.centre
    if cert is None:
        return None

    def checked(Y, h):
        lo, hi = cert.line_section(Y, h)
        met = np.isfinite(lo)
        D = Y - c
        Dm, H = D[met], (h if h.ndim == 1 else h[met])
        ends = np.concatenate([Dm + lo[met, None] * H, Dm + hi[met, None] * H, D[~met]])
        step = float(np.max(np.abs(np.concatenate([lo[met], hi[met]])), initial=0.0))
        w = _bound(Y) + step * _bound(H) + _bound(c)
        _check_rim(body, cert, ends, np.ones(len(ends)), w, 2 * len(Dm))
        return np.stack([lo, hi])

    return tuple(_by_blocks(checked, Y, h))


def _line_minimum(body: ConvexBody, Y, h):
    """(t, q), _Faces.line_min about the centre on a body with exact faces
    (_exact_faces), else None, as it is when the slopes lack a sign; the
    minima checked by one _check_rim call at y + t h."""
    cert, c = _exact_faces(body), body.centre
    found = None if cert is None else cert.line_min(Y, h, c)
    if found is None:
        return None
    t, q = found
    w = _bound(Y) + float(np.max(np.abs(t), initial=0.0)) * _bound(h) + _bound(c)
    _check_rim(body, cert, Y - c + t[:, None] * h, q, w, len(q))
    return t, q


def _row_sum(q) -> np.ndarray:
    """np.sum(q, axis=-1), bit for bit, without a reduction over a short
    last axis.

    numpy adds fewer than eight terms in order, so one to seven columns are
    added column by column; from eight on numpy sums pairwise, and np.sum
    itself is the only bit-equal route (as it is for an empty axis).
    """
    n = q.shape[-1]
    if not 0 < n < 8:
        return np.sum(q, axis=-1)
    s = q[..., 0]
    for i in range(1, n):
        s = s + q[..., i]
    return s


def ball(radius: float, dim: int) -> ConvexBody:
    """Open Euclidean ball of given radius centred at the origin (translate
    shifts it)."""
    if radius <= 0:
        raise BodySpecError("ball: radius must be positive")
    contains = lambda x: np.sqrt(_row_sum(np.square(np.asarray(x, float)))) < radius
    distance = lambda x: np.maximum(0.0, np.linalg.norm(np.asarray(x, float), axis=-1) - radius)
    return ConvexBody(
        contains,
        np.zeros(dim),
        radius,
        radius,
        "ball",
        dim,
        distance_outside=distance,
        spec={"shape": "ball", "radius": radius},
        certificate=_certificate(_Quadratic, np.full(dim, 1.0 / (radius * radius))),
    )


def ellipsoid(semiaxes) -> ConvexBody:
    """Open axis-aligned ellipsoid sum (x_i / s_i)^2 < 1.

    Its distance oracle projects a point outside onto the boundary through
    the root of the secular equation, by Newton's method from lam = 0
    (_secular_root).
    """
    s = np.asarray(semiaxes, dtype=float)
    if s.ndim != 1 or np.any(s <= 0):
        raise BodySpecError("ellipsoid: semiaxes must be a vector of positives")
    dim = s.shape[0]
    inv2 = 1.0 / (s * s)
    contains = lambda x: _row_sum(np.square(np.asarray(x, float)) * inv2) < 1.0

    def distance(x0):
        x = np.atleast_2d(np.asarray(x0, dtype=float))
        out = np.zeros(x.shape[0])
        outside = np.sum(np.square(x) * inv2, axis=-1) > 1.0
        if outside.any():
            xo = x[outside]
            # nearest boundary point w_i = s_i^2 x_i / (s_i^2 + lam)
            lam = _secular_root(s * s, s * s * xo * xo)
            w = s * s * xo / (s * s + lam[:, None])
            out[outside] = np.linalg.norm(xo - w, axis=-1)
        return out if np.ndim(x0) > 1 else float(out[0])

    return ConvexBody(
        contains,
        np.zeros(dim),
        float(np.min(s)),
        float(np.max(s)),
        "ellipsoid",
        dim,
        distance_outside=distance,
        spec={"shape": "ellipsoid", "semiaxes": list(map(float, s))},
        certificate=_certificate(_Quadratic, inv2),
    )


def _secular_root(s2, c):
    """Root lam >= 0, per row, of the ellipsoid projection's secular equation
    f(lam) = sum_i c_i / (s2_i + lam)^2 - 1, for rows with f(0) > 0 (points
    outside the ellipsoid with squared semiaxes s2, c_i = s2_i x_i^2).

    f is convex and decreasing on lam >= 0, so Newton's method from lam = 0
    climbs to the root without overshooting it. A row stops once a step no
    longer increases lam, which happens at the root to rounding.
    """
    lam = np.zeros(c.shape[0])
    active = np.ones(c.shape[0], dtype=bool)
    for _ in range(SECULAR_NEWTON_STEPS):
        idx = np.flatnonzero(active)
        if not idx.size:
            break
        u = s2 + lam[idx, None]
        ratio = c[idx] / (u * u)
        f = np.sum(ratio, axis=-1) - 1.0
        slope = -2.0 * np.sum(ratio / u, axis=-1)
        step = lam[idx] - f / slope
        rises = step > lam[idx]
        lam[idx[rises]] = step[rises]
        active[idx[~rises]] = False
    return lam


def halfspace(normal, offset: float) -> ConvexBody:
    """Open halfspace <a, x> < c (a normalized internally)."""
    a = np.asarray(normal, dtype=float)
    nrm = np.linalg.norm(a)
    if nrm == 0:
        raise BodySpecError("halfspace: normal must be nonzero")
    a = a / nrm
    c = float(offset) / nrm
    dim = a.shape[0]
    contains = lambda x: _face_products(x, a) < c
    distance = lambda x: np.maximum(0.0, np.asarray(x, float) @ a - c)
    x0 = np.zeros(dim) if c > 0 else (c - 1.0) * a
    r0 = c if c > 0 else 1.0
    return ConvexBody(
        contains,
        x0,
        r0,
        None,
        "halfspace",
        dim,
        distance_outside=distance,
        spec={"shape": "halfspace", "normal": list(map(float, a)), "offset": c},
        certificate=_certificate(_Faces, a[None], np.array([c])),
    )


def _normalize_faces(faces, dim=None):
    normals, offsets = [], []
    for i, face in enumerate(faces):
        a = np.asarray(face["normal"], dtype=float)
        nrm = np.linalg.norm(a)
        if nrm == 0:
            raise BodySpecError(f"polytope: faces[{i}].normal is zero")
        if dim is not None and a.shape[0] != dim:
            raise BodySpecError(
                f"polytope: faces[{i}].normal has dim {a.shape[0]}, expected {dim}"
            )
        normals.append(a / nrm)
        offsets.append(float(face["offset"]) / nrm)
    return np.asarray(normals), np.asarray(offsets)


def polytope(faces) -> ConvexBody:
    """Open intersection of halfspaces <a_i, x> < c_i.

    The 2n per-axis extent LPs, run as the blocks of one block-diagonal LP,
    decide boundedness and give the outer radius of a bounded polytope.
    HiGHS solves that LP with presolve off: its presolve calls the block LP
    of a tilted slab infeasible instead of unbounded, while without it the
    block LP agreed with 2n separate LPs on the boundedness of 200 random
    polytopes, and on their extents within 1e-13 relative. On any end but
    an optimum or unboundedness the 2n LPs run apart, and must end so. The interior
    point and margin come from the Chebyshev-center LP, except for a
    polytope with every offset positive that is unbounded (a slab, say) or
    whose Chebyshev ball leaves the origin no margin: it keeps the origin,
    with margin min(c_i), so a body that holds the origin has its centre
    there.

    Its distance oracle runs Dykstra's alternating projections onto the
    faces, each row until a sweep moves it by less than 1e-13 or for
    DYKSTRA_SWEEPS sweeps, on compact arrays of the rows still moving.

    The LPs use scipy.optimize.linprog and scipy.sparse.block_diag,
    imported here on the first build (of a slab or random polytope too), so
    a process that builds no polytope never loads scipy.optimize.
    """
    from scipy.optimize import linprog
    from scipy.sparse import block_diag

    if not faces:
        raise BodySpecError(f"polytope: face list is empty: {faces!r}")
    A, c = _normalize_faces(faces)
    dim = A.shape[1]

    # Per-axis extents decide boundedness and give an outer radius: block k
    # = 2 i + s of one block-diagonal LP maximizes (-1)^s x_i over a copy of
    # the faces, so the blocks are solved at once and the LP is unbounded
    # exactly when one of them is.
    k = 2 * dim
    axes = np.repeat(np.arange(dim), 2)
    obj = np.zeros((k, dim))
    obj[np.arange(k), axes] = np.tile([-1.0, 1.0], dim)
    lp = dict(bounds=(None, None), method="highs", options={"presolve": False})
    runs = [linprog(obj.ravel(), A_ub=block_diag([A] * k, format="csr"), b_ub=np.tile(c, k), **lp)]
    if runs[0].status not in (0, 3):
        # HiGHS can end the block LP with no answer (status 4, "model_status
        # is Unknown"; 3 of 38,000 random polytopes, each unbounded)
        runs = [linprog(o, A_ub=A, b_ub=c, **lp) for o in obj]
    failed = [run.message for run in runs if run.status not in (0, 3)]
    if failed:
        raise BodySpecError(f"polytope: extent LP ended with {failed[0]!r} for face list {faces!r}")
    unbounded = any(run.status == 3 for run in runs)
    outer = None
    if not unbounded:
        X = np.concatenate([run.x for run in runs]).reshape(k, dim)[np.arange(k), axes]
        outer = float(np.linalg.norm(np.max(np.abs(X).reshape(dim, 2), axis=1))) * (1 + 1e-9)

    if unbounded and np.all(c > 0):
        # unit normals: the ball of radius min(c) about 0 meets no face. The
        # boxed LP below would put an unbounded polytope's centre on its
        # +-cap box, and every membership test would then add a 1e6 shift.
        x0, r0 = np.zeros(dim), float(np.min(c))
    else:
        # Chebyshev center: maximize r subject to <a_i, x> + r <= c_i, r <= cap.
        cap = 1e6
        res = linprog(
            np.concatenate([np.zeros(dim), [-1.0]]),
            A_ub=np.hstack([A, np.ones((len(c), 1))]),
            b_ub=c,
            bounds=[(-cap, cap)] * dim + [(0, cap)],
            method="highs",
        )
        if not res.success or res.x[-1] <= 1e-12:
            raise BodySpecError(
                f"polytope: empty interior for face list {faces!r}"
            )
        x0, r0 = res.x[:dim], float(res.x[-1])
        if np.all(c > 0) and _off_centre(x0, r0):
            # the origin is interior but the Chebyshev ball gives it no
            # margin: keep the origin as the centre, as for an unbounded
            # polytope, rather than take the Chebyshev centre
            x0, r0 = np.zeros(dim), float(np.min(c))

    def contains(x):
        # one face at a time, ANDed: the booleans of np.all(y < c, axis=-1)
        # without an array of every face's products
        ok = _face_products(x, A[0]) < c[0]
        for a, b in zip(A[1:], c[1:]):
            ok &= _face_products(x, a) < b
        return ok

    def distance(x0):
        # Dykstra alternating projections onto the face halfspaces; vertex
        # projections converge geometrically, so iterate per-row to rest.
        # Only rows still moving are kept, with their corrections, in
        # compact arrays; a row at rest is written back once.
        x = np.atleast_2d(np.asarray(x0, dtype=float))
        z = x.copy()
        idx = np.flatnonzero(np.any(x @ A.T >= c, axis=-1))
        zi = z[idx]
        corr = np.zeros((len(c),) + zi.shape)
        for _ in range(DYKSTRA_SWEEPS):
            if idx.size == 0:
                break
            before = zi
            for i in range(len(c)):
                w = zi + corr[i]
                viol = np.maximum(0.0, w @ A[i] - c[i])
                zi = w - viol[:, None] * A[i]
                corr[i] = w - zi
            rest = np.max(np.abs(zi - before), axis=-1) < 1e-13
            if rest.any():
                z[idx[rest]] = zi[rest]
                idx, zi, corr = idx[~rest], zi[~rest], corr[:, ~rest]
        z[idx] = zi  # rows still moving after DYKSTRA_SWEEPS sweeps
        out = np.linalg.norm(x - z, axis=-1)
        out[contains(x)] = 0.0
        return out if np.ndim(x0) > 1 else float(out[0])

    spec = {
        "shape": "polytope",
        "faces": [
            {"normal": list(map(float, a)), "offset": float(b)} for a, b in zip(A, c)
        ],
    }
    return ConvexBody(
        contains, x0, r0, outer, "polytope", dim, distance_outside=distance, spec=spec,
        certificate=_certificate(_Faces, A, c),
    )


def slab(normal, half_width: float) -> ConvexBody:
    """Open slab |<a, x>| < w, a two-face polytope with closed-form distance."""
    a = np.asarray(normal, dtype=float)
    nrm = np.linalg.norm(a)
    if nrm == 0 or half_width <= 0:
        raise BodySpecError("slab: normal must be nonzero and half_width positive")
    a = a / nrm
    w = float(half_width)
    body = polytope(
        [{"normal": a, "offset": w}, {"normal": -a, "offset": w}]
    )
    distance = lambda x: np.maximum(0.0, np.abs(np.asarray(x, float) @ a) - w)
    return replace(
        body,
        shape_tag="slab",
        distance_outside=distance,
        spec={"shape": "slab", "normal": list(map(float, a)), "half_width": w},
    )


def orthonormal_complement(h: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis (rows) of the hyperplane orthogonal to
    a unit h: rows 1: of vh in the full SVD of h as one row, from the LAPACK
    gesdd that scipy.linalg.null_space(h.reshape(1, -1)).T also calls, with
    the same bits. The rows are column-major like null_space's result,
    since a matrix-vector product with them (the cylinder's interior point,
    say) rounds by their layout."""
    h = np.asarray(h, dtype=float)
    vh = np.linalg.svd(h.reshape(1, -1), full_matrices=True)[2]
    return np.asfortranarray(vh)[1:]


def cylinder(base: ConvexBody, axis) -> ConvexBody:
    """Base body extruded along a full line in direction `axis`.

    The base lives in the orthogonal complement of the axis, expressed in the
    deterministic complement basis; base.dim must equal ambient dim - 1.
    """
    axis = np.asarray(axis, dtype=float)
    nrm = np.linalg.norm(axis)
    if nrm == 0:
        raise BodySpecError("cylinder: axis must be nonzero")
    axis = axis / nrm
    dim = axis.shape[0]
    if base.dim != dim - 1:
        raise BodySpecError(
            f"cylinder: base dim {base.dim} must equal ambient dim - 1 = {dim - 1}"
        )
    B = orthonormal_complement(axis)  # (dim-1, dim) rows
    spec = {"shape": "cylinder", "base": base.spec, "axis": list(map(float, axis))}
    return _mapped(base, B, B.T @ base.interior_point, None, f"cylinder({base.shape_tag})", spec)


def translate(body: ConvexBody, v) -> ConvexBody:
    """Shift a body by v. Its centre is the origin while the shifted
    interior ball leaves the origin a margin, else the ball's centre."""
    v = np.asarray(v, dtype=float)
    if v.shape != (body.dim,):
        raise BodySpecError(f"translate: vector has shape {v.shape}, expected ({body.dim},)")
    outer = None if body.outer_radius is None else body.outer_radius + float(np.linalg.norm(v))
    spec = {**(body.spec or {}), "translate": list(map(float, v))}
    return _mapped(body, v, body.interior_point + v, outer, body.shape_tag, spec)


def _mapped(base: ConvexBody, M, x0, outer, tag, spec) -> ConvexBody:
    """The base read at x - v (M = v, translate) or x B^T (M = B, cylinder,
    _project), with its certificate under M; a wrapper of a wrapper keeps
    none."""
    if M.ndim == 1:
        to_base = lambda x: np.asarray(x, float) - M
    else:
        to_base = lambda x: _project(x, M)
    inner, dist, cert = base.contains, base.distance_outside, base.certificate
    return ConvexBody(
        lambda x: inner(to_base(x)), x0, base.interior_margin, outer, tag, x0.shape[0],
        distance_outside=None if dist is None else lambda x: dist(to_base(x)), spec=spec,
        certificate=None if cert is None or cert.map is not None else cert._replace(map=M),
    )


def from_oracle(contains, interior_point, interior_margin, outer_radius=None) -> ConvexBody:
    """Wrap a user membership oracle (e.g. a level set {G < 0}) as a body
    tagged "custom"."""
    x0 = np.asarray(interior_point, dtype=float)
    return ConvexBody(contains, x0, interior_margin, outer_radius, "custom", x0.shape[0])


class _Kind(NamedTuple):
    """A kind of config value: the words an error uses for it and a
    predicate on (value, model dim). A list kind may name the kind (or the
    section schema) of its entries in `each`, which are then checked one by
    one, so an error names the entry; a `required` field must be present."""

    what: str
    valid: Callable
    each: object = None
    required: bool = False


def _is_number(value, integer: bool = False) -> bool:
    """A finite JSON number (an integer when asked), not a boolean. A number
    read as a float must fit one; an integer of any size is an integer."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral if integer else numbers.Real):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return integer


def _is_vector(value) -> bool:
    flat = isinstance(value, (list, tuple)) or (isinstance(value, np.ndarray) and value.ndim == 1)
    return flat and all(_is_number(v) for v in value)


def _is_unit(value, dim) -> bool:
    """A list of numbers that as_direction takes as a direction in R^dim."""
    if not _is_vector(value):
        return False
    try:
        as_direction(value, dim=dim)
    except DomainError:
        return False
    return True


def _bounded(what: str, low, integer: bool = False, strict: bool = False) -> _Kind:
    return _Kind(what, lambda v, n: _is_number(v, integer) and (v > low if strict else v >= low))


def _list_of(what: str, each, nonempty: bool = False) -> _Kind:
    return _Kind(what, lambda v, n: isinstance(v, (list, tuple)) and (bool(v) or not nonempty), each)


def _nullable(kind: _Kind) -> _Kind:
    return kind._replace(what=f"{kind.what} or null", valid=lambda v, n: v is None or kind.valid(v, n))


def _required(kind: _Kind) -> _Kind:
    return kind._replace(required=True)


def _is_object(value, dim) -> bool:
    return isinstance(value, dict)


_NUMBER = _Kind("a number", lambda v, n: _is_number(v))
_INTEGER = _Kind("an integer", lambda v, n: _is_number(v, integer=True))
_VECTOR = _Kind("a list of numbers", lambda v, n: _is_vector(v))
_BODY = _Kind("a body spec (a JSON object)", _is_object)
_COUNT = _bounded("a positive integer", 1, integer=True)
_POSITIVE = _bounded("a positive number", 0, strict=True)
_NON_NEGATIVE = _bounded("a non-negative number", 0)
_INDEX = _bounded("an integer >= 0", 0, integer=True)
_UNIT = _Kind("a unit vector with model.dim entries", _is_unit)
_PAIR = _Kind(
    "a pair of positive integers",
    lambda v, n: isinstance(v, (tuple, list)) and len(v) == 2 and all(_COUNT.valid(x, n) for x in v),
)
_FILE_NAME = _Kind(
    "a bare file name with no directory part",
    lambda v, n: isinstance(v, str) and v == Path(v).name and v not in ("", ".."),
)

# Every field of every config section, with its kind. A dict in place of a
# kind is a nested section, checked as {} when absent. The "config" entry
# is the run config; "budget" holds the fields of surface.Budget; "psi"
# and "body" hold the fields every test function and every body shape
# takes, and "psi.<name>" and "body.<shape>" the fields of each one.
_SCHEMA = {
    "config": {
        "seed": _required(_INDEX),
        "model": {
            "dim": _required(_COUNT),
            "spectral_profile": _nullable(
                _Kind('"brownian"', lambda v, n: isinstance(v, str) and v == "brownian")
            ),
        },
        "body": _required(_BODY),
        "psi": _nullable(_Kind("a test function spec (a JSON object)", _is_object)),
        "directions": {
            "k": _list_of("a list of unit vectors", _UNIT),
            "h": _nullable(_UNIT),
            "candidates": _nullable(_list_of("a nonempty list of unit vectors", _UNIT, nonempty=True)),
        },
        "budgets": _Kind("a JSON object of budget fields", _is_object),
        "tolerances": {
            "perimeter_relative": _NON_NEGATIVE,
            "ibp": _NON_NEGATIVE,
            "gradcheck_median": _NON_NEGATIVE,
        },
        "density": {
            "samples": _bounded("an integer >= 1000", 1000, integer=True),
            "radius": _POSITIVE,
            "boundary_points": _COUNT,
            "points": _list_of(
                "a nonempty list of points",
                _Kind("a point with model.dim coordinates", lambda v, n: _is_vector(v) and len(v) == n),
                nonempty=True,
            ),
        },
        "grid": {
            "dims": _list_of("a list of integers", _bounded("an integer >= 2", 2, integer=True)),
            "scale": _POSITIVE,
        },
        "subspaces": _list_of(
            "a list of axis lists",
            _Kind(
                "a list of 1 to 3 distinct integer axes in [0, model.dim)",
                lambda v, n: isinstance(v, list)
                and 1 <= len(v) <= 3
                and all(_is_number(a, integer=True) and 0 <= a < n for a in v)
                and len(set(v)) == len(v),
            ),
        ),
        "outputs": {"report": _FILE_NAME, "csv": _FILE_NAME},
    },
    "budget": {
        "samples": _COUNT,
        "quadrature_order": _COUNT,
        "angles": _COUNT,
        "sphere_grid": _PAIR,
        "radial": _COUNT,
        "inner_angles": _COUNT,
        "inner_sphere_grid": _PAIR,
        "subspace_samples": _COUNT,
        "epsilons": _Kind(
            "a list of at least 3 numbers in (0, 0.1]",
            lambda v, n: _is_vector(v) and len(v) >= 3 and all(0 < e <= 0.1 for e in v),
        ),
        "boundary_samples": _COUNT,
        "threads": _COUNT,
    },
    "psi": {
        "name": _required(
            _Kind("a test function name", lambda v, n: isinstance(v, str) and f"psi.{v}" in _SCHEMA)
        ),
    },
    "psi.constant": {"value": _NUMBER},
    "psi.coordinate": {"index": _required(_INDEX)},
    "psi.tanh": {"weights": _required(_VECTOR), "offset": _NUMBER},
    "psi.distance_clamp": {"center": _required(_VECTOR), "inner": _NUMBER, "outer": _NUMBER},
    "body": {
        "shape": _required(
            _Kind("a body shape", lambda v, n: isinstance(v, str) and f"body.{v}" in _SCHEMA)
        ),
        "translate": _VECTOR,
    },
    "body.ball": {"radius": _required(_NUMBER)},
    "body.ellipsoid": {"semiaxes": _required(_VECTOR)},
    "body.halfspace": {"normal": _required(_VECTOR), "offset": _required(_NUMBER)},
    "body.slab": {"normal": _required(_VECTOR), "half_width": _required(_NUMBER)},
    "body.polytope": {
        "faces": _list_of(
            "a list of faces", {"normal": _required(_VECTOR), "offset": _required(_NUMBER)}
        ),
    },
    "body.kl_ellipsoid": {"scale": _NUMBER},
    "body.random_polytope": {"faces": _INTEGER, "seed": _INTEGER},
    "body.cylinder": {"axis": _required(_VECTOR), "base": _required(_BODY)},
}


def _check_fields(path: str, section, schema: dict, error, dim=None) -> None:
    """Check a config section against its schema (a dict of field -> kind
    or nested schema), given the model dim for the kinds that need it.
    Raises `error` naming the section's unknown keys, a missing required
    field, or the first field (or list entry) whose value is not of its
    kind."""
    if not isinstance(section, dict):
        raise error(f"{path} must be a JSON object, got {section!r}")
    unknown = sorted(set(section) - set(schema), key=str)
    if unknown:
        raise error(f"unknown {path} fields: {unknown}")
    for key, kind in schema.items():
        if key in section or isinstance(kind, dict):
            _check_value(f"{path}.{key}", section.get(key, {}), kind, error, dim)
        elif kind.required:
            raise error(f"missing field {path}.{key}")


def _check_value(name: str, value, kind, error, dim) -> None:
    if isinstance(kind, dict):
        _check_fields(name, value, kind, error, dim)
        return
    if not kind.valid(value, dim):
        raise error(f"{name} must be {kind.what}, got {value!r}")
    if kind.each is not None and value is not None:
        for i, entry in enumerate(value):
            _check_value(f"{name}[{i}]", entry, kind.each, error, dim)


def load_body_spec(spec: dict, dim: Optional[int] = None) -> ConvexBody:
    """Build a body from the structured-text schema.

    Shapes: ball, ellipsoid, halfspace, slab, polytope, kl_ellipsoid,
    random_polytope, cylinder; optional "translate" applies last. Raises
    BodySpecError naming the offending field, also for a missing or unknown
    field or a field that holds no value of its kind.
    """
    return _load_body(spec, dim, "body")


def _load_body(spec: dict, dim: Optional[int], path: str) -> ConvexBody:
    """load_body_spec for the spec found at config field `path`, which every
    error names (a cylinder's base is loaded at `path`.cylinder.base)."""
    if not isinstance(spec, dict) or "shape" not in spec:
        raise BodySpecError(f"{path} must be a mapping with a 'shape' field: {spec!r}")
    shape = spec["shape"]
    if not _SCHEMA["body"]["shape"].valid(shape, dim):
        raise BodySpecError(f"{path}.shape: unknown shape {shape!r}")
    # the fields every shape takes are named at `path`, the shape's own at `where`
    where, common = f"{path}.{shape}", _SCHEMA["body"]
    _check_fields(path, {k: v for k, v in spec.items() if k in common}, common, BodySpecError)
    own = {k: v for k, v in spec.items() if k not in common}
    _check_fields(where, own, _SCHEMA[f"body.{shape}"], BodySpecError)
    if dim is None and shape in ("ball", "kl_ellipsoid", "random_polytope"):
        raise BodySpecError(f"{where} requires the model dim")
    if shape == "ball":
        body = ball(float(spec["radius"]), dim)
    elif shape == "ellipsoid":
        body = ellipsoid(spec["semiaxes"])
    elif shape == "halfspace":
        body = halfspace(spec["normal"], spec["offset"])
    elif shape == "slab":
        body = slab(spec["normal"], spec["half_width"])
    elif shape == "polytope":
        body = polytope(spec.get("faces", []))
    elif shape == "kl_ellipsoid":
        body = kl_ellipsoid(dim, float(spec.get("scale", 1.0)))
    elif shape == "random_polytope":
        body = random_polytope(dim, int(spec.get("faces", 8)), int(spec.get("seed", 0)))
    else:
        axis = np.asarray(spec["axis"], dtype=float)
        base = _load_body(spec["base"], axis.shape[0] - 1, f"{where}.base")
        body = cylinder(base, axis)
    if dim is not None and body.dim != dim:
        raise BodySpecError(f"{path} has dim {body.dim}, expected {dim}")
    if "translate" in spec:
        body = translate(body, spec["translate"])
    return body


def kl_ellipsoid(dim: int, scale: float = 1.0) -> ConvexBody:
    """Demo ellipsoid whose whitened semiaxes grow like the inverse square
    roots of the Brownian covariance eigenvalues: the image of a fixed
    function-space ball under the spectral embedding."""
    profile = np.asarray(brownian_kl_profile(dim))
    body = ellipsoid(scale / np.sqrt(profile))
    return replace(body, spec={"shape": "kl_ellipsoid", "scale": float(scale)})


def random_polytope(dim: int, n_faces: int, seed: int) -> ConvexBody:
    """Random polytope containing the origin: uniform face normals, offsets
    uniform in (0.8, 1.6). A bounding box at 3.2 is appended only when the
    random faces leave the polytope unbounded."""
    rng = np.random.default_rng([seed, 0])
    normals = rng.standard_normal((n_faces, dim))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    offsets = rng.uniform(0.8, 1.6, size=n_faces)
    faces = [{"normal": a, "offset": c} for a, c in zip(normals, offsets)]
    body = polytope(faces)
    if body.bounded:
        return body
    for i in range(dim):
        e = np.zeros(dim)
        e[i] = 1.0
        faces.append({"normal": e, "offset": 3.2})
        faces.append({"normal": -e, "offset": 3.2})
    return polytope(faces)


def bisect(inside_at, t_in, t_out, tol, relative=False):
    """Vectorized bisection of per-row brackets whose t_in end passes the
    membership test inside_at (parameters (N,) -> bools (N,)) and whose t_out
    end fails it. Returns the shrunken (t_in, t_out).

    A row stops once |t_out - t_in| <= tol (times max(1, t_in) when
    `relative`), or after a step whose midpoint equalled one of its ends:
    after that step's update its midpoint is one of its ends again, so for
    a predicate that gives the same answer at the same point, further steps
    cannot move it and the result equals running every step. Tolerance 0
    leaves only the second rule, which stops a row at adjacent floats. The
    loop runs at most min(130, max(10, ceil(log2(widest gap / tol)) + 2))
    steps, 130 at tolerance 0. Every row is probed at each step's midpoint;
    a stopped row keeps its ends.

    The first steps skip the stop tests while a bound proves that no row can
    stop in them. With g the narrowest unresolved gap, M the largest
    unresolved |t| and e = 2^-53 M, after j steps every unresolved gap is at
    least g 2^-j - 2 j e; while that exceeds twice both stop levels (the
    tolerance and 4e), step j stops no row. The results are those of testing
    every step, whatever the predicate.
    """
    t_in = np.asarray(t_in, dtype=float)
    t_out = np.asarray(t_out, dtype=float)

    def unresolved(a, b):
        return np.abs(b - a) > (tol * np.maximum(1.0, a) if relative else tol)

    steps = 130
    if tol > 0:
        gap0 = float(np.max(np.abs(t_out - t_in))) if t_in.size else 0.0
        steps = min(steps, max(10, int(math.ceil(math.log2(max(gap0 / tol, 2.0)))) + 2))
    active = unresolved(t_in, t_out)
    partial = not active.all()
    # Why free steps stop no row: a computed midpoint lies between its ends
    # and within e of the exact one (e's smallest-normal term covers
    # subnormal sums), so |t| <= M holds throughout, each step leaves at
    # least half a gap less e, and the true loss after j steps is below
    # 2e <= 2 j e. A midpoint can equal an end only when the gap before the
    # step is <= 2e, and the tolerance test stops a row only when the gap
    # after it is <= tol * max(1, M) (or tol). A gap after the step above
    # 2 * max(that level, 4e) rules out both, the one before being at least
    # twice it less 2e; the factor 2 also covers the rounding of the tests.
    free = 0
    if active.any():
        lo, hi = (t_in[active], t_out[active]) if partial else (t_in, t_out)
        M = max(float(np.max(np.abs(lo))), float(np.max(np.abs(hi))))
        g = float(np.min(np.abs(hi - lo)))
        e = 2.0**-53 * M + 2.0**-1022
        level = 2.0 * max(4.0 * e, tol * max(1.0, M) if relative else tol)
        while free < steps and g * 0.5 ** (free + 1) - 2 * (free + 1) * e > level:
            free += 1
    for step in range(steps):
        stops = step >= free  # whether a row may stop in this step
        if stops and not active.any():
            break
        mid = 0.5 * (t_in + t_out)
        inside = inside_at(mid)
        if not (stops or partial):
            t_in = np.where(inside, mid, t_in)
            t_out = np.where(inside, t_out, mid)
            continue
        if stops:
            fixed = (mid == t_in) | (mid == t_out)
        t_in = np.where(active & inside, mid, t_in)
        t_out = np.where(active & ~inside, mid, t_out)
        if stops:
            active = active & ~fixed & unresolved(t_in, t_out)
    return t_in, t_out


def minkowski_functional(body: ConvexBody, x, tol: float = DEFAULT_GAUGE_TOL):
    """Gauge p(x) = inf{lam > 0 : x - c in lam * (body - c)} with respect to
    the body's centre c (ConvexBody.centre): the faces' closed form on a
    body with faces, bounded or not and under any map (_exact_gauge, which
    leaves `tol` unused), else by bisection on lam.

    Accepts a single point (n,) or a batch (N, n); p(c) = 0 exactly.
    The bracket [|x - c| (1 - 1e-12) / (outer_radius + |c|),
    |x - c| / (0.9 centre_margin)] comes from the certified radii (its lower
    end is 0 on an unbounded body); a membership failure at its upper end,
    c + (x - c) / hi, whose point the certified interior ball contains,
    raises OracleIntegrityError, on every body. The bisection asks
    membership through _membership_along, so a body's certificate answers
    every step it can place and `contains` sees only the rest.
    """
    if tol <= 0:
        raise ParameterError("tol must be positive")
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    if X.shape[1] != body.dim:
        raise DomainError(f"point dim {X.shape[1]} != body dim {body.dim}")
    c = body.centre
    D = X - c
    norms = np.linalg.norm(D, axis=1)
    p = np.zeros(X.shape[0])
    act = norms > 0
    if act.any():
        Da = D[act]
        hi = norms[act] / (0.9 * body.centre_margin)
        if not np.all(body.contains(c + Da / hi[:, None])):
            raise OracleIntegrityError(
                "membership oracle rejects points inside the certified interior ball"
            )
        exact = _exact_gauge(body, X[act])
        if exact is not None:
            p[act] = exact
            return float(p[0]) if scalar else p
        if body.bounded:
            lo = norms[act] / (body.outer_radius + float(np.linalg.norm(c))) * (1.0 - 1e-12)
        else:
            lo = np.zeros_like(hi)
        inside_at = _membership_along(body, Da)
        hi, lo = bisect(
            lambda lam: inside_at(np.maximum(lam, 1e-250)),
            hi,
            lo,
            tol=tol,
            relative=True,
        )
        p[act] = 0.5 * (hi + lo)
        # points essentially in the recession cone have gauge 0
        p[act] = np.where(hi <= tol, 0.0, p[act])
    return float(p[0]) if scalar else p


def minkowski_gradient_fd(body: ConvexBody, x):
    """Central-difference gradient of the gauge at x (single point or batch),
    from gauges at tolerance DEFAULT_GAUGE_TOL and step DEFAULT_GAUGE_TOL^(1/3),
    the smallest step the gauge noise does not dominate.
    """
    step = DEFAULT_GAUGE_TOL ** (1.0 / 3.0)
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    if np.any(np.linalg.norm(X - body.centre, axis=1) == 0.0):
        raise DomainError("gauge gradient is undefined at the body's centre")
    n = body.dim
    eye = np.eye(n)
    stencil = np.concatenate(
        [X[:, None, :] + step * eye[None, :, :], X[:, None, :] - step * eye[None, :, :]],
        axis=1,
    )  # (N, 2n, n)
    vals = minkowski_functional(body, stencil.reshape(-1, n)).reshape(-1, 2 * n)
    grad = (vals[:, :n] - vals[:, n:]) / (2.0 * step)
    return grad[0] if scalar else grad


def lebesgue_density(
    body: ConvexBody, x, radius: float, samples: int = 20000, seed: int = 0
):
    """Monte Carlo estimate of vol(body ∩ B(x, radius)) / vol(B(x, radius)).

    x is one point, shape (n,), which gives one EstimateWithError
    (monte_carlo method), or a batch, shape (N, n), which gives a list of
    them. Every point uses the same draws (offsets within the ball) and the
    batch shares one contains call, so each estimate equals the one-point
    call's bit for bit.
    """
    if radius <= 0:
        raise ParameterError("radius must be positive")
    if samples < 1000:
        raise ParameterError("samples must be >= 1e3")
    x = np.asarray(x, dtype=float)
    if x.ndim not in (1, 2) or x.shape[-1] != body.dim:
        raise ParameterError(f"x must have shape (n,) or (N, n) with n={body.dim}, got {x.shape}")
    rng = np.random.default_rng([seed, 0])
    d = rng.standard_normal((samples, body.dim))
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    r = radius * rng.uniform(size=samples) ** (1.0 / body.dim)
    pts = x[..., None, :] + d * r[:, None]
    hits = body.contains(pts.reshape(-1, body.dim)).reshape(-1, samples).astype(float)
    estimates = []
    for row in hits:
        p = float(np.mean(row))
        se = math.sqrt(max(p * (1.0 - p), 1.0 / samples) / samples)
        estimates.append(
            EstimateWithError(value=p, std_error=se, n_samples=samples, method="monte_carlo")
        )
    return estimates if x.ndim == 2 else estimates[0]
