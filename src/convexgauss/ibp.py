"""Two-sided verification of the boundary integration-by-parts identity.

For an open convex body with gauge p and a bounded Lipschitz test function
psi, the volume integral of the adjoint derivative over the body equals the
boundary integral of psi * (d_k p)/|grad p| against the Gaussian surface
measure. The left side is estimated by rejection-sampled Monte Carlo, the
right side through the boundary-graph parameterization; the two pipelines
share no numerics, so agreement is evidence, not tautology.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bodies import ConvexBody, minkowski_gradient_fd
from .errors import (
    DegeneracyError,
    DirectionError,
    DomainError,
    MassError,
    OracleIntegrityError,
    ParameterError,
)
from .graphs import (
    GraphPair,
    boundary_classify,
    choose_direction,
    decompose,
    default_direction_candidates,
    graph_value_and_gradient,
)
from .space import TestFunction, adjoint_derivative, as_direction, map_chunks
from .surface import Budget, EstimateWithError, _check_vertical_mass, graph_surface_integral

__all__ = [
    "VerificationReport",
    "lhs_volume_integral",
    "rhs_surface_integral",
    "verify_ibp",
    "gradient_formula_check",
    "vector_measure_check",
    "constant",
    "coordinate",
    "tanh_of",
    "distance_clamp",
    "validate_test_function",
    "psi_from_spec",
]

MIN_ACCEPTANCE = 1e-3
PREFLIGHT_SAMPLES = 10_000


# ---------------------------------------------------------------- psi library


def constant(value: float = 1.0) -> TestFunction:
    return TestFunction(
        evaluator=lambda x: np.full(np.atleast_2d(x).shape[0], float(value)),
        lipschitz_bound=1.0,
        analytic_gradient=lambda x: np.zeros_like(np.atleast_2d(x)),
        name=f"constant({value})",
    )


def coordinate(index: int) -> TestFunction:
    def grad(x):
        x = np.atleast_2d(x)
        g = np.zeros_like(x)
        g[..., index] = 1.0
        return g

    return TestFunction(
        evaluator=lambda x: np.atleast_2d(x)[..., index],
        lipschitz_bound=1.0,
        analytic_gradient=grad,
        name=f"coordinate({index})",
    )


def tanh_of(weights, offset: float = 0.0) -> TestFunction:
    w = np.asarray(weights, dtype=float)

    def ev(x):
        return np.tanh(np.atleast_2d(x) @ w + offset)

    def grad(x):
        t = np.tanh(np.atleast_2d(x) @ w + offset)
        return (1.0 - t * t)[:, None] * w

    return TestFunction(
        evaluator=ev,
        lipschitz_bound=float(np.linalg.norm(w)),
        analytic_gradient=grad,
        name=f"tanh(<w,x>+{offset})",
    )


def distance_clamp(center, inner: float = 1.0, outer: float = 2.0) -> TestFunction:
    """1 inside B(center, inner), 0 outside B(center, outer), linear between."""
    c = np.asarray(center, dtype=float)
    if not outer > inner > 0:
        raise ParameterError("need outer > inner > 0")
    slope = 1.0 / (outer - inner)

    def ev(x):
        d = np.linalg.norm(np.atleast_2d(x) - c, axis=-1)
        return np.clip((outer - d) * slope, 0.0, 1.0)

    def grad(x):
        x = np.atleast_2d(x)
        diff = x - c
        d = np.linalg.norm(diff, axis=-1)
        band = (d > inner) & (d < outer)
        g = np.zeros_like(x)
        safe = np.maximum(d, 1e-30)
        g[band] = (-slope / safe[band])[:, None] * diff[band]
        return g

    return TestFunction(
        evaluator=ev,
        lipschitz_bound=slope,
        analytic_gradient=grad,
        name=f"distance_clamp(inner={inner},outer={outer})",
    )


def psi_from_spec(spec: dict) -> TestFunction:
    """Build a test function from a config mapping {"name": ..., params}."""
    if not isinstance(spec, dict) or "name" not in spec:
        raise ParameterError(f"psi spec must be a mapping with 'name': {spec!r}")
    name = spec["name"]
    if name == "constant":
        return constant(spec.get("value", 1.0))
    if name == "coordinate":
        return coordinate(int(spec["index"]))
    if name == "tanh":
        return tanh_of(spec["weights"], spec.get("offset", 0.0))
    if name == "distance_clamp":
        return distance_clamp(
            spec["center"], spec.get("inner", 1.0), spec.get("outer", 2.0)
        )
    raise ParameterError(f"psi.name: unknown test function {name!r}")


def validate_test_function(
    psi: TestFunction, dim: int, seed: int = 0, pairs: int = 500, box: float = 4.0
) -> None:
    """Sampled Lipschitz check: |psi(x)-psi(y)| <= L |x-y| on random pairs."""
    rng = np.random.default_rng([seed, 7])
    x = rng.uniform(-box, box, size=(pairs, dim))
    y = rng.uniform(-box, box, size=(pairs, dim))
    lhs = np.abs(psi(x) - psi(y))
    rhs = psi.lipschitz_bound * np.linalg.norm(x - y, axis=-1)
    bad = lhs > rhs * (1 + 1e-9) + 1e-12
    if bad.any():
        raise OracleIntegrityError(
            f"{psi.name} violates its Lipschitz bound on {int(bad.sum())} sampled pairs"
        )


# ------------------------------------------------------------------- reports


@dataclass(frozen=True)
class VerificationReport:
    """Paired left/right estimates of an identity with a verdict.

    verdict: 'pass' when |lhs-rhs| <= tolerance, 'fail' otherwise, and
    'inconclusive' when the tolerance itself dwarfs the signal
    (tolerance > 0.25 * max(|lhs|, |rhs|, 0.01)). The tolerance is the
    configured one, else three times the summed standard errors.
    """

    lhs: EstimateWithError
    rhs: EstimateWithError
    abs_diff: float
    tolerance: float
    verdict: str
    metadata: dict = field(default_factory=dict)

    @staticmethod
    def from_estimates(
        lhs: EstimateWithError,
        rhs: EstimateWithError,
        configured_tol: Optional[float] = None,
        metadata: Optional[dict] = None,
    ) -> "VerificationReport":
        diff = abs(lhs.value - rhs.value)
        tol = (
            configured_tol
            if configured_tol is not None
            else 3.0 * (lhs.std_error + rhs.std_error)
        )
        noise_floor = 0.25 * max(abs(lhs.value), abs(rhs.value), 0.01)
        if tol > noise_floor:
            verdict = "inconclusive"
        elif diff <= tol:
            verdict = "pass"
        else:
            verdict = "fail"
        return VerificationReport(
            lhs=lhs,
            rhs=rhs,
            abs_diff=diff,
            tolerance=tol,
            verdict=verdict,
            metadata=metadata or {},
        )


# ----------------------------------------------------------------- integrals


def lhs_volume_integral(
    body: ConvexBody,
    psi: TestFunction,
    k,
    budget=None,
    seed: int = 0,
) -> EstimateWithError:
    """Monte Carlo estimate of the volume integral of the adjoint derivative
    of psi along k over the body, against the ambient Gaussian, from
    budget.samples draws on budget.threads workers (central differences of
    step budget.fd_step when psi has no analytic gradient).

    Uses the indicator estimator E[1_body * (d_k psi - psi <k, x>)]; the
    acceptance rate is pre-flighted and MassError raised below 1e-3.
    """
    budget = Budget.from_any(budget)
    k = as_direction(k, dim=body.dim)
    rng = np.random.default_rng([seed, 999983])
    pre = rng.standard_normal((PREFLIGHT_SAMPLES, body.dim))
    acceptance = float(np.mean(body.contains(pre)))
    if acceptance < MIN_ACCEPTANCE:
        raise MassError(
            f"body mass estimate {acceptance:.2e} is below {MIN_ACCEPTANCE}; "
            "translate the body toward the origin or enlarge it"
        )

    def chunk(idx, size):
        crng = np.random.default_rng([seed, idx])
        x = crng.standard_normal((size, body.dim))
        vals = adjoint_derivative(psi, k, x, fd_step=budget.fd_step)
        vals = np.where(body.contains(x), vals, 0.0)
        return np.array([np.sum(vals), np.sum(vals * vals), size])

    stats = np.sum(map_chunks(chunk, budget.samples, threads=budget.threads), axis=0)
    total, total_sq, n = stats
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0)
    se = math.sqrt(var / n)
    return EstimateWithError(
        value=float(mean),
        std_error=float(se),
        n_samples=int(n),
        seed=seed,
        method="monte_carlo",
        details={"acceptance": acceptance},
    )


def rhs_surface_integral(
    body: ConvexBody,
    pair: GraphPair,
    psi: TestFunction,
    k,
    budget=None,
    seed: int = 0,
    check_vertical: bool = True,
) -> EstimateWithError:
    """Boundary integral of psi * (d_k p)/|grad p| via the graph normals:
    the upper-graph term carries +<nu_upper, k>, the lower-graph term
    -<nu_lower, k>; infinite graphs contribute nothing."""
    budget = Budget.from_any(budget)
    k = as_direction(k, dim=body.dim)
    if not (pair.f_finite or pair.g_finite):
        raise DirectionError(
            "no finite graph along this direction; pick a transverse one"
        )
    if check_vertical:
        _check_vertical_mass(body, pair.direction, budget, seed)
    total = None
    for which, sign, finite in (
        ("upper", +1.0, pair.f_finite),
        ("lower", -1.0, pair.g_finite),
    ):
        if not finite:
            continue
        est = graph_surface_integral(
            pair,
            which,
            lambda x, nu: np.asarray(psi(x), dtype=float) * (nu @ k),
            budget=budget,
            seed=seed,
        ).scaled(sign)
        total = est if total is None else total + est
    return total


def verify_ibp(
    body: ConvexBody,
    psi: TestFunction,
    k,
    budget=None,
    seed: int = 0,
    h=None,
    candidates=None,
    tol: Optional[float] = None,
) -> VerificationReport:
    """Run both sides of the boundary integration-by-parts identity and
    compare them at tolerance `tol` (default: three summed standard errors).

    Without `h` the graph direction is chosen among `candidates` (default:
    the coordinate axes plus random directions) by least vertical mass.
    """
    budget = Budget.from_any(budget)
    k = as_direction(k, dim=body.dim)
    if h is not None:
        h = as_direction(np.asarray(h, dtype=float), dim=body.dim)
        vertical_mass = None
    else:
        if candidates is None:
            candidates = default_direction_candidates(body.dim, seed=seed)
        h, vertical_mass = choose_direction(
            body, candidates, boundary_samples=budget.boundary_samples, seed=seed
        )
    pair = decompose(body, h, seed=seed)
    lhs = lhs_volume_integral(body, psi, k, budget=budget, seed=seed)
    # a chosen direction already carries its vertical-mass estimate; a given
    # one is checked by the right side after its finite-graph check
    if vertical_mass is not None:
        _check_vertical_mass(body, h, budget, seed, vertical_mass)
    rhs = rhs_surface_integral(
        body, pair, psi, k, budget=budget, seed=seed, check_vertical=vertical_mass is None
    )
    metadata = {
        "body": body.spec or {"shape": body.shape_tag},
        "psi": psi.name,
        "k": [float(v) for v in k],
        "h": [float(v) for v in h],
        "dim": body.dim,
        "seed": seed,
        "samples": budget.samples,
        "case": pair.case_tag,
    }
    if vertical_mass is not None:
        metadata["vertical_mass"] = vertical_mass.value
    return VerificationReport.from_estimates(lhs, rhs, configured_tol=tol, metadata=metadata)


def gradient_formula_check(
    body: ConvexBody,
    pair: GraphPair,
    x,
    tol: float = 1e-10,
    fd_step: float = 1e-5,
) -> float:
    """Relative deviation between the graph-based gauge gradient formula and
    the central-difference gauge gradient at a boundary point x.

    On the upper graph the formula is (-grad f(y) + h) / (f(y) - <grad f, y>);
    on the lower graph (grad g(y) - h) / (<grad g, y> - g(y)). Also enforces
    that the normalized formula equals the (signed) graph normal to 1e-6.
    Raises DomainError at vertical points, DegeneracyError when the scaling
    denominator vanishes.
    """
    x = np.asarray(x, dtype=float)
    cls = boundary_classify(body, pair, x, tol=tol)
    if cls == "vertical":
        raise DomainError("boundary point is vertical: no graph gradient applies")
    h = pair.direction
    t = float(x @ h)
    y = x - t * h
    which = "upper" if cls == "upper_graph" else "lower"
    val, grad = graph_value_and_gradient(pair, which, y, fd_step=fd_step)
    if which == "upper":
        den = val - float(grad @ y)
        formula = (h - grad) / den
    else:
        den = float(grad @ y) - val
        formula = (grad - h) / den
    if abs(den) < 1e-8:
        raise DegeneracyError(f"gauge-formula denominator {den:.2e} is numerically zero")
    if den < 0:
        raise OracleIntegrityError(
            "gauge-formula denominator must be positive on boundary graphs"
        )
    # normalized formula must reproduce the (signed) graph normal
    root = math.sqrt(1.0 + float(grad @ grad))
    nu = (h - grad) / root
    normalized = formula / np.linalg.norm(formula)
    target = nu if which == "upper" else -nu
    if np.linalg.norm(normalized - target) > 1e-6:
        raise OracleIntegrityError(
            "normalized gauge-gradient formula deviates from the graph normal"
        )
    fd_grad = minkowski_gradient_fd(body, x, tol=tol)
    denom = np.linalg.norm(fd_grad)
    if denom == 0:
        raise DegeneracyError("finite-difference gauge gradient vanished")
    return float(np.linalg.norm(formula - fd_grad) / denom)


def vector_measure_check(
    body: ConvexBody,
    pair: GraphPair,
    phi: TestFunction,
    k,
    budget=None,
    seed: int = 0,
) -> VerificationReport:
    """Check the signed-measure representation of the indicator's weak
    gradient: the volume integral of the adjoint derivative of phi equals
    the upper-graph term minus the lower-graph term, each assembled from its
    own graph normal."""
    budget = Budget.from_any(budget)
    k = as_direction(k, dim=body.dim)
    lhs = lhs_volume_integral(body, phi, k, budget=budget, seed=seed)
    zero = EstimateWithError(0.0, 0.0, 0, seed, "closed_form")
    upper = (
        graph_surface_integral(
            pair, "upper", lambda x, nu: np.asarray(phi(x)) * (nu @ k), budget=budget, seed=seed
        )
        if pair.f_finite
        else zero
    )
    lower = (
        graph_surface_integral(
            pair, "lower", lambda x, nu: np.asarray(phi(x)) * (nu @ k), budget=budget, seed=seed
        )
        if pair.g_finite
        else zero
    )
    rhs = upper + lower.scaled(-1.0)
    metadata = {
        "body": body.spec or {"shape": body.shape_tag},
        "phi": phi.name,
        "k": [float(v) for v in k],
        "h": [float(v) for v in pair.direction],
        "upper_term": upper.value,
        "lower_term": lower.value,
        "case": pair.case_tag,
    }
    return VerificationReport.from_estimates(lhs, rhs, metadata=metadata)
