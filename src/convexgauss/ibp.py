"""Two-sided verification of the boundary integration-by-parts identity.

For an open convex body with gauge p and a bounded Lipschitz test function
psi, the volume integral of the adjoint derivative over the body equals the
boundary integral of psi * (d_k p)/|grad p| against the Gaussian surface
measure. The left side is the Monte Carlo indicator estimate
E[1_body * (d_k psi - psi <k, x>)] over plain Gaussian draws, the right side
goes through the boundary-graph parameterization; the two pipelines share
no numerics, so agreement is evidence, not tautology. Both verify_ibp and
lhs_volume_integral take one direction k or a stack of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bodies import _SCHEMA, ConvexBody, _check_fields, minkowski_gradient_fd
from .errors import (
    DegeneracyError,
    DomainError,
    MassError,
    OracleIntegrityError,
    ParameterError,
)
# boundary_classify, choose_direction, decompose,
# default_direction_candidates and graph_value_and_gradient are not called
# here, and neither is graph_surface_integral below: they stay imported
# because perfbench/tracer.py wraps them in this module, until the
# in-library run recorder of ROADMAP item 7 replaces that tracer
from .graphs import (  # noqa: F401
    GraphPair,
    _classify,
    _pair_body,
    _require_fit,
    _stencil_gradient,
    boundary_classify,
    choose_direction,
    decompose,
    default_direction_candidates,
    graph_value_and_gradient,
)
from .space import (
    DEFAULT_FD_STEP,
    TestFunction,
    _direction_stack,
    adjoint_derivative,
    as_direction,
    map_chunks,
)
from .surface import (  # noqa: F401
    Budget,
    EstimateWithError,
    _boundary_sum,
    graph_surface_integral,
)

__all__ = [
    "VerificationReport",
    "lhs_volume_integral",
    "rhs_surface_integral",
    "verify_ibp",
    "gradient_formula_check",
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
    """Build a test function from a config mapping {"name": ..., params}.

    Raises ParameterError naming a missing or unknown field or a field that
    holds no value of its kind.
    """
    if not isinstance(spec, dict) or "name" not in spec:
        raise ParameterError(f"psi spec must be a mapping with 'name': {spec!r}")
    name = spec["name"]
    if not _SCHEMA["psi"]["name"].valid(name, None):
        raise ParameterError(f"psi.name: unknown test function {name!r}")
    _check_fields("psi", spec, {**_SCHEMA["psi"], **_SCHEMA[f"psi.{name}"]}, ParameterError)
    if name == "constant":
        return constant(spec.get("value", 1.0))
    if name == "coordinate":
        return coordinate(int(spec["index"]))
    if name == "tanh":
        return tanh_of(spec["weights"], spec.get("offset", 0.0))
    return distance_clamp(spec["center"], spec.get("inner", 1.0), spec.get("outer", 2.0))


def validate_test_function(psi: TestFunction, dim: int, seed: int = 0) -> None:
    """Sampled Lipschitz check: |psi(x)-psi(y)| <= L |x-y| on 500 random
    pairs in the box [-4, 4]^dim."""
    rng = np.random.default_rng([seed, 7])
    x = rng.uniform(-4.0, 4.0, size=(500, dim))
    y = rng.uniform(-4.0, 4.0, size=(500, dim))
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
):
    """Monte Carlo estimate of the volume integral of the adjoint derivative
    of psi along k over the body, against the ambient Gaussian, from
    budget.samples draws on budget.threads workers (central differences of
    step budget.fd_step when psi has no analytic gradient).

    Uses the indicator estimator E[1_body * (d_k psi - psi <k, x>)]; the
    acceptance rate is pre-flighted and MassError raised below 1e-3.
    k: one direction (n,), giving one EstimateWithError, or a stack (K, n),
    giving a list of K. A stack shares the draws, their membership and the
    evaluations of psi and its gradient; each estimate equals the
    one-direction call bit for bit.
    """
    budget = Budget.from_any(budget)
    ks, single = _direction_stack(k, body.dim)
    rng = np.random.default_rng([seed, 999983])
    pre = rng.standard_normal((PREFLIGHT_SAMPLES, body.dim))
    acceptance = float(np.mean(body.contains(pre)))
    if acceptance < MIN_ACCEPTANCE:
        raise MassError(
            f"body mass estimate {acceptance:.2e} is below {MIN_ACCEPTANCE}; "
            "translate the body toward the origin or enlarge it"
        )

    stack = np.stack(ks)

    def chunk(idx, size):
        crng = np.random.default_rng([seed, idx])
        x = crng.standard_normal((size, body.dim))
        vals = adjoint_derivative(psi, stack, x, fd_step=budget.fd_step)
        vals = np.where(body.contains(x), vals, 0.0)
        return [np.array([np.sum(v), np.sum(v * v), size]) for v in vals]

    chunks = map_chunks(chunk, budget.samples, threads=budget.threads)
    estimates = []
    for j in range(len(ks)):
        total, total_sq, n = np.sum([stats[j] for stats in chunks], axis=0)
        mean = total / n
        var = max(total_sq / n - mean * mean, 0.0)
        se = math.sqrt(var / n)
        estimates.append(
            EstimateWithError(
                value=float(mean),
                std_error=float(se),
                n_samples=int(n),
                method="monte_carlo",
                details={"acceptance": acceptance},
            )
        )
    return estimates[0] if single else estimates


def rhs_surface_integral(
    pair: GraphPair, psi: TestFunction, k, budget=None, seed: int = 0
) -> EstimateWithError:
    """Boundary integral of psi * (d_k p)/|grad p| = psi * <nu, k> over the
    boundary of the pair's body, nu the outward unit normal, summed over the
    finite graphs; infinite graphs contribute nothing."""
    budget = Budget.from_any(budget)
    k = as_direction(k, dim=pair.direction.size)
    return _boundary_sum(pair, lambda x, nu: np.asarray(psi(x), dtype=float) * (nu @ k), budget, seed)


def verify_ibp(
    pair: GraphPair, psi: TestFunction, k, budget=None, seed: int = 0, tol: Optional[float] = None
):
    """Run both sides of the boundary integration-by-parts identity on the
    pair's body, the right side along the pair's direction, and compare them
    at tolerance `tol` (default: three summed standard errors).

    To choose the direction, pass the pair of decompose(body, h,
    vertical_mass=...) with choose_direction's h and estimate.
    k: one direction (n,), giving one VerificationReport, or a stack (K, n),
    giving a list of K. A stack checks the vertical mass once, shares one
    pass over the draws on the left side and one set of graph nodes on the
    right; each report equals the one-direction call bit for bit.
    """
    body = _pair_body(pair)
    budget = Budget.from_any(budget)
    ks, single = _direction_stack(k, body.dim)
    lhs = lhs_volume_integral(body, psi, np.stack(ks), budget=budget, seed=seed)
    reports = []
    for kj, lhs_j in zip(ks, lhs):
        rhs = rhs_surface_integral(pair, psi, kj, budget=budget, seed=seed)
        metadata = {
            "body": body.spec or {"shape": body.shape_tag},
            "psi": psi.name,
            "k": [float(v) for v in kj],
            "h": [float(v) for v in pair.direction],
            "dim": body.dim,
            "seed": seed,
            "samples": budget.samples,
            "case": pair.case_tag,
            # the estimate the right side checked
            "vertical_mass": pair._vertical_mass.value,
        }
        reports.append(
            VerificationReport.from_estimates(lhs_j, rhs, configured_tol=tol, metadata=metadata)
        )
    return reports[0] if single else reports


def gradient_formula_check(pair: GraphPair, x):
    """Relative deviation between the graph-based gauge gradient formula and
    the central-difference gauge gradient at boundary points x of the pair's
    body.

    On the upper graph the formula is (-grad f(y) + h) / (f(y) - <grad f, y>);
    on the lower graph (grad g(y) - h) / (<grad g, y> - g(y)). Also enforces
    that the normalized formula equals the (signed) graph normal to 1e-6.
    x: one point (n,), giving a float, or a batch (N, n), giving (N,)
    deviations. A batch holds nan at vertical points and where a scaling
    denominator vanishes; a single point raises DomainError or
    DegeneracyError there instead. OracleIntegrityError and MarginError
    raise for the whole batch.
    """
    X = np.asarray(x, dtype=float)
    scalar = X.ndim == 1
    X = np.atleast_2d(X)
    labels, lower, upper = _classify(pair, X)
    if scalar and labels[0] == "vertical":
        raise DomainError("boundary point is vertical: no graph gradient applies")
    h = pair.direction
    Y = X - np.outer(X @ h, h)
    on_graph = np.flatnonzero(labels != "vertical")
    stencils = _stencil_gradient(pair, Y[on_graph], DEFAULT_FD_STEP)
    formula = np.full(X.shape, np.nan)
    graph = np.zeros(X.shape[0], dtype=bool)  # rows with a usable formula
    for which, sign, ends in (("upper", 1.0, upper), ("lower", -1.0, lower)):
        mine = labels[on_graph] == f"{which}_graph"
        if not mine.any():
            continue
        rows = on_graph[mine]
        grad, ok = (v[mine] for v in stencils[which])
        _require_fit(ok)
        den = sign * (ends[rows] - np.einsum("ij,ij->i", grad, Y[rows]))
        degenerate = np.abs(den) < 1e-8
        if scalar and degenerate[0]:
            raise DegeneracyError(f"gauge-formula denominator {den[0]:.2e} is numerically zero")
        rows, den, grad = rows[~degenerate], den[~degenerate], grad[~degenerate]
        if np.any(den < 0):
            raise OracleIntegrityError(
                "gauge-formula denominator must be positive on boundary graphs"
            )
        formula[rows] = sign * (h - grad) / den[:, None]
        graph[rows] = True
        # normalized formula must reproduce the (signed) graph normal
        nu = (h - grad) / np.sqrt(1.0 + np.sum(grad * grad, axis=1))[:, None]
        normalized = formula[rows] / np.linalg.norm(formula[rows], axis=1, keepdims=True)
        if np.any(np.linalg.norm(normalized - sign * nu, axis=1) > 1e-6):
            raise OracleIntegrityError(
                "normalized gauge-gradient formula deviates from the graph normal"
            )
    errs = np.full(X.shape[0], np.nan)
    rows = np.flatnonzero(graph)
    if rows.size:
        fd_grad = minkowski_gradient_fd(pair.body, X[rows])
        denom = np.linalg.norm(fd_grad, axis=1)
        if scalar and denom[0] == 0:
            raise DegeneracyError("finite-difference gauge gradient vanished")
        ok = denom > 0
        errs[rows[ok]] = np.linalg.norm(formula[rows[ok]] - fd_grad[ok], axis=1) / denom[ok]
    return float(errs[0]) if scalar else errs
