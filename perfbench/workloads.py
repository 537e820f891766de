"""Seeded workload generator for the convexgauss benchmark.

``generate(workload, seed)`` returns the fixed call list of one pass. Every
input the program sees is made here from the seed with the standard
library's ``random.Random``, so the same seed gives byte-identical configs
(see ``fingerprint``) and nothing here imports convexgauss.

Each call carries the references its outputs are checked against. Calls
marked ``panel=True`` have inputs that do not depend on the seed; their
reference errors make up ``rel_err.max``, so that metric measures the
numerics rather than the draw. Every other reference is still checked
against its bound and counts toward failures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from typing import Optional

WORKLOADS = ("boundary", "ibp_volume")
DEFAULT_SEED = 1

# Sizes of one pass. They set run_s, so changing them re-baselines the
# benchmark.
MEASURE_BUDGET = {
    "samples": 40_000,
    "angles": 256,
    "radial": 12,
    "sphere_grid": [6, 12],
}
SUBSPACE_BUDGET = {
    "subspace_samples": 80,
    "inner_angles": 256,
    "inner_sphere_grid": [12, 24],
}
# One content-route standard error is about 5% of the perimeter at these
# budgets. The program's default tolerance, three errors or 2%, would fail a
# correct run of a seeded call 0.27% of the time, so these calls allow 25%
# (five errors).
PERIMETER_TOLERANCES = {"perimeter_relative": 0.25}
GRADCHECK_POINTS = 24
# A pass holds an odd number of calls (seven and five) of well-separated
# costs, so the pooled median and 75th percentile of call times fall inside
# one call's repeats rather than in the gap between two calls, where they
# would jump from run to run.
IBP_SAMPLES = 2_000_000
IBP_THREADS = 2
IBP_ORDER_4D = 16


@dataclass
class Reference:
    """An expected value for one field (``lhs`` or ``rhs``) of a CLI result
    record, with the relative error allowed. A zero ``value`` marks a field
    that is itself a relative error, such as the gradient check's median
    deviation from the finite-difference gauge gradient; it is compared with
    the bound directly."""

    record: int
    field: str
    value: float
    rel_bound: float
    what: str


@dataclass
class Call:
    """One closed-loop call: a CLI run of a generated config."""

    name: str
    subcommand: str
    config: dict
    threads: Optional[int] = None
    references: list = field(default_factory=list)
    panel: bool = False


@dataclass
class Workload:
    name: str
    calls: list
    # the config run at one and two threads after timing, by call name
    thread_check: Optional[str] = None


def _round(x: float) -> float:
    return round(float(x), 6)


def _unit(v):
    n = math.sqrt(sum(c * c for c in v))
    return [c / n for c in v]


def _random_unit(rng: random.Random, dim: int, floor: float = 0.0):
    """Uniform unit vector; with ``floor`` > 0, every |component| >= floor."""
    while True:
        v = _unit([rng.gauss(0.0, 1.0) for _ in range(dim)])
        if min(abs(c) for c in v) >= floor:
            return v


def _dot(a, b) -> float:
    return sum(x * y for x, y in zip(a, b))


def _phi(t: float) -> float:
    return math.exp(-0.5 * t * t) / math.sqrt(2.0 * math.pi)


def ball_surface_measure(r: float, n: int) -> float:
    """Gaussian surface measure of the centred ball of radius r in R^n."""
    return 2.0 * r ** (n - 1) * math.exp(-0.5 * r * r) / (2.0 ** (n / 2) * math.gamma(n / 2))


def _gauss_expect_tanh(mean: float, sd: float) -> float:
    """E tanh(mean + sd Z) for standard normal Z, by adaptive quadrature."""
    from scipy.integrate import quad

    if sd == 0.0:
        return math.tanh(mean)
    val, _ = quad(
        lambda z: math.tanh(mean + sd * z) * _phi(z), -40.0, 40.0, epsabs=1e-14, epsrel=1e-13, limit=400
    )
    return val


def _plane_mean_psi(psi: dict, n, t: float) -> float:
    """E psi(Y + t n) for Y standard Gaussian on the hyperplane normal to n."""
    if psi["name"] == "constant":
        return psi["value"]
    if psi["name"] == "coordinate":
        return t * n[psi["index"]]
    w = psi["weights"]
    wn = _dot(w, n)
    sd = math.sqrt(max(_dot(w, w) - wn * wn, 0.0))
    return _gauss_expect_tanh(psi.get("offset", 0.0) + t * wn, sd)


def ibp_rhs_reference(body: dict, psi: dict, k) -> float:
    """Closed-form right-hand side of the identity on a halfspace or slab,
    graphed along its own normal: <n, k> times the Gaussian-weighted face
    means of psi (one face for a halfspace, the signed pair for a slab)."""
    n = body["normal"]
    nk = _dot(n, k)
    if body["shape"] == "halfspace":
        c = body["offset"]
        return nk * _phi(c) * _plane_mean_psi(psi, n, c)
    w = body["half_width"]
    return nk * _phi(w) * (_plane_mean_psi(psi, n, w) - _plane_mean_psi(psi, n, -w))


# --------------------------------------------------------------- workloads


def _ellipsoid_spec(rng):
    """Seeded semiaxes with product one: the shape varies, the volume and
    so the work per call stay close to the unit ball's."""
    logs = [rng.uniform(-0.25, 0.25) for _ in range(3)]
    mean = sum(logs) / 3.0
    return {"shape": "ellipsoid", "semiaxes": [_round(math.exp(v - mean)) for v in logs]}


def _polytope_spec(rng):
    """Eight faces around the cube's corner directions, perturbed by the seed,
    so the body is always bounded and its cost stays near the cube's."""
    faces = []
    for sx in (1, -1):
        for sy in (1, -1):
            for sz in (1, -1):
                v = [c + 0.25 * rng.gauss(0.0, 1.0) for c in (sx, sy, sz)]
                faces.append({"normal": _unit(v), "offset": _round(rng.uniform(0.9, 1.4))})
    return {"shape": "polytope", "faces": faces}


def _boundary(seed: int) -> Workload:
    rng = random.Random(f"boundary:{seed}")
    cfg_seed = rng.randrange(1, 2**31)
    calls = []
    calls.append(
        Call(
            name="perimeter_ball4d",
            subcommand="perimeter",
            config={
                "model": {"dim": 4},
                "body": {"shape": "ball", "radius": 1.2},
                "directions": {"h": [0.0, 0.0, 0.0, 1.0]},
                "budgets": MEASURE_BUDGET,
                "seed": 104,
            },
            references=[Reference(0, "lhs", ball_surface_measure(1.2, 4), 1e-6, "graph route vs closed form")],
            panel=True,
        )
    )
    calls.append(
        Call(
            name="perimeter_ellipsoid3d",
            subcommand="perimeter",
            config={
                "model": {"dim": 3},
                "body": _ellipsoid_spec(rng),
                "directions": {"h": [0.0, 0.0, 1.0]},
                "budgets": MEASURE_BUDGET,
                "tolerances": PERIMETER_TOLERANCES,
                "seed": cfg_seed,
            },
        )
    )
    calls.append(
        Call(
            name="perimeter_polytope3d",
            subcommand="perimeter",
            config={
                "model": {"dim": 3},
                "body": _polytope_spec(rng),
                "budgets": MEASURE_BUDGET,
                "tolerances": PERIMETER_TOLERANCES,
                "seed": cfg_seed + 1,
            },
        )
    )
    calls.append(
        Call(
            name="surface_ellipsoid3d",
            subcommand="surface",
            config={
                "model": {"dim": 3},
                "body": _ellipsoid_spec(rng),
                "directions": {"h": [1.0, 0.0, 0.0]},
                "subspaces": [[0], [0, 1], [0, 1, 2]],
                "budgets": SUBSPACE_BUDGET,
                "seed": cfg_seed + 2,
            },
        )
    )
    return Workload("boundary", calls + _gradchecks())


def _gradchecks():
    """Gradient checks on a polytope, an ellipsoid and a cylinder, fixed
    rather than seeded: a check point near the projected rim of h takes the
    golden-section fallback, 100 times the cost of the others, and a draw
    holds anywhere from none to several such points."""
    fixed = random.Random("boundary:gradcheck")
    budget = {"boundary_samples": GRADCHECK_POINTS}
    cylinder = {"shape": "cylinder", "axis": [0.0, 0.0, 1.0], "base": {"shape": "ball", "radius": 1.0}}
    checks = [
        ("gradcheck_polytope3d", _polytope_spec(fixed), _random_unit(fixed, 3, floor=0.2), 301),
        ("gradcheck_ellipsoid3d", _ellipsoid_spec(fixed), _random_unit(fixed, 3, floor=0.2), 302),
        # thin sections near the projected rim: h crosses the axis
        ("gradcheck_cylinder3d", cylinder, [1.0, 0.0, 0.0], 303),
    ]
    return [
        Call(
            name=name,
            subcommand="gradcheck",
            config={"model": {"dim": 3}, "body": body, "directions": {"h": h}, "budgets": budget, "seed": cfg_seed},
            references=[Reference(0, "lhs", 0.0, 1e-3, "gauge-gradient formula vs finite differences")],
            panel=True,
        )
        for name, body, h, cfg_seed in checks
    ]


def _lhs_second_moment_bound(psi: dict, ks) -> float:
    """Upper bound on E[(d_k psi - psi <k, x>)^2] under the Gaussian, for
    unit k, maximised over the call's directions."""
    if psi["name"] == "constant":
        return psi["value"] ** 2
    if psi["name"] == "coordinate":
        return max(1.0 + k[psi["index"]] ** 2 for k in ks)
    return max((abs(_dot(psi["weights"], k)) + 1.0) ** 2 for k in ks)


def _ibp_call(name, dim, body, psi, ks, cfg_seed, order=None, panel=False):
    """An ibp config, or None when a right-hand side is too small to tell
    from the Monte Carlo tolerance (the program would call it inconclusive).

    The verdict tolerance is set to five times a bound on the left side's
    standard error, so a correct program fails a call with probability
    below 1e-6 instead of the 0.27% of the default three estimated errors.
    """
    tol = 5.0 * math.sqrt(_lhs_second_moment_bound(psi, ks) / IBP_SAMPLES)
    rhs = [ibp_rhs_reference(body, psi, k) for k in ks]
    if min(abs(r) for r in rhs) < 5.0 * tol:
        return None
    budgets = {"samples": IBP_SAMPLES}
    if order is not None:
        budgets["quadrature_order"] = order
    return Call(
        name=name,
        subcommand="ibp",
        threads=IBP_THREADS,
        config={
            "model": {"dim": dim},
            "body": body,
            "psi": psi,
            "directions": {"k": ks, "h": body["normal"]},
            "budgets": budgets,
            "tolerances": {"ibp": tol},
            "seed": cfg_seed,
        },
        references=[
            Reference(i, "rhs", r, 1e-5, "graph-side integral vs closed form") for i, r in enumerate(rhs)
        ],
        panel=panel,
    )


def _k_pair(rng, n):
    """The body normal and a seeded direction well away from its hyperplane."""
    while True:
        k = _random_unit(rng, len(n))
        if abs(_dot(k, n)) >= 0.4:
            return [list(n), k]


def _ibp_volume(seed: int) -> Workload:
    rng = random.Random(f"ibp_volume:{seed}")
    cfg_seed = rng.randrange(1, 2**31)

    def halfspace3():
        return {"shape": "halfspace", "normal": _random_unit(rng, 3), "offset": _round(rng.uniform(0.3, 1.0))}

    def slab3():
        return {"shape": "slab", "normal": _random_unit(rng, 3), "half_width": _round(rng.uniform(0.6, 1.2))}

    def constant(body):
        return {"name": "constant", "value": 1.0}

    def coordinate(body):
        # the coordinate most aligned with the normal keeps the face term large
        return {"name": "coordinate", "index": max(range(3), key=lambda i: abs(body["normal"][i]))}

    def tanh(body):
        weights = [_round(rng.uniform(-1.0, 1.0)) for _ in range(3)]
        return {"name": "tanh", "weights": weights, "offset": _round(rng.uniform(0.2, 0.6))}

    plan = [
        ("ibp_halfspace3d_constant", halfspace3, constant),
        ("ibp_halfspace3d_tanh", halfspace3, tanh),
        ("ibp_slab3d_coordinate", slab3, coordinate),
        ("ibp_slab3d_tanh", slab3, tanh),
    ]
    calls = []
    for i, (name, make_body, make_psi) in enumerate(plan):
        call = None
        while call is None:
            body = make_body()
            call = _ibp_call(name, 3, body, make_psi(body), _k_pair(rng, body["normal"]), cfg_seed + i)
        calls.append(call)
    # fixed 4-d halfspace: tensor Gauss-Hermite over the 3-d hyperplane at a
    # reduced order; its tanh face mean is the benchmark's quadrature probe
    n4 = _unit([1.0, 0.5, -0.5, 0.25])
    calls.append(
        _ibp_call(
            "ibp_halfspace4d_tanh",
            4,
            {"shape": "halfspace", "normal": n4, "offset": 0.6},
            {"name": "tanh", "weights": [0.8, -0.6, 0.4, 0.7], "offset": 0.3},
            [n4, _unit([0.5, 1.0, 0.25, -0.5])],
            404,
            order=IBP_ORDER_4D,
            panel=True,
        )
    )
    return Workload("ibp_volume", calls, thread_check="ibp_halfspace3d_constant")


_GENERATORS = {
    "boundary": _boundary,
    "ibp_volume": _ibp_volume,
}


def generate(workload: str, seed: int) -> Workload:
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](int(seed))


def fingerprint(work: Workload) -> str:
    """SHA-256 over every generated input of a workload."""
    payload = [{"name": c.name, "subcommand": c.subcommand, "config": c.config} for c in work.calls]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
