"""Two-sided checks of the boundary integration-by-parts identity.

For each (body, psi, k) the volume integral of the adjoint derivative is
matched against the boundary integral of psi weighted by the normal
component along k. The two sides come from unrelated pipelines (rejection
Monte Carlo vs boundary-graph quadrature), so agreement is informative.
"""

import numpy as np

import convexgauss as cg

G1_AT_1 = 0.24197072451914337

runs = [
    (
        "halfspace x1<1, psi=1, k=e1 (closed form: G1(1))",
        cg.halfspace([1.0, 0.0, 0.0], 1.0),
        cg.constant(1.0),
        [1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0],
    ),
    (
        "ball r=1.5 in R^3, psi=tanh(x1+x2), k=e2",
        cg.ball(1.5, 3),
        cg.tanh_of([1.0, 1.0, 0.0]),
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ),
    (
        "ellipsoid (1,2), psi=x2, k=e2",
        cg.ellipsoid([1.0, 2.0]),
        cg.coordinate(1),
        [0.0, 1.0],
        [0.0, 1.0],
    ),
]

for name, body, psi, k, h in runs:
    pair = cg.decompose(body, np.asarray(h), seed=11)
    report = cg.verify_ibp(pair, psi, np.asarray(k), budget={"samples": 400_000}, seed=11)
    print(name)
    print(
        f"  lhs {report.lhs.value:+.6f} (se {report.lhs.std_error:.1e})   "
        f"rhs {report.rhs.value:+.6f} (se {report.rhs.std_error:.1e})"
    )
    print(f"  |diff| {report.abs_diff:.2e} <= tol {report.tolerance:.2e}: {report.verdict}")
print(f"reference G1(1) = {G1_AT_1:.7f}")
