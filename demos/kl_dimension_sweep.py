"""Perimeter of the spectral-embedding ellipsoid as dimension grows.

The body is the image of a fixed function-space ball under a Brownian-type
spectral embedding: its whitened semiaxes grow fast, so late coordinates
barely constrain it and the perimeter settles as dimension increases.
Successive differences are reported; no convergence rate is claimed.
"""

import numpy as np

import convexgauss as cg

budget = {"angles": 512, "radial": 32, "sphere_grid": (32, 64), "samples": 60_000}

print(f"{'dim':>4s} {'perimeter':>11s} {'se':>9s} {'diff':>10s}")
prev = None
for dim in (2, 3, 4, 5):
    body = cg.kl_ellipsoid(dim, scale=1.0)
    pair = cg.decompose(body, np.eye(dim)[0])
    est = cg.total_boundary_measure(body, pair, budget=budget, seed=23)
    diff = "" if prev is None else f"{est.value - prev:+.6f}"
    print(f"{dim:4d} {est.value:11.6f} {est.std_error:9.1e} {diff:>10s}")
    prev = est.value
