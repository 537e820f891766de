"""Boundary measure through nested finite-dimensional subspaces.

The subspace measure can only grow as the subspace grows; at full dimension
it equals the perimeter. Common random numbers (a shared seed) keep the
chain comparable at modest sample counts.
"""

import numpy as np

import convexgauss as cg

body = cg.ellipsoid([1.0, 0.7, 0.5])
h = np.eye(3)[0]
budget = {"subspace_samples": 2000, "inner_angles": 1024}

print("ellipsoid (1, 0.7, 0.5), chain e1 -> e1,e2 -> full:")
values = []
for axes in ([0], [0, 1], [0, 1, 2]):
    F = np.eye(3)[axes]
    est = cg.subspace_hausdorff(body, F, budget=budget, seed=17)
    values.append(est)
    axes_s = "+".join(f"e{a+1}" for a in axes)
    print(f"  F = {axes_s:10s} value {est.value:.5f}  se {est.std_error:.5f}  ({est.method})")

pair = cg.decompose(body, h)
perim = cg.total_boundary_measure(pair, seed=17)
print(f"  graph-route perimeter (reference): {perim.value:.5f}")
print("  monotone:", all(a.value <= b.value + 1e-9 + 3*(a.std_error+b.std_error)
                         for a, b in zip(values, values[1:])))
