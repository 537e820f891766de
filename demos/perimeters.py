"""Gaussian perimeters of convex bodies, computed two independent ways.

The graph route parameterizes the boundary as upper/lower graphs along a
direction and integrates the surface density; the content route measures
Gaussian mass in epsilon-shells and extrapolates. Closed forms exist for the
simple shapes, so both estimators can be judged against the truth.
"""

import math

import numpy as np

import convexgauss as cg

SHAPES = [
    ("disk r=1", cg.ball(1.0, 2), [0.0, 1.0], math.exp(-0.5)),
    ("ball r=1, R^3", cg.ball(1.0, 3), [0.0, 0.0, 1.0], None),
    ("slab |x1|<1", cg.slab([1.0, 0.0], 1.0), [1.0, 0.0], 2 * 0.24197072451914337),
    ("halfspace x1<1", cg.halfspace([1.0, 0.0], 1.0), [1.0, 0.0], 0.24197072451914337),
    ("ellipsoid (1,0.7,0.5)", cg.ellipsoid([1.0, 0.7, 0.5]), [1.0, 0.0, 0.0], None),
]

print(f"{'shape':24s} {'graph route':>12s} {'content route':>14s} {'closed form':>12s}")
for name, body, h, truth in SHAPES:
    pair = cg.decompose(body, np.asarray(h))
    graph = cg.total_boundary_measure(pair, seed=1)
    content = cg.minkowski_content_perimeter(body, budget={"samples": 400_000}, seed=1)
    truth_s = f"{truth:.7f}" if truth is not None else "-"
    print(f"{name:24s} {graph.value:12.7f} {content.value:14.7f} {truth_s:>12s}")
