"""Boundary graph decomposition: sections, finiteness cases, vertical sets.

A convex boundary splits into an upper graph, a lower graph, and a vertical
remainder once a direction is fixed. A cylinder seen along its axis is the
degenerate case: every section is a full line and the whole lateral boundary
is vertical, so the direction chooser must reject the axis.
"""

import numpy as np

import convexgauss as cg

e1, e2, e3 = np.eye(3)

disk = cg.ball(1.0, 2)
print("unit disk, direction e2:")
print("  case:", cg.classify_case(disk, np.array([0.0, 1.0])))
for y1 in (0.0, 0.6, 0.95):
    lo, hi = cg.section_interval(disk, np.array([0.0, 1.0]), np.array([y1, 0.0]))
    print(f"  section at y1={y1}: ({lo:+.6f}, {hi:+.6f})")

pair = cg.decompose(disk, np.array([0.0, 1.0]))
val, grad = cg.graph_value_and_gradient(pair, "upper", np.array([0.6, 0.0]))
print(f"  upper graph at 0.6: value {val:.6f}, slope {grad[0]:+.6f}")

print("\nhalfspace x1 < 1, direction e1:")
hs = cg.halfspace([1.0, 0.0], 1.0)
print("  case:", cg.classify_case(hs, np.array([1.0, 0.0])))
print("  section at 0:", cg.section_interval(hs, np.array([1.0, 0.0]), np.zeros(2)))

print("\ncylinder (disk x R), direction e3 vs e1:")
cyl = cg.cylinder(cg.ball(1.0, 2), e3)
print("  case along e3:", cg.classify_case(cyl, e3))
print("  case along e1:", cg.classify_case(cyl, e1))
pair3 = cg.decompose(cyl, e3)
x = np.array([1.0, 0.0, 5.0])
print("  lateral point classified:", cg.boundary_classify(pair3, x))
h, mass = cg.choose_direction(cyl, [e3, e1], boundary_samples=800, seed=3)
print(f"  chooser picks {h} with vertical mass {mass.value:.4f}")
