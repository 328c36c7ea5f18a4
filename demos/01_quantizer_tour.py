#!/usr/bin/env python3
"""Tour of the logarithmic quantizer and its lattice geometry.

Shows how a scalar axis partitions the line into a deadzone plus
geometrically growing regions, how boundary ownership keeps the partition
exact, and how the two-dimensional lattice clips cells to the working box.
"""

import numpy as np

import symquant as sq

# A value-anchored axis: the first positive level sits exactly at the scale.
axis = sq.LogQuantizerAxis(eta=0.2, scale=0.4)
print("density rho =", axis.rho)
print("deadzone    = [-%.6f, %.6f]" % (axis.deadzone, axis.deadzone))
# The regions are the cells of a 1-D lattice; its bounds lie past level 4,
# so the cells printed here are not clipped.
line = sq.LogLattice((axis,), (-5.0,), (5.0,))
for m in range(1, 5):
    box = line.cell_box((m,))
    print(f"level +{m}: region ({box.lo[0]:.4f}, {box.hi[0]:.4f}]  "
          f"value {axis.level_value(m):.4f}")

print()
for z in (0.2, 0.45, -0.45, 0.55, 5.0):
    level, value = axis.quantize(z)
    print(f"Q({z:+.2f}) -> level {level:+d}, value {value:+.4f}")

# Relative error stays within eta outside the deadzone.
rng = np.random.default_rng(0)
zs = rng.uniform(-20, 20, size=10000)
worst = 0.0
for z in zs:
    level, value = axis.quantize(z)
    if level != 0:
        worst = max(worst, abs(z - value) / abs(z))
print(f"\nworst relative error outside the deadzone: {worst:.4f} (eta = {axis.eta})")

# The 2-D lattice over [-1, 1]^2: valid levels are those whose value fits
# inside the bounds, and the outermost cells absorb the leftover slivers.
lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                    variant="edge_anchored")
cells = lattice.enumerate_cells()
print(f"\nedge-anchored lattice on [-1,1]^2: {len(cells)} cells, "
      f"levels {list(lattice.axis_levels(0))} per axis")
for level in lattice.axis_levels(0):
    box = lattice.cell_box((level, 0))
    lb = "(" if box.lo_open[0] else "["
    rb = "]" if not box.hi_open[0] else ")"
    print(f"  axis level {level:+d}: {lb}{box.lo[0]:+.3f}, {box.hi[0]:+.3f}{rb}")

# Every point of the box belongs to exactly one cell, and quantizing
# recovers that cell.
pts = rng.uniform(-1, 1, size=(5000, 2))
boxes = [lattice.cell_box(c) for c in cells]
claims = np.zeros(len(pts), int)
for box in boxes:
    claims += box.contains_many(pts).astype(int)
assert (claims == 1).all()
sample = pts[0]
print(f"\npoint {np.round(sample, 3)} lies in cell "
      f"{lattice.quantize(sample)}")
print("partition check over 5000 points: exactly one owner each")
