#!/usr/bin/env python3
"""Safety controller synthesis and its closed loop on concrete states.

Two stories side by side:

* On the coarse pendulum model the safety game over the full cell set is
  lost: the outer angle cells are blocking and every cell reaches them, so
  the fixed point empties out.  This is the honest answer at that
  coarseness, not a solver failure.

* On a contracting system the growth bound has slack, the fixed point keeps
  a nontrivial domain, and the controller, which quantizes each concrete
  state it is asked about, provably keeps the closed loop inside the safe
  box; 100 random runs confirm it empirically.
"""

import numpy as np

import symquant as sq

lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                    variant="edge_anchored")

# -- the coarse pendulum game is lost --------------------------------------
pendulum = sq.pendulum_system()
model = sq.build_abstraction(pendulum, lattice,
                             sq.InputApproxConfig(mu=0.002, input_samples=51))
safe = sq.abstract_safe_set([-1, -1], [1, 1], model)
controller = sq.safety_fixpoint(model, safe)
print("pendulum, safe = all cells:")
print(f"  fixed-point sweep sizes: {controller.history}")
print(f"  controller domain: {len(controller.domain)} cells (empty: the "
      "outer angle columns are blocking and every cell reaches them)")

# -- a contracting system keeps a safe domain -------------------------------
# dx_i/dt = -x_i + u on both axes, one input in [-1, 1]
contracting = sq.affine_system(-np.eye(2), np.ones((2, 1)), (-1.0,), (1.0,),
                               tau=0.5, name="contracting")
model = sq.build_abstraction(contracting, lattice,
                             sq.InputApproxConfig(mu=0.002, input_samples=21))
safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
controller = sq.safety_fixpoint(model, safe)
print("\ncontracting system, safe box [-0.7, 0.7]^2:")
print(f"  {len(safe.cells)} safe cells, domain keeps {len(controller.domain)}")
for cell in controller.domain[:3]:
    ids = controller.admissible[cell]
    print(f"  cell {cell}: {len(ids)} admissible inputs")

# Run the closed loop from random in-domain starts: the controller answers
# each concrete state through its lattice's quantizer, and the quantized
# trajectory must never leave the safe set.
rng = np.random.default_rng(7)
escapes = 0
for _ in range(100):
    cell = controller.domain[rng.integers(len(controller.domain))]
    x0 = lattice.sample_in_cell(cell, rng)[0]
    trajectory = sq.simulate_closed_loop(contracting, controller, x0, 200)
    cells = {lattice.quantize(x) for x in trajectory.states}
    if not cells <= set(safe.cells):
        escapes += 1
print(f"\nclosed loop from 100 random in-domain starts, 200 steps each: "
      f"{escapes} escapes from the safe set")

# The controller is constant on each cell: two states in one cell get the
# same admissible set.
cell = controller.domain[0]
a, b = lattice.sample_in_cell(cell, rng, count=2)
assert controller.query(a) == controller.query(b)
print("two states of one cell receive identical admissible inputs")
