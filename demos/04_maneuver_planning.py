#!/usr/bin/env python3
"""Plan and execute the pendulum maneuver tour.

Goal: starting from the cell of (-0.48, 0), cycle twice to the deadzone
cell and back, swing once through (0, 0.48) -> (0.48, 0) -> (0, -0.48) and
back, then cycle twice again.  The coarse model has no singleton
transitions (the deadzone growth radius makes every abstract successor set
fat), so the default planner refuses; the relaxed mode searches the nominal
rollout of the sampled dynamics instead and its plan replays exactly in
closed loop.
"""

import numpy as np

import symquant as sq
from symquant.errors import PlanningError

system = sq.pendulum_system()
lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                    variant="edge_anchored")
model = sq.build_abstraction(system, lattice,
                             sq.InputApproxConfig(mu=0.002, input_samples=51))

away, center = (-1, 0), (0, 0)
swing = [(0, 1), (1, 0), (0, -1), away]
goals = [center, away, center, away] + swing + [center, away, center, away]

try:
    sq.plan_reach(model, away, goals)
except PlanningError as exc:
    print("singleton mode:", exc)

plan = sq.plan_reach(model, away, goals, relaxed=True)
print(f"\nrelaxed plan: {plan.total_steps} sampling periods "
      f"({plan.total_steps * system.tau:.1f} s simulated)")
for uid, hold in plan.steps:
    print(f"  torque {model.inputs[uid][0]:+.1f} held {hold} step(s)")

x0 = lattice.center(away)
# the plan stops early if the state leaves the bounds of its lattice
trajectory = sq.simulate_closed_loop(system, plan, x0, 400)
cells = [lattice.quantize(x) for x in trajectory.states]

visited = 0
print("\nclosed-loop execution:")
for k, (x, cell) in enumerate(zip(trajectory.states, cells)):
    hit = ""
    if visited < len(goals) and cell == goals[visited]:
        visited += 1
        hit = f"   <- goal {visited}/{len(goals)}"
    print(f"  t={trajectory.times[k]:5.1f}  x=({x[0]:+.3f}, {x[1]:+.3f})  "
          f"cell {cell}{hit}")

in_bounds = (np.abs(trajectory.states) <= 1.0).all()
print(f"\nvisited {visited}/{len(goals)} goals in order; "
      f"stayed inside [-1,1]^2: {in_bounds}")
