"""Direct timings of layer functions too fine-grained to span per call.

Each probe calls one public function many times on inputs drawn from the
workload itself (its lattice, system and input grid, the states of the
traced closed-loop run, and seeded points spread over the cells the way the
refinement check draws them), and reports the cost per call or per row with
the number of calls or rows timed.  A probe is timed ``REPEATS`` times and
the median is kept.
"""

import csv
import json
import statistics
import time

import numpy as np

REPEATS = 3
VERIFY_POINTS = 20_000
TARGET_PAIRS = 300
INTERVAL_PAIRS = 5_000
SINGLE_STEPS = 500


def _timed(fn, count: int) -> dict:
    """Median over REPEATS of the time per unit of ``fn()``, which does
    ``count`` units of work."""
    costs = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        costs.append((time.perf_counter() - start) / count)
    return {"us": statistics.median(costs) * 1e6, "samples": count}


def _closed_loop(points_csv, dim_x, dim_u):
    """States and applied inputs of a trajectory CSV written by simulate."""
    with open(points_csv, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    states = np.array([[float(v) for v in row[1:1 + dim_x]] for row in rows])
    inputs = np.array([[float(v) for v in row[1 + dim_x:1 + dim_x + dim_u]]
                       for row in rows[:-1]])
    return states, inputs


def main(config, seed, points_csv, out) -> int:
    import symquant as sq
    from symquant.config import parse_config

    cfg = parse_config(config)
    sys_ = cfg.build_system()
    lattice = cfg.build_lattice()
    approx = cfg.approx_config()
    rng = np.random.default_rng(seed)
    cells = lattice.enumerate_cells()
    grid = sq.input_grid(sys_, approx.input_samples)
    timings = {}
    result = {"timings": timings}

    reps = []

    def dedup_all():
        reps[:] = [sq.approximate_inputs(c, lattice, sys_, approx)
                   for c in cells]
    timings["abstraction.approximate_inputs_us"] = _timed(dedup_all,
                                                       len(cells))
    result["candidate_pairs"] = sum(len(r) for r in reps)
    result["grid_pairs"] = len(cells) * len(grid)

    centers = np.array([lattice.center(c) for c in cells])
    stacked_x = np.repeat(centers, len(grid), axis=0)
    stacked_u = np.tile(grid, (len(cells), 1))
    timings["dynamics.successor_many_us_per_row"] = _timed(
        lambda: sq.successor_many(sys_, stacked_x, stacked_u), len(stacked_x))

    states, inputs = _closed_loop(points_csv, sys_.dim_x, sys_.dim_u)
    steps = [k % len(inputs) for k in range(SINGLE_STEPS)]
    timings["dynamics.successor_us"] = _timed(
        lambda: [sq.successor(sys_, states[k], inputs[k]) for k in steps],
        len(steps))

    picks = rng.integers(len(cells), size=VERIFY_POINTS)
    boxes = [lattice.cell_box(c) for c in cells]
    lo = np.stack([boxes[p].lo for p in picks])
    hi = np.stack([boxes[p].hi for p in picks])
    points = np.concatenate([states, rng.uniform(lo, hi)])
    timings["quantizer.quantize_us"] = _timed(
        lambda: [lattice.quantize(x) for x in points], len(points))

    pairs = [(ci, u) for ci, r in enumerate(reps) for u in r]
    order = rng.permutation(len(pairs))
    some = [pairs[k] for k in order[:TARGET_PAIRS]]
    timings["abstraction.transition_targets_us"] = _timed(
        lambda: [sq.transition_targets(cells[ci], u, sys_, lattice)
                 for ci, u in some], len(some))

    chosen = [pairs[k] for k in order[:INTERVAL_PAIRS]]
    nominal = sq.successor_many(sys_, centers[[ci for ci, _ in chosen]],
                                np.array([u for _, u in chosen]))
    intervals = []
    for (ci, _), nom in zip(chosen, nominal):
        radius = sq.growth_radius(centers[ci], lattice.shared_eta,
                                  sys_.lipschitz, sys_.tau)
        box_lo, box_hi = nom - radius, nom + radius
        if (box_lo >= lattice.lo_array).all() and \
                (box_hi <= lattice.hi_array).all():
            intervals += [(i, box_lo[i], box_hi[i])
                          for i in range(lattice.dim)]
    timings["quantizer.levels_in_interval_us"] = _timed(
        lambda: [lattice.levels_in_interval(i, a, b) for i, a, b in intervals],
        len(intervals))

    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0
