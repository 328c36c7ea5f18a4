"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run ``pytest -s tests/test_acceptance.py`` to watch them) and enforcing its
runtime budget.

Criterion 6 is expected to fail, deliberately: on the bundled coarse
pendulum scenario the maximal controlled-invariant subset of the full cell
set is empty (see the test docstring), so its premise (sampling in-domain
initial states) cannot be met.  The check is kept faithful rather than
weakened; everything else passes.
"""

import math
import time

import numpy as np
import pytest

import symquant as sq
from symquant.config import parse_config
from symquant.errors import PlanningError
from conftest import max_controlled_invariant, random_model
from test_config_cli import BUNDLED


def _verdict(num, name, ok, elapsed, detail=""):
    line = f"ACCEPT {num} {name}: {'PASS' if ok else 'FAIL'} [{elapsed:.2f}s]"
    if detail:
        line += f" ({detail})"
    print(line)


@pytest.fixture(scope="module")
def scenario():
    cfg = parse_config(BUNDLED)
    system = cfg.build_system()
    lattice = cfg.build_lattice()
    model = sq.build_abstraction(system, lattice, cfg.approx_config())
    return cfg, system, lattice, model


def test_criterion_1_state_count():
    """Bundled scenario: exactly 25 abstract states, 5 regions per axis."""
    start = time.perf_counter()
    cfg = parse_config(BUNDLED)
    model = sq.build_abstraction(cfg.build_system(), cfg.build_lattice(),
                                 cfg.approx_config())
    lattice = model.lattice
    count = model.n_states
    per_axis = [list(lattice.axis_levels(i)) for i in range(2)]
    elapsed = time.perf_counter() - start
    ok = (count == 25
          and per_axis == [[-2, -1, 0, 1, 2]] * 2
          and elapsed < 1.0)
    _verdict(1, "state-count", ok, elapsed, f"{count} states")
    assert count == 25, "clipping interpretation changed the state count"
    assert per_axis == [[-2, -1, 0, 1, 2]] * 2
    assert elapsed < 1.0


def test_criterion_2_feedback_refinement(scenario):
    """10^4 seeded samples, zero containment violations."""
    cfg, system, _, model = scenario
    start = time.perf_counter()
    report = sq.check_feedback_refinement(model, system, 10000, seed=cfg.seed)
    elapsed = time.perf_counter() - start
    ok = report.passed and report.samples_tested == 10000 and elapsed < 30.0
    _verdict(2, "feedback-refinement", ok, elapsed,
             f"{len(report.violations)} violations in {report.samples_tested}")
    assert report.samples_tested == 10000
    assert not report.violations, [w.format_line() for w in report.violations[:5]]
    assert not report.condition1_failures
    assert elapsed < 30.0


def test_criterion_3_growth_bound_soundness(scenario):
    """One-period flow deviation bounded by e^{L tau} times the initial
    deviation, with L = 6 and tau = 0.2, over 10^4 sampled pairs."""
    _, system, lattice, _ = scenario
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n = 10000
    x1 = rng.uniform(lattice.lo_array, lattice.hi_array, size=(n, 2))
    q1 = rng.uniform(lattice.lo_array, lattice.hi_array, size=(n, 2))
    u = rng.uniform(system.input_lo[0], system.input_hi[0], size=(n, 1))
    gap = np.abs(sq.successor_many(system, x1, u)
                 - sq.successor_many(system, q1, u)).max(axis=1)
    base = np.abs(x1 - q1).max(axis=1)
    bound = math.exp(6.0 * 0.2) * base * (1.0 + 1e-6)
    bad = np.nonzero(gap > bound)[0]
    elapsed = time.perf_counter() - start
    ok = bad.size == 0 and elapsed < 30.0
    _verdict(3, "growth-bound-soundness", ok, elapsed,
             f"{bad.size} violations in {n}")
    witnesses = [(x1[k].tolist(), q1[k].tolist(), u[k].tolist(),
                  float(gap[k]), float(bound[k])) for k in bad[:5]]
    assert bad.size == 0, f"growth-bound witnesses: {witnesses}"
    assert elapsed < 30.0


def test_criterion_4_quantizer_properties():
    """Partition uniqueness, odd symmetry, idempotence and the relative
    error bound on 10^5 random points per axis configuration."""
    start = time.perf_counter()
    configurations = [
        (sq.LogQuantizerAxis(0.2, 0.4, sq.QuantizerVariant.VALUE_ANCHORED),
         (-1.0, 1.0)),
        (sq.LogQuantizerAxis(0.2, 0.4, sq.QuantizerVariant.EDGE_ANCHORED),
         (-1.0, 1.0)),
        (sq.LogQuantizerAxis(0.5, 1.0, sq.QuantizerVariant.VALUE_ANCHORED),
         (-3.0, 3.0)),
    ]
    rng = np.random.default_rng(99)
    n = 100000
    for axis, (lo, hi) in configurations:
        lattice = sq.LogLattice(axes=(axis,), lo=(lo,), hi=(hi,))
        cells = lattice.enumerate_cells()
        boxes = [lattice.cell_box(c) for c in cells]

        # partition uniqueness: exactly one owning cell per point, and the
        # quantizer returns it
        pts = rng.uniform(lo, hi, size=(n, 1))
        owner = np.full(n, -1, int)
        claims = np.zeros(n, int)
        for ci, box in enumerate(boxes):
            mask = box.contains_many(pts)
            claims += mask.astype(int)
            owner[mask] = ci
        assert (claims == 1).all(), "partition uniqueness failed"
        for k in range(n):
            assert lattice.quantize(pts[k]) == cells[owner[k]]

        for cell in cells:
            assert lattice.quantize(lattice.center(cell)) == cell

        # odd symmetry and the relative error bound, on unbounded draws
        for z in rng.uniform(-hi * 2, hi * 2, size=n):
            level, value = axis.quantize(z)
            neg_level, neg_value = axis.quantize(-z)
            assert neg_level == -level and neg_value == -value
            if level != 0:
                assert abs(z - value) <= axis.eta * abs(z)
            else:
                assert abs(z) <= axis.deadzone
    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    _verdict(4, "quantizer-properties", ok, elapsed,
             f"{len(configurations)} configurations x {n} points")
    assert elapsed < 10.0


def test_criterion_5_fixpoint_correctness():
    """Fixed-point domain equals the brute-force maximal controlled
    invariant subset on 200 seeded random models."""
    start = time.perf_counter()
    rng = np.random.default_rng(1234)
    for trial in range(200):
        model = random_model(rng)
        keep = tuple(c for c in model.cells if rng.random() < 0.8)
        safe = sq.AbstractSafeSet(cells=keep, inputs=())
        ctrl = sq.safety_fixpoint(model, safe)
        oracle = max_controlled_invariant(model, keep)
        assert set(ctrl.domain) == oracle, f"trial {trial} diverged"
        sizes = ctrl.history
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert ctrl.iterations <= model.n_states + 1
        for cell in ctrl.domain:
            assert ctrl.admissible[cell]
    elapsed = time.perf_counter() - start
    ok = elapsed < 60.0
    _verdict(5, "fixpoint-correctness", ok, elapsed, "200 random models")
    assert elapsed < 60.0


def test_criterion_6_controlled_invariance_end_to_end(scenario):
    """Synthesize on the bundled model with every cell declared safe, then
    simulate the refined controller from 100 random in-domain states for
    200 steps; the quantized trajectory must never leave the safe set.

    Expected to FAIL, and kept failing on purpose: the maximal controlled-
    invariant subset of the 25-cell model is empty.  The outer angle cells
    (levels +/-2 on the first axis) are blocking, because the inflated
    successor box has per-axis radius 0.25*e^{1.2}*0.72 = 0.598 around a
    nominal successor whose first component stays near +/-0.72, which always
    overruns the working box [-1, 1]; every other cell reaches those columns
    under each of its enabled inputs (deadzone axes carry radius
    0.25*e^{1.2} = 0.83, so the box always straddles the outer columns), and
    the fixed point cascades to the empty set in two sweeps (25 -> 15 -> 0).
    An empty domain leaves no in-domain initial states to sample, so the
    criterion's premise is unsatisfiable at this coarseness; weakening the
    check (for example simulating from non-domain states, or declaring the
    empty case vacuously safe) would not test what it is meant to test.
    The brute-force cross-check in test_synthesis.py confirms the empty
    domain is correct, and test_end_to_end_invariance_contracting
    demonstrates the same end-to-end property passing on a system whose
    growth bound leaves the safety game winnable.
    """
    cfg, system, lattice, model = scenario
    start = time.perf_counter()
    safe = sq.abstract_safe_set(cfg.safe_lo, cfg.safe_hi, model)
    assert set(safe.cells) == set(model.cells)
    controller = sq.safety_fixpoint(model, safe)
    elapsed = time.perf_counter() - start
    ok = bool(controller.domain)
    _verdict(6, "controlled-invariance-end-to-end", ok and elapsed < 60.0,
             elapsed, f"domain has {len(controller.domain)} of "
                      f"{len(safe.cells)} cells")
    assert controller.domain, (
        "empty controller domain: no in-domain initial states exist; "
        "see this test's docstring for the analysis")

    rng = np.random.default_rng(cfg.seed)
    safe_cells = set(safe.cells)
    for _ in range(100):
        cell = controller.domain[rng.integers(len(controller.domain))]
        x0 = lattice.sample_in_cell(cell, rng)[0]
        trajectory = sq.simulate_closed_loop(system, controller, x0, 200)
        for x in trajectory.states:
            assert lattice.quantize(x) in safe_cells
    assert time.perf_counter() - start < 60.0


def test_criterion_7_maneuver_reproduction(scenario):
    """The planner must schedule the double cycle / full swing / double
    cycle tour from the (-0.48, 0) cell; closed-loop simulation visits every
    goal cell in order, stays inside [-1, 1]^2 and finishes within 30
    simulated seconds."""
    _, system, lattice, model = scenario
    start = time.perf_counter()
    away, center = (-1, 0), (0, 0)
    swing = [(0, 1), (1, 0), (0, -1), away]
    goals = [center, away, center, away] + swing + \
            [center, away, center, away]

    # the coarse model has no singleton transitions, so the default mode
    # must refuse and the rollout mode takes over
    with pytest.raises(PlanningError):
        sq.plan_reach(model, away, goals[:1])
    plan = sq.plan_reach(model, away, goals, relaxed=True)

    x0 = lattice.center(away)
    trajectory = sq.simulate_closed_loop(system, plan, x0, 400)
    cells = [lattice.quantize(x) for x in trajectory.states]
    visited = 0
    for cell in cells:
        if visited < len(goals) and cell == goals[visited]:
            visited += 1
    in_bounds = bool((trajectory.states >= lattice.lo_array).all()
                     and (trajectory.states <= lattice.hi_array).all())
    simulated = float(trajectory.times[-1])
    elapsed = time.perf_counter() - start
    ok = (visited == len(goals) and in_bounds
          and trajectory.terminated == "plan_complete"
          and simulated <= 30.0 and elapsed < 60.0)
    _verdict(7, "maneuver-reproduction", ok, elapsed,
             f"{visited}/{len(goals)} goals, {simulated:.1f}s simulated")
    assert visited == len(goals)
    assert in_bounds
    assert trajectory.terminated == "plan_complete"
    assert simulated <= 30.0
    assert elapsed < 60.0


def test_criterion_8_integrator_accuracy(scenario):
    """Default substep resolution matches a 10x reference within 1e-6 per
    component across the input grid and every cell center; the closed-form
    exponential system matches within 1e-6."""
    _, system, lattice, model = scenario
    start = time.perf_counter()
    worst = 0.0
    inputs = np.linspace(system.input_lo[0], system.input_hi[0], 11)
    for cell in model.cells:
        center = lattice.center(cell)
        for u in inputs:
            coarse = sq.successor(system, center, [u])
            fine = sq.successor(system, center, [u], steps=100)
            worst = max(worst, float(np.abs(coarse - fine).max()))

    linear = sq.linear_system(tau=0.2)
    exp_err = abs(sq.successor(linear, [1.0], [0.0])[0] - math.exp(-0.2))
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and exp_err < 1e-6
    _verdict(8, "integrator-accuracy", ok, elapsed,
             f"max grid error {worst:.2e}, exp error {exp_err:.2e}")
    assert worst < 1e-6
    assert exp_err < 1e-6
