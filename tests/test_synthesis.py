"""Fixed-point synthesis, controller queries, planning, simulation."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest

import symquant as sq
from symquant import synthesis
from symquant.abstraction import SymbolicModel
from symquant.errors import DivergenceError, OutOfDomainError, PlanningError
from symquant.refinement import AbstractSafeSet
from conftest import (HAND_PARAMETERS, SEPARATORS, contains, line_lattice,
                      line_mutations, max_controlled_invariant, random_model)


def chain_model():
    # A -> B -> C -> C (self loop), one input
    succ = {(0, 0): (1,), (1, 0): (2,), (2, 0): (2,)}
    return SymbolicModel.from_tables(line_lattice(3), [[0.0]], succ,
                                     **HAND_PARAMETERS)


def test_cpre_empty_target(pendulum_scenario):
    _, _, model = pendulum_scenario
    assert sq.cpre(model, []) == set()


def test_cpre_all_cells_is_nonblocking(pendulum_scenario):
    _, _, model = pendulum_scenario
    got = sq.cpre(model, model.cells)
    assert got == {c for c in model.cells if model.enabled_inputs(c)}


def test_cpre_hand_enumeration():
    model = chain_model()
    assert sq.cpre(model, [(2,)]) == {(1,), (2,)}
    assert sq.cpre(model, [(1,)]) == {(0,)}


def test_fixpoint_self_loop_converges_immediately():
    model = chain_model()
    safe = AbstractSafeSet(cells=((2,),), inputs=(0,))
    ctrl = sq.safety_fixpoint(model, safe)
    assert ctrl.domain == ((2,),)
    assert ctrl.iterations == 1
    assert ctrl.admissible[(2,)] == (0,)


def test_fixpoint_excludes_blocking_state_first_sweep():
    # D is safe but blocking; it must drop out at the first iteration
    lattice = line_lattice(4)
    succ = {(0, 0): (0,), (1, 0): (1,), (2, 0): (2,)}
    model = SymbolicModel.from_tables(lattice, [[0.0]], succ,
                                      **HAND_PARAMETERS)
    safe = AbstractSafeSet(cells=tuple(lattice.enumerate_cells()), inputs=(0,))
    ctrl = sq.safety_fixpoint(model, safe)
    assert (3,) not in ctrl.admissible
    assert set(ctrl.domain) == {(0,), (1,), (2,)}
    assert ctrl.history[0] == 4 and ctrl.history[1] == 3


def test_fixpoint_requires_known_cells(pendulum_scenario):
    _, _, model = pendulum_scenario
    foreign = AbstractSafeSet(cells=((9, 9),), inputs=())
    with pytest.raises(OutOfDomainError):
        sq.safety_fixpoint(model, foreign)


def test_fixpoint_pendulum_matches_bruteforce(pendulum_scenario):
    """On the bundled coarse pendulum model the safety game over all 25
    cells is lost: the outer angle cells are blocking (their inflated
    successor boxes leave the bounds for every input), every remaining cell
    reaches them, and the brute-force maximal controlled-invariant subset is
    empty.  The fixed point must agree with the oracle and report the chain.
    """
    _, _, model = pendulum_scenario
    safe = sq.abstract_safe_set([-1, -1], [1, 1], model)
    ctrl = sq.safety_fixpoint(model, safe)
    oracle = max_controlled_invariant(model, safe.cells)
    assert set(ctrl.domain) == oracle
    assert ctrl.domain == ()
    assert ctrl.history == (25, 15, 0, 0)


def test_fixpoint_monotone_chain(pendulum_scenario, contracting_scenario):
    for _, _, model in (pendulum_scenario, contracting_scenario):
        safe = sq.abstract_safe_set([-1, -1], [1, 1], model)
        ctrl = sq.safety_fixpoint(model, safe)
        sizes = ctrl.history
        assert all(a >= b for a, b in zip(sizes, sizes[1:]))
        assert ctrl.iterations <= model.n_states + 1
        # fixed point: cpre(domain) ∩ safe == domain
        recomputed = sq.cpre(model, ctrl.domain) & set(safe.cells)
        assert recomputed == set(ctrl.domain)


def test_fixpoint_controlled_invariance_exhaustive(contracting_scenario):
    _, _, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    ctrl = sq.safety_fixpoint(model, safe)
    assert ctrl.domain
    domain = set(ctrl.domain)
    for cell in ctrl.domain:
        admissible = ctrl.admissible[cell]
        assert admissible, "domain cell with empty admissible set"
        assert set(admissible) <= set(model.enabled_inputs(cell))
        for uid in admissible:
            succ = model.successors(cell, uid)
            assert succ and set(succ) <= domain


def test_fixpoint_equals_oracle_on_random_models():
    # cpre is monotone, so each sweep keeps a subset of the last and the
    # loop stops within n_states + 1 sweeps
    rng = np.random.default_rng(13)
    sweeps = []
    for _ in range(60):
        model = random_model(rng)
        cells = model.cells
        keep = [c for c in cells if rng.random() < 0.8]
        safe = AbstractSafeSet(cells=tuple(keep), inputs=())
        ctrl = sq.safety_fixpoint(model, safe)
        assert set(ctrl.domain) == max_controlled_invariant(model, keep)
        history = ctrl.history
        assert all(a >= b for a, b in zip(history, history[1:])), history
        assert ctrl.iterations == len(history) - 1 <= model.n_states + 1
        sweeps.append(ctrl.iterations)
    assert max(sweeps) > 2


def test_fixpoint_sweep_bound_is_reached_on_a_chain():
    # a chain into a blocking state loses one state per sweep
    n = 6
    chain = SymbolicModel.from_tables(
        line_lattice(n), [[0.0]], {(s, 0): (s + 1,) for s in range(n - 1)},
        **HAND_PARAMETERS)
    ctrl = sq.safety_fixpoint(chain, AbstractSafeSet(
        cells=tuple(chain.cells), inputs=()))
    assert ctrl.history == (6, 5, 4, 3, 2, 1, 0, 0)
    assert ctrl.iterations == n + 1


def test_fixpoint_lazy_model_on_demand(pendulum_scenario, tmp_path):
    # a fresh model, which computes its successor sets on the first query,
    # and its saved-and-loaded copy, which is given them, reach the same
    # fixed point
    sys_, lattice, built = pendulum_scenario
    sq.save_abstraction(built, tmp_path / "m.abs")
    given = sq.load_abstraction(tmp_path / "m.abs")
    fresh = sq.build_abstraction(sys_, lattice,
                                 sq.InputApproxConfig(0.002, 51))
    ctrl = sq.safety_fixpoint(
        fresh, sq.abstract_safe_set([-1, -1], [1, 1], fresh))
    reference = sq.safety_fixpoint(
        given, sq.abstract_safe_set([-1, -1], [1, 1], given))
    assert ctrl.domain == reference.domain
    assert ctrl.history == reference.history
    assert ctrl.admissible == reference.admissible


def test_controller_query_semantics(contracting_scenario):
    sys_, lattice, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    ctrl = sq.safety_fixpoint(model, safe)
    assert ctrl.lattice is model.lattice
    cell = ctrl.domain[0]
    inside = lattice.sample_in_cell(cell, np.random.default_rng(14), 5)
    answers = {ctrl.query(x) for x in inside}
    assert answers == {ctrl.admissible[cell]}  # constant on the cell
    # a cell outside the domain answers the empty set
    outside = [c for c in model.cells if c not in ctrl.admissible][0]
    x = lattice.center(outside)
    assert ctrl.query(x) == ()
    # outside the bounds: the empty set too
    assert ctrl.query([5.0, 5.0]) == ()


def test_concrete_query_rejects_a_wrong_dimension_state(contracting_scenario):
    # a state of the wrong dimension is a caller's error, not a state
    # outside the domain; NaN and infinite states are outside the bounds
    _, lattice, model = contracting_scenario
    ctrl = sq.safety_fixpoint(
        model, sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model))
    assert ctrl.query(lattice.center(ctrl.domain[0]))
    for x in ([0.0], [0.0, 0.0, 0.0]):
        with pytest.raises(ValueError, match="dimension 2"):
            ctrl.query(x)
    for x in ([np.nan, 0.0], [0.0, np.inf], [-np.inf, 0.0]):
        assert ctrl.query(x) == ()


@pytest.mark.parametrize("cell", [(3, 0), (0, -3), (0,), (0, 0, 0)],
                         ids=["off_lattice", "off_lattice_negative",
                              "short", "long"])
def test_unknown_cell_is_out_of_domain(pendulum_scenario, cell):
    # the 25-cell lattice has levels -2..2 on each of its two axes
    _, _, model = pendulum_scenario
    message = re.escape(f"unknown cell {cell!r}")
    with pytest.raises(OutOfDomainError, match=message):
        model.state_id(cell)
    with pytest.raises(OutOfDomainError, match=message):
        sq.cpre(model, [(0, 0), cell])
    safe = AbstractSafeSet(cells=((0, 0), cell), inputs=())
    with pytest.raises(OutOfDomainError, match=message):
        sq.safety_fixpoint(model, safe)


def test_plan_start_is_goal(pendulum_scenario):
    _, _, model = pendulum_scenario
    plan = sq.plan_reach(model, (0, 0), [(0, 0)])
    assert plan.steps == () and plan.total_steps == 0


def test_plan_error_on_disconnected_model():
    succ = {(0, 0): (0,), (1, 0): (1,)}
    model = SymbolicModel.from_tables(line_lattice(2), [[0.0]], succ,
                                      **HAND_PARAMETERS)
    with pytest.raises(PlanningError):
        sq.plan_reach(model, (0,), [(1,)])


def test_plan_singleton_path_with_hold_compression():
    succ = {(0, 0): (1,), (1, 0): (2,), (2, 0): (2,)}
    model = SymbolicModel.from_tables(line_lattice(3), [[0.5]], succ,
                                      **HAND_PARAMETERS)
    plan = sq.plan_reach(model, (0,), [(2,)])
    assert plan.steps == ((0, 2),)


def test_plan_singleton_tie_break_lowest_input():
    # two one-step routes to the goal; the lower input index must win
    succ = {(0, 0): (1,), (0, 1): (1,), (1, 0): (1,)}
    model = SymbolicModel.from_tables(line_lattice(2), [[0.0], [1.0]], succ,
                                      **HAND_PARAMETERS)
    plan = sq.plan_reach(model, (0,), [(1,)])
    assert plan.steps == ((0, 1),)


def test_relaxed_plan_pendulum_cycle(pendulum_scenario):
    """The coarse pendulum model admits no singleton-transition path (the
    deadzone growth radius makes every successor set fat), so the default
    mode must fail and the relaxed rollout mode must find the cycle between
    the (-0.48, 0) cell and the deadzone cell, validated in closed loop."""
    sys_, lattice, model = pendulum_scenario
    start, mid = (-1, 0), (0, 0)
    with pytest.raises(PlanningError):
        sq.plan_reach(model, start, [mid])
    plan = sq.plan_reach(model, start, [mid, start], relaxed=True)
    assert plan.total_steps > 0 and plan.lattice is model.lattice
    trajectory = sq.simulate_closed_loop(sys_, plan, lattice.center(start),
                                         200)
    assert trajectory.terminated == "plan_complete"
    cells = [lattice.quantize(x) for x in trajectory.states]
    hit_mid = cells.index(mid)
    assert start in cells[hit_mid:]



def _rollout_layers(sys_, lattice, inputs, x, res, depth):
    """Breadth-first layers of (state, input sequence), one state at a time:
    a successor is kept when it lies in the bounds and its grid cell is
    unvisited.  A search for a goal stops at the first state in its box."""
    shape = ((lattice.hi_array - lattice.lo_array) / res).astype(int) + 3

    def code(p):
        idx = ((p - lattice.lo_array) / res).astype(np.int64) + 1
        return np.ravel_multi_index(tuple(np.clip(idx, 0, shape - 1)), shape)

    visited, layers = {code(x)}, [[(x, [])]]
    for _ in range(depth):
        layer = []
        for state, seq in layers[-1]:
            succ = sq.successor_many(sys_, np.repeat(state[None], len(inputs),
                                                     axis=0), inputs)
            for uid, nxt in enumerate(succ):
                if lattice.contains_many(nxt[None])[0] and (
                        code(nxt) not in visited):
                    visited.add(code(nxt))
                    layer.append((nxt, seq + [uid]))
        layers.append(layer)
    return layers


@pytest.mark.parametrize("res", [0.05, 0.13])
def test_rollout_matches_one_state_at_a_time_search(pendulum_scenario, res):
    sys_, lattice, model = pendulum_scenario
    x = lattice.center((-1, 0))
    layers = _rollout_layers(sys_, lattice, model.inputs, x, res, 40)
    expand, visit = synthesis._rollout_expansion(sys_, lattice, model.inputs,
                                                 res)
    reached = 0
    for goal in lattice.enumerate_cells():
        box = lattice.cell_box(goal)
        got = synthesis._search(x[None], expand, visit, box.contains_many, 40)
        want = next(([seq, state] for layer in layers for state, seq in layer
                     if contains(box, state)), None)
        assert (got is None) == (want is None), goal
        if got is not None:
            (arrival,) = got[1]
            assert got[0] == want[0] and arrival.tobytes() == want[1].tobytes()
            reached += 1
    assert reached >= 3


def test_grid_codes_are_row_major_indices():
    # a field of zero keeps every state where it is, so each successor's
    # key is the grid cell of its frontier state
    lattice = sq.LogLattice.from_params(0.3, [0.2, 0.3, 0.5], [-1, -2, -0.7],
                                        [1.5, 1, 0.9])
    still = sq.SampledSystem(dim_x=3, dim_u=1,
                             field=lambda x, u: np.zeros_like(x),
                             lipschitz=1.0, tau=0.1, input_lo=(0.0,),
                             input_hi=(0.0,), vectorized=True)
    expand, visit = synthesis._rollout_expansion(still, lattice,
                                                 np.array([[0.0]]), 0.1)
    shape = ((lattice.hi_array - lattice.lo_array) / 0.1).astype(int) + 3
    size = int(np.prod(shape))
    assert len(set(shape)) == 3
    pts = np.random.default_rng(3).uniform(-3, 3, size=(500, 3))
    idx = ((pts - lattice.lo_array) / 0.1).astype(np.int64) + 1
    idx = np.clip(idx, 0, shape - 1)
    want = np.ravel_multi_index(tuple(idx.T), tuple(shape))
    # a search's visited mask starts with the cells of its root marked, and
    # the key past the grid, which the successors outside the bounds get
    mask = visit(pts)
    assert mask.shape == (size + 1,)
    assert np.array_equal(np.flatnonzero(mask),
                          np.append(np.unique(want), size))
    _, _, succ, keys = expand(pts)
    inside = lattice.contains_many(pts)
    assert np.array_equal(succ, pts) and 0 < inside.sum() < len(pts)
    assert np.array_equal(keys, np.where(inside, want, size))


def test_relaxed_plan_requires_system(pendulum_scenario):
    _, _, model = pendulum_scenario
    stripped = SymbolicModel.from_tables(
        model.lattice, model.inputs,
        {(s, u): model.successor_ids(s, u)
         for s in range(model.n_states) for u in model.enabled_ids(s)},
        tau=model.tau, mu=model.mu, lipschitz=model.lipschitz)
    with pytest.raises(PlanningError):
        sq.plan_reach(stripped, (-1, 0), [(0, 0)], relaxed=True)


def _relaxed_planners(model):
    """The two entry points of the relaxed search over one model's system,
    lattice and input table, as ``planner(start, goals, **settings)``."""
    return (lambda start, goals, **settings: sq.plan_reach(
                model, start, goals, relaxed=True, **settings),
            lambda start, goals, **settings: sq.plan_rollout(
                model.system, model.lattice, model.inputs, start, goals,
                **settings))


def test_relaxed_plan_rejects_an_oversized_dedup_grid(pendulum_scenario):
    _, _, model = pendulum_scenario
    for plan in _relaxed_planners(model):
        with pytest.raises(PlanningError, match="dedup grid of .* too large"):
            plan((-1, 0), [(0, 0)], grid_resolution=1e-5)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("resolution, cells", [
    (1e-300, "inf"), (1e-12, "4.000000000012e+24"),
    (1e-6, "4000012000009")])
def test_relaxed_plan_sizes_its_dedup_grid_in_floats(pendulum_scenario,
                                                     resolution, cells):
    # the grid of the bounds [-1, 1]^2 has (2 / resolution + 3)^2 cells; an
    # int64 size once overflowed at 1e-300 and wrapped at 1e-12
    _, _, model = pendulum_scenario
    for plan in _relaxed_planners(model):
        with pytest.raises(PlanningError) as info:
            plan((-1, 0), [(0, 0)], grid_resolution=resolution)
        assert str(info.value) == (f"dedup grid of {cells} cells is too "
                                   "large; increase the grid resolution")


def test_relaxed_plan_stops_at_max_segment_steps(pendulum_scenario):
    _, _, model = pendulum_scenario
    steps = sq.plan_reach(model, (-1, 0), [(0, 0)], relaxed=True).total_steps
    assert steps > 1
    for plan in _relaxed_planners(model):
        with pytest.raises(PlanningError) as info:
            plan((-1, 0), [(0, 0)], max_segment_steps=steps - 1)
        assert str(info.value) == (f"goal 0,0 unreachable within {steps - 1} "
                                   "steps")


@pytest.mark.parametrize("name, value", [
    ("grid_resolution", 0.0), ("grid_resolution", -0.02),
    ("grid_resolution", math.nan), ("grid_resolution", math.inf),
    ("max_segment_steps", 0), ("max_segment_steps", -3)])
def test_plan_rejects_bad_search_settings(pendulum_scenario, name, value):
    # refused before the search; the grid values once collapsed the dedup
    # grid to one cell and raised "goal 0,0 unreachable within 200 steps",
    # 0.0 and nan after numpy's cast warnings
    _, _, model = pendulum_scenario
    planners = [*_relaxed_planners(model),
                lambda start, goals, **settings: sq.plan_reach(
                    model, start, goals, **settings)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for plan in planners:
            with pytest.raises(ValueError, match=f"^{name} must .*, got "
                                                 f"{re.escape(repr(value))}$"):
                plan((-1, 0), [(0, 0)], **{name: value})
    plan = sq.plan_reach(model, (-1, 0), [(0, 0)], relaxed=True,
                         grid_resolution=0.02, max_segment_steps=1_000)
    assert plan.steps == sq.plan_reach(model, (-1, 0), [(0, 0)],
                                       relaxed=True).steps
    assert plan.total_steps > 1


@pytest.mark.parametrize("cell", [(3, 0), (0, -3), (0,), (0, 0, 0)],
                         ids=["off_lattice", "off_lattice_negative",
                              "short", "long"])
@pytest.mark.parametrize("role", ["start", "goal"])
def test_plan_rejects_cells_off_the_lattice(pendulum_scenario, cell, role):
    # refused before the search, in both modes and from both entry points
    _, _, model = pendulum_scenario
    planners = [*_relaxed_planners(model),
                lambda start, goals: sq.plan_reach(model, start, goals)]
    start, goals = ((cell, [(0, 0)]) if role == "start"
                    else ((-1, 0), [(0, 0), cell]))
    for plan in planners:
        with pytest.raises(OutOfDomainError,
                           match=re.escape(f"unknown cell {cell!r}")):
            plan(start, goals)


@pytest.mark.parametrize("scenario, samples, start, goals", [
    ("pendulum_scenario", 51, (-1, 0), [(0, 0), (-1, 0)]),
    ("contracting_scenario", 21, (-2, -2), [(0, 0), (2, 2), (-1, -1)])])
def test_plan_rollout_is_the_relaxed_plan_reach(request, scenario, samples,
                                                start, goals):
    # the relaxed search reads only the system, the lattice and the input
    # grid, which is a built model's input table
    sys_, lattice, model = request.getfixturevalue(scenario)
    want = sq.plan_reach(model, start, goals, relaxed=True)
    got = sq.plan_rollout(sys_, lattice, sq.input_grid(sys_, samples), start,
                          goals)
    assert want.total_steps > len(goals)
    assert got.steps == want.steps and got.lattice is lattice
    assert np.array_equal(got.inputs, want.inputs)


def _singleton_segment(model, start_id, goal_id):
    """Reference search, one state at a time: the shortest input sequence
    using only singleton transitions; ties are broken by expanding inputs in
    ascending index order."""
    if start_id == goal_id:
        return []
    parent = {start_id: (-1, -1)}
    frontier = [start_id]
    while frontier:
        nxt = []
        for sid in frontier:
            for uid in model.enabled_ids(sid):
                succ = model.successor_ids(sid, uid)
                if len(succ) != 1:
                    continue
                dst = succ[0]
                if dst in parent:
                    continue
                parent[dst] = (sid, uid)
                if dst == goal_id:
                    seq = []
                    node = dst
                    while node != start_id:
                        prev, used = parent[node]
                        seq.append(used)
                        node = prev
                    return list(reversed(seq))
                nxt.append(dst)
        frontier = nxt
    return None


def _singleton_plan(model, start, goals):
    """The default mode of plan_reach over the reference search: the plan's
    steps, or the text of its PlanningError."""
    here, sequence = model.state_id(start), []
    for goal in goals:
        gid = model.state_id(goal)
        segment = _singleton_segment(model, here, gid)
        if segment is None:
            return (f"goal {sq.format_cell(goal)} unreachable via singleton "
                    "transitions; retry with relaxed=True")
        sequence.extend(segment)
        here = gid
    return tuple((uid, len(list(run)))
                 for uid, run in itertools.groupby(sequence))


def test_singleton_plans_match_reference_search():
    # identical plans, or identical errors, from 1-3 goals on 300 models
    rng = np.random.default_rng(21)
    errors = plans = 0
    for trial in range(300):
        model = random_model(rng, max_states=int(rng.integers(2, 20)),
                             max_inputs=8)
        start = model.cells[rng.integers(model.n_states)]
        goals = [model.cells[g] for g in
                 rng.integers(model.n_states, size=rng.integers(1, 4))]
        want = _singleton_plan(model, start, goals)
        try:
            got = sq.plan_reach(model, start, goals).steps
        except PlanningError as exc:
            got = str(exc)
        assert got == want, trial
        errors += isinstance(want, str)
        plans += bool(want) and not isinstance(want, str)
    assert errors >= 50 and plans >= 50, (errors, plans)


def test_simulate_equilibrium_constant():
    sys_ = sq.pendulum_system()
    lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                        "edge_anchored")
    ctrl = sq.SafetyController(admissible={(0, 0): (0,)},
                               inputs=np.array([[0.0]]), lattice=lattice,
                               iterations=1, history=(1, 1))
    trajectory = sq.simulate_closed_loop(sys_, ctrl, [0.0, 0.0], 5)
    assert (trajectory.states == 0.0).all()
    assert trajectory.steps == 5


def test_simulate_rejects_out_of_domain_start(contracting_scenario):
    sys_, lattice, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    ctrl = sq.safety_fixpoint(model, safe)
    with pytest.raises(OutOfDomainError) as info:
        sq.simulate_closed_loop(sys_, ctrl, [0.95, 0.95], 10)
    assert str(info.value) == \
        "initial state [0.95, 0.95] outside the controller domain"


def test_simulate_controller_stops_on_leaving_domain(contracting_scenario):
    # a one-cell controller whose input drives the state out of that cell
    sys_, lattice, _ = contracting_scenario
    ctrl = sq.SafetyController(admissible={(0, 0): (0,)},
                               inputs=np.array([[1.0]]), lattice=lattice,
                               iterations=1, history=(1, 1))
    trajectory = sq.simulate_closed_loop(sys_, ctrl, [0.0, 0.0], 10)
    assert trajectory.terminated == "out_of_domain"
    assert 0 < trajectory.steps < 10
    assert trajectory.inputs.tolist() == [[1.0]] * trajectory.steps
    *kept, before, exited = trajectory.states
    assert all(ctrl.query(x) for x in (*kept, before))
    assert not ctrl.query(exited)
    assert exited.tobytes() == sq.successor(sys_, before, [1.0]).tobytes()


def test_simulate_plan_stops_on_leaving_bounds(pendulum_scenario):
    sys_, lattice, model = pendulum_scenario
    plan = sq.Plan(steps=((model.n_inputs - 1, 20),), inputs=model.inputs,
                   lattice=lattice)
    trajectory = sq.simulate_closed_loop(sys_, plan, [0.9, 0.9], 50)
    assert trajectory.terminated == "out_of_domain"
    assert 0 < trajectory.steps < 20
    inside = lattice.contains_many(trajectory.states)
    assert inside[:-1].all() and not inside[-1]


def test_simulate_plan_rejects_start_outside_bounds(pendulum_scenario):
    sys_, lattice, model = pendulum_scenario
    plan = sq.Plan(steps=((0, 3),), inputs=model.inputs, lattice=lattice)
    with pytest.raises(OutOfDomainError) as info:
        sq.simulate_closed_loop(sys_, plan, [1.5, 0.0], 10)
    assert str(info.value) == \
        "initial state [1.5, 0.0] outside the lattice bounds"


def test_simulate_rejects_unsupported_policy(pendulum_scenario):
    sys_, _, _ = pendulum_scenario
    with pytest.raises(TypeError, match="unsupported policy type"):
        sq.simulate_closed_loop(sys_, object(), [0.0, 0.0], 10)


def test_simulate_plan_mode_truncates_at_max_steps(pendulum_scenario):
    sys_, lattice, model = pendulum_scenario
    plan = sq.Plan(steps=((model.enabled_inputs((0, 0))[0], 8),),
                   inputs=model.inputs, lattice=lattice)
    trajectory = sq.simulate_closed_loop(sys_, plan, [0.0, 0.0], 3)
    assert trajectory.steps == 3 and trajectory.terminated == "max_steps"
    trajectory = sq.simulate_closed_loop(sys_, plan, [0.0, 0.0], 0)
    assert trajectory.steps == 0 and trajectory.states.shape == (1, 2)


@pytest.mark.parametrize("mode", ["controller", "plan"])
def test_simulate_rejects_negative_max_steps(pendulum_scenario, mode):
    sys_, lattice, model = pendulum_scenario
    if mode == "controller":
        policy = sq.SafetyController(
            admissible={(0, 0): (0,)}, inputs=np.array([[0.0]]),
            lattice=lattice, iterations=1, history=(1, 1))
    else:
        policy = sq.Plan(steps=((0, 4),), inputs=model.inputs, lattice=lattice)
    with pytest.raises(ValueError, match=r"^max_steps must be an int of at "
                                         r"least 0, got -1$"):
        sq.simulate_closed_loop(sys_, policy, [0.0, 0.0], -1)
    # zero steps stays a valid, empty run for both policies
    trajectory = sq.simulate_closed_loop(sys_, policy, [0.0, 0.0], 0)
    assert trajectory.steps == 0 and trajectory.terminated == "max_steps"
    assert trajectory.states.tolist() == [[0.0, 0.0]]


@pytest.mark.parametrize("mode", ["controller", "plan"])
def test_simulate_rejects_x0_of_another_dimension(pendulum_scenario, mode):
    # refused before the first step by both policies, not as numpy's
    # broadcast error (plan) or a state outside the domain (controller)
    sys_, lattice, model = pendulum_scenario
    if mode == "controller":
        policy = sq.SafetyController(
            admissible={(0, 0): (0,)}, inputs=np.array([[0.0]]),
            lattice=lattice, iterations=1, history=(1, 1))
    else:
        policy = sq.Plan(steps=((0, 4),), inputs=model.inputs, lattice=lattice)
    for x0 in ([0.0], [0.0, 0.0, 0.0], [[0.0, 0.0]]):
        with pytest.raises(ValueError, match=r"^x0 must have 2 components"):
            sq.simulate_closed_loop(sys_, policy, x0, 5)


@pytest.mark.parametrize("mode", ["controller", "plan"])
def test_simulate_step_divergence_names_its_substep(mode):
    # dx/dt = x^2 from 3 blows up at t = 1/3, inside the fourth period
    sys_ = sq.SampledSystem(dim_x=1, dim_u=1, field=lambda x, u: x * x,
                            lipschitz=1.0, tau=0.1, input_lo=(-1.0,),
                            input_hi=(1.0,))
    x, periods = np.array([3.0]), 0
    while True:
        try:
            x = sq.successor(sys_, x, [0.0])
        except DivergenceError as exc:
            substep = exc.substep
            break
        periods += 1
    assert periods == 3
    lattice = sq.LogLattice.from_params(0.3, [1.0], [-100.0], [100.0])
    assert lattice.contains_many(x[None])[0]
    inputs = np.array([[0.0]])
    if mode == "controller":
        cells = tuple(lattice.enumerate_cells())
        policy = sq.SafetyController(
            admissible={c: (0,) for c in cells}, inputs=inputs,
            lattice=lattice, iterations=1, history=(len(cells),) * 2)
    else:
        policy = sq.Plan(steps=((0, 10),), inputs=inputs, lattice=lattice)
    with pytest.raises(DivergenceError) as info:
        sq.simulate_closed_loop(sys_, policy, [3.0], 10)
    assert info.value.substep == substep


def test_end_to_end_invariance_contracting(contracting_scenario):
    """Start anywhere in the synthesized domain, run the refined controller,
    and the quantized trajectory must stay inside the safe set (the
    controlled-invariance guarantee, checked empirically)."""
    sys_, lattice, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    ctrl = sq.safety_fixpoint(model, safe)
    assert ctrl.domain
    rng = np.random.default_rng(15)
    safe_cells = set(safe.cells)
    for _ in range(100):
        cell = ctrl.domain[rng.integers(len(ctrl.domain))]
        x0 = lattice.sample_in_cell(cell, rng)[0]
        trajectory = sq.simulate_closed_loop(sys_, ctrl, x0, 200)
        assert trajectory.terminated == "max_steps"
        for x in trajectory.states:
            assert lattice.quantize(x) in safe_cells


def test_refinement_clean_on_contracting(contracting_scenario):
    sys_, _, model = contracting_scenario
    report = sq.check_feedback_refinement(model, sys_, 3000, seed=16)
    assert report.passed


def test_controller_save_load_roundtrip(contracting_scenario, tmp_path):
    _, lattice, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    ctrl = sq.safety_fixpoint(model, safe)
    path = tmp_path / "controller.txt"
    sq.save_controller(ctrl, path)
    loaded = sq.load_controller(path, model.inputs, lattice)
    assert loaded.domain == ctrl.domain
    assert loaded.admissible == ctrl.admissible
    assert loaded.lattice is lattice


# the contracting scenario's controller on the safe box [-0.7, 0.7]^2, as
# its file reads; every other pinned controller file has an empty domain
CONTRACTING_CONTROLLER = b"""#controller 1
cell -1,-1 : 8 9 10 11 12 13 14 15 16 17 18 19 20
cell -1,0 : 8 9 10 11 12 13 14
cell -1,1 : 8 9 10 11 12
cell 0,-1 : 8 9 10 11 12 13 14
cell 0,0 : 6 7 8 9 10 11 12 13 14
cell 0,1 : 6 7 8 9 10 11 12
cell 1,-1 : 8 9 10 11 12
cell 1,0 : 6 7 8 9 10 11 12
cell 1,1 : 0 1 2 3 4 5 6 7 8 9 10 11 12
"""


def test_contracting_controller_file_is_pinned(contracting_scenario,
                                               tmp_path):
    _, lattice, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    path = tmp_path / "ctrl.txt"
    sq.save_controller(sq.safety_fixpoint(model, safe), path)
    assert path.read_bytes() == CONTRACTING_CONTROLLER
    sq.save_controller(sq.load_controller(path, model.inputs, lattice),
                       tmp_path / "again.txt")
    assert (tmp_path / "again.txt").read_bytes() == CONTRACTING_CONTROLLER


def test_controller_domain_is_its_admissible_map(contracting_scenario,
                                                 tmp_path):
    # the domain is the keys of the admissible map: in state order from the
    # fixed point, in cell order from a file written in any order
    _, lattice, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    ctrl = sq.safety_fixpoint(model, safe)
    assert len(ctrl.domain) > 1 and ctrl.domain == tuple(ctrl.admissible)
    assert list(ctrl.domain) == [c for c in model.cells if c in ctrl]
    assert (9, 9) not in ctrl
    path = tmp_path / "ctrl.txt"
    sq.save_controller(ctrl, path)
    head, *lines = path.read_text().splitlines()
    path.write_text("\n".join([head] + lines[::-1]) + "\n")
    loaded = sq.load_controller(path, model.inputs, lattice)
    assert loaded.domain == tuple(loaded.admissible) == tuple(sorted(
        ctrl.domain))
    assert loaded.admissible == ctrl.admissible
    for extra in ({"domain": ()}, {"safe_cells": ()}):
        with pytest.raises(TypeError):
            sq.SafetyController(admissible={}, inputs=model.inputs,
                                lattice=lattice, iterations=0, history=(),
                                **extra)


def test_plan_save_load_roundtrip(tmp_path):
    plan = sq.Plan(steps=((3, 2), (0, 5)), inputs=np.linspace(-1, 1, 5)[:, None],
                   lattice=line_lattice(3))
    path = tmp_path / "plan.txt"
    sq.save_plan(plan, path)
    loaded = sq.load_plan(path, plan.inputs, plan.lattice)
    assert loaded.steps == plan.steps and loaded.lattice is plan.lattice
    assert list(loaded.input_indices()) == [3, 3, 0, 0, 0, 0, 0]


def _line_of(message, path):
    """The line number a ValueError message names, 0 for a file-level one."""
    found = re.match(rf"{re.escape(str(path))}:(\d+)?:? ", message)
    assert found, message
    return int(found.group(1) or 0)


def test_controller_file_fuzz(contracting_scenario, tmp_path):
    # each line of a saved controller under each mutation: the controller
    # the lines mean, or a ValueError naming the file and the faulty line
    _, lattice, model = contracting_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    ctrl = sq.safety_fixpoint(model, safe)
    path = tmp_path / "ctrl.txt"
    sq.save_controller(ctrl, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 10
    for k, name, mutated in line_mutations(lines):
        path.write_text("\n".join(mutated) + "\n")
        try:
            got = sq.load_controller(path, model.inputs, lattice)
        except ValueError as exc:
            at = _line_of(str(exc), path)
            if k == 0:
                assert str(exc) == f"{path}: not a controller file", name
            elif "repeated" in str(exc):
                assert at >= k + 1, (k, name, str(exc))
            else:
                assert at == k + 1, (k, name, str(exc))
            continue
        assert name not in SEPARATORS, (k, name)
        expected = dict(ctrl.admissible)
        if k > 0:
            del expected[ctrl.domain[k - 1]]
        for line in mutated[k:k + len(mutated) - len(lines) + 1]:
            if line.startswith("cell "):
                levels, ids = line[5:].split(":")
                expected[sq.parse_cell(levels)] = tuple(map(int, ids.split()))
        assert got.admissible == expected, (k, name)
        assert got.domain == tuple(sorted(expected))
        for cell, uids in got.admissible.items():
            lattice.checked_cell_ids([cell])
            assert list(uids) == sorted(set(uids))
            assert 0 <= uids[0] and uids[-1] < model.n_inputs
    for k in range(1, len(lines)):  # a cell line under another keyword
        mutated = lines[:k] + ["foo" + lines[k][len("cell"):]] + lines[k + 1:]
        path.write_text("\n".join(mutated) + "\n")
        with pytest.raises(ValueError) as info:
            sq.load_controller(path, model.inputs, lattice)
        assert str(info.value) == f"{path}:{k + 1}: malformed line"


@pytest.mark.parametrize("row, message", [
    ({(9, 9): (0,)}, "9,9 is not a lattice cell"),
    ({(0, 0): (3, 1)}, "input ids must strictly ascend"),
    ({(0, 0): (99,)}, "input index 99 out of range (11 inputs)"),
    ({(0, 0): ()}, "no input ids"),
], ids=["off_lattice", "descending", "out_of_range", "empty"])
def test_controller_refuses_at_construction_the_rows_a_file_may_not_hold(
        tmp_path, row, message):
    # a controller is refused when built, with the message the loader
    # gives at the line of the same row
    lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                        "edge_anchored")
    inputs = np.linspace(-1.0, 1.0, 11)[:, None]
    with pytest.raises(ValueError) as info:
        sq.SafetyController(admissible=row, inputs=inputs, lattice=lattice,
                            iterations=0, history=())
    assert str(info.value) == message
    [(cell, uids)] = row.items()
    path = tmp_path / "ctrl.txt"
    path.write_text(f"#controller 1\ncell {sq.format_cell(cell)} : "
                    + " ".join(map(str, uids)) + "\n")
    with pytest.raises(ValueError) as info:
        sq.load_controller(path, inputs, lattice)
    assert str(info.value) == f"{path}:2: {message}"


def test_plan_file_fuzz(tmp_path):
    # each line of a saved plan under each mutation: the plan the lines
    # mean, or a ValueError naming the file and the mutated line
    inputs = np.linspace(-1, 1, 5)[:, None]
    plan = sq.Plan(steps=((3, 2), (0, 5), (4, 1), (1, 12)), inputs=inputs,
                   lattice=line_lattice(3))
    path = tmp_path / "plan.txt"
    sq.save_plan(plan, path)
    lines = path.read_text().splitlines()
    for k, name, mutated in line_mutations(lines):
        path.write_text("\n".join(mutated) + "\n")
        try:
            got = sq.load_plan(path, inputs, plan.lattice)
        except ValueError as exc:
            assert _line_of(str(exc), path) == k + 1, (k, name, str(exc))
            continue
        assert name not in SEPARATORS, (k, name)
        new = [tuple(map(int, line.split()))
               for line in mutated[k:k + len(mutated) - len(lines) + 1]
               if line]
        assert got.steps == plan.steps[:k] + tuple(new) + plan.steps[k + 1:]
        assert all(len(e) == 2 and 0 <= e[0] < 5 and e[1] >= 1 for e in new)
