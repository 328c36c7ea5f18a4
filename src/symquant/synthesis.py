"""Safety controller synthesis, planning, simulation.

Safety synthesis iterates the controllable-predecessor operator inside the
abstract safe set until the greatest fixed point is reached:

    W_0 = safe cells,   W_{i+1} = cpre(W_i) ∩ W_0.

``cpre`` quantifies over enabled inputs only, so blocking cells can never
enter the result; the returned controller maps each domain cell to every
enabled input whose successors stay inside the domain, which makes the
controlled abstraction non-blocking and invariant by construction.

A controller and a plan each carry the lattice they were made on.  The
controller answers a concrete state itself, which is the abstract
controller composed with the lattice's quantizer (the feedback refinement
of the paper): ``query`` finds the state's cell and returns that cell's
admissible inputs, so two states in one cell always receive identical
answers.

Planning is one breadth-first search with two expansions.  The default one
follows only transitions with singleton successor sets (executable open
loop on the abstraction), and planning fails if no such path exists.  The
relaxed one follows the deterministic nominal rollout of the sampled
dynamics under the model's input set inside the lattice bounds, with visited
states deduplicated on a fine grid; its plans replay exactly in closed loop
from the same start state but carry no abstraction-level guarantee, so they
are meant to be validated by simulation.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .abstraction import SymbolicModel
from .dynamics import SampledSystem, Trajectory, successor, successor_many
from .errors import OutOfDomainError, PlanningError, located_decoding
from .quantizer import LogLattice, format_cell, parse_cell

# refinement is named in annotations only: plan and simulate never load it
if TYPE_CHECKING:  # pragma: no cover
    from .refinement import AbstractSafeSet

__all__ = [
    "SafetyController",
    "Plan",
    "cpre",
    "safety_fixpoint",
    "plan_reach",
    "simulate_closed_loop",
    "save_controller",
    "load_controller",
    "save_plan",
    "load_plan",
]

logger = logging.getLogger(__name__)


def _controllable(model: SymbolicModel, target: np.ndarray):
    """One cpre sweep: the state mask of cells with a pair whose successors
    are all inside the state mask ``target``, and the mask of those
    pairs."""
    ptr, targets = model.relation()
    # no successor set is empty, so consecutive starts bound one set each
    good = ~np.logical_or.reduceat((~target)[targets], ptr[:-1])
    found = np.zeros(model.n_states, bool)
    found[model.pair_state[good]] = True
    return found, good


def cpre(model: SymbolicModel, target) -> set[tuple[int, ...]]:
    """Controllable predecessor: cells from which some enabled input forces
    every successor into ``target``.  Blocking cells are never members."""
    mask = np.zeros(model.n_states, bool)
    mask[model.state_ids(target)] = True
    found, _ = _controllable(model, mask)
    return {model.cells[sid] for sid in np.flatnonzero(found)}


def _freeze_inputs(policy):
    """Store a policy's input table as a read-only float array."""
    inputs = np.asarray(policy.inputs, float)
    inputs.setflags(write=False)
    object.__setattr__(policy, "inputs", inputs)


@dataclass(frozen=True, eq=False)
class SafetyController:
    """Maximal safety controller on the abstraction.

    ``admissible`` maps each domain cell to the (non-empty, sorted) input
    indices whose successors stay inside the domain, in state order; its
    keys are the ``domain``, the greatest controlled-invariant subset of the
    safe cells, of ``lattice``.  ``iterations`` is the number of fixed-point
    sweeps performed, ``history`` the sweep sizes starting from the safe set
    itself.
    """

    admissible: dict[tuple[int, ...], tuple[int, ...]]
    inputs: np.ndarray
    lattice: LogLattice
    iterations: int
    history: tuple[int, ...]

    __post_init__ = _freeze_inputs

    @property
    def domain(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.admissible)

    def __contains__(self, cell) -> bool:
        return tuple(cell) in self.admissible

    def query(self, x) -> tuple[int, ...]:
        """The admissible input indices of the cell containing the concrete
        state x, or an empty tuple when x is outside the lattice bounds (NaN
        and infinite components included) or outside the domain (check
        ``in_domain`` to distinguish).  A state of the wrong dimension
        raises ValueError.  Constant on each cell by construction."""
        try:
            cell = self.lattice.quantize(x)
        except OutOfDomainError:
            return ()
        return self.admissible.get(cell, ())

    def in_domain(self, x) -> bool:
        return bool(self.query(x))


def safety_fixpoint(model: SymbolicModel, safe: AbstractSafeSet) -> SafetyController:
    """Greatest fixed point of the safety game on the model.

    An empty domain is a legal outcome (the safe set is not controllable at
    this coarseness), not an error.  Each sweep is one cpre over the
    model's successor sets.
    """
    start = time.perf_counter()
    safe_mask = np.zeros(model.n_states, bool)
    safe_mask[model.state_ids(safe.cells)] = True
    current = safe_mask
    history = [int(safe_mask.sum())]
    iterations = 0
    while True:
        iterations += 1
        found, good = _controllable(model, current)
        nxt = found & safe_mask
        history.append(int(nxt.sum()))
        if (nxt == current).all():
            break
        current = nxt
        if iterations > model.n_states + 1:  # pragma: no cover - safety net
            raise RuntimeError("fixed point failed to stabilize")

    # at the fixed point, the good pairs of domain cells are the admissible
    admissible: dict[tuple[int, ...], tuple[int, ...]] = {}
    kept = np.flatnonzero(good & current[model.pair_state])
    for sid, uid in zip(model.pair_state[kept].tolist(),
                        model.pair_input[kept].tolist()):
        cell = model.cells[sid]
        admissible[cell] = admissible.get(cell, ()) + (uid,)
    logger.info("fixed point: %d sweeps over %d safe cells, domain %d, "
                "%.3f s", iterations, history[0], len(admissible),
                time.perf_counter() - start)
    return SafetyController(admissible=admissible, inputs=model.inputs,
                            lattice=model.lattice, iterations=iterations,
                            history=tuple(history))


@dataclass(frozen=True, eq=False)
class Plan:
    """Open-loop input schedule: (input index, hold steps) entries, run
    inside the bounds of ``lattice``."""

    steps: tuple[tuple[int, int], ...]
    inputs: np.ndarray
    lattice: LogLattice

    def __post_init__(self):
        _freeze_inputs(self)
        for uid, hold in self.steps:
            _check_step(uid, hold, len(self.inputs))

    @property
    def total_steps(self) -> int:
        return sum(hold for _, hold in self.steps)

    def input_indices(self):
        """Yield one input index per sampling period."""
        for uid, hold in self.steps:
            for _ in range(hold):
                yield uid


def _check_input_id(uid: int, n_inputs: int, where: str = ""):
    if not 0 <= uid < n_inputs:
        raise ValueError(f"{where}input index {uid} out of range "
                         f"({n_inputs} inputs)")


def _check_step(uid: int, hold: int, n_inputs: int, where: str = ""):
    if hold < 1:
        raise ValueError(f"{where}hold counts must be positive")
    _check_input_id(uid, n_inputs, where)


def _search(root, expand, visit, is_goal, max_depth: int):
    """Breadth-first search from the one-node array ``root`` to a node that
    ``is_goal`` marks: (input sequence, arrival as a one-node array) or None.
    ``expand(frontier)`` gives a layer's successors in frontier order, then
    input order, as arrays (frontier position, input id, node, key); one is
    kept if its key is its layer's first and unmarked in the bool mask
    ``visit(root)``, which marks the root's key."""
    if is_goal(root)[0]:
        return [], root
    visited = visit(root)
    frontier = root
    layers: list[tuple[np.ndarray, np.ndarray]] = []
    for _ in range(max_depth):
        parents, uids, nodes, keys = expand(frontier)
        fresh = np.flatnonzero(~visited[keys])
        # keep the first row (frontier-order, then input-order) per key:
        # the values key * n + position sort by key, then by row
        n = len(fresh)
        key, pos = np.divmod(np.sort(keys[fresh] * n + np.arange(n)), n)
        head = np.diff(key, prepend=-1) != 0
        rows = fresh[np.sort(pos[head])]
        if rows.size == 0:
            return None
        visited[key[head]] = True
        layers.append((parents[rows], uids[rows]))
        frontier = nodes[rows]
        hits = np.flatnonzero(is_goal(frontier))
        if hits.size:
            node = int(hits[0])
            seq = []
            for parents, uids in reversed(layers):
                seq.append(int(uids[node]))
                node = int(parents[node])
            return seq[::-1], frontier[hits[0]:hits[0] + 1]
    return None


def _singleton_expansion(model: SymbolicModel):
    """Search expansion over the pairs whose successor set is one state;
    nodes and keys are state ids.  Returns ``(expand, visit)``."""
    ptr, targets = model.relation()
    single = np.flatnonzero(np.diff(ptr) == 1)
    uids, dst = model.pair_input[single], targets[ptr[single]]
    # these pairs ascend by state, then by input
    bounds = np.searchsorted(model.pair_state[single],
                             np.arange(model.n_states + 1))

    def expand(frontier):
        lo, counts = bounds[frontier], bounds[frontier + 1] - bounds[frontier]
        parents = np.repeat(np.arange(len(frontier)), counts)
        first = np.cumsum(counts) - counts  # each state's first candidate
        rows = lo[parents] + np.arange(len(parents)) - first[parents]
        return parents, uids[rows], dst[rows], dst[rows]

    return expand, lambda root: np.arange(model.n_states) == root


def _rollout_expansion(sys: SampledSystem, lattice: LogLattice,
                       inputs: np.ndarray, resolution: float):
    """Search expansion over nominal rollouts inside the lattice bounds;
    nodes are states, keys the row-major index of their cell on a uniform
    grid of spacing ``resolution`` over the bounds, padded by one cell per
    side and clipped.  Returns ``(expand, visit)``; a grid of more than
    50M cells raises :class:`PlanningError`."""
    lo = lattice.lo_array
    # sized in floats, where a tiny resolution gives inf, not a wrapped int
    with np.errstate(over="ignore"):
        shape = np.floor((lattice.hi_array - lo) / resolution) + 3
        size = float(np.prod(shape))
    if size > 50_000_000:
        raise PlanningError(f"dedup grid of {size:.15g} cells is too large; "
                            "increase the grid resolution")
    shape, size = shape.astype(np.int64), int(size)
    n_inputs = len(inputs)

    def codes(pts):
        idx = ((pts - lo) / resolution).astype(np.int64) + 1
        return np.ravel_multi_index(tuple(idx.T), shape, mode="clip")

    def expand(frontier):
        succ = successor_many(sys, np.repeat(frontier, n_inputs, axis=0),
                              np.tile(inputs, (len(frontier), 1)))
        # a successor outside the bounds gets the key visit marks up front
        keys = np.full(len(succ), size)
        inside = np.flatnonzero(lattice.contains_many(succ))
        keys[inside] = codes(succ[inside])
        parents, uids = np.divmod(np.arange(len(succ)), n_inputs)
        return parents, uids, succ, keys

    def visit(root):
        visited = np.zeros(size + 1, bool)
        visited[codes(root)] = True
        visited[size] = True
        return visited

    return expand, visit


def plan_reach(model: SymbolicModel, start, goals, relaxed: bool = False,
               grid_resolution: float = 0.02,
               max_segment_steps: int = 200) -> Plan:
    """Plan an input schedule visiting the goal cells in order.

    Default mode: breadth-first search over the abstract graph using only
    transitions whose successor set is a singleton, concatenating shortest
    segments; raises :class:`PlanningError` naming the first unreachable
    goal.  Callers may then retry with ``relaxed=True``, which searches the
    nominal concrete rollout from the start cell's center instead (see the
    module docstring); relaxed plans must be validated in closed loop.
    A ``grid_resolution`` that is not positive and finite, or a
    ``max_segment_steps`` below 1, raises ValueError before any search.
    """
    if not 0.0 < grid_resolution < np.inf:
        raise ValueError("grid_resolution must be positive and finite, "
                         f"got {grid_resolution!r}")
    if max_segment_steps < 1:
        raise ValueError(
            f"max_segment_steps must be at least 1, got {max_segment_steps!r}")
    start_id = model.state_id(start)
    goal_ids = model.state_ids(goals).tolist()

    if not relaxed:
        expand, visit = _singleton_expansion(model)
        node, max_depth = np.array([start_id]), model.n_states
        reason = "unreachable via singleton transitions; retry with relaxed=True"
        goal_tests = [lambda nodes, gid=gid: nodes == gid for gid in goal_ids]
    else:
        if model.system is None:
            raise PlanningError("relaxed planning needs the model's source system")
        expand, visit = _rollout_expansion(model.system, model.lattice,
                                           model.inputs, grid_resolution)
        node = model.lattice.center(model.cells[start_id])[None]
        max_depth = max_segment_steps
        reason = f"unreachable within {max_segment_steps} steps"
        goal_tests = [model.lattice.cell_box(model.cells[gid]).contains_many
                      for gid in goal_ids]

    sequence: list[int] = []
    for gid, is_goal in zip(goal_ids, goal_tests):
        found = _search(node, expand, visit, is_goal, max_depth)
        if found is None:
            raise PlanningError(f"goal {format_cell(model.cells[gid])} {reason}")
        segment, node = found
        sequence.extend(segment)
    return Plan(steps=tuple((uid, len(list(run)))
                            for uid, run in itertools.groupby(sequence)),
                inputs=model.inputs, lattice=model.lattice)


def _controller_ids(policy: SafetyController, x, max_steps: int):
    """Yields the lowest admissible input index of the state's cell and is
    sent the next state; returns the reason it stops, before a step."""
    if not policy.in_domain(x):
        raise OutOfDomainError(
            f"initial state {x.tolist()} outside the controller domain")
    for _ in range(max_steps):
        admissible = policy.query(x)
        if not admissible:
            return "out_of_domain"
        x = yield admissible[0]
    return "max_steps"


def _plan_ids(policy: Plan, x, max_steps: int):
    """Yields the schedule's next input index and is sent the next state;
    returns the reason it stops, after a step that leaves the bounds."""
    def outside(x):
        return not policy.lattice.contains_many(x[None])[0]

    if outside(x):
        raise OutOfDomainError(
            f"initial state {x.tolist()} outside the lattice bounds")
    for uid in itertools.islice(policy.input_indices(), max_steps):
        if outside((yield uid)):
            return "out_of_domain"
    return "plan_complete" if max_steps >= policy.total_steps else "max_steps"


def simulate_closed_loop(sys: SampledSystem, policy, x0,
                         max_steps: int) -> Trajectory:
    """Run the sampled closed loop under a controller or a plan.

    Controller mode applies the lowest admissible input index at each step
    and stops when the state leaves the controller domain; plan mode applies
    the scheduled inputs (with hold counts) and stops on completion or on
    leaving the bounds of the plan's lattice.  Raises
    :class:`OutOfDomainError` if the initial state is already outside,
    :class:`DivergenceError` if a step diverges, and ValueError if
    ``max_steps`` is negative or ``x0`` does not have ``sys.dim_x``
    components.
    """
    if max_steps < 0:
        raise ValueError(f"max_steps must be non-negative, got {max_steps!r}")
    x = np.atleast_1d(np.asarray(x0, float))
    if x.shape != (sys.dim_x,):
        raise ValueError(f"x0 must have {sys.dim_x} components, got {x0!r}")
    if isinstance(policy, SafetyController):
        choices = _controller_ids(policy, x, max_steps)
    elif isinstance(policy, Plan):
        choices = _plan_ids(policy, x, max_steps)
    else:
        raise TypeError(f"unsupported policy type {type(policy)!r}")
    inputs = policy.inputs
    # exactly one successor call per step: bench/tracing.py times a step as
    # the gap between two of them
    states, ids = [x], []
    try:
        uid = next(choices)
        while True:
            x = successor(sys, x, inputs[uid])
            ids.append(uid)
            states.append(x)
            uid = choices.send(x)
    except StopIteration as stop:
        terminated = stop.value
    return Trajectory(times=sys.tau * np.arange(len(states)),
                      states=np.array(states), inputs=inputs[ids],
                      terminated=terminated)


CONTROLLER_HEADER = "#controller 1"


def save_controller(ctrl: SafetyController, path):
    """One line per domain cell: ``cell <levels> : <input indices>``."""
    with open(path, "w") as fh:
        fh.write(CONTROLLER_HEADER + "\n")
        for cell in ctrl.domain:
            ids = " ".join(str(u) for u in ctrl.admissible[cell])
            fh.write(f"cell {format_cell(cell)} : {ids}\n")


@located_decoding
def load_controller(path, inputs, lattice: LogLattice) -> SafetyController:
    """Read a controller file over an input table and a lattice.

    A line that does not start with ``cell``, has no input ids, ids not
    strictly ascending, an id outside the table, a cell not of the lattice
    or a cell seen before raises a ValueError naming the file and line.
    """
    admissible: dict[tuple[int, ...], tuple[int, ...]] = {}
    with open(path) as fh:
        first = fh.readline().strip()
        if first != CONTROLLER_HEADER:
            raise ValueError(f"{path}: not a controller file")
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                if not line.startswith("cell "):
                    raise ValueError("no cell keyword")
                levels, ids = line[5:].split(":")
                cell = parse_cell(levels.strip())
                uids = tuple(int(v) for v in ids.split())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed line") from exc
            where = f"{path}:{lineno}: "
            if not uids:
                raise ValueError(f"{where}no input ids")
            if any(a >= b for a, b in zip(uids, uids[1:])):
                raise ValueError(f"{where}input ids must strictly ascend")
            if cell in admissible:
                raise ValueError(f"{where}cell {format_cell(cell)} repeated")
            if cell not in lattice:
                raise ValueError(f"{where}{format_cell(cell)} is not a lattice "
                                 "cell")
            for uid in uids:
                _check_input_id(uid, len(inputs), where)
            admissible[cell] = uids
    return SafetyController(admissible=dict(sorted(admissible.items())),
                            inputs=np.asarray(inputs, float), lattice=lattice,
                            iterations=0, history=())


def save_plan(plan: Plan, path):
    """Lines of ``input_index hold_steps``."""
    with open(path, "w") as fh:
        for uid, hold in plan.steps:
            fh.write(f"{uid} {hold}\n")


@located_decoding
def load_plan(path, inputs, lattice: LogLattice) -> Plan:
    """Read a plan file over an input table and a lattice; a bad line
    raises a ValueError naming it."""
    steps = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                uid, hold = (int(v) for v in line.split())
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: malformed line") from exc
            _check_step(uid, hold, len(inputs), f"{path}:{lineno}: ")
            steps.append((uid, hold))
    return Plan(steps=tuple(steps), inputs=np.asarray(inputs, float),
                lattice=lattice)
