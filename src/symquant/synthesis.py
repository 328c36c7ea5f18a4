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
dynamics under every row of an input table (the scenario's input grid)
inside the lattice bounds, with visited states deduplicated on a fine grid
of states.  It reads only the system, the lattice and the input table, so
:func:`plan_rollout` takes those three and no symbolic model
(``plan_reach(..., relaxed=True)`` passes a model's).  Its plans replay
exactly in closed loop from the same start state but carry no
abstraction-level guarantee, so they are meant to be validated by
simulation.
"""

from __future__ import annotations

import itertools
import logging
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from . import _public
from .dynamics import SampledSystem, Trajectory, successor, successor_many
from .errors import OutOfDomainError, PlanningError
from .quantizer import (_BLANK, _COUNT, _NATURAL, _POSITIVE, LogLattice,
                        _check, _check_index, _fields, _frozen, _int, _lines,
                        format_cell, parse_cell)

# abstraction and refinement are named in annotations only: simulate loads
# neither, and plan never loads refinement
if TYPE_CHECKING:  # pragma: no cover
    from .abstraction import SymbolicModel
    from .refinement import AbstractSafeSet

__all__ = _public(__name__)

logger = logging.getLogger(__name__)


def cpre(model: SymbolicModel, target) -> set[tuple[int, ...]]:
    """Controllable predecessor: cells from which some enabled input forces
    every successor into ``target``.  Blocking cells are never members."""
    mask = np.zeros(model.n_states, bool)
    mask[model.lattice.checked_cell_ids(target)] = True
    found, _ = model.controllable(mask)
    return {model.cells[sid] for sid in np.flatnonzero(found)}


@dataclass(frozen=True, eq=False)
class SafetyController:
    """Maximal safety controller on the abstraction.

    ``admissible`` maps each domain cell to the (non-empty, sorted) input
    indices whose successors stay inside the domain, in state order; its
    keys are the ``domain``, the greatest controlled-invariant subset of the
    safe cells, of ``lattice``.  ``iterations`` is the number of fixed-point
    sweeps performed, ``history`` the sweep sizes starting from the safe set
    itself.  A row that :func:`load_controller` would refuse (a cell off
    ``lattice``, no input ids, ids not strictly ascending, an id outside
    ``inputs``) raises ValueError at construction, as does a level or an
    id that is not an ``int`` and an ``iterations`` that is not an ``int``
    of at least 0.
    """

    admissible: dict[tuple[int, ...], tuple[int, ...]]
    inputs: np.ndarray
    lattice: LogLattice
    iterations: int
    history: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "inputs", _frozen(self.inputs))
        _check("iterations", self.iterations, _NATURAL)
        for cell, uids in self.admissible.items():
            _check_row(cell, uids, self.lattice, len(self.inputs))

    @property
    def domain(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.admissible)

    def __contains__(self, cell) -> bool:
        return tuple(cell) in self.admissible

    def query(self, x) -> tuple[int, ...]:
        """The admissible input indices of the cell containing the concrete
        state x, or an empty tuple when x is outside the lattice bounds (NaN
        and infinite components included) or outside the domain; the two
        cases give the same answer, so x is in the domain exactly when the
        answer is not empty.  A state of the wrong dimension raises
        ValueError.  Constant on each cell by construction."""
        try:
            cell = self.lattice.quantize(x)
        except OutOfDomainError:
            return ()
        return self.admissible.get(cell, ())


def safety_fixpoint(model: SymbolicModel, safe: AbstractSafeSet) -> SafetyController:
    """Greatest fixed point of the safety game on the model.

    An empty domain is a legal outcome (the safe set is not controllable at
    this coarseness), not an error.  Each sweep is one cpre over the
    model's successor sets.
    """
    start = time.perf_counter()
    safe_mask = np.zeros(model.n_states, bool)
    safe_mask[model.lattice.checked_cell_ids(safe.cells)] = True
    current = safe_mask
    history = [int(safe_mask.sum())]
    iterations = 0
    while True:
        iterations += 1
        found, good = model.controllable(current)
        # equals found & safe_mask (cpre is monotone) and only shrinks:
        # the loop ends within n_states + 1 sweeps
        nxt = found & current
        history.append(int(nxt.sum()))
        if (nxt == current).all():
            break
        current = nxt

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
        object.__setattr__(self, "inputs", _frozen(self.inputs))
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


def _check_step(uid: int, hold: int, n_inputs: int, where: str = ""):
    _check(f"{where}hold", hold, _COUNT)
    _check_index(f"{where}input index", uid, n_inputs, "inputs")


def _check_row(cell, uids, lattice: LogLattice, n_inputs: int, where=""):
    """The rules of one controller row: a cell of ``lattice`` and input ids
    that are not empty, strictly ascend and index a table of ``n_inputs``."""
    if not uids:
        raise ValueError(f"{where}no input ids")
    for uid in uids:
        _check_index(f"{where}input index", uid, n_inputs, "inputs")
    if any(a >= b for a, b in zip(uids, uids[1:])):
        raise ValueError(f"{where}input ids must strictly ascend")
    if cell not in lattice:
        raise ValueError(f"{where}{format_cell(cell)} is not a lattice cell")


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
    single, dst = model.singletons()
    uids = model.pair_input[single]
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


def _plan(model, sys, lattice, inputs, start, goals, grid_resolution,
          max_segment_steps) -> Plan:
    """Both search modes: the singleton one over the transitions of
    ``model``, or with ``model`` None the relaxed one over the rollouts of
    ``sys`` under ``inputs``.  The settings and the cells are checked before
    any search, then each goal is searched from the last arrival."""
    begin = time.perf_counter()
    _check("grid_resolution", grid_resolution, _POSITIVE)
    _check("max_segment_steps", max_segment_steps, _COUNT)
    ids = lattice.checked_cell_ids([start, *goals])
    cells = lattice.cells_of(ids)

    if model is not None:
        expand, visit = _singleton_expansion(model)
        node, max_depth = ids[:1], model.n_states
        reason = "unreachable via singleton transitions; retry with relaxed=True"
        goal_tests = [lambda nodes, gid=gid: nodes == gid for gid in ids[1:]]
    else:
        expand, visit = _rollout_expansion(sys, lattice, inputs,
                                           grid_resolution)
        node, max_depth = lattice.center(cells[0])[None], max_segment_steps
        reason = f"unreachable within {max_segment_steps} steps"
        goal_tests = [lattice.cell_box(c).contains_many for c in cells[1:]]

    # the plan's input ids, and the successor rows of each layer searched
    sequence: list[int] = []
    rows: list[int] = []

    def counted(frontier):
        found = expand(frontier)
        rows.append(len(found[0]))
        return found

    for cell, is_goal in zip(cells[1:], goal_tests):
        found = _search(node, counted, visit, is_goal, max_depth)
        if found is None:
            raise PlanningError(f"goal {format_cell(cell)} {reason}")
        segment, node = found
        sequence.extend(segment)
    logger.info("plan: %d goals, %d layers, %d rows, %.3f s", len(goal_tests),
                len(rows), sum(rows), time.perf_counter() - begin)
    return Plan(steps=tuple((uid, len(list(run)))
                            for uid, run in itertools.groupby(sequence)),
                inputs=inputs, lattice=lattice)


def plan_rollout(sys: SampledSystem, lattice: LogLattice, inputs, start,
                 goals, grid_resolution: float = 0.02,
                 max_segment_steps: int = 200) -> Plan:
    """Plan an input schedule visiting the goal cells of ``lattice`` in
    order by searching the nominal rollouts of ``sys`` under each row of
    ``inputs`` from the start cell's center: the relaxed mode of the module
    docstring, which reads no symbolic model.  Its plans carry no
    abstraction-level guarantee and must be validated in closed loop.

    A ``grid_resolution`` that is not positive and finite, or a
    ``max_segment_steps`` that is not an int of at least 1, raises
    ValueError, and a start or goal that is not a cell of ``lattice``
    raises :class:`OutOfDomainError` (ValueError for a level that is not
    an int), both before any search.  A goal not reached within
    ``max_segment_steps`` steps of the last arrival, or a dedup grid of
    more than 50M cells, raises :class:`PlanningError`.
    """
    return _plan(None, sys, lattice, inputs, start, goals, grid_resolution,
                 max_segment_steps)


def plan_reach(model: SymbolicModel, start, goals, relaxed: bool = False,
               grid_resolution: float = 0.02,
               max_segment_steps: int = 200) -> Plan:
    """Plan an input schedule visiting the goal cells in order.

    Default mode: breadth-first search over the abstract graph using only
    transitions whose successor set is a singleton, concatenating shortest
    segments; raises :class:`PlanningError` naming the first unreachable
    goal.  Callers may then retry with ``relaxed=True``, which is
    :func:`plan_rollout` over the model's system, lattice and input table:
    it reads none of the model's transitions, and a model without a system
    raises :class:`PlanningError`.  Relaxed plans must be validated in
    closed loop.  A ``grid_resolution`` that is not positive and finite, or
    a ``max_segment_steps`` that is not an int of at least 1, raises
    ValueError, and a start or goal off the model's lattice raises
    :class:`OutOfDomainError`, both before any search.
    """
    if relaxed and model.system is None:
        raise PlanningError("relaxed planning needs the model's source system")
    return _plan(None if relaxed else model, model.system, model.lattice,
                 model.inputs, start, goals, grid_resolution, max_segment_steps)


def _controller_ids(policy: SafetyController, x, max_steps: int):
    """Yields the lowest admissible input index of the state's cell and is
    sent the next state; returns the reason it stops, before a step."""
    if not policy.query(x):
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
    ``max_steps`` is not an int of at least 0 or ``x0`` does not have
    ``sys.dim_x`` components.
    """
    begin = time.perf_counter()
    _check("max_steps", max_steps, _NATURAL)
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
    logger.info("simulate: %d steps, %s, %.3f s", len(ids), terminated,
                time.perf_counter() - begin)
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


def load_controller(path, inputs, lattice: LogLattice) -> SafetyController:
    """Read a controller file over an input table and a lattice.

    A line that does not start with ``cell``, has no input ids, ids not
    strictly ascending, an id outside the table, a cell not of the lattice
    or a cell seen before raises a ValueError naming the file and line.
    """
    admissible: dict[tuple[int, ...], tuple[int, ...]] = {}
    lines = _lines(path)
    if next(lines, (1, ""))[1].strip(_BLANK) != CONTROLLER_HEADER:
        raise ValueError(f"{path}: not a controller file")
    for lineno, text in lines:
        line = text.strip(_BLANK)
        if not line or line.startswith("#"):
            continue
        try:
            if not line.startswith("cell "):
                raise ValueError("no cell keyword")
            levels, ids = line[5:].split(":")
            cell = parse_cell(levels)
            uids = tuple(map(_int, _fields(ids)))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed line") from exc
        where = f"{path}:{lineno}: "
        _check_row(cell, uids, lattice, len(inputs), where)
        if cell in admissible:
            raise ValueError(f"{where}cell {format_cell(cell)} repeated")
        admissible[cell] = uids
    return SafetyController(admissible=dict(sorted(admissible.items())),
                            inputs=inputs, lattice=lattice, iterations=0,
                            history=())


def save_plan(plan: Plan, path):
    """Lines of ``input_index hold_steps``."""
    with open(path, "w") as fh:
        for uid, hold in plan.steps:
            fh.write(f"{uid} {hold}\n")


def load_plan(path, inputs, lattice: LogLattice) -> Plan:
    """Read a plan file over an input table and a lattice; a bad line
    raises a ValueError naming it."""
    steps = []
    for lineno, text in _lines(path):
        if not (fields := _fields(text)) or fields[0].startswith("#"):
            continue
        try:
            uid, hold = map(_int, fields)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: malformed line") from exc
        _check_step(uid, hold, len(inputs), f"{path}:{lineno}: ")
        steps.append((uid, hold))
    return Plan(steps=tuple(steps), inputs=inputs, lattice=lattice)
