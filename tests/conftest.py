"""Shared fixtures and independent oracles for the test suite."""

import itertools
import re

import numpy as np
import pytest

import symquant as sq
from symquant import quantizer
from symquant.abstraction import SymbolicModel

# values that are not an int, though a comparison, int() or a numpy index
# would read each as one
NOT_INTS = (2.5, True, np.int64(1), "1")
# each range rule of symquant.quantizer as the suite states it: the words
# of its refusal, its range as the README's key table writes it, and the
# finite values just outside it; NaN and the infinities lie in no range
RANGE_RULES = {
    quantizer._POSITIVE: ("must be positive", "> 0", (0.0, -1.0)),
    quantizer._UNIT: ("must lie in (0, 1)", "in (0, 1)", (0.0, 1.0)),
    quantizer._NON_NEGATIVE: ("must be non-negative", ">= 0", (-1,)),
    quantizer._INT: ("must be an int", "an int", NOT_INTS),
    quantizer._COUNT: ("must be an int of at least 1", "an int >= 1",
                       (0, -2, *NOT_INTS)),
    quantizer._NATURAL: ("must be an int of at least 0", "an int >= 0",
                         (-1, *NOT_INTS)),
}


@pytest.fixture(scope="session")
def pendulum_scenario():
    """The bundled coarse pendulum scenario: system, lattice, model."""
    sys_ = sq.pendulum_system()
    lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                        "edge_anchored")
    model = sq.build_abstraction(sys_, lattice,
                                 sq.InputApproxConfig(mu=0.002, input_samples=51))
    return sys_, lattice, model


@pytest.fixture(scope="session")
def contracting_scenario():
    """Strongly contracting linear system where the growth bound has ample
    slack, so the safety game is winnable on the coarse lattice."""
    sys_ = sq.affine_system(-np.eye(2), np.ones((2, 1)), (-1.0,), (1.0,),
                            tau=0.5, name="contracting")
    lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                        "edge_anchored")
    model = sq.build_abstraction(sys_, lattice,
                                 sq.InputApproxConfig(mu=0.002, input_samples=21))
    return sys_, lattice, model


def rows_with_zeros(rng, n, dim_x, dim_u):
    """n (state, input) rows uniform on [-1, 1], with a quarter of the state
    entries and of the inputs set to zero."""
    x = rng.uniform(-1.0, 1.0, size=(n, dim_x))
    u = rng.uniform(-1.0, 1.0, size=(n, dim_u))
    x[rng.random(x.shape) < 0.25] = 0.0
    u[rng.random(u.shape) < 0.25] = 0.0
    return x, u


def region(axis, level):
    """Unclipped region of a signed level of a quantizer axis as an (lo, hi)
    pair: positive regions are left-open/right-closed, negative regions
    left-closed/right-open, the deadzone closed on both sides."""
    if level == 0:
        return (-axis.deadzone, axis.deadzone)
    m = abs(level)
    lo, hi = axis.boundary(m), axis.boundary(m + 1)
    return (lo, hi) if level > 0 else (-hi, -lo)


def contains(box, x):
    """Membership of one point in a box, respecting face openness."""
    return bool(box.contains_many(np.asarray(x, float)[None, :])[0])


def iter_transitions(model):
    """(src id, dst id, input id) of every transition of a model, sorted."""
    ptr, targets = model.relation()
    counts = np.diff(ptr)
    return list(zip(np.repeat(model.pair_state, counts).tolist(),
                    targets.tolist(),
                    np.repeat(model.pair_input, counts).tolist()))


def box_intersects(box, lo, hi):
    """Closed box [lo, hi] vs a half-open cell box."""
    for i in range(box.dim):
        lo_ok = hi[i] > box.lo[i] if box.lo_open[i] else hi[i] >= box.lo[i]
        hi_ok = lo[i] < box.hi[i] if box.hi_open[i] else lo[i] <= box.hi[i]
        if not (lo_ok and hi_ok):
            return False
    return True


def targets_oracle(model, sys_, lattice, cell, uid):
    """Exhaustive-intersection reference for transition targets: test every
    cell's box against the inflated successor box."""
    center = lattice.center(cell)
    nominal = sq.successor(sys_, center, model.inputs[uid])
    radius = sq.growth_radius(center, lattice.shared_eta, sys_.lipschitz,
                              sys_.tau)
    lo, hi = nominal - radius, nominal + radius
    if (lo < lattice.lo_array).any() or (hi > lattice.hi_array).any():
        return ()
    return tuple(c for c in model.cells
                 if box_intersects(lattice.cell_box(c), lo, hi))


def max_controlled_invariant(model, safe_cells):
    """Brute-force maximal controlled-invariant subset: delete one
    uncontrollable state at a time and restart the scan."""
    keep = {model.state_id(c) for c in safe_cells}
    changed = True
    while changed:
        changed = False
        for sid in sorted(keep):
            controllable = False
            for uid in model.enabled_ids(sid):
                succ = model.successor_ids(sid, uid)
                if succ and all(t in keep for t in succ):
                    controllable = True
                    break
            if not controllable:
                keep.discard(sid)
                changed = True
                break
    return {model.cells[sid] for sid in keep}


def affine_misses(model, sys_, ulps=4):
    """Exact soundness oracle for a model of an affine field
    ``dx/dt = A x + B u + c``: the pairs whose successor set lacks a true
    successor, and the pairs that only a tie lets miss, as ascending pair
    indices.

    RK4's period map of an affine field is affine in x for each input,
    ``x -> Phi x + g(u)``, so the interval hull of a cell's image is
    ``successor(mid, u) +- |Phi| half_width``, exact up to rounding.  Phi
    comes from d + 1 successors, at the origin and at the unit vectors.  A
    pair misses when its hull leaves the bounds, or when the hull's level
    range on some axis is not inside the level range of the pair's
    successor set.  A miss that an inset of the hull by ``ulps`` ulps of
    the bounds' magnitude removes is a tie, a hull end on a cell edge up to
    rounding, and is not counted as a miss."""
    lattice, d = model.lattice, model.lattice.dim
    zero = np.zeros((1, sys_.dim_u))
    image = np.concatenate([sq.successor_many(sys_, x[None], zero)
                            for x in np.vstack([np.zeros(d), np.eye(d)])])
    phi = (image[1:] - image[0]).T
    _, lo, hi = lattice.geometry()
    src = model.pair_state
    nominal = sq.successor_many(sys_, (lo + hi)[src] / 2,
                                model.inputs[model.pair_input])
    spread = (hi - lo)[src] / 2 @ np.abs(phi).T
    # the level range of each successor set on each axis
    ptr, targets = model.relation()
    shift = np.array([lattice.axis_levels(i).start for i in range(d)])
    levels = np.unravel_index(targets, lattice.shape)
    first, last = (np.column_stack([end.reduceat(axis, ptr[:-1])
                                    for axis in levels]) + shift
                   for end in (np.minimum, np.maximum))

    def missed(inset):
        lo_h, hi_h = nominal - spread + inset, nominal + spread - inset
        inside = lattice.contains_many(lo_h) & lattice.contains_many(hi_h)
        return ~inside | ((lattice.quantize_many(lo_h) < first)
                          | (lattice.quantize_many(hi_h) > last)).any(axis=1)

    tie = ulps * np.spacing(max(map(abs, lattice.lo + lattice.hi)))
    exact, inset = missed(0.0), missed(tie)
    return np.flatnonzero(inset), np.flatnonzero(exact & ~inset)


def miss_classes(model, pairs):
    """Counts of pairs by their source cell: ``deadzone`` when a level is 0,
    else ``outer`` when a level is the outermost (clipped) one of its axis,
    else ``interior``."""
    lattice = model.lattice
    cells = np.array(lattice.cells_of(model.pair_state[pairs]),
                     np.int64).reshape(-1, lattice.dim)
    levels = [lattice.axis_levels(i) for i in range(lattice.dim)]
    deadzone = (cells == 0).any(axis=1)
    outer = ((cells == [r[0] for r in levels])
             | (cells == [r[-1] for r in levels])).any(axis=1)
    return {"deadzone": int(deadzone.sum()),
            "outer": int((outer & ~deadzone).sum()),
            "interior": int((~outer & ~deadzone).sum())}


def corner_witnesses(model, sys_, pairs, inset=1e-9):
    """Mask of the pairs that a concrete successor shows to miss: from some
    corner of the source cell, inset by ``inset`` of the cell's width, the
    successor leaves the bounds or lies in a cell the pair's set lacks."""
    lattice, d = model.lattice, model.lattice.dim
    _, lo, hi = lattice.geometry()
    src, uid = model.pair_state[pairs], model.pair_input[pairs]
    near = lo[src] + inset * (hi - lo)[src]
    far = hi[src] - inset * (hi - lo)[src]
    found = np.zeros(len(pairs), bool)
    for corner in itertools.product((False, True), repeat=d):
        succ = sq.successor_many(sys_, np.where(corner, far, near),
                                 model.inputs[uid])
        ids = lattice.cell_ids(lattice.quantize_many(succ))
        found |= ~lattice.contains_many(succ) | ~model.is_successor(pairs, ids)
    return found


# the tau, mu and L of a hand-built model, values that the builders accept
HAND_PARAMETERS = {"tau": 0.2, "mu": 0.002, "lipschitz": 1.0}


def line_lattice(n):
    """A 1-D lattice whose cells are (0,), ..., (n - 1,) with state ids
    0, ..., n - 1, for hand-built graphs."""
    axis = sq.LogQuantizerAxis(eta=0.5, scale=1.0)
    hi = max(axis.deadzone, axis.level_value(n - 1))
    return sq.LogLattice((axis,), (-axis.deadzone,), (hi,))


def random_model(rng, max_states=50, max_inputs=5):
    """Random sparse transition system for fixed-point cross-checks."""
    n = int(rng.integers(2, max_states + 1))
    k = int(rng.integers(1, max_inputs + 1))
    succ = {}
    for sid in range(n):
        for uid in range(k):
            if rng.random() < 0.3:
                continue
            size = int(rng.integers(1, 4))
            dsts = sorted(set(int(v) for v in rng.integers(0, n, size=size)))
            succ[(sid, uid)] = tuple(dsts)
    inputs = np.arange(k, dtype=float).reshape(k, 1)
    return SymbolicModel.from_tables(line_lattice(n), inputs, succ,
                                     **HAND_PARAMETERS)


MUTATED_NUMBERS = ("-1", "999999", "abc", "1.5", "9223372036854775808")
# characters that no reader takes for a blank, only ASCII space and tab:
# U+3000 in place of the blank next to a field, U+00A0 on both sides of it,
# and the others inside it
SEPARATORS = {"ideographic_space": "\u3000", "nbsp": "\u00a0",
              "file_separator": "\x1c", "form_feed": "\x0c",
              "line_separator": "\u2028", "carriage_return": "\r"}


def separator_mutations(line, start, end):
    """The line's field ``line[start:end]`` under each separator mutation:
    yields (mutation name, mutated line)."""
    blank = line.find(" ", end)
    blank = blank if blank >= 0 else line.rfind(" ", 0, start)
    if blank >= 0:
        yield "ideographic_space", line[:blank] + "\u3000" + line[blank + 1:]
    yield "nbsp", (line[:start] + "\u00a0" + line[start:end] + "\u00a0"
                   + line[end:])
    middle = (start + end) // 2
    for name in ("file_separator", "form_feed", "line_separator",
                 "carriage_return"):
        yield name, line[:middle] + SEPARATORS[name] + line[middle:]


def line_mutations(lines):
    """Each line of a file under each mutation: yields (line index,
    mutation name, mutated lines).  The replaced number, and the field the
    separator mutations put a character in or next to, is chosen by the
    line index among the numbers of the line; a line without a number
    takes its first field."""
    for k, line in enumerate(lines):
        fields = line.split()
        variants = {"delete": [], "duplicate": [line, line], "blank": [""],
                    "swap": [" ".join(fields[1::-1] + fields[2:])],
                    "append": [line + " 0"]}
        numbers = list(re.finditer(r"-?\d+(?:\.\d+)?", line))
        if numbers:
            at = numbers[k % len(numbers)]
            for value in MUTATED_NUMBERS:
                variants[value] = [line[:at.start()] + value
                                   + line[at.end():]]
        else:
            at = re.search(r"\S+", line)
        if at:
            for name, new in separator_mutations(line, at.start(), at.end()):
                variants[name] = [new]
        for name, new in variants.items():
            yield k, name, lines[:k] + new + lines[k + 1:]
