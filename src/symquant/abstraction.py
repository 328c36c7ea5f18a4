"""Finite symbolic models of sampled systems over a logarithmic lattice.

The abstract state set is the lattice's cell set, and the input table is
the scenario's input grid (:func:`symquant.dynamics.input_grid`), so an
input id is a grid sample index.  The inputs of a cell are obtained by
integrating one period from the cell center under every grid sample and
keeping one representative per distinct image under a fine auxiliary
logarithmic quantizer (parameter ``mu``); two sampled inputs whose nominal
successors land in the same mu-region are interchangeable at this
resolution, and the lexicographically smallest one is kept.  A cell's pairs
are its enabled representatives.

A transition (cell, input) -> targets leads to every cell that meets the
pair's successor box.  :func:`_paper_boxes` forms the boxes (the cell
center's nominal successor inflated by the paper's growth radius, see
:func:`symquant.dynamics.growth_radius` for where it falls short), and
:func:`_targets_many` enumerates the cells of any boxes.  A box that leaves
the lattice bounds, or is inverted, meets no cell (:func:`_meets`), so the
builder stores no pair for it: the input is not enabled at that cell, and
enabled inputs never drive the quantized closed loop out of the working
box.  A built model keeps one box per enabled pair and enumerates every
successor set in one pass on the first query that needs them.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass

import numpy as np

from . import _public
from .dynamics import (SampledSystem, growth_radius, input_grid, successor,
                       successor_many)
from .errors import ConfigError, DivergenceError
from .quantizer import (_COUNT, _POSITIVE, _UNIT, LogLattice,
                        LogQuantizerAxis, QuantizerVariant, _check, _fields,
                        _frozen, _lines, _real, format_cell, parse_cell)

__all__ = _public(__name__)

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1
_CHUNK = 1 << 14  # transitions per chunk of enumeration, saving and walks
_BLOCK = 1 << 15  # bytes per block of a model file read


@dataclass(frozen=True)
class InputApproxConfig:
    """Input-set approximation parameters.

    ``mu`` is the density/scale of the auxiliary successor quantizer (finer
    mu separates more inputs); ``input_samples`` is the uniform grid
    resolution per input axis.
    """

    mu: float
    input_samples: int = 51

    def __post_init__(self):
        _check("mu", self.mu, _UNIT, ConfigError)
        _check("input_samples", self.input_samples, _COUNT, ConfigError)

    def mu_axis(self) -> LogQuantizerAxis:
        return LogQuantizerAxis(eta=self.mu, scale=self.mu,
                                variant=QuantizerVariant.VALUE_ANCHORED)


def _dedup(nominal: np.ndarray, grid: np.ndarray, cells,
           cfg: InputApproxConfig) -> np.ndarray:
    """Rows ``c * len(grid) + k`` of ``nominal`` (shape cells x grid x dim)
    that keep, per cell, the first grid sample of each mu-signature class
    (the mu-quantized levels of its nominal successor), ascending; divergent
    samples, whose successor is not finite or past the mu quantizer's
    ceiling, are skipped (and logged)."""
    n_cells, n_grid, dim = nominal.shape
    flat, mu = nominal.reshape(-1, dim), cfg.mu_axis()
    kept = (np.abs(flat) <= mu.ceiling).all(axis=1)
    for r in np.flatnonzero(~kept):
        logger.warning("skipping divergent input sample %s at cell %s",
                       grid[r % n_grid], cells[r // n_grid])
    rows = np.flatnonzero(kept)
    classes = np.column_stack([rows // n_grid, mu.levels(flat[rows])])
    # a stable sort keeps the first sample of each class in front
    order = np.lexsort(classes.T[::-1])
    ordered = classes[order]
    first = np.ones(len(order), bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    return np.sort(rows[order[first]])


def approximate_inputs(cell, lattice: LogLattice, sys: SampledSystem,
                       cfg: InputApproxConfig) -> list[np.ndarray]:
    """Abstract input set of a cell: grid samples deduplicated by the
    mu-quantized image of their nominal successors.

    Representatives are the lexicographically smallest input of each image
    class; divergent samples are skipped (and logged).
    """
    center = lattice.center(cell)
    grid = input_grid(sys, cfg.input_samples)
    succ = successor_many(sys, np.tile(center, (len(grid), 1)), grid)
    return [grid[k] for k in _dedup(succ[None], grid, [cell], cfg)]


def transition_targets(cell, u, sys: SampledSystem,
                       lattice: LogLattice) -> tuple[tuple[int, ...], ...]:
    """Cells intersecting the inflated one-period successor box of a cell
    center, sorted; empty when the box leaves the lattice bounds or the
    integration diverges."""
    center = lattice.center(cell)
    try:
        nominal = successor(sys, center, u)
    except DivergenceError as exc:
        logger.warning("divergence from cell %s under input %s: %s",
                       cell, u, exc)
        return ()
    _, ids = _targets_many(lattice, *_paper_boxes(sys, lattice, center[None],
                                                  nominal[None]))
    return tuple(lattice.cells_of(ids))


def _paper_boxes(sys: SampledSystem, lattice: LogLattice, centers, nominal):
    """Paper successor boxes ``(nominal - r, nominal + r)`` of (cell
    center, nominal successor) rows, ``r = growth_radius(center)``."""
    radius = growth_radius(centers, lattice.shared_eta, sys.lipschitz, sys.tau)
    return nominal - radius, nominal + radius


def _pair_chunks(ptr):
    """Consecutive pair ranges ``(a, b)`` of the CSR offsets ``ptr``, each
    with at most ``_CHUNK`` transitions; a larger pair is a range alone."""
    a = 0
    while a < len(ptr) - 1:
        b = max(a + 1, int(np.searchsorted(ptr, ptr[a] + _CHUNK, "right")) - 1)
        yield a, b
        a = b


def _meets(lattice: LogLattice, box_lo: np.ndarray, box_hi: np.ndarray):
    """Mask of the closed boxes ``[box_lo[k], box_hi[k]]`` that meet a cell:
    finite, not inverted and inside the lattice bounds."""
    return ((box_lo <= box_hi).all(axis=1) & lattice.contains_many(box_lo)
            & lattice.contains_many(box_hi))


def _targets_many(lattice: LogLattice, box_lo: np.ndarray, box_hi: np.ndarray):
    """The cells that meet many closed boxes ``[box_lo[k], box_hi[k]]``, as
    CSR ``(offsets, ids)``: box k meets the ascending state ids
    ``ids[offsets[k]:offsets[k + 1]]``.

    A set is the product of the per-axis level ranges that the box meets,
    enumerated in raveled order; it is empty when the box meets no cell
    (see :func:`_meets`).
    """
    ok = _meets(lattice, box_lo, box_hi)
    first = lattice.quantize_many(box_lo[ok])
    sizes = np.zeros(box_lo.shape, np.int64)
    sizes[ok] = lattice.quantize_many(box_hi[ok]) - first + 1
    base = np.zeros(len(box_lo), np.int64)
    base[ok] = lattice.cell_ids(first)
    counts = sizes.prod(axis=1)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    ids = np.empty(offsets[-1], np.int64)
    # mixed-radix walk over each box, the last axis varying fastest, one
    # chunk of pairs at a time
    for a, b in _pair_chunks(offsets):
        n = counts[a:b]
        out = ids[offsets[a]:offsets[b]]
        out[:] = np.repeat(base[a:b], n)
        local = np.arange(len(out)) - np.repeat(offsets[a:b] - offsets[a], n)
        stride = 1
        for i in reversed(range(lattice.dim)):
            size = np.repeat(sizes[a:b, i], n)
            out += local % size * stride
            local //= size
            stride *= lattice.shape[i]
    return offsets, ids


def _key(table, n_states: int, n_inputs: int):
    """Keys ``(src * n_inputs + uid) * n_states + dst`` of ``src dst uid``
    rows, and the first row that names an unknown state or input, or -1."""
    # a negative id, read unsigned, is above every count
    src, dst, uid = table.view(np.uint64).T
    bad = np.flatnonzero((src >= n_states) | (dst >= n_states)
                         | (uid >= n_inputs))
    src, dst, uid = table.T
    key = (src * n_inputs + uid) * n_states + dst
    return key, (int(bad[0]) if bad.size else -1)


def _pack(key, n_states: int, n_inputs: int):
    """Pairs and CSR relation of transition keys (see
    :func:`_key`): returns ``(pair_ptr, pair_input, (offsets, targets))``.
    Repeated transitions count once; the targets overwrite ``key``.  Keys
    that ascend are read a chunk at a time (each with the next chunk's
    first key), so they need no temporary larger than a chunk or the
    pairs."""
    chunks = range(0, len(key), _CHUNK)
    if not all((np.diff(key[a:a + _CHUNK + 1]) > 0).all() for a in chunks):
        key = np.sort(key)
        key = key[np.append(True, key[1:] != key[:-1])]
        chunks = range(0, len(key), _CHUNK)
    # a pair starts at the first key and wherever key // n_states changes
    starts = np.concatenate([np.arange(min(len(key), 1)), *(
        a + 1 + np.flatnonzero(np.diff(key[a:a + _CHUNK + 1] // n_states))
        for a in chunks)])
    pair_state, pair_input = np.divmod(key[starts] // n_states, n_inputs)
    np.remainder(key, n_states, out=key)
    pair_ptr = np.searchsorted(pair_state, np.arange(n_states + 1))
    return pair_ptr, pair_input, (np.append(starts, len(key)), key)


def _check_parameters(tau: float, mu: float, lipschitz: float):
    """Refuse, by their keys in a model file, the tau, mu and L that the
    builders refuse (:class:`SampledSystem`, :class:`InputApproxConfig`)."""
    _check("#tau", tau, _POSITIVE)
    _check("#mu", mu, _UNIT)
    _check("#L", lipschitz, _POSITIVE)


class SymbolicModel:
    """Finite transition system over the cells of a lattice.

    States are the lattice's cells in enumeration order (``cells``), so a
    state id is the cell's raveled level index, ``lattice.cell_ids``.
    Inputs are an indexed table of input vectors.  The pairs of state s
    are rows ``pair_ptr[s]:pair_ptr[s + 1]`` of ``pair_state`` and
    ``pair_input`` (ascending input ids), and they are its enabled inputs:
    a state without pairs is blocking.  The successor sets are compressed
    sparse rows over the pairs, ``(offsets, targets)`` with ascending
    target ids, none of them empty.  Only the model's own queries read
    them; :meth:`relation` is their explicit view.  The output map is the
    identity on cells and is not stored; the density eta is the lattice's
    (``lattice.shared_eta``).

    Exactly one of two successor representations is given, with one entry
    per pair.  ``relation = (offsets, targets)`` gives the successor sets
    up front, stored as int64 arrays.  ``boxes = (lo, hi)`` gives one
    closed successor box per pair, and :meth:`materialize` enumerates the
    cells that meet them all at once on the first query.  How a box was
    formed is the builder's concern.  Neither or both representations, a
    count other than one per pair, or a box that meets no cell raises
    ValueError, as do pairs and sets that the loader never produces: a
    ``pair_ptr`` that does not rise from 0 to the pair count over
    ``n_states + 1`` entries, input ids that index no input or do not
    strictly ascend within a state, successor offsets that do not rise
    strictly (an empty set) from 0 to the target count, and target ids
    that index no state or do not strictly ascend within a set.  The
    sampling period ``tau``, the input quantizer's ``mu`` and the growth
    constant ``lipschitz`` are required, and a value that the builders
    refuse raises ValueError (see :func:`_check_parameters`), so every
    model can be saved.
    """

    def __init__(self, lattice: LogLattice, inputs, pair_ptr, pair_input, *,
                 tau, mu, lipschitz, system=None, relation=None, boxes=None):
        self.lattice = lattice
        self.cells = lattice.enumerate_cells()
        inputs = np.asarray(inputs, float)
        if inputs.ndim != 2:
            inputs = inputs.reshape(len(inputs), -1 if inputs.size else 1)
        self.inputs = _frozen(inputs)
        self.tau = float(tau)
        self.mu = float(mu)
        self.lipschitz = float(lipschitz)
        _check_parameters(self.tau, self.mu, self.lipschitz)
        self.system = system
        ptr = self.pair_ptr = np.asarray(pair_ptr, np.int64)
        uid = self.pair_input = np.asarray(pair_input, np.int64)
        if (len(ptr) != len(self.cells) + 1 or ptr[0] != 0
                or ptr[-1] != len(uid) or (np.diff(ptr) < 0).any()):
            raise ValueError("pair_ptr must rise from 0 to the pair count")
        self.pair_state = np.repeat(np.arange(len(self.cells)), np.diff(ptr))
        if (((uid < 0) | (uid >= len(inputs))).any()
                or (np.diff(uid)[np.diff(self.pair_state) == 0] <= 0).any()):
            raise ValueError("input ids must strictly ascend and index inputs")
        if (relation is None) == (boxes is None):
            raise ValueError("give exactly one of relation and boxes")
        if relation is not None:
            offsets, targets = relation = tuple(
                np.asarray(part, np.int64) for part in relation)
            if (offsets[:1].tolist() != [0] or offsets[-1] != len(targets)
                    or (np.diff(offsets) <= 0).any()):
                raise ValueError("successor offsets must rise strictly from 0 "
                                 "to the target count (no empty successor set)")
            rises = targets[1:] > targets[:-1]
            rises[offsets[1:-1] - 1] = True  # a set may start below the last
            if (not rises.all() or targets.min(initial=0) < 0
                    or targets.max(initial=0) >= len(self.cells)):
                raise ValueError("successor ids must strictly ascend within "
                                 "a set and index states")
        elif not _meets(lattice, *boxes).all():
            raise ValueError("a pair's successor box meets no cell")
        count = len(boxes[0]) if relation is None else len(relation[0]) - 1
        if count != len(self.pair_input):
            raise ValueError(f"{count} successor sets or boxes for "
                             f"{len(self.pair_input)} pairs")
        self._relation = relation
        self._boxes = boxes

    # -- identifiers ---------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.cells)

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    def state_id(self, cell) -> int:
        """The cell's state id; a cell that is not on the lattice raises
        :class:`OutOfDomainError`."""
        return int(self.lattice.checked_cell_ids([cell])[0])

    # -- transition queries --------------------------------------------

    def materialize(self):
        """Compute every successor set in one pass (no-op when complete)."""
        if self._relation is not None:
            return
        start = time.perf_counter()
        self._relation = _targets_many(self.lattice, *self._boxes)
        self._boxes = None
        logger.info("targets: %d pairs, %d transitions, %.3f s",
                    len(self.pair_input), len(self._relation[1]),
                    time.perf_counter() - start)

    def relation(self):
        """Successor sets as ``(offsets, targets)``: pair k leads to
        ``targets[offsets[k]:offsets[k + 1]]``."""
        if self._relation is None:
            self.materialize()
        return self._relation

    def enabled_ids(self, sid: int) -> tuple[int, ...]:
        a, b = self.pair_ptr[sid], self.pair_ptr[sid + 1]
        return tuple(self.pair_input[a:b].tolist())

    def successor_ids(self, sid: int, uid: int) -> tuple[int, ...]:
        ptr, targets = self.relation()
        a, b = self.pair_ptr[sid], self.pair_ptr[sid + 1]
        j = a + int(np.searchsorted(self.pair_input[a:b], uid))
        if j == b or self.pair_input[j] != uid:
            return ()
        return tuple(targets[ptr[j]:ptr[j + 1]].tolist())

    def controllable(self, target: np.ndarray):
        """One cpre sweep: the state mask of cells with a pair whose
        successors are all inside the state mask ``target``, and the mask
        of those pairs."""
        ptr, targets = self.relation()
        # no successor set is empty, so consecutive starts bound one set each
        good = ~np.logical_or.reduceat((~target)[targets], ptr[:-1])
        found = np.zeros(self.n_states, bool)
        found[self.pair_state[good]] = True
        return found, good

    def is_successor(self, pairs: np.ndarray, ids: np.ndarray) -> np.ndarray:
        """Mask of the rows k where state ``ids[k]`` is a successor of pair
        ``pairs[k]``."""
        ptr, targets = self.relation()
        # bisection for the last target not above ids[k] inside each pair's
        # successor set, which ascends and is not empty
        first, size = ptr[pairs], ptr[pairs + 1] - ptr[pairs]
        while (size > 1).any():
            half = size // 2
            first += half * (targets[first + half] <= ids)
            size -= half
        return targets[first] == ids

    def singletons(self):
        """The pairs whose successor set is one state, ascending, and that
        state of each."""
        ptr, targets = self.relation()
        single = np.flatnonzero(np.diff(ptr) == 1)
        return single, targets[ptr[single]]

    def enabled_inputs(self, cell) -> tuple[int, ...]:
        """Input indices of the cell's pairs, each with at least one
        successor; an empty result means the cell is blocking."""
        return self.enabled_ids(self.state_id(cell))

    def successors(self, cell, input_index: int) -> tuple[tuple[int, ...], ...]:
        """Sorted successor cells of (cell, input index); empty when the
        input is not enabled there."""
        ids = self.successor_ids(self.state_id(cell), int(input_index))
        return tuple(self.cells[t] for t in ids)

    def transition_count(self) -> int:
        return len(self.relation()[1])

    def transition_text(self, head: str, tail: str):
        """Every transition as text, sorted, one string per chunk of pairs
        (see :func:`_pair_chunks`): ``src dst uid`` reads
        ``head % src + dst + tail % uid``, each id in decimal.

        The lines of one successor set differ only in ``dst``, so each set
        is one ``str.join`` over a table of decimal names.
        """
        ptr, targets = self.relation()
        names = [str(i) for i in range(max(self.n_states, self.n_inputs))]
        for a, b in _pair_chunks(ptr):
            dst = list(map(names.__getitem__,
                           targets[ptr[a]:ptr[b]].tolist()))
            ends = (ptr[a:b + 1] - ptr[a]).tolist()
            text = []
            for src, uid, i, j in zip(self.pair_state[a:b].tolist(),
                                      self.pair_input[a:b].tolist(),
                                      ends, ends[1:]):
                first, last = head % names[src], tail % names[uid]
                text.append(first + (last + first).join(dst[i:j]) + last)
            yield "".join(text)

    def summary(self) -> dict:
        return {
            "states": self.n_states,
            "inputs": self.n_inputs,
            "transitions": self.transition_count(),
        }

    # -- construction without a builder --------------------------------

    @classmethod
    def from_tables(cls, lattice: LogLattice, inputs, successors, *,
                    tau, mu, lipschitz, system=None):
        """Assemble a model from explicit tables.

        ``successors`` maps (state id, input id) to an iterable of state ids;
        an empty entry is dropped, so a pair exists only where its input is
        enabled.
        """
        table = np.array([(s, d, u) for (s, u), dsts in successors.items()
                          for d in dsts], np.int64).reshape(-1, 3)
        n_states, n_inputs = lattice.cell_count(), len(inputs)
        key, bad = _key(table, n_states, n_inputs)
        if bad >= 0:
            raise ValueError("transition names an unknown state or input")
        pair_ptr, pair_input, relation = _pack(key, n_states, n_inputs)
        return cls(lattice, inputs, pair_ptr, pair_input, tau=tau, mu=mu,
                   lipschitz=lipschitz, system=system, relation=relation)


def build_abstraction(sys: SampledSystem, lattice: LogLattice,
                      cfg: InputApproxConfig) -> SymbolicModel:
    """Build the symbolic model of a sampled system over a lattice.

    The result is deterministic.  The input table is the input grid
    ``input_grid(sys, cfg.input_samples)``, whether or not a pair uses a
    sample.  Each cell's representatives and each one's successor box are
    computed here (one batched integration), and the pairs are the
    representatives whose box meets a cell; the successor sets are left to
    the model's first query that needs them.
    """
    if sys.dim_x != lattice.dim:
        raise ConfigError(f"system dimension {sys.dim_x} does not match "
                          f"lattice dimension {lattice.dim}")
    cells = lattice.enumerate_cells()
    start = time.perf_counter()
    grid = input_grid(sys, cfg.input_samples)
    n_cells, n_grid = len(cells), len(grid)
    centers = lattice.geometry()[0]

    # one batched integration for every (cell center, grid input) pair
    nominal_all = successor_many(sys, np.repeat(centers, n_grid, axis=0),
                                 np.tile(grid, (n_cells, 1)))
    rows = _dedup(nominal_all.reshape(n_cells, n_grid, -1), grid, cells, cfg)

    # the input table is the grid, so a pair's input id is its sample index;
    # a representative is a pair only where its box meets a cell
    pair_state, sample = np.divmod(rows, n_grid)
    lo, hi = _paper_boxes(sys, lattice, centers[pair_state], nominal_all[rows])
    enabled = _meets(lattice, lo, hi)
    model = SymbolicModel(
        lattice, grid,
        np.searchsorted(pair_state[enabled], np.arange(n_cells + 1)),
        sample[enabled], tau=sys.tau, mu=cfg.mu, lipschitz=sys.lipschitz,
        system=sys, boxes=(lo[enabled], hi[enabled]))
    logger.info("dedup: %d cells x %d input samples, %d representatives, "
                "%d enabled pairs, %.3f s", n_cells, n_grid, len(rows),
                enabled.sum(), time.perf_counter() - start)
    return model


def _format_floats(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def save_abstraction(model: SymbolicModel, path):
    """Write the versioned line-oriented abstraction file (lossless)."""
    lat = model.lattice
    start = time.perf_counter()
    with open(path, "w") as fh:
        fh.write(f"#version {FORMAT_VERSION}\n")
        fh.write("#lattice variant=%s eta=%s scale=%s lo=%s hi=%s\n" % (
            lat.axes[0].variant.value, repr(float(lat.shared_eta)),
            _format_floats(axis.scale for axis in lat.axes),
            _format_floats(lat.lo), _format_floats(lat.hi)))
        fh.write("#tau %s #eta %s #mu %s #L %s\n" % (
            repr(float(model.tau)), repr(float(lat.shared_eta)),
            repr(float(model.mu)), repr(float(model.lipschitz))))
        for text in model.transition_text("%s ", " %s\n"):
            fh.write(text)
        for uid in range(model.n_inputs):
            fh.write("input %d %s\n" % (uid, " ".join(
                repr(float(v)) for v in model.inputs[uid])))
        for sid, cell in enumerate(model.cells):
            fh.write(f"state {sid} {format_cell(cell)}\n")
    logger.info("save: %d transitions, %.3f s", model.transition_count(),
                time.perf_counter() - start)


# a model file's three header lines in the shape save_abstraction writes
# them: each "..." stands for one value, in a field of its own or after "="
_HEADER = ("#version ...",
           "#lattice variant=... eta=... scale=... lo=... hi=...",
           "#tau ... #eta ... #mu ... #L ...")


def _values(line: str, shape: str) -> list[str]:
    """The values of a header line in ``shape``, an entry of ``_HEADER``:
    its fields (see :func:`_fields`) match the shape's one to one, a field
    whose shape ends in ``...`` by its start and any other exactly.  A line
    in another shape raises ValueError."""
    fields, want = _fields(line), shape.split()
    if len(fields) != len(want) or any(
            field != key and not (key.endswith("...")
                                  and field.startswith(key[:-3]))
            for field, key in zip(fields, want)):
        raise ValueError(f"expected {shape!r}, got {line!r}")
    return [field[len(key) - 3:] for field, key in zip(fields, want)
            if key.endswith("...")]


def _read_header(path):
    """The lattice, tau, mu and L of a model file's first three lines, in
    the shapes of ``_HEADER``; a fault raises at its line, before the next
    line is read."""
    lines = _lines(path)
    for lineno, shape in enumerate(_HEADER, 1):
        line = next(lines, (lineno, ""))[1]
        try:
            values = _values(line, shape)
            if lineno == 1 and values != [str(FORMAT_VERSION)]:
                raise ValueError(
                    f"unsupported abstraction format {values[0]!r}")
            if lineno == 2:
                variant, eta, *axes = values
                lattice = LogLattice.from_params(_real(eta, "eta is "), *(
                    [_real(v, f"{key} is ") for v in text.split(",")]
                    for key, text in zip(("scale", "lo", "hi"), axes)),
                    QuantizerVariant(variant))
            if lineno == 3:
                tau, eta, mu, lipschitz = (
                    _real(v, f"{key} is ")
                    for key, v in zip(shape.split()[::2], values))
                if eta != lattice.shared_eta:
                    raise ValueError(f"#eta {eta!r} differs from the #lattice "
                                     f"eta {lattice.shared_eta!r}")
                _check_parameters(tau, mu, lipschitz)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return lattice, tau, mu, lipschitz


_DIGITS = 18  # the most digits of an id; any 18-digit number fits int64
_POWERS = 10 ** np.arange(_DIGITS, dtype=np.int64)


def _table(block: bytes):
    """The int64 table of a block of whole ``src dst uid`` lines, each
    ending in a newline; None if a line is malformed.

    A line is three ids of 1 to ``_DIGITS`` decimal digits, separated by
    single spaces: no byte is above ``"9"``, and the bytes below ``"0"``
    (the separators) are two spaces and then a newline per line.  An id is
    read from its last digits, one digit place per gather.
    """
    a = np.frombuffer(block, np.uint8)
    sep = np.flatnonzero(a < 48)
    n = len(sep) // 3
    width = sep - 1  # the digits between consecutive separators
    width[1:] -= sep[:-1]
    width[0] += 1
    # with 2n spaces among the 3n separators, n newlines at every third
    # one leave the others to be the spaces
    if (len(sep) % 3 or a.max() > 57 or np.count_nonzero(a == 32) != 2 * n
            or not (a[sep[2::3]] == 10).all()
            or width.min() < 1 or width.max() > _DIGITS):
        return None
    digits = a - 48
    table = digits[sep - 1].astype(np.int64)
    for j in range(1, width.max()):
        # place j of a narrower id holds a separator, an earlier id or, for
        # the block's first id, a byte wrapped from the block's end
        table += digits[sep - (j + 1)] * (width > j) * _POWERS[j]
    return table.reshape(-1, 3)


def _blocks(fh, end=math.inf):
    """The bytes of an open binary file from its position up to offset
    ``end`` (or its end), in blocks of whole lines of about ``_BLOCK``
    bytes, each ending in a newline."""
    carry = b""
    while read := fh.read(min(_BLOCK, end - fh.tell())):
        block = carry + read
        cut = block.rfind(b"\n") + 1
        block, carry = block[:cut], block[cut:]
        if block:
            yield block
    if carry:
        yield carry + b"\n"


def _tables_at(block: bytes):
    """The number of lines of a block of whole lines before the first that
    starts with ``input `` or ``state ``, and that line's offset; the
    number of lines and the block's length if there is none."""
    a = np.frombuffer(b"\n" + block, np.uint8)
    newline = a == 10  # newline[i]: block[i] starts a line
    first = a[1:]
    maybe = newline[:-1] & ((first == ord("i")) | (first == ord("s")))
    for i in np.flatnonzero(maybe):
        if block.startswith((b"input ", b"state "), i):
            return int(np.count_nonzero(newline[1:i + 1])), int(i)
    return int(np.count_nonzero(newline)) - 1, len(block)


def _scan(path):
    """The byte offset and the number of a model file's transition lines,
    the lines after its three header lines, and the byte offset of its
    first later line that starts with ``input `` or ``state ``."""
    n_body = 0
    with open(path, "rb") as fh:
        for _ in _HEADER:
            fh.readline()
        body = tail = fh.tell()
        for block in _blocks(fh):
            lines, end = _tables_at(block)
            n_body += lines
            tail += end
            if end < len(block):
                break
    return body, n_body, tail


def _read_transitions(path, body: int, tail: int, n_head: int, n_body: int,
                      n_states: int, n_inputs: int) -> np.ndarray:
    """Keys (see :func:`_key`) of the ``n_body`` transition lines of a model
    file, its bytes from ``body`` up to ``tail`` (see :func:`_scan`),
    parsed a block at a time; a malformed line, or one that names an
    unknown state or input, raises at its line."""
    keys = np.empty(n_body, np.int64)
    done = 0
    with open(path, "rb") as fh:
        fh.seek(body)
        for block in _blocks(fh, tail):
            table = _table(block)
            if table is None:
                lines = block.split(b"\n")
                k = next((k for k, line in enumerate(lines)
                          if _table(line + b"\n") is None), 0)
                raise ValueError(
                    f"{path}:{n_head + done + k + 1}: malformed line "
                    f"{lines[k].decode(errors='replace')!r}")
            keys[done:done + len(table)], row = _key(table, n_states,
                                                     n_inputs)
            if row >= 0:
                raise ValueError(
                    f"{path}:{n_head + done + row + 1}: transition to or from "
                    f"an unknown state or input ({n_states} states, "
                    f"{n_inputs} inputs)")
            done += len(table)
    return keys


def _read_tables(path, tail: int, number: int, cells) -> list:
    """The input table of a model file's table lines, which start at byte
    ``tail`` with line ``number``: ``input 0`` to ``input U-1``, each with
    as many components as the first, then ``state 0`` to ``state N-1``,
    each with the levels of its cell in ``cells``.  Any other line raises
    at its line, as do state lines that stop before the last cell."""
    inputs, states = [], 0
    for lineno, line in _lines(path, offset=tail, number=number):
        try:
            kind, ident, rest = _fields(line, 2)
            if kind == "input" and ident == str(len(inputs)) and not states:
                inputs.append(tuple(map(_real, _fields(rest))))
                if len(inputs[-1]) != len(inputs[0]):
                    raise ValueError
                continue
            if kind != "state" or ident != str(states):
                raise ValueError
            cell = parse_cell(rest)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: malformed line {line!r}") from None
        if cells[states:states + 1] != [cell]:
            raise ValueError(f"{path}:{lineno}: state {states} "
                             f"{format_cell(cell)} is not cell {states} of "
                             f"the #lattice")
        states += 1
    if states != len(cells):
        raise ValueError(f"{path}: {states} states where the #lattice has "
                         f"{len(cells)} cells")
    return inputs


def load_abstraction(path, system=None) -> SymbolicModel:
    """Read an abstraction file written by :func:`save_abstraction`.

    The file holds the lines that the writer produces, in its order:
    ``#version 1``; ``#lattice variant=V eta=E scale=S lo=LO hi=HI``
    with comma-separated per-axis values; ``#tau T #eta E #mu M #L L``,
    whose ``#eta`` is the ``#lattice`` eta and whose values the builders
    would accept (``#tau`` and ``#L`` positive, ``#mu`` in (0, 1)); one
    ``src dst uid`` line per transition; ``input 0`` to ``input U-1``, each
    with its input's components; and one ``state S`` line per ``#lattice``
    cell, in enumeration order, with that cell's comma-separated levels.
    Fields are separated by ASCII blanks and numbers are read by the
    number grammar of every file (:func:`symquant.quantizer._real`).  A
    transition line is three ids of decimal digits with single spaces
    between them and a ``\n`` end (the file's last newline is optional);
    any other byte, a non-UTF-8 one included, makes it a malformed line.
    The header and table lines must be exactly the writer's: a missing,
    repeated, reordered or extra one, or any other fault, raises a
    ValueError naming the file and, where one line is at fault, the line.
    The transition lines are read as a set, so they may come in any order
    and repeat: two swapped or one repeated transition line load as the
    writer's file does.  The file is scanned a block of bytes at a time
    for where its transitions and tables lie; the header and table lines
    are then read by the line reader of every text file
    (:func:`symquant.quantizer._lines`) and the transitions a block at a
    time.  The header and the tables are checked before the transitions,
    so a file with faults in both regions is rejected for a fault in the
    header or tables.
    """
    start = time.perf_counter()
    body, n_body, tail = _scan(path)
    lattice, tau, mu, lipschitz = _read_header(path)
    cells = lattice.enumerate_cells()
    inputs = _read_tables(path, tail, len(_HEADER) + n_body + 1, cells)
    keys = _read_transitions(path, body, tail, len(_HEADER), n_body,
                             len(cells), len(inputs))
    pair_ptr, pair_input, relation = _pack(keys, len(cells), len(inputs))
    model = SymbolicModel(lattice, inputs, pair_ptr, pair_input, tau=tau,
                          mu=mu, lipschitz=lipschitz, system=system,
                          relation=relation)
    logger.info("load: %d states, %d inputs, %d transitions, %.3f s",
                len(cells), len(inputs), n_body, time.perf_counter() - start)
    return model
