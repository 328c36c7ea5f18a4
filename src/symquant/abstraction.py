"""Finite symbolic models of sampled systems over a logarithmic lattice.

The abstract state set is the lattice's cell set.  The abstract input set is
obtained per cell by sampling the input box on a uniform grid, integrating
one period from the cell center, and keeping one representative input per
distinct image under a fine auxiliary logarithmic quantizer (parameter
``mu``); two sampled inputs whose nominal successors land in the same
mu-region are interchangeable at this resolution, and the lexicographically
smallest one is kept.

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

import itertools
import logging
import time
from dataclasses import dataclass

import numpy as np

from .dynamics import SampledSystem, growth_radius, successor, successor_many
from .errors import (ConfigError, DivergenceError, OutOfDomainError,
                     located_decoding)
from .quantizer import (LogLattice, LogQuantizerAxis, QuantizerVariant,
                        format_cell, parse_cell)

__all__ = [
    "InputApproxConfig",
    "SymbolicModel",
    "input_grid",
    "approximate_inputs",
    "transition_targets",
    "build_abstraction",
    "save_abstraction",
    "load_abstraction",
]

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1
_CHUNK = 1 << 14  # transitions per chunk of enumeration, saving and walks
_BLOCK = 1 << 14  # characters per block of a model file read


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
        if not (0.0 < self.mu < 1.0):
            raise ConfigError(f"mu must lie in (0, 1), got {self.mu!r}")
        if self.input_samples < 1:
            raise ConfigError("input_samples must be at least 1")

    def mu_axis(self) -> LogQuantizerAxis:
        return LogQuantizerAxis(eta=self.mu, scale=self.mu,
                                variant=QuantizerVariant.VALUE_ANCHORED)


def input_grid(sys: SampledSystem, samples: int) -> np.ndarray:
    """Uniform grid over the input box, rows in lexicographic order."""
    axes = [np.linspace(lo, hi, samples)
            for lo, hi in zip(sys.input_lo, sys.input_hi)]
    rows = list(itertools.product(*axes))
    return np.array(rows, float).reshape(len(rows), sys.dim_u)


def _dedup(nominal: np.ndarray, grid: np.ndarray, cells,
           cfg: InputApproxConfig) -> np.ndarray:
    """Rows ``c * len(grid) + k`` of ``nominal`` (shape cells x grid x dim)
    that keep, per cell, the first grid sample of each mu-signature class
    (the mu-quantized levels of its nominal successor), ascending; divergent
    samples are skipped (and logged)."""
    n_cells, n_grid, dim = nominal.shape
    flat = nominal.reshape(-1, dim)
    finite = np.isfinite(flat).all(axis=1)
    for r in np.flatnonzero(~finite):
        logger.warning("skipping divergent input sample %s at cell %s",
                       grid[r % n_grid], cells[r // n_grid])
    rows = np.flatnonzero(finite)
    if rows.size == 0:
        return rows
    classes = np.column_stack([rows // n_grid,
                               cfg.mu_axis().levels(flat[rows])])
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
    src, dst, uid = table.T
    bad = np.flatnonzero((src < 0) | (src >= n_states) | (dst < 0)
                         | (dst >= n_states) | (uid < 0) | (uid >= n_inputs))
    key = (src * n_inputs + uid) * n_states + dst
    return key, (int(bad[0]) if bad.size else -1)


def _pack(key, n_states: int, n_inputs: int):
    """Pairs and CSR relation of transition keys (see
    :func:`_key`): returns ``(pair_ptr, pair_input, (offsets, targets))``.
    Repeated transitions count once; the targets overwrite ``key``."""
    if not (key[1:] > key[:-1]).all():
        key = np.sort(key)
        key = key[np.append(True, key[1:] != key[:-1])]
    pair_key = key // n_states
    np.remainder(key, n_states, out=key)
    new = np.ones(len(key), bool)
    np.not_equal(pair_key[1:], pair_key[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    pair_state, pair_input = np.divmod(pair_key[starts], n_inputs)
    pair_ptr = np.searchsorted(pair_state, np.arange(n_states + 1))
    return pair_ptr, pair_input, (np.append(starts, len(key)), key)


class SymbolicModel:
    """Finite transition system over the cells of a lattice.

    States are the lattice's cells in enumeration order (``cells``), so a
    state id is the cell's raveled level index, ``lattice.cell_ids``.
    Inputs are an indexed table of input vectors.  The pairs of state s
    are rows ``pair_ptr[s]:pair_ptr[s + 1]`` of ``pair_state`` and
    ``pair_input`` (ascending input ids), and they are its enabled inputs:
    a state without pairs is blocking.  The successor sets are compressed
    sparse rows over the pairs, ``(offsets, targets)`` with ascending
    target ids, none of them empty.  The output map is the identity on
    cells and is not stored.  ``eta`` is the lattice's density.

    ``relation`` gives the successor sets up front.  Without it,
    ``boxes = (lo, hi)`` gives one closed successor box per pair, and
    :meth:`materialize` enumerates the cells that meet them all at once on
    the first query.  How a box was formed is the builder's concern.  An
    empty set, or a box that meets no cell, raises ValueError.
    """

    def __init__(self, lattice: LogLattice, inputs, pair_ptr, pair_input, *,
                 tau=0.0, mu=0.5, lipschitz=1.0, system=None, relation=None,
                 boxes=None):
        self.lattice = lattice
        self.cells = lattice.enumerate_cells()
        inputs = np.asarray(inputs, float)
        if inputs.ndim != 2:
            inputs = (inputs.reshape(len(inputs), -1) if inputs.size
                      else np.empty((0, 1)))
        self.inputs = inputs
        self.inputs.setflags(write=False)
        self.tau = float(tau)
        self.eta = lattice.shared_eta
        self.mu = float(mu)
        self.lipschitz = float(lipschitz)
        self.system = system
        self.pair_ptr = np.asarray(pair_ptr, np.int64)
        self.pair_input = np.asarray(pair_input, np.int64)
        self.pair_state = np.repeat(np.arange(len(self.cells)),
                                    np.diff(self.pair_ptr))
        if relation is not None and (np.diff(relation[0]) == 0).any():
            raise ValueError("a pair has an empty successor set")
        if boxes is not None and not _meets(lattice, *boxes).all():
            raise ValueError("a pair's successor box meets no cell")
        self._relation = relation
        self._boxes = boxes

    # -- identifiers ---------------------------------------------------

    @property
    def n_states(self) -> int:
        return len(self.cells)

    @property
    def n_inputs(self) -> int:
        return self.inputs.shape[0]

    def state_ids(self, cells) -> np.ndarray:
        """State ids of cells; a cell that is not on the lattice raises
        :class:`OutOfDomainError`."""
        cells = list(cells)
        for cell in cells:
            if cell not in self.lattice:
                raise OutOfDomainError(f"unknown cell {cell!r}")
        return self.lattice.cell_ids(cells)

    def state_id(self, cell) -> int:
        return int(self.state_ids([cell])[0])

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

    def enabled_inputs(self, cell) -> tuple[int, ...]:
        """Input indices of the cell's pairs, each with at least one
        successor; an empty result means the cell is blocking."""
        return self.enabled_ids(self.state_id(cell))

    def successors(self, cell, input_index: int) -> tuple[tuple[int, ...], ...]:
        """Sorted successor cells of (cell, input index); empty when the
        input is not enabled there."""
        ids = self.successor_ids(self.state_id(cell), int(input_index))
        return tuple(self.cells[t] for t in ids)

    def is_blocking(self, cell) -> bool:
        return not self.enabled_inputs(cell)

    def transition_count(self) -> int:
        return len(self.relation()[1])

    def iter_transitions(self):
        """Yield (src id, dst id, input id) sorted."""
        ptr, targets = self.relation()
        for a, b in _pair_chunks(ptr):
            counts = np.diff(ptr[a:b + 1])
            yield from zip(np.repeat(self.pair_state[a:b], counts).tolist(),
                           targets[ptr[a]:ptr[b]].tolist(),
                           np.repeat(self.pair_input[a:b], counts).tolist())

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
                    tau=0.0, mu=0.5, lipschitz=1.0, system=None):
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

    The result is deterministic.  The abstract input sets and each pair's
    successor box are computed here (one batched integration), and a
    representative input whose box meets no cell is not a pair of its cell;
    the successor sets are left to the model's first query that needs them.
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

    # global input table: union of representatives; grid rows are in
    # lexicographic order, so ascending sample index is ascending input
    pair_state, sample = np.divmod(rows, n_grid)
    used = np.flatnonzero(np.bincount(sample, minlength=n_grid))
    # a representative is a pair only where its box meets a cell
    lo, hi = _paper_boxes(sys, lattice, centers[pair_state], nominal_all[rows])
    enabled = _meets(lattice, lo, hi)
    model = SymbolicModel(
        lattice, grid[used],
        np.searchsorted(pair_state[enabled], np.arange(n_cells + 1)),
        np.searchsorted(used, sample[enabled]), tau=sys.tau,
        mu=cfg.mu, lipschitz=sys.lipschitz, system=sys,
        boxes=(lo[enabled], hi[enabled]))
    logger.info("dedup: %d cells x %d input samples, %d representatives, "
                "%d enabled pairs, %d inputs, %.3f s", n_cells, n_grid,
                len(rows), enabled.sum(), len(used),
                time.perf_counter() - start)
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
            lat.axes[0].variant.value, repr(float(model.eta)),
            _format_floats(axis.scale for axis in lat.axes),
            _format_floats(lat.lo), _format_floats(lat.hi)))
        fh.write("#tau %s #eta %s #mu %s #L %s\n" % (
            repr(float(model.tau)), repr(float(model.eta)),
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


# the keys of a model file's parameter header line, as model attributes;
# a key that is missing keeps the model's default, and #eta, if present,
# must equal the #lattice eta
_PARAMS = {"#tau": "tau", "#eta": "eta", "#mu": "mu", "#L": "lipschitz"}
_LATTICE = ("variant", "eta", "scale", "lo", "hi")


def _number(name: str, text: str) -> float:
    """``text`` as a finite float; ``name`` labels the error."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not np.isfinite(value):
        raise ValueError(f"{name} is not a finite number: {text!r}")
    return value


def _lattice(fields) -> LogLattice:
    """The lattice of the ``key=value`` fields of a ``#lattice`` line."""
    spec = {}
    for field in fields:
        key, sep, value = field.partition("=")
        if not sep or key not in _LATTICE:
            raise ValueError(f"unknown #lattice field {field!r}")
        spec[key] = value
    for key in _LATTICE:
        if key not in spec:
            raise ValueError(f"the #lattice line lacks {key!r}")
    scale, lo, hi = ([_number(key, v) for v in spec[key].split(",")]
                     for key in ("scale", "lo", "hi"))
    return LogLattice.from_params(_number("eta", spec["eta"]), scale, lo, hi,
                                  QuantizerVariant(spec["variant"]))


def _table(lines):
    """The int64 table of ``src dst uid`` lines; None if one is malformed."""
    if not any(map(str.strip, lines)):
        return None  # all blank, which np.loadtxt would warn about
    try:
        table = np.loadtxt(lines, np.int64, comments=None, ndmin=2)
    except ValueError:
        return None
    return table if table.shape == (len(lines), 3) else None


def _blocks(fh, carry=""):
    """The rest of an open file after ``carry``, in blocks of whole lines of
    about ``_BLOCK`` characters, each ending in a newline."""
    while read := fh.read(_BLOCK):
        block = carry + read
        cut = block.rfind("\n") + 1
        block, carry = block[:cut], block[cut:]
        if block:
            yield block
    if carry:
        yield carry.rstrip("\n") + "\n"


def _scan(path):
    """The header lines of a model file, its number of transition lines and
    the lines from the first that starts with ``input `` or ``state ``."""
    head, n_body, tail = [], 0, []
    with open(path) as fh:
        line = fh.readline()
        while line.startswith("#"):
            head.append(line.rstrip("\n"))
            line = fh.readline()
        for block in _blocks(fh, line):
            if not tail:
                found = [i for i in map(("\n" + block).find,
                                        ("\ninput ", "\nstate ")) if i >= 0]
                end = min(found, default=len(block))
                n_body += block.count("\n", 0, end)
                block = block[end:]
            tail += block.splitlines()
    return head, n_body, tail


def _read_transitions(path, n_head: int, n_body: int, n_states: int,
                      n_inputs: int):
    """Keys (see :func:`_key`) of a model file's transition lines, parsed a
    block at a time, and the index of the first line that names an unknown
    state or input (-1 if none); a malformed line raises."""
    keys = np.empty(n_body, np.int64)
    done, bad = 0, -1
    with open(path) as fh:
        for _ in range(n_head):
            fh.readline()
        for block in _blocks(fh):
            lines = block[:-1].split("\n")[:n_body - done]
            if not lines:
                break
            table = _table(lines)
            if table is None:
                k = next((k for k, line in enumerate(lines)
                          if _table([line]) is None), 0)
                raise ValueError(f"{path}:{n_head + done + k + 1}: malformed "
                                 f"line {lines[k]!r}")
            keys[done:done + len(lines)], row = _key(table, n_states,
                                                     n_inputs)
            if bad < 0 <= row:
                bad = done + row
            done += len(lines)
    return keys, bad


@located_decoding
def load_abstraction(path, system=None) -> SymbolicModel:
    """Read an abstraction file written by :func:`save_abstraction`.

    The file holds ``#`` header lines, one ``src dst uid`` line per
    transition, then the ``input`` and ``state`` lines with ids counting up
    from 0; the ``state`` lines are the ``#lattice`` line's cells in
    enumeration order.  Malformed or inconsistent content raises a
    ValueError naming the file and, where one line is at fault, the line.
    The file is read twice, a block at a time: for its header, size and
    tables, then for its transitions.
    """
    start = time.perf_counter()
    head, n_body, tail = _scan(path)
    params, lattice, version, seen = {}, None, None, {}

    def once(key):
        if key in seen:
            raise ValueError(f"repeated header key {key!r}")
        seen[key] = lineno

    for lineno, line in enumerate(head, start=1):
        tokens = line.split()
        try:
            if tokens[0] == "#lattice":
                once("#lattice")
                lattice = _lattice(tokens[1:])
            elif tokens[0] == "#version" and len(tokens) == 2:
                once("#version")
                version = tokens[1]
                if version != str(FORMAT_VERSION):
                    raise ValueError(
                        f"unsupported abstraction format {version!r}")
            elif len(tokens) % 2:
                raise ValueError(f"malformed line {line!r}")
            else:
                for key, value in zip(tokens[0::2], tokens[1::2]):
                    if key not in _PARAMS:
                        raise ValueError(f"unknown header key {key!r}")
                    once(key)
                    params[_PARAMS[key]] = _number(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if version is None:
        raise ValueError(f"{path}: no #version line")
    if lattice is None:
        raise ValueError(f"{path}: no #lattice line")
    if (eta := params.pop("eta", lattice.shared_eta)) != lattice.shared_eta:
        raise ValueError(f"{path}:{seen['#eta']}: #eta {eta!r} differs from "
                         f"the #lattice eta {lattice.shared_eta!r}")

    # the states are the lattice's cells; input ids count up from 0, so
    # this is the input table's size if it is valid; if not, a fault in it
    # is raised after the transitions
    cells = lattice.enumerate_cells()
    keys, bad = _read_transitions(path, len(head), n_body, len(cells), sum(
        line.split()[:1] == ["input"] for line in tail))
    rows: dict[str, list] = {"input": [], "state": []}
    for lineno, line in enumerate(tail, start=len(head) + n_body + 1):
        if not line.strip():
            continue
        try:
            kind, ident, rest = line.split(maxsplit=2)
            value = (tuple(float(v) for v in rest.split()) if kind == "input"
                     else parse_cell(rest))
            seen = rows[kind]
            ident = int(ident)
        except (ValueError, KeyError):
            raise ValueError(f"{path}:{lineno}: malformed line {line!r}") from None
        if ident != len(seen):
            raise ValueError(f"{path}:{lineno}: {kind} id {ident} where "
                             f"{len(seen)} was expected")
        if kind == "state" and cells[ident:ident + 1] != [value]:
            raise ValueError(f"{path}:{lineno}: state {ident} "
                             f"{format_cell(value)} is not cell {ident} of "
                             f"the #lattice")
        if seen and len(value) != len(seen[0]):
            raise ValueError(f"{path}:{lineno}: {kind} {ident} has "
                             f"{len(value)} components, not {len(seen[0])}")
        seen.append(value)
    inputs = rows["input"]
    if len(rows["state"]) != len(cells):
        raise ValueError(f"{path}: {len(rows['state'])} states where the "
                         f"#lattice has {len(cells)} cells")
    if bad >= 0:
        raise ValueError(
            f"{path}:{len(head) + bad + 1}: transition to or from an unknown "
            f"state or input ({len(cells)} states, {len(inputs)} inputs)")

    pair_ptr, pair_input, relation = _pack(keys, len(cells), len(inputs))
    model = SymbolicModel(lattice, inputs, pair_ptr, pair_input,
                          system=system, relation=relation, **params)
    logger.info("load: %d states, %d inputs, %d transitions, %.3f s",
                len(cells), len(inputs), n_body, time.perf_counter() - start)
    return model
