"""Logarithmic state quantization and lattice cell geometry.

A scalar logarithmic quantizer partitions the real line into a closed
deadzone ``[-s, s]`` around zero plus geometrically spaced half-open regions
on either side.  With density parameter ``eta`` in (0, 1) and
``rho = (1 - eta) / (1 + eta)``, the m-th positive region is

    ( s * rho**(1 - m),  s * rho**(-m) ],      m = 1, 2, ...

and its quantized value is ``(1 + eta) * s * rho**(1 - m)``, which keeps the
relative quantization error within ``eta`` outside the deadzone.  Negative
regions mirror the positive ones, so the quantizer is odd.

Two anchoring conventions for the scale parameter are supported (see
:class:`QuantizerVariant`); they produce the same family of partitions and
only differ in which constant the user fixes.

An n-dimensional :class:`LogLattice` applies one axis quantizer per state
dimension and clips the resulting product cells to a bounding box: a level is
kept on an axis exactly when its quantized value lies inside the bounds, and
the outermost kept cell on each side absorbs the remaining sliver up to the
bound.  The clipped cells therefore partition the bounds box, every cell
contains its own center, and quantization is a well-defined map from the box
onto the cells.

Each lattice axis keeps one table, the edges of its clipped cells; every
lattice query reads it, from point quantization to cell geometry.  The
lattice takes both from its axis quantizers: the outermost level on each
side is the level that :meth:`LogQuantizerAxis.quantize` gives the bound,
less one when that level's value lies past the bound, and the edges are
entries of the quantizer's own cached table of region boundaries, the
table that also serves axes without bounds, such as the input quantizer
that deduplicates sampled inputs.  A bound above an axis's
:attr:`~LogQuantizerAxis.ceiling` is refused with a ValueError.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import re
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _public
from .errors import OutOfDomainError

__all__ = _public(__name__)

# the most cells a lattice may have, far above every scenario's lattice; a
# finer one is refused before any per-level work
MAX_CELLS = 1 << 22


class QuantizerVariant(Enum):
    """Which constant anchors the level geometry.

    VALUE_ANCHORED: the scale is the first positive quantized value
        (deadzone edge ``scale / (1 + eta)``).
    EDGE_ANCHORED: the scale is the deadzone edge itself (first positive
        quantized value ``(1 + eta) * scale``).
    """

    VALUE_ANCHORED = "value_anchored"
    EDGE_ANCHORED = "edge_anchored"


@dataclass(frozen=True)
class LogQuantizerAxis:
    """Scalar logarithmic quantizer for one state axis.

    Immutable; all operations are pure functions of (eta, scale, variant).
    """

    eta: float
    scale: float
    variant: QuantizerVariant = QuantizerVariant.VALUE_ANCHORED

    def __post_init__(self):
        _check("eta", self.eta, _UNIT)
        _check("scale", self.scale, _POSITIVE)
        if self.rho == 1.0:
            raise ValueError(f"eta {self.eta!r} is too small: rho rounds to 1")
        if not isinstance(self.variant, QuantizerVariant):
            object.__setattr__(self, "variant", QuantizerVariant(self.variant))

    @property
    def rho(self) -> float:
        """Quantization density (1 - eta) / (1 + eta)."""
        return (1.0 - self.eta) / (1.0 + self.eta)

    @property
    def deadzone(self) -> float:
        """Upper edge of the closed deadzone [-deadzone, deadzone]."""
        if self.variant is QuantizerVariant.VALUE_ANCHORED:
            return self.scale / (1.0 + self.eta)
        return self.scale

    @property
    def _value_scale(self) -> float:
        # first positive quantized value; equals (1 + eta) * deadzone
        if self.variant is QuantizerVariant.VALUE_ANCHORED:
            return self.scale
        return (1.0 + self.eta) * self.scale

    def level_value(self, level: int) -> float:
        """Quantized value of a signed level (0 maps to 0.0); a level that
        is not an ``int`` raises ValueError."""
        if _check("level", level, _INT) == 0:
            return 0.0
        v = self._value_scale * self.rho ** (1 - abs(level))
        return v if level > 0 else -v

    def boundary(self, m: int) -> float:
        """Left edge of positive region m (m >= 1); ``boundary(1)`` is the
        deadzone edge and ``boundary(m + 1)`` is region m's right edge.  An
        edge past the float range reads as +inf; an m that is not an
        ``int`` of at least 1 raises ValueError."""
        _check("m", m, _COUNT)
        try:
            return self.deadzone * self.rho ** (1 - m)
        except OverflowError:
            return math.inf

    def quantize(self, z: float) -> tuple[int, float]:
        """Map a finite scalar to its (signed level, quantized value).

        The level of ``|z|`` is the number of boundaries strictly below it,
        0 in the closed deadzone, and a negative z negates both parts, so
        quantize(-z) is exactly the negation of quantize(z): a negative
        value in the deadzone gives ``(0, -0.0)`` and ``-0.0`` gives
        ``(0, 0.0)``.  A value that is not finite, or whose magnitude is
        above :attr:`ceiling`, raises ValueError.
        """
        z = float(z)
        if not math.isfinite(z):
            raise ValueError(f"cannot quantize non-finite value {z!r}")
        m = bisect.bisect_left(self._boundaries(abs(z)), abs(z))
        v = self.level_value(m)
        return (-m, -v) if z < 0.0 else (m, v)

    def _boundaries(self, z: float) -> np.ndarray:
        """``boundary(1), boundary(2), ...`` past the region of z >= 0.

        A positive level is the number of boundaries strictly below the
        value, which puts a boundary point in the right-closed region below
        it; scalar and vectorized quantization share this one table.  The
        closed-form estimate of the level only sizes the table, with a
        margin, to a power of two so that nearby values share it.
        """
        if z > self.ceiling:
            raise ValueError(f"cannot quantize {z!r}: above the ceiling")
        bound = self._level_bound(z)
        return _boundary_table(self, 1 << (bound + 1).bit_length())

    @functools.cached_property
    def ceiling(self) -> float:
        """The last finite boundary: a larger magnitude has no level, as its
        region's right edge is past the float range.  The search runs down
        from just past the level where ``rho ** (1 - m)`` or its product
        with the deadzone leaves the float range, a few steps."""
        m = self._level_bound(np.finfo(float).max * min(self.deadzone, 1.0)) + 2
        return next(filter(math.isfinite, map(self.boundary, range(m, 0, -1))))

    def _level_bound(self, z: float) -> int:
        # the level of z >= 0 is the ceiling of the log ratio t, so at most
        # int(t) + 1 up to rounding; t is a difference of logs, which no
        # finite z overflows
        t = math.log(max(z, self.deadzone)) - math.log(self.deadzone)
        return int(t / math.log(1.0 / self.rho)) + 1

    def levels(self, z) -> np.ndarray:
        """Signed levels of an array of finite values, elementwise equal to
        ``quantize(v)[0]``."""
        z = np.asarray(z, float)
        mag = np.abs(z)
        top = float(mag.max(initial=0.0))
        if not math.isfinite(top):
            raise ValueError("cannot quantize non-finite values")
        m = np.searchsorted(self._boundaries(top), mag, side="left")
        return np.where(z < 0, -m, m)


def _frozen(values, dtype=float) -> np.ndarray:
    """A read-only copy of ``values``; the caller's array stays writeable.
    Every array a value object keeps is frozen here."""
    arr = np.array(values, dtype)
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=256)
def _boundary_table(axis: LogQuantizerAxis, count: int) -> np.ndarray:
    return _frozen([axis.boundary(m) for m in range(1, count + 1)])


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box with per-face openness flags.

    ``lo_open[i]`` / ``hi_open[i]`` record whether the corresponding face is
    excluded, so adjacent quantization cells never double-claim boundary
    points.
    """

    lo: np.ndarray
    hi: np.ndarray
    lo_open: np.ndarray
    hi_open: np.ndarray

    def __post_init__(self):
        for name, dtype in (("lo", float), ("hi", float),
                            ("lo_open", bool), ("hi_open", bool)):
            object.__setattr__(self, name, _frozen(getattr(self, name), dtype))

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    def contains_many(self, pts: np.ndarray) -> np.ndarray:
        """Vectorized membership respecting face openness."""
        pts = np.asarray(pts, float)
        above = np.where(self.lo_open, pts > self.lo, pts >= self.lo)
        below = np.where(self.hi_open, pts < self.hi, pts <= self.hi)
        return (above & below).all(axis=1)


@dataclass(frozen=True)
class LogLattice:
    """Product of per-axis logarithmic quantizers clipped to a bounds box.

    The axes share one eta and one variant and may differ in scale; the
    bounds must be finite, contain every axis deadzone and lie within every
    axis ceiling.  On each axis the valid levels are 0 plus every signed
    level whose quantized value lies inside [lo_i, hi_i]; the outermost
    valid cell on each side extends to the bound, so the clipped cells
    partition the bounds box exactly.

    Immutable after construction; all queries are pure functions.  A lattice
    is a value: two compare and hash equal when their axes and bounds do.
    """

    axes: tuple[LogQuantizerAxis, ...]
    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        axes = tuple(self.axes)
        lo = tuple(float(v) for v in np.atleast_1d(self.lo))
        hi = tuple(float(v) for v in np.atleast_1d(self.hi))
        object.__setattr__(self, "axes", axes)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        n = len(axes)
        if n < 1:
            raise ValueError("lattice needs at least one axis")
        if len(lo) != n or len(hi) != n:
            raise ValueError("bounds dimension does not match axis count")
        if len({(axis.eta, axis.variant) for axis in axes}) != 1:
            raise ValueError("lattice axes must share one eta and one variant")
        if not all(map(math.isfinite, lo + hi)):
            raise ValueError(f"bounds must be finite, got {lo} and {hi}")
        size = 1
        for i, axis in enumerate(axes):
            if not (lo[i] < hi[i]):
                raise ValueError(f"axis {i}: need lo < hi, got [{lo[i]}, {hi[i]}]")
            dz = axis.deadzone
            if lo[i] > -dz or hi[i] < dz:
                raise ValueError(
                    f"axis {i}: bounds [{lo[i]}, {hi[i]}] must contain the "
                    f"deadzone [-{dz}, {dz}]")
            if max(-lo[i], hi[i]) > (top := axis.ceiling):
                raise ValueError(f"axis {i}: bounds [{lo[i]}, {hi[i]}] must "
                                 f"lie within the ceiling [-{top}, {top}]")
            size *= 1 + axis._level_bound(hi[i]) + axis._level_bound(-lo[i])
        if size > MAX_CELLS:
            raise ValueError(f"too fine: up to {size} cells, over {MAX_CELLS}")
        pos_max = tuple(self._max_level(axis, b) for axis, b in zip(axes, hi))
        neg_max = tuple(self._max_level(axis, -a) for axis, a in zip(axes, lo))
        object.__setattr__(self, "_pos_max", pos_max)
        object.__setattr__(self, "_neg_max", neg_max)
        object.__setattr__(self, "lo_array", _frozen(lo))
        object.__setattr__(self, "hi_array", _frozen(hi))
        # per axis, the values of the valid levels -n..p and the edges of
        # their clipped cells, [lo, -t[n-1], ..., -t[0], t[0], ..., t[p-1],
        # hi], from the axis's table t of boundaries b(1), b(2), ...; every
        # query of this lattice reads them
        object.__setattr__(self, "_centers", tuple(
            _frozen([axis.level_value(m) for m in range(-n, p + 1)])
            for axis, n, p in zip(axes, neg_max, pos_max)))
        object.__setattr__(self, "_edges", tuple(
            _frozen(np.concatenate(([a], -t[:n][::-1], t[:p], [b])))
            for axis, n, p, a, b in zip(axes, neg_max, pos_max, lo, hi)
            for t in [axis._boundaries(max(-a, b))]))

    @staticmethod
    def _max_level(axis: LogQuantizerAxis, limit: float) -> int:
        # the largest level whose quantized value fits below `limit`: the
        # level of the region holding it, or the one below if its value is
        # past it
        m, v = axis.quantize(limit)
        return m - (v > limit)

    @classmethod
    def from_params(cls, eta, scales, lo, hi,
                    variant=QuantizerVariant.VALUE_ANCHORED) -> "LogLattice":
        """Build a lattice with one shared density `eta` and per-axis scales."""
        return cls(tuple(LogQuantizerAxis(float(eta), float(s), variant)
                         for s in np.atleast_1d(scales)), lo, hi)

    @property
    def dim(self) -> int:
        return len(self.axes)

    @property
    def shared_eta(self) -> float:
        """The density of every axis."""
        return self.axes[0].eta

    def axis_levels(self, i: int) -> range:
        """Valid signed levels on axis i, ascending; an i that is not an
        axis index raises ValueError."""
        _check_index("axis", i, self.dim, "axes")
        return range(-self._neg_max[i], self._pos_max[i] + 1)

    def __contains__(self, idx) -> bool:
        """Whether the level tuple ``idx`` is a cell of this lattice; a level
        that is not an ``int`` raises ValueError."""
        return len(idx) == self.dim and all([
            -n <= _check("level", m, _INT) <= p
            for m, n, p in zip(idx, self._neg_max, self._pos_max)])

    def center(self, idx) -> np.ndarray:
        """Quantized value (lattice point) of a cell; a cell that is not on
        this lattice raises :class:`OutOfDomainError` (see
        :meth:`checked_cell_ids`), as in :meth:`cell_box`."""
        self.checked_cell_ids([idx])
        return np.array([values[m + n] for values, m, n
                         in zip(self._centers, idx, self._neg_max)])

    def cell_box(self, idx) -> Box:
        """Clipped cell geometry with per-face openness metadata: positive
        levels are left-open, negative ones right-open, the deadzone
        closed."""
        self.checked_cell_ids([idx])
        j = [m + n for m, n in zip(idx, self._neg_max)]
        levels = np.asarray(idx)
        return Box([e[k] for e, k in zip(self._edges, j)],
                   [e[k + 1] for e, k in zip(self._edges, j)],
                   levels > 0, levels < 0)

    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Centers, lower corners and upper corners of every cell, as
        ``(cells, dim)`` arrays in :meth:`enumerate_cells` order; row k
        equals ``center(c)``, ``cell_box(c).lo`` and ``cell_box(c).hi`` of
        the k-th cell."""
        j = np.indices(self.shape).reshape(self.dim, -1)
        return tuple(np.column_stack([table[i][j[i] + shift]
                                      for i in range(self.dim)])
                     for table, shift in ((self._centers, 0), (self._edges, 0),
                                          (self._edges, 1)))

    def contains_many(self, pts) -> np.ndarray:
        """Whether each row of ``pts`` lies in the closed bounds box; rows
        holding NaN or an infinity never do."""
        pts = np.asarray(pts, float)
        inside = np.ones(len(pts), bool)
        for i, edges in enumerate(self._edges):
            inside &= (pts[:, i] >= edges[0]) & (pts[:, i] <= edges[-1])
        return inside

    def _level(self, i: int, v: float) -> int:
        """Level on axis i of the cell holding a value v inside the bounds;
        a non-finite v raises ValueError.

        An edge belongs to the cell nearer zero, the rule the open faces of
        :meth:`cell_box` encode: the search of the edges runs from the left
        for v >= 0 and from the right for v < 0.
        """
        if not math.isfinite(v):
            raise ValueError(f"cannot quantize non-finite value {v!r}")
        search = bisect.bisect_left if v >= 0.0 else bisect.bisect_right
        return search(self._edges[i], v) - 1 - self._neg_max[i]

    def quantize(self, x) -> tuple[int, ...]:
        """Cell index of a point inside the bounds box."""
        x = np.asarray(x, float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected a point of dimension {self.dim}")
        levels = []
        for i, xi in enumerate(x.tolist()):
            if not (self.lo[i] <= xi <= self.hi[i]):
                raise OutOfDomainError(
                    f"component {i} = {xi!r} outside [{self.lo[i]}, {self.hi[i]}]")
            levels.append(self._level(i, xi))
        return tuple(levels)

    def quantize_many(self, pts) -> np.ndarray:
        """Cell levels of finite points, one row per point; row k equals
        ``quantize(pts[k])``, whose bounds check is left to the caller:
        the outermost cells take what lies beyond the bounds."""
        pts = np.asarray(pts, float).reshape(-1, self.dim)
        if not np.isfinite(pts).all():
            raise ValueError("cannot quantize non-finite values")
        out = np.empty(pts.shape, np.int64)
        for i, edges in enumerate(self._edges):
            col = pts[:, i]
            # the inner edges strictly below; as in _level, a negative
            # value on an edge belongs to the cell above it
            j = np.searchsorted(edges[1:-1], col)
            out[:, i] = j + ((col < 0.0) & (edges[j + 1] == col)) - self._neg_max[i]
        return out

    def enumerate_cells(self) -> list[tuple[int, ...]]:
        """All valid cells in lexicographic level order."""
        return list(itertools.product(*(self.axis_levels(i)
                                        for i in range(self.dim))))

    @property
    def shape(self) -> tuple[int, ...]:
        """Number of valid levels per axis."""
        return tuple(n + 1 + p for n, p in zip(self._neg_max, self._pos_max))

    def cell_ids(self, levels) -> np.ndarray:
        """Positions in :meth:`enumerate_cells` of cells given as level
        rows (the raveled index of the levels).  A level that is not a
        whole number raises ValueError (see :func:`_check_ids`)."""
        levels = _check_ids("level", levels).reshape(-1, self.dim)
        return np.ravel_multi_index(tuple((levels + self._neg_max).T),
                                    self.shape)

    def checked_cell_ids(self, cells) -> np.ndarray:
        """:meth:`cell_ids` of an iterable of cells; a cell that is not on
        this lattice raises :class:`OutOfDomainError`, and a level that is
        not an ``int`` ValueError (see :meth:`__contains__`)."""
        cells = list(cells)
        for cell in cells:
            if cell not in self:
                raise OutOfDomainError(f"unknown cell {cell!r}")
        return self.cell_ids(cells)

    def cells_of(self, ids) -> list[tuple[int, ...]]:
        """Inverse of :meth:`cell_ids`; an id that is not a whole number
        (see :func:`_check_ids`) or not in ``[0, cell_count())`` raises
        ValueError."""
        ids = _check_ids("cell id", ids)
        for v in (ids.min(initial=0), ids.max(initial=0)):
            _check_index("cell id", int(v), self.cell_count(), "cells")
        levels = np.column_stack(np.unravel_index(ids, self.shape))
        return [tuple(row) for row in (levels - self._neg_max).tolist()]

    def cell_count(self) -> int:
        return math.prod(self.shape)

    def levels_in_interval(self, i: int, a: float, b: float) -> list[int]:
        """Valid levels on axis i whose clipped cells intersect [a, b]; an
        i that is not an axis index raises ValueError."""
        _check_index("axis", i, self.dim, "axes")
        a, b = max(float(a), self.lo[i]), min(float(b), self.hi[i])
        if a > b:
            return []
        return list(range(self._level(i, a), self._level(i, b) + 1))

    def sample_in_cell(self, idx, rng, count: int = 1) -> np.ndarray:
        """``count`` uniform samples from a cell's box (boundary hits have
        measure zero); a count that is not an ``int`` of at least 0 raises
        ValueError."""
        _check("count", count, _NATURAL)
        box = self.cell_box(idx)
        return rng.uniform(box.lo, box.hi, size=(count, self.dim))


def format_cell(idx) -> str:
    """Serialize a cell index as comma-separated signed integers."""
    return ",".join(str(int(m)) for m in idx)


# every text file is read by _lines and split by _fields, and every number
# read from a file, the environment or the command line is read by _int or
# _real: ASCII decimal digits only, no "_" separators; the only blanks are
# the ASCII space and tab
_BLANK = " \t"
_BLANKS = re.compile(f"[{_BLANK}]+")
_LEVEL = re.compile(r"[ \t]*[+-]?[0-9]+[ \t]*")
_REAL = re.compile(r"[ \t]*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?"
                   r"[ \t]*")


def _lines(path, error=ValueError, offset=0, number=1):
    """``(line number, text)`` of each line of a file from byte ``offset``
    on, the first numbered ``number``.  A line ends at ``\\n`` (or the end
    of the file), and one ``\\r`` before that end is dropped; each line is
    decoded alone, so a byte that is not UTF-8 raises
    ``error("path:N: not UTF-8 (reason)")`` at its own line."""
    with open(path, "rb") as fh:
        fh.seek(offset)
        for n, line in enumerate(fh, start=number):
            try:
                text = line.removesuffix(b"\n").removesuffix(b"\r").decode()
            except UnicodeDecodeError as exc:
                raise error(f"{path}:{n}: not UTF-8 ({exc.reason})") from None
            yield n, text


def _fields(text: str, maxsplit: int = 0) -> list[str]:
    """The fields of ``text`` between runs of ASCII spaces and tabs, at most
    ``maxsplit + 1`` of them if ``maxsplit`` is positive; any other
    character, other whitespace and control characters included, is part
    of a field."""
    text = text.strip(_BLANK)
    return _BLANKS.split(text, maxsplit) if text else []


def _int(text: str) -> int:
    """A signed integer of ASCII decimal digits, blanks around it allowed;
    any other text raises ValueError."""
    if not _LEVEL.fullmatch(text):
        raise ValueError(f"not an integer: {text.strip(_BLANK)!r}")
    return int(text)


def _real(text: str, prefix: str = "") -> float:
    """A finite real in ASCII decimal notation, blanks around it allowed;
    any other text, ``inf``, ``nan`` and ``1e400`` included, raises
    ValueError, its message led by ``prefix``."""
    value = float(text) if _REAL.fullmatch(text) else math.inf
    if not math.isfinite(value):
        raise ValueError(f"{prefix}not a finite number: {text.strip(_BLANK)!r}")
    return value


def _reals(text: str) -> tuple[float, ...]:
    """Reals read by :func:`_real`, separated by commas or blanks; an empty
    part, as in ``"1,,2"``, fails as a value."""
    return tuple(_real(v) for part in text.split(",")
                 for v in _fields(part) or [part])


# the range of every checked number is one of these rules, a test and the
# words that refuse a value outside it; NaN lies in no range, and a whole
# number is an int: a float, a bool, a numpy integer or a str is none
_POSITIVE = (lambda v: 0 < v < math.inf, "must be positive")
_UNIT = (lambda v: 0 < v < 1, "must lie in (0, 1)")
_NON_NEGATIVE = (lambda v: 0 <= v < math.inf, "must be non-negative")
_INT = (lambda v: type(v) is int, "must be an int")
_COUNT = (lambda v: type(v) is int and v >= 1, "must be an int of at least 1")
_NATURAL = (lambda v: type(v) is int and v >= 0, "must be an int of at least 0")


def _check(name: str, value, rule, error=ValueError):
    """``value`` if it lies in the range of ``rule``; else raise
    ``error("{name} {words}, got {value!r}")``."""
    inside, words = rule
    if not inside(value):
        raise error(f"{name} {words}, got {value!r}")
    return value


def _check_index(name: str, value, count: int, things: str):
    """Refuse a ``value`` that is not an ``int`` index of a table of
    ``count`` ``things`` with a ValueError, ``{name} must be an int, got
    ...`` or ``{name} {value} out of range ({count} {things})``."""
    if not 0 <= _check(name, value, _INT) < count:
        raise ValueError(f"{name} {value} out of range ({count} {things})")


def _check_ids(name: str, ids) -> np.ndarray:
    """``ids`` as an int64 array if they are whole numbers; else raise a
    ValueError, ``{name}s must be ints, got dtype ...`` for an array that
    is not empty and has no integer dtype, or ``{name} must be an int, got
    ...`` for an id of anything else that is not an ``int``."""
    if not isinstance(ids, np.ndarray):  # numpy reads a True as 1
        for v in np.array(ids, object).flat:
            _check(name, v, _INT)
    elif ids.size and ids.dtype.kind not in "iu":
        raise ValueError(f"{name}s must be ints, got dtype {ids.dtype}")
    return np.asarray(ids, np.int64)


def parse_cell(text: str) -> tuple[int, ...]:
    """Inverse of :func:`format_cell`: every comma-separated part is read by
    :func:`_int`; an empty part, as in ``"1,,2"``, ``"1,2,"`` or
    ``",1,2"``, raises ValueError."""
    try:
        return tuple(map(_int, text.split(",")))
    except ValueError:
        raise ValueError(f"malformed cell index {text!r}") from None
