"""Quantizer geometry: levels, regions, lattices, partition properties."""

import inspect
import itertools
import math
import pathlib
import re
from dataclasses import replace

import numpy as np
import pytest

import symquant as sq
from symquant import abstraction, quantizer
from symquant.abstraction import SymbolicModel
from symquant.errors import ConfigError, OutOfDomainError
from symquant.quantizer import (_COUNT, _INT, _NATURAL, _NON_NEGATIVE,
                                _POSITIVE, _UNIT)
from conftest import HAND_PARAMETERS, RANGE_RULES, contains, region

VALUE_AXIS = sq.LogQuantizerAxis(eta=0.2, scale=0.4)
EDGE_AXIS = sq.LogQuantizerAxis(eta=0.2, scale=0.4,
                                variant=sq.QuantizerVariant.EDGE_ANCHORED)


def value_lattice_2d():
    return sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                     "value_anchored")


def edge_lattice_2d():
    return sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                     "edge_anchored")


def test_scalar_quantize_examples():
    assert VALUE_AXIS.quantize(0.2) == (0, 0.0)
    level, value = VALUE_AXIS.quantize(0.45)
    assert level == 1 and value == pytest.approx(0.4, abs=1e-15)
    level, value = VALUE_AXIS.quantize(-0.45)
    assert level == -1 and value == pytest.approx(-0.4, abs=1e-15)
    level, value = VALUE_AXIS.quantize(0.55)
    assert level == 2 and value == pytest.approx(0.6, abs=1e-15)


def test_deadzone_edges():
    # deadzone is closed on both sides: d/(1+eta) for the value-anchored
    # form, the scale itself for the edge-anchored form
    assert VALUE_AXIS.quantize(VALUE_AXIS.deadzone)[0] == 0
    assert VALUE_AXIS.quantize(-VALUE_AXIS.deadzone)[0] == 0
    assert VALUE_AXIS.quantize(np.nextafter(VALUE_AXIS.deadzone, 1.0))[0] == 1
    assert EDGE_AXIS.deadzone == 0.4
    assert EDGE_AXIS.quantize(0.4)[0] == 0
    assert EDGE_AXIS.quantize(0.41) == (1, pytest.approx(0.48))


def test_rejects_nonfinite():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            VALUE_AXIS.quantize(bad)
    with pytest.raises(ValueError):
        sq.LogQuantizerAxis(eta=1.2, scale=0.4)
    with pytest.raises(ValueError):
        sq.LogQuantizerAxis(eta=0.2, scale=-1.0)


def test_odd_symmetry_exact():
    rng = np.random.default_rng(0)
    for axis in (VALUE_AXIS, EDGE_AXIS):
        for z in rng.uniform(-50, 50, size=2000):
            level, value = axis.quantize(z)
            neg_level, neg_value = axis.quantize(-z)
            assert neg_level == -level
            assert neg_value == -value


def test_regions_tile_without_gaps():
    for axis in (VALUE_AXIS, EDGE_AXIS, sq.LogQuantizerAxis(0.5, 1.0)):
        for m in range(1, 12):
            assert region(axis, m)[1] == region(axis, m + 1)[0]
        assert region(axis, 1)[0] == axis.deadzone
        assert region(axis, 0) == (-axis.deadzone, axis.deadzone)
        assert region(axis, -3) == tuple(-v for v in region(axis, 3)[::-1])
        # quantized value sits strictly inside its region
        for m in range(1, 12):
            lo, hi = region(axis, m)
            assert lo < axis.level_value(m) < hi


def test_rho_definition():
    assert VALUE_AXIS.rho == (1 - 0.2) / (1 + 0.2)


def test_levels_in_interval_examples():
    lattice = sq.LogLattice((VALUE_AXIS,), (-8.0,), (8.0,))
    assert lattice.levels_in_interval(0, 0.34, 0.6) == [1, 2]
    assert lattice.levels_in_interval(0, 0.0, 0.3) == [0]
    assert lattice.levels_in_interval(0, -0.1, 0.45) == [0, 1]
    assert lattice.levels_in_interval(0, 1.0, 0.5) == []


def test_levels_in_interval_matches_scan():
    # every cell whose clipped box, with its open faces, meets [a, b]
    rng = np.random.default_rng(1)
    for lattice in (sq.LogLattice((VALUE_AXIS,), (-8.0,), (8.0,)),
                    sq.LogLattice((EDGE_AXIS,), (-8.0,), (8.0,)),
                    sq.LogLattice((EDGE_AXIS,), (-0.55,), (5.0,))):
        boxes = [(cell[0], lattice.cell_box(cell))
                 for cell in lattice.enumerate_cells()]
        for _ in range(400):
            a, b = sorted(rng.uniform(-9, 9, size=2))
            expected = [
                m for m, box in boxes
                if (b > box.lo[0] if box.lo_open[0] else b >= box.lo[0])
                and (a < box.hi[0] if box.hi_open[0] else a <= box.hi[0])]
            assert lattice.levels_in_interval(0, a, b) == expected


def test_vector_quantize_examples():
    lattice = value_lattice_2d()
    assert lattice.quantize([0.45, 0.1]) == (1, 0)
    assert lattice.quantize([0.0, 0.0]) == (0, 0)
    assert lattice.quantize([-0.45, 0.55]) == (-1, 2)
    with pytest.raises(OutOfDomainError):
        lattice.quantize([1.5, 0.0])


def test_cell_bounds_examples():
    lattice = sq.LogLattice.from_params(0.2, [0.4], [-1], [1], "value_anchored")
    box = lattice.cell_box((1,))
    assert box.lo[0] == pytest.approx(1 / 3) and box.lo_open[0]
    assert box.hi[0] == pytest.approx(0.5) and not box.hi_open[0]
    box = lattice.cell_box((0,))
    assert box.lo[0] == pytest.approx(-1 / 3) and not box.lo_open[0]
    assert box.hi[0] == pytest.approx(1 / 3) and not box.hi_open[0]
    # outermost level's cell is clipped to the bound
    box = lattice.cell_box((3,))
    assert box.lo[0] == pytest.approx(0.75) and box.hi[0] == 1.0
    with pytest.raises(OutOfDomainError):
        lattice.cell_box((4,))


def test_enumerate_cells_counts():
    edge = edge_lattice_2d()
    assert len(edge.enumerate_cells()) == 25
    assert list(edge.axis_levels(0)) == [-2, -1, 0, 1, 2]

    value = value_lattice_2d()
    assert len(value.enumerate_cells()) == 49
    assert list(value.axis_levels(0)) == [-3, -2, -1, 0, 1, 2, 3]

    # bounds shrunk to the deadzone leave a single cell
    dz = VALUE_AXIS.deadzone
    tiny = sq.LogLattice.from_params(0.2, [0.4], [-dz], [dz], "value_anchored")
    assert tiny.enumerate_cells() == [(0,)]
    box = tiny.cell_box((0,))
    assert box.lo[0] == -dz and box.hi[0] == dz


def test_enumerate_cells_order_and_count_formula():
    lattice = edge_lattice_2d()
    cells = lattice.enumerate_cells()
    assert cells == sorted(cells)
    assert len(cells) == lattice.cell_count()


def test_partition_membership_unique():
    rng = np.random.default_rng(2)
    for lattice in (value_lattice_2d(), edge_lattice_2d()):
        cells = lattice.enumerate_cells()
        boxes = [lattice.cell_box(c) for c in cells]
        pts = rng.uniform(lattice.lo_array, lattice.hi_array, size=(3000, 2))
        owners = np.zeros(len(pts), int)
        for box in boxes:
            owners += box.contains_many(pts).astype(int)
        assert (owners == 1).all()
        for k in range(0, len(pts), 100):
            cell = lattice.quantize(pts[k])
            assert contains(boxes[cells.index(cell)], pts[k])


def test_idempotence_on_centers():
    for lattice in (value_lattice_2d(), edge_lattice_2d()):
        for cell in lattice.enumerate_cells():
            assert lattice.quantize(lattice.center(cell)) == cell


def test_cell_roundtrip_sampling():
    rng = np.random.default_rng(3)
    lattice = edge_lattice_2d()
    for cell in lattice.enumerate_cells():
        for x in lattice.sample_in_cell(cell, rng, count=40):
            assert lattice.quantize(x) == cell


def test_relative_error_bound():
    rng = np.random.default_rng(4)
    for axis in (VALUE_AXIS, EDGE_AXIS):
        z = rng.uniform(-30, 30, size=5000)
        for zi in z:
            level, value = axis.quantize(zi)
            if level == 0:
                assert abs(zi) <= axis.deadzone
            else:
                assert abs(zi - value) <= 0.2 * abs(zi)


def test_bounds_must_contain_deadzone():
    with pytest.raises(ValueError):
        sq.LogLattice.from_params(0.2, [0.4], [-0.1], [1.0], "value_anchored")
    with pytest.raises(ValueError):
        sq.LogLattice.from_params(0.2, [0.4], [1.0], [-1.0], "value_anchored")


def test_asymmetric_bounds():
    lattice = sq.LogLattice.from_params(0.2, [0.4], [-0.55], [1.0],
                                        "value_anchored")
    # negative side stops at level -1: the level -2 value (-0.6) falls
    # outside the bound, so the level -1 cell absorbs down to -0.55
    assert list(lattice.axis_levels(0)) == [-1, 0, 1, 2, 3]
    box = lattice.cell_box((-1,))
    assert box.lo[0] == -0.55
    rng = np.random.default_rng(5)
    pts = rng.uniform(-0.55, 1.0, size=400)
    boxes = [lattice.cell_box(c) for c in lattice.enumerate_cells()]
    for x in pts:
        hits = [b for b in boxes if contains(b, [x])]
        assert len(hits) == 1


def test_levels_in_interval_absorbs_outer_tail():
    lattice = edge_lattice_2d()
    # [0.95, 0.99] lies in the raw level-3 region but belongs to the clipped
    # level-2 cell
    assert lattice.levels_in_interval(0, 0.95, 0.99) == [2]
    assert lattice.levels_in_interval(0, 0.34, 0.62) == [0, 1, 2]


def test_cell_serialization_roundtrip():
    for cell in itertools.product(range(-3, 4), repeat=2):
        assert sq.parse_cell(sq.format_cell(cell)) == cell
    with pytest.raises(ValueError):
        sq.parse_cell(" ")


def test_vectorized_levels_match_scalar_quantize():
    # boundaries themselves, their float neighbours on both sides, the
    # deadzone edges and random values, on both signs
    rng = np.random.default_rng(6)
    for axis in (VALUE_AXIS, EDGE_AXIS, sq.LogQuantizerAxis(0.002, 0.002)):
        edges = np.array([axis.boundary(m) for m in range(1, 40)])
        z = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, np.inf),
                            rng.uniform(-60, 60, size=2000), [0.0, -0.0]])
        z = np.concatenate([z, -z])
        assert axis.levels(z).tolist() == [axis.quantize(v)[0] for v in z]
    with pytest.raises(ValueError):
        VALUE_AXIS.levels([0.5, math.nan])

    lattice = sq.LogLattice.from_params(0.2, [0.4, 0.3], [-0.55, -1.7],
                                        [1.0, 0.9], "value_anchored")
    pts = rng.uniform(lattice.lo_array, lattice.hi_array, size=(500, 2))
    pts = np.concatenate([pts, [lattice.lo, lattice.hi]])
    levels = lattice.quantize_many(pts)
    assert [tuple(row) for row in levels.tolist()] == \
           [lattice.quantize(x) for x in pts]
    ids = lattice.cell_ids(levels)
    cells = lattice.enumerate_cells()
    assert [cells[i] for i in ids] == lattice.cells_of(ids)
    assert lattice.cell_ids(np.array(cells)).tolist() == list(range(len(cells)))


def _quantize_cases(axis):
    """(z, level) pairs on both signs: zero, 1e-300, the deadzone edge and
    the next float above it, and each boundary(m) for m = 1..4 with its
    float neighbours; boundary(m) closes region m - 1."""
    dz = axis.deadzone
    cases = [(0.0, 0), (1e-300, 0), (dz, 0), (np.nextafter(dz, np.inf), 1)]
    for m in range(1, 5):
        edge = axis.boundary(m)
        cases += [(np.nextafter(edge, 0.0), m - 1), (edge, m - 1),
                  (np.nextafter(edge, np.inf), m)]
    return cases + [(-z, -level) for z, level in cases]


@pytest.mark.parametrize("axis", [VALUE_AXIS, EDGE_AXIS],
                         ids=["value_anchored", "edge_anchored"])
def test_quantize_level_value_and_sign_at_the_edges(axis):
    # the level of |z|, then one sign step: a negative value in the
    # deadzone quantizes to -0.0, and -0.0 itself to +0.0
    assert axis.boundary(1) == axis.deadzone
    for z, level in _quantize_cases(axis):
        got_level, value = axis.quantize(z)
        assert got_level == level, z
        assert value == axis.level_value(level), z
        assert math.copysign(1.0, value) == (-1.0 if z < 0.0 else 1.0), z
        assert axis.levels([z]).tolist() == [level], z


def test_huge_values_quantize_up_to_the_ceiling():
    # a boundary past the float range reads as +inf, so a huge value whose
    # region ends below it quantizes; a magnitude above the ceiling, the last
    # finite boundary, raises ValueError, never a raw OverflowError
    axis = sq.LogQuantizerAxis(0.002, 0.002)
    level, value = axis.quantize(1e300)
    assert level == 174_248 and abs(value - 1e300) <= 0.002 * 1e300
    assert axis.quantize(-1e300) == (-level, -value)
    assert axis.levels([1e300, -1e300, 0.5]).tolist() == \
        [level, -level, axis.quantize(0.5)[0]]
    top = axis.quantize(axis.ceiling)[0] + 1  # the ceiling is boundary(top)
    assert 3.58e305 < axis.ceiling == axis.boundary(top) < 3.59e305
    assert axis.boundary(top + 1) == math.inf
    table = quantizer._boundary_table(axis, 1 << 18)
    for m in [*range(1, top + 1, 997), top]:
        assert table[m - 1] == axis.boundary(m), m
    assert np.isinf(table[top:]).all()
    for z in (math.nextafter(axis.ceiling, math.inf), 1e306, 1.7e308):
        for call in (lambda: axis.quantize(z), lambda: axis.quantize(-z),
                     lambda: axis.levels([0.0, -z])):
            with pytest.raises(ValueError, match=f"cannot quantize "
                               f"{re.escape(repr(z))}: above the ceiling"):
                call()
    wide = sq.LogQuantizerAxis(0.5, 10.0)  # an edge that overflows x * rho
    assert math.isfinite(wide.quantize(1e300)[1])
    with pytest.raises(ValueError, match="above the ceiling"):
        wide.quantize(1.7e308)


def test_geometry_tables_match_per_cell_geometry():
    dz = VALUE_AXIS.deadzone  # the first level's value is 0.4
    lattices = [
        edge_lattice_2d(),  # the bundled scenario's lattice
        sq.LogLattice.from_params(0.2, [0.4, 0.3], [-0.55, -1.7], [1.0, 0.9],
                                  "value_anchored"),
        # no negative levels on axis 0, no positive levels on axis 1
        sq.LogLattice.from_params(0.2, [0.4, 0.4], [-0.35, -1.0], [1.0, 0.35],
                                  "value_anchored"),
        sq.LogLattice.from_params(0.2, [0.4], [-dz], [dz], "value_anchored"),
        sq.LogLattice.from_params(0.25, [0.2] * 3, [-1] * 3, [0.6, 1, 0.3],
                                  "edge_anchored"),
    ]
    for lattice in lattices:
        centers, lo, hi = lattice.geometry()
        cells = lattice.enumerate_cells()
        assert centers.shape == lo.shape == hi.shape == (len(cells),
                                                         lattice.dim)
        for k, cell in enumerate(cells):
            box = lattice.cell_box(cell)
            assert centers[k].tolist() == lattice.center(cell).tolist()
            assert lo[k].tolist() == box.lo.tolist()
            assert hi[k].tolist() == box.hi.tolist()
            levels = np.array(cell)
            assert (box.lo_open == (levels > 0)).all()
            assert (box.hi_open == (levels < 0)).all()
        # the outer cells reach the bounds
        assert lo.min(axis=0).tolist() == list(lattice.lo)
        assert hi.max(axis=0).tolist() == list(lattice.hi)
    assert list(lattices[2].axis_levels(0))[0] == 0
    assert list(lattices[2].axis_levels(1))[-1] == 0


def test_contains_many_rejects_nonfinite_rows():
    lattice = edge_lattice_2d()
    pts = np.array([[0.0, 0.0], [1.0, -1.0], [1.0, 1.5], [math.nan, 0.0],
                    [0.0, math.inf], [-math.inf, 0.0], [math.nan, math.nan]])
    assert lattice.contains_many(pts).tolist() == [True, True, False, False,
                                                   False, False, False]


def test_lattice_axes_share_one_eta_and_variant():
    edge = sq.LogQuantizerAxis(0.2, 0.4, sq.QuantizerVariant.EDGE_ANCHORED)
    for other in (sq.LogQuantizerAxis(0.25, 0.4,
                                      sq.QuantizerVariant.EDGE_ANCHORED),
                  sq.LogQuantizerAxis(0.2, 0.4)):
        with pytest.raises(ValueError,
                           match="must share one eta and one variant"):
            sq.LogLattice((edge, other), (-1, -1), (1, 1))
    # the scales may differ, and the one eta is the lattice's
    lattice = sq.LogLattice((edge, sq.LogQuantizerAxis(
        0.2, 0.3, "edge_anchored")), (-1, -1), (1, 1))
    assert lattice.shared_eta == 0.2
    assert lattice.axes[1].variant is sq.QuantizerVariant.EDGE_ANCHORED


def test_lattice_rejects_non_finite_bounds():
    # rejected before the levels are counted: an infinite bound once
    # overflowed the level estimate, and would never end a count
    for lo, hi in (([-math.inf], [1.0]), ([-1.0], [math.inf]),
                   ([-math.inf], [math.inf]), ([math.nan], [1.0])):
        with pytest.raises(ValueError, match="bounds must be finite"):
            sq.LogLattice.from_params(0.2, [0.4], lo, hi)


def test_lattice_level_count_matches_brute_force():
    # the outermost level on a side is the last whose quantized value lies
    # inside the bound, also when the bound is exactly a level value or
    # its float neighbour
    rng = np.random.default_rng(11)
    for _ in range(300):
        eta = float(rng.uniform(0.02, 0.95))
        variant = sq.QuantizerVariant(rng.choice(["value_anchored",
                                                  "edge_anchored"]))
        axis = sq.LogQuantizerAxis(eta, float(10 ** rng.uniform(-4, 1)),
                                   variant)
        values = [axis.level_value(1)]
        while values[-1] <= 1e4 * axis.deadzone:
            values.append(axis.level_value(len(values) + 1))
        pick = values[int(rng.integers(0, len(values) - 1))]
        limits = [float(10 ** rng.uniform(0, 3)) * axis.deadzone, pick,
                  np.nextafter(pick, 0.0), np.nextafter(pick, np.inf)]
        limits = [v for v in limits if v >= axis.deadzone]
        for hi, lo in zip(limits, limits[::-1]):
            lattice = sq.LogLattice((axis,), (-lo,), (hi,))
            want_pos = sum(v <= hi for v in values)
            want_neg = sum(v <= lo for v in values)
            assert lattice.axis_levels(0) == range(-want_neg, want_pos + 1)


def _walked_level(axis, limit):
    # the reference walk: the largest m >= 1 whose quantized value fits
    # below `limit`, else 0, one level at a time
    m = 0
    while axis.level_value(m + 1) <= limit:
        m += 1
    return m


def _walked_geometry(lattice):
    """Level ranges and ``geometry()`` of a lattice from the walk above and
    one ``level_value`` and ``boundary`` call per level."""
    ranges, centers, edges = [], [], []
    for axis, a, b in zip(lattice.axes, lattice.lo, lattice.hi):
        n, p = _walked_level(axis, -a), _walked_level(axis, b)
        ranges.append(range(-n, p + 1))
        centers.append([axis.level_value(m) for m in range(-n, p + 1)])
        edges.append([a, *(-axis.boundary(m) for m in range(n, 0, -1)),
                      *(axis.boundary(m) for m in range(1, p + 1)), b])
    cells = np.array(list(itertools.product(*map(range, map(len, centers)))))
    rows = [np.column_stack([np.array(t)[cells[:, i] + shift]
                             for i, t in enumerate(tables)])
            for tables, shift in ((centers, 0), (edges, 0), (edges, 1))]
    return ranges, rows


def _lattice_limit(axis, rng):
    """A bound on a boundary, a level value, one of their float neighbours
    or the deadzone edge, never inside the deadzone."""
    k = int(rng.integers(1, 12))
    point = [axis.boundary(k), axis.level_value(k),
             axis.deadzone][int(rng.integers(0, 3))]
    step = [0.0, -math.inf, math.inf][int(rng.integers(0, 3))]
    limit = math.nextafter(point, step) if step else point
    return max(limit, axis.deadzone)


def test_lattice_build_matches_the_level_walk_reference():
    # each side's outermost level from the axis's quantize, and the edges
    # from its boundary table, against a level walk and per-level calls:
    # bounds on and beside boundaries, level values and the
    # deadzone edge, both variants, one to three axes
    rng = np.random.default_rng(33)
    for _ in range(300):
        variant = ("value_anchored", "edge_anchored")[int(rng.integers(0, 2))]
        dim = int(rng.integers(1, 4))
        eta = float(rng.uniform(0.1, 0.9))
        scales = 10 ** rng.uniform(-3, 1, size=dim)
        axes = [sq.LogQuantizerAxis(eta, float(s), variant) for s in scales]
        lo = [-_lattice_limit(axis, rng) for axis in axes]
        hi = [_lattice_limit(axis, rng) for axis in axes]
        lattice = sq.LogLattice.from_params(eta, scales, lo, hi, variant)
        ranges, rows = _walked_geometry(lattice)
        assert [lattice.axis_levels(i) for i in range(dim)] == ranges
        for got, want in zip(lattice.geometry(), rows):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_lattice_bound_above_the_ceiling_is_refused():
    # a bound past the axis's last finite boundary has no level: it is
    # refused naming its axis, never with a raw OverflowError
    top = sq.LogQuantizerAxis(0.5, 1e-10).ceiling
    for lo, hi in ((-1, 1e300), (-1e300, 1)):
        message = (f"axis 1: bounds [{float(lo)}, {float(hi)}] must lie "
                   f"within the ceiling [-{top}, {top}]")
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            sq.LogLattice.from_params(0.5, [1, 1e-10], [-1, lo], [1, hi])


def test_quantizer_argument_checks():
    assert sq.LogQuantizerAxis(0.2, 0.4, "edge_anchored").variant is \
        sq.QuantizerVariant.EDGE_ANCHORED
    with pytest.raises(ValueError, match="non-finite value nan"):
        edge_lattice_2d().levels_in_interval(0, 0.0, math.nan)
    with pytest.raises(ValueError, match="at least one axis"):
        sq.LogLattice((), (), ())
    with pytest.raises(ValueError, match="bounds dimension"):
        sq.LogLattice((VALUE_AXIS,), (-1, -1), (1, 1))
    lattice = edge_lattice_2d()
    with pytest.raises(ValueError, match="expected a point of dimension 2"):
        lattice.quantize([0.0])
    # an interval that misses the bounds meets no cell
    assert lattice.levels_in_interval(0, 1.5, 2.0) == []
    assert (0, 0) in lattice and (3, 0) not in lattice and (0,) not in lattice


def test_lattice_is_a_value():
    params = (0.2, [0.4, 0.4], [-1, -1], [1, 1], "edge_anchored")
    lattice = sq.LogLattice.from_params(*params)
    same = sq.LogLattice.from_params(*params)
    assert lattice is not same
    assert lattice == same and hash(lattice) == hash(same)
    assert len({lattice, same}) == 1
    for other in (
            sq.LogLattice.from_params(0.2, [0.2, 0.4], [-1, -1], [1, 1],
                                      "edge_anchored"),
            sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                      "value_anchored"),
            sq.LogLattice.from_params(0.25, [0.4, 0.4], [-1, -1], [1, 1],
                                      "edge_anchored"),
            sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1.5],
                                      "edge_anchored")):
        assert lattice != other
    assert lattice != None  # noqa: E711


def test_lattice_past_max_cells_is_refused(monkeypatch):
    # eta = 1e-7 puts millions of levels on each side; the closed-form
    # count refuses the lattice before a level is enumerated
    with pytest.raises(ValueError, match=rf"too fine: up to \d+ cells, "
                                         rf"over {quantizer.MAX_CELLS}$"):
        sq.LogLattice.from_params(1e-7, [0.4], [-1], [1])
    with pytest.raises(ValueError, match="rho rounds to 1"):
        sq.LogQuantizerAxis(1e-17, 0.4)
    # the count never falls below the true one, so no lattice with more
    # cells than the limit is built
    for params in ((0.2, [0.4, 0.4], [-1, -1], [1, 1], "edge_anchored"),
                   (0.05, [0.01], [-3], [0.5], "value_anchored"),
                   (0.6, [0.3, 1, 2], [-4] * 3, [5, 1.5, 2], "edge_anchored")):
        size = sq.LogLattice.from_params(*params).cell_count()
        with monkeypatch.context() as patch:
            patch.setattr(quantizer, "MAX_CELLS", size - 1)
            with pytest.raises(ValueError, match="too fine"):
                sq.LogLattice.from_params(*params)


def test_value_objects_copy_the_arrays_they_keep(tmp_path):
    # the caller's array stays writeable; the object keeps a read-only copy
    def kept(stored, given):
        assert given.flags.writeable and not stored.flags.writeable
        np.testing.assert_array_equal(stored, given)

    lattice = sq.LogLattice.from_params(0.2, [0.4], [-1], [1])
    u = np.array([[-1.0], [0.0], [1.0]])
    plan = sq.Plan(steps=((0, 1),), inputs=u, lattice=lattice)
    ctrl = sq.SafetyController(admissible={(0,): (1,)}, inputs=u,
                               lattice=lattice, iterations=0, history=())
    empty = np.zeros(lattice.cell_count() + 1, np.int64)
    for policy in (plan, ctrl,
                   SymbolicModel(lattice, u, empty, empty[:0],
                                 relation=([0], []), **HAND_PARAMETERS),
                   SymbolicModel.from_tables(lattice, u, {(0, 1): [0]},
                                             **HAND_PARAMETERS)):
        kept(policy.inputs, u)
    # a loader hands the caller's table to the constructor
    sq.save_plan(plan, tmp_path / "p.txt")
    sq.save_controller(ctrl, tmp_path / "c.txt")
    kept(sq.load_plan(tmp_path / "p.txt", u, lattice).inputs, u)
    kept(sq.load_controller(tmp_path / "c.txt", u, lattice).inputs, u)
    arrays = np.arange(2.0), np.zeros((2, 1)), np.zeros((1, 1))
    run = sq.Trajectory(*arrays)
    for stored, given in zip((run.times, run.states, run.inputs), arrays):
        kept(stored, given)
    arrays = np.zeros(2), np.ones(2), np.array([0, 1], bool), np.ones(2, bool)
    box = sq.Box(*arrays)
    for stored, given in zip((box.lo, box.hi, box.lo_open, box.hi_open),
                             arrays):
        kept(stored, given)


def test_only_frozen_makes_arrays_read_only():
    # every read-only array of the package is a copy made by one helper
    package = pathlib.Path(quantizer.__file__).parent
    calls = {p.name: p.read_text().count("setflags(write=False)")
             for p in package.glob("*.py")}
    assert calls == {**dict.fromkeys(calls, 0), "quantizer.py": 1}
    assert "setflags(write=False)" in inspect.getsource(quantizer._frozen)


def _reference_quantize(lattice, x):
    # the axis quantizer, then the level clamped to the lattice's levels
    x = np.asarray(x, float)
    levels = []
    for i, axis in enumerate(lattice.axes):
        xi = float(x[i])
        if not (lattice.lo[i] <= xi <= lattice.hi[i]):
            raise OutOfDomainError(f"component {i} = {xi!r} outside "
                                   f"[{lattice.lo[i]}, {lattice.hi[i]}]")
        levels.append(_clamped(lattice, i, axis.quantize(xi)[0]))
    return tuple(levels)


def _clamped(lattice, i, levels):
    valid = lattice.axis_levels(i)
    return np.clip(levels, valid[0], valid[-1]).tolist()


def _reference_quantize_many(lattice, pts):
    return np.column_stack([_clamped(lattice, i, axis.levels(pts[:, i]))
                            for i, axis in enumerate(lattice.axes)])


def _reference_levels_in_interval(lattice, i, a, b):
    a, b = max(a, lattice.lo[i]), min(b, lattice.hi[i])
    if a > b:
        return []
    first, last = (_clamped(lattice, i, lattice.axes[i].quantize(v)[0])
                   for v in (a, b))
    return list(range(first, last + 1))


def _outcome(query, *args):
    try:
        result = query(*args)
    except ValueError as exc:  # OutOfDomainError included
        return type(exc), str(exc)
    return result.tolist() if isinstance(result, np.ndarray) else result


def test_lattice_queries_match_axis_quantizer_reference():
    # the lattice's edge table against each axis quantizer plus a clamp to
    # the lattice's levels: every edge and both its float neighbours (the
    # bounds' outer neighbours included), zeros and random values, on both
    # variants, symmetric and asymmetric bounds and one to three axes
    rng = np.random.default_rng(12)
    lattices = [
        value_lattice_2d(),
        edge_lattice_2d(),
        sq.LogLattice.from_params(0.2, [0.4], [-0.55], [5.0]),
        sq.LogLattice.from_params(0.3, [0.1, 0.25, 0.05], [-2.0, -0.3, -1.0],
                                  [0.7, 3.0, 1.0], "edge_anchored"),
        sq.LogLattice.from_params(0.05, [0.02, 0.3], [-1.0, -0.3],
                                  [0.4, 0.9]),
    ]
    for lattice in lattices:
        _, corner_lo, corner_hi = lattice.geometry()
        columns = []
        for i in range(lattice.dim):
            edges = np.unique(np.concatenate([corner_lo[:, i],
                                              corner_hi[:, i]]))
            columns.append(np.concatenate([
                edges, np.nextafter(edges, -np.inf),
                np.nextafter(edges, np.inf), [0.0, -0.0],
                rng.uniform(lattice.lo[i], lattice.hi[i], size=200)]))
        rows = max(map(len, columns))
        pts = np.column_stack([
            rng.permutation(np.concatenate([
                col, rng.uniform(lattice.lo[i], lattice.hi[i],
                                 size=rows - len(col))]))
            for i, col in enumerate(columns)])
        assert lattice.contains_many(pts).tolist() == \
            ((pts >= lattice.lo_array) & (pts <= lattice.hi_array)).all(
                axis=1).tolist()
        assert lattice.quantize_many(pts).tolist() == \
            _reference_quantize_many(lattice, pts).tolist()
        for x in pts:
            assert _outcome(lattice.quantize, x) == \
                _outcome(_reference_quantize, lattice, x)
        for i, col in enumerate(columns):
            for a, b in zip(col, rng.permutation(col)):
                assert _outcome(lattice.levels_in_interval, i, a, b) == \
                    _outcome(_reference_levels_in_interval, lattice, i, a, b)

        # non-finite components and endpoints, and intervals off the bounds
        bad = [math.nan, math.inf, -math.inf]
        for k, v in itertools.product(range(lattice.dim), bad):
            x = np.zeros(lattice.dim)
            x[k] = v
            assert not lattice.contains_many(x[None])[0]
            got = _outcome(lattice.quantize, x)
            assert got == _outcome(_reference_quantize, lattice, x)
            assert got[0] is OutOfDomainError
            assert got[1].startswith(f"component {k} = {v!r} outside")
            got = _outcome(lattice.quantize_many, x[None])
            assert got == _outcome(_reference_quantize_many, lattice, x[None])
            assert got == (ValueError, "cannot quantize non-finite values")
        lo, hi = lattice.lo[0], lattice.hi[0]
        for a, b in [*itertools.product(bad + [0.0], repeat=2),
                     (hi + 1.0, hi + 2.0), (lo - 2.0, lo - 1.0),
                     (lo - 1.0, hi + 1.0)]:
            assert _outcome(lattice.levels_in_interval, 0, a, b) == \
                _outcome(_reference_levels_in_interval, lattice, 0, a, b)
        assert lattice.levels_in_interval(0, hi + 1.0, hi + 2.0) == []
        with pytest.raises(ValueError, match="non-finite value nan"):
            lattice.levels_in_interval(0, math.nan, 0.0)


def _plan(s, **settings):
    sys_, lattice, model = s
    return sq.plan_rollout(sys_, lattice, model.inputs, (0, 0), [(0, 0)],
                           **settings)


# every caller of a range rule, as (name, rule, a value it accepts, the
# error it raises, the call on the contracting scenario and a value); an
# accepted value on a closed edge of its range is that edge
RULE_SITES = [
    pytest.param("eta", _UNIT, 0.2, ValueError,
                 lambda s, v: sq.LogQuantizerAxis(v, 0.4), id="axis-eta"),
    pytest.param("scale", _POSITIVE, 0.4, ValueError,
                 lambda s, v: sq.LogQuantizerAxis(0.2, v), id="axis-scale"),
    pytest.param("dim_x", _COUNT, 1, ValueError,
                 lambda s, v: replace(s[0], dim_x=v), id="system-dim_x"),
    pytest.param("dim_u", _COUNT, 1, ValueError,
                 lambda s, v: replace(s[0], dim_u=v), id="system-dim_u"),
    pytest.param("tau", _POSITIVE, 0.5, ValueError,
                 lambda s, v: replace(s[0], tau=v), id="system-tau"),
    pytest.param("lipschitz", _POSITIVE, 1.0, ValueError,
                 lambda s, v: replace(s[0], lipschitz=v),
                 id="system-lipschitz"),
    pytest.param("integrator_steps", _COUNT, 1, ValueError,
                 lambda s, v: replace(s[0], integrator_steps=v),
                 id="system-integrator_steps"),
    pytest.param("steps", _COUNT, 1, ValueError,
                 lambda s, v: sq.successor(s[0], [0.0, 0.0], [0.0], v),
                 id="successor-steps"),
    pytest.param("mu", _UNIT, 0.002, ConfigError,
                 lambda s, v: sq.InputApproxConfig(v), id="approx-mu"),
    pytest.param("input_samples", _COUNT, 1, ConfigError,
                 lambda s, v: sq.InputApproxConfig(0.002, v),
                 id="approx-input_samples"),
    pytest.param("#tau", _POSITIVE, 0.5, ValueError,
                 lambda s, v: abstraction._check_parameters(v, 0.002, 1.0),
                 id="header-tau"),
    pytest.param("#mu", _UNIT, 0.002, ValueError,
                 lambda s, v: abstraction._check_parameters(0.5, v, 1.0),
                 id="header-mu"),
    pytest.param("#L", _POSITIVE, 1.0, ValueError,
                 lambda s, v: abstraction._check_parameters(0.5, 0.002, v),
                 id="header-L"),
    pytest.param("eta", _UNIT, 0.2, ValueError,
                 lambda s, v: sq.growth_radius([0.4], v, 1.0, 0.5),
                 id="growth_radius-eta"),
    pytest.param("lipschitz", _POSITIVE, 1.0, ValueError,
                 lambda s, v: sq.growth_radius([0.4], 0.2, v, 0.5),
                 id="growth_radius-lipschitz"),
    pytest.param("tau", _NON_NEGATIVE, 0.0, ValueError,
                 lambda s, v: sq.growth_radius([0.4], 0.2, 1.0, v),
                 id="growth_radius-tau"),
    pytest.param("grid_resolution", _POSITIVE, 0.02, ValueError,
                 lambda s, v: _plan(s, grid_resolution=v),
                 id="plan-grid_resolution"),
    pytest.param("max_segment_steps", _COUNT, 1, ValueError,
                 lambda s, v: _plan(s, max_segment_steps=v),
                 id="plan-max_segment_steps"),
    pytest.param("hold", _COUNT, 1, ValueError,
                 lambda s, v: sq.Plan(((0, v),), s[2].inputs, s[1]),
                 id="plan-hold"),
    pytest.param("input index", _INT, 0, ValueError,
                 lambda s, v: sq.Plan(((v, 1),), s[2].inputs, s[1]),
                 id="plan-input"),
    pytest.param("input index", _INT, 0, ValueError,
                 lambda s, v: sq.SafetyController({(0, 0): (v,)}, s[2].inputs,
                                                  s[1], 0, ()),
                 id="controller-input"),
    pytest.param("level", _INT, 0, ValueError,
                 lambda s, v: sq.SafetyController({(v, 0): (0,)}, s[2].inputs,
                                                  s[1], 0, ()),
                 id="controller-cell"),
    pytest.param("level", _INT, 0, ValueError,
                 lambda s, v: (0, v) in s[1], id="lattice-contains"),
    pytest.param("level", _INT, 0, ValueError,
                 lambda s, v: s[1].checked_cell_ids([(0, 0), (v, 0)]),
                 id="lattice-checked_cell_ids"),
    pytest.param("level", _INT, 0, ValueError,
                 lambda s, v: s[1].center((v, 0)), id="lattice-center"),
    pytest.param("level", _INT, 0, ValueError,
                 lambda s, v: s[1].cell_box((v, 0)), id="lattice-cell_box"),
    pytest.param("level", _INT, 0, ValueError,
                 lambda s, v: s[2].state_id((v, 0)), id="model-state_id"),
    pytest.param("max_steps", _NATURAL, 0, ValueError,
                 lambda s, v: sq.simulate_closed_loop(
                     s[0], sq.Plan((), s[2].inputs, s[1]), [0.0, 0.0], v),
                 id="simulate-max_steps"),
    pytest.param("sample_count", _NATURAL, 0, ValueError,
                 lambda s, v: sq.check_feedback_refinement(s[2], s[0], v, 0),
                 id="verify-sample_count"),
    pytest.param("seed", _NATURAL, 0, ValueError,
                 lambda s, v: sq.check_feedback_refinement(s[2], s[0], 0, v),
                 id="verify-seed"),
]


@pytest.mark.parametrize("name, rule, ok, error, call", RULE_SITES)
def test_every_range_rule_site_refuses_with_one_message(
        contracting_scenario, name, rule, ok, error, call):
    # NaN, the infinities and the values just outside the range are refused
    # before any work, each with the rule's one message; growth_radius once
    # returned nan for a NaN L and inf for an infinite one
    words, _, outside = RANGE_RULES[rule]
    for value in (math.nan, math.inf, -math.inf, *outside):
        with pytest.raises(error) as info:
            call(contracting_scenario, value)
        assert type(info.value) is error
        assert str(info.value) == f"{name} {words}, got {value!r}"
    call(contracting_scenario, ok)
