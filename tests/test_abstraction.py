"""Symbolic model construction: input approximation, transitions, storage."""

import dataclasses
import itertools
import os
import re
import tracemalloc

import numpy as np
import pytest

import symquant as sq
from symquant import abstraction
from symquant.abstraction import SymbolicModel, _targets_many
from symquant.config import parse_config
from symquant.errors import ConfigError, OutOfDomainError
from conftest import (HAND_PARAMETERS, MUTATED_NUMBERS, SEPARATORS,
                      affine_misses, box_intersects, corner_witnesses,
                      iter_transitions, line_lattice, line_mutations,
                      miss_classes, random_model, targets_oracle)

EDGE_LATTICE = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                         "edge_anchored")


def test_input_grid_lexicographic():
    sys_ = sq.pendulum_system()
    grid = sq.input_grid(sys_, 51)
    assert grid.shape == (51, 1)
    assert grid[0, 0] == -2.5 and grid[-1, 0] == 2.5
    assert (np.diff(grid[:, 0]) > 0).all()
    assert 0.0 in grid[:, 0]


def test_approximate_inputs_singleton_grid():
    sys_ = sq.pendulum_system()
    cfg = sq.InputApproxConfig(mu=0.002, input_samples=1)
    reps = sq.approximate_inputs((0, 0), EDGE_LATTICE, sys_, cfg)
    assert len(reps) == 1


def test_approximate_inputs_dedup_keeps_lex_smallest():
    # with a very coarse successor quantizer every sampled input from the
    # deadzone cell lands in one mu-region, so only the smallest input stays
    sys_ = sq.pendulum_system()
    coarse = sq.InputApproxConfig(mu=0.9, input_samples=51)
    reps = sq.approximate_inputs((0, 0), EDGE_LATTICE, sys_, coarse)
    assert len(reps) == 1
    assert reps[0][0] == -2.5

    fine = sq.InputApproxConfig(mu=0.002, input_samples=51)
    reps = sq.approximate_inputs((0, 0), EDGE_LATTICE, sys_, fine)
    assert len(reps) == 51  # fine quantizer separates every grid input


def test_approximate_inputs_skips_divergent_samples(caplog):
    # inputs whose nominal successor blows up are dropped with a warning
    def field(x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        return np.stack([(x[..., 0] + u[..., 0]) ** 5, -x[..., 1]], axis=-1)

    sys_ = sq.SampledSystem(dim_x=2, dim_u=1, field=field, lipschitz=1.0,
                            tau=1.0, input_lo=(0.0,), input_hi=(3.0,),
                            vectorized=True)
    with caplog.at_level("WARNING"):
        reps = sq.approximate_inputs((0, 0), EDGE_LATTICE, sys_,
                                     sq.InputApproxConfig(mu=0.002,
                                                          input_samples=7))
    assert 0 < len(reps) < 7
    assert any("divergent" in message for message in caplog.messages)


@pytest.mark.parametrize("gain, kept", [(1e301, [[-1.0], [0.0], [1.0]]),
                                        (1e307, [[0.0]])])
def test_huge_finite_successors_get_no_pair(gain, kept, caplog):
    # dx/dt = -x + gain * u: the successors under u = +-1 are finite, about
    # 0.18 * gain; below the mu quantizer's ceiling (3.58e305) it classifies
    # them, above it they are skipped as divergent; either way their boxes
    # leave the bounds, so only u = 0 keeps pairs
    sys_ = sq.affine_system([[-1.0]], [[gain]], (-1.0,), (1.0,))
    lattice = sq.LogLattice.from_params(0.2, [0.4], [-1], [1])
    cfg = sq.InputApproxConfig(mu=0.002, input_samples=3)
    model = sq.build_abstraction(sys_, lattice, cfg)
    assert model.inputs.tolist() == [[-1.0], [0.0], [1.0]]
    assert model.n_states == 7 and set(model.pair_input.tolist()) == {1}
    caplog.clear()
    with caplog.at_level("WARNING"):
        reps = sq.approximate_inputs((0,), lattice, sys_, cfg)
    assert [u.tolist() for u in reps] == kept
    assert sum("divergent" in m for m in caplog.messages) == 3 - len(kept)


def test_config_validation():
    with pytest.raises(ConfigError):
        sq.InputApproxConfig(mu=0.0)
    with pytest.raises(ConfigError):
        sq.InputApproxConfig(mu=1.5)
    with pytest.raises(ConfigError):
        sq.InputApproxConfig(mu=0.1, input_samples=0)


def test_transition_targets_zero_cell_self_loop(pendulum_scenario):
    sys_, lattice, _ = pendulum_scenario
    targets = sq.transition_targets((0, 0), np.array([0.0]), sys_, lattice)
    assert (0, 0) in targets


def test_transition_targets_singleton_when_box_fits():
    # tiny growth radius keeps the inflated box inside the deadzone cell
    sys_ = dataclasses.replace(sq.affine_system(
        -np.eye(2), [[1.0], [0.0]], (-1.0,), (1.0,), tau=0.1), lipschitz=0.1)
    targets = sq.transition_targets((0, 0), np.array([0.0]), sys_, EDGE_LATTICE)
    assert targets == ((0, 0),)


def test_transition_targets_disabled_outside_bounds(pendulum_scenario):
    sys_, lattice, _ = pendulum_scenario
    # outermost cells push the inflated box past the bounds for every input
    for u in (-2.5, 0.0, 2.5):
        assert sq.transition_targets((2, 0), np.array([u]), sys_, lattice) == ()


def test_targets_match_exhaustive_intersection(pendulum_scenario):
    sys_, lattice, model = pendulum_scenario
    rng = np.random.default_rng(8)
    for _ in range(60):
        sid = int(rng.integers(model.n_states))
        cell = model.cells[sid]
        uid = int(rng.integers(model.n_inputs))
        got = model.successors(cell, uid) if uid in model.enabled_ids(sid) \
            else sq.transition_targets(cell, model.inputs[uid], sys_, lattice)
        assert tuple(got) == targets_oracle(model, sys_, lattice, cell, uid)


def _batched_targets_match_oracle(sys_, lattice, model):
    """Run the batched target pass over every (cell, input) pair of a model
    and compare each set with the exhaustive-intersection oracle and with
    the model's stored set; returns the set sizes seen."""
    centers = np.array([lattice.center(c) for c in model.cells])
    xs = np.repeat(centers, model.n_inputs, axis=0)
    us = np.tile(model.inputs, (model.n_states, 1))
    nominal = sq.successor_many(sys_, xs, us)
    radius = sq.growth_radius(xs, lattice.shared_eta, sys_.lipschitz,
                              sys_.tau)
    ptr, ids = _targets_many(lattice, nominal - radius, nominal + radius)
    sizes = set()
    pairs = itertools.product(range(model.n_states), range(model.n_inputs))
    for k, (sid, uid) in enumerate(pairs):
        got = tuple(ids[ptr[k]:ptr[k + 1]].tolist())
        cells = tuple(model.cells[t] for t in got)
        assert cells == targets_oracle(model, sys_, lattice,
                                       model.cells[sid], uid)
        candidates = model.pair_input[model.pair_ptr[sid]:
                                      model.pair_ptr[sid + 1]]
        assert model.successor_ids(sid, uid) == \
            (got if uid in candidates else ())
        sizes.add(len(got))
    return sizes


def _cube():
    """A contracting field on a 3-D lattice."""
    cube = sq.affine_system(-np.eye(3), np.ones((3, 1)), (-1.0,), (1.0,),
                            tau=0.5)
    return cube, sq.LogLattice.from_params(0.3, [0.3] * 3, [-1] * 3, [1] * 3,
                                           "edge_anchored")


def _line():
    """The linear system on a small 1-D lattice."""
    return sq.linear_system(tau=0.3), sq.LogLattice.from_params(
        0.25, [0.2], [-0.8], [1.3], "value_anchored")


def test_batched_targets_match_oracle_on_every_pair(pendulum_scenario,
                                                    contracting_scenario):
    scenarios = [pendulum_scenario, contracting_scenario]
    for (sys_, lattice), samples in ((_line(), 15), (_cube(), 3)):
        model = sq.build_abstraction(sys_, lattice,
                                     sq.InputApproxConfig(0.002, samples))
        scenarios.append((sys_, lattice, model))
    for sys_, lattice, model in scenarios:
        sizes = _batched_targets_match_oracle(sys_, lattice, model)
        assert 0 in sizes and max(sizes) > 1


def _landing(edge: float, offset: float) -> float:
    """A value n with n + offset == edge in floating point."""
    n = edge - offset
    for _ in range(8):
        got = n + offset
        if got == edge:
            return n
        n = np.nextafter(n, -np.inf if got > edge else np.inf)
    raise AssertionError(f"no float lands on {edge!r}")


def test_targets_when_box_edge_is_a_boundary():
    # a region boundary belongs to the region nearer zero: an upper box
    # edge on boundary(m) stops at level m - 1, a lower edge on boundary(m)
    # already meets level m - 1 (mirrored on the negative side); a box edge
    # on the lattice bound keeps the input enabled
    lattice = sq.LogLattice.from_params(0.2, [0.1], [-1.0], [1.5],
                                        "value_anchored")
    axis = lattice.axes[0]
    center = lattice.center((1,))
    radius = float(sq.growth_radius(center, 0.2, 1.0, 0.1)[0])
    edges = [(sign * axis.boundary(m), offset, sign * (m - 1))
             for m in (3, 5) for sign in (1, -1)
             for offset in (radius, -radius)]
    edges += [(lattice.hi[0], radius, None), (lattice.lo[0], -radius, None)]
    for edge, offset, touching in edges:
        nominal = _landing(edge, offset)
        lo, hi = nominal - radius, nominal + radius
        assert edge in (lo, hi)
        _, ids = _targets_many(lattice, np.array([[lo]]), np.array([[hi]]))
        got = [c[0] for c in lattice.cells_of(ids)]
        assert got and got == lattice.levels_in_interval(0, lo, hi)
        if touching is not None:
            assert got[-1 if edge == hi else 0] == touching


@pytest.mark.parametrize("lattice", [
    sq.LogLattice.from_params(0.3, [0.2, 0.5], [-1.0, -0.8], [1.5, 1.0],
                              "value_anchored"),
    sq.LogLattice.from_params(0.25, [0.3, 0.4, 0.2], [-1.0, -1.0, -0.6],
                              [1.0, 0.9, 1.2], "edge_anchored"),
], ids=["2d", "3d"])
def test_box_enumerator_matches_brute_force(lattice):
    # random closed boxes, each end on each axis either uniform over a
    # margin around the bounds or exactly on a cell face or bound, plus two
    # boxes that are not finite; each is tested against every cell box
    rng = np.random.default_rng(21)
    n, dim = 300, lattice.dim
    cell_boxes = [lattice.cell_box(c) for c in lattice.enumerate_cells()]
    _, edge_lo, edge_hi = lattice.geometry()
    ends = rng.uniform(lattice.lo_array - 0.5, lattice.hi_array + 0.5,
                       size=(2, n, dim))
    for i in range(dim):
        faces = np.union1d(edge_lo[:, i], edge_hi[:, i])
        on_face = rng.random((2, n)) < 0.4
        ends[on_face, i] = rng.choice(faces, size=on_face.sum())
    box_lo = np.vstack([ends.min(axis=0), np.full(dim, np.nan),
                        np.full(dim, -np.inf)])
    box_hi = np.vstack([ends.max(axis=0), np.zeros(dim), np.zeros(dim)])
    inside = ((box_lo >= lattice.lo_array)
              & (box_hi <= lattice.hi_array)).all(axis=1)
    assert 0.2 < inside.mean() < 0.8
    ptr, ids = _targets_many(lattice, box_lo, box_hi)
    assert len(ptr) == len(box_lo) + 1
    for k in range(len(box_lo)):
        want = [sid for sid, box in enumerate(cell_boxes)
                if box_intersects(box, box_lo[k], box_hi[k])] if inside[k] \
            else []
        assert ids[ptr[k]:ptr[k + 1]].tolist() == want, (box_lo[k], box_hi[k])


def test_box_enumerator_inverted_box_meets_no_cell(pendulum_scenario):
    # the first box is inverted on axis 0, which once raised a raw numpy
    # ValueError; now it meets no cell and leaves the other box's set as is
    _, lattice, _ = pendulum_scenario
    normal_lo, normal_hi = np.array([[-0.9, 0.0]]), np.array([[0.9, 0.0]])
    _, alone = _targets_many(lattice, normal_lo, normal_hi)
    ptr, ids = _targets_many(lattice, np.vstack([normal_hi, normal_lo]),
                             np.vstack([normal_lo, normal_hi]))
    assert ptr.tolist() == [0, 0, len(alone)] and len(alone) > 1
    assert ids.tolist() == alone.tolist()


def test_vectorized_dedup_matches_scalar_signatures():
    # reference: the per-sample loop over scalar mu signatures; at this
    # coarse mu several grid inputs share a class in every cell.  The input
    # table is the whole grid, also the samples that represent no cell, and
    # a cell's pairs are its representatives whose successor box meets a
    # cell
    sys_ = sq.pendulum_system()
    cfg = sq.InputApproxConfig(mu=0.3, input_samples=51)
    model = sq.build_abstraction(sys_, EDGE_LATTICE, cfg)
    grid = sq.input_grid(sys_, cfg.input_samples)
    mu_axis = cfg.mu_axis()
    pairs, union = 0, set()
    for sid, cell in enumerate(model.cells):
        center = EDGE_LATTICE.center(cell)
        succ = sq.successor_many(sys_, np.tile(center, (len(grid), 1)), grid)
        first = {}
        for k, x in enumerate(succ):
            first.setdefault(tuple(mu_axis.quantize(v)[0] for v in x), k)
        union.update(first.values())
        expected = grid[sorted(first.values())]
        reps = sq.approximate_inputs(cell, EDGE_LATTICE, sys_, cfg)
        assert np.array_equal(np.array(reps), expected)
        enabled = [u for u in expected
                   if sq.transition_targets(cell, u, sys_, EDGE_LATTICE)]
        stored = model.pair_input[model.pair_ptr[sid]:model.pair_ptr[sid + 1]]
        assert np.array_equal(model.inputs[stored],
                              np.reshape(enabled, (-1, sys_.dim_u)))
        pairs += len(expected)
    assert np.array_equal(model.inputs, grid)
    assert len(union) < len(grid)
    assert len(model.pair_input) < pairs < model.n_states * len(grid)


def _grid_cases():
    """(system, lattice, input config) of the bundled pendulum, of the
    pendulum at mu 0.3, where some samples represent no cell, and of
    :func:`_blow_up`, whose samples diverge in some cells."""
    pendulum = sq.pendulum_system()
    blow_up, line, _ = _blow_up()
    return {"bundled": (pendulum, EDGE_LATTICE, sq.InputApproxConfig(0.002)),
            "coarse_mu": (pendulum, EDGE_LATTICE, sq.InputApproxConfig(0.3)),
            "divergent": (blow_up, line, sq.InputApproxConfig(0.01, 3))}


@pytest.mark.parametrize("case", ["bundled", "coarse_mu", "divergent"])
def test_a_model_inputs_are_the_input_grid(case):
    # an input id is a grid sample index: the table is the grid, and each
    # cell's pairs are the indices of its enabled representatives
    sys_, lattice, cfg = _grid_cases()[case]
    model = sq.build_abstraction(sys_, lattice, cfg)
    grid = sq.input_grid(sys_, cfg.input_samples)
    assert np.array_equal(model.inputs, grid)
    for sid, cell in enumerate(model.cells):
        reps = sq.approximate_inputs(cell, lattice, sys_, cfg)
        ids = [int(np.flatnonzero((grid == u).all(axis=1))[0]) for u in reps
               if sq.transition_targets(cell, u, sys_, lattice)]
        a, b = model.pair_ptr[sid], model.pair_ptr[sid + 1]
        assert model.pair_input[a:b].tolist() == ids, cell


def test_build_statistics(pendulum_scenario):
    _, _, model = pendulum_scenario
    assert model.n_states == 25
    assert model.summary()["states"] == 25
    blocking = [c for c in model.cells if not model.enabled_inputs(c)]
    assert blocking == [c for c in model.cells if abs(c[0]) == 2]
    assert len(model.enabled_inputs((0, 0))) > 0
    # self-loop transitions exist
    assert any(c in model.successors(c, u)
               for c in model.cells for u in model.enabled_inputs(c))


def test_a_built_model_stores_only_enabled_pairs(pendulum_scenario):
    # a representative input is a pair of its cell exactly when its
    # successor box meets a cell, so no stored successor set is empty
    sys_, lattice, model = pendulum_scenario
    cfg = sq.InputApproxConfig(mu=0.002, input_samples=51)
    assert len(model.pair_input) == 649
    uid = {tuple(u): k for k, u in enumerate(model.inputs.tolist())}
    for sid, cell in enumerate(model.cells):
        reps = sq.approximate_inputs(cell, lattice, sys_, cfg)
        enabled = {uid[tuple(u)] for u in reps
                   if sq.transition_targets(cell, u, sys_, lattice)}
        assert set(model.enabled_ids(sid)) == enabled
    assert (np.diff(model.relation()[0]) > 0).all()


def test_model_refuses_a_pair_that_is_not_enabled():
    lattice = line_lattice(2)
    ptr, uids = [0, 1, 1], [0]
    SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                  relation=([0, 1], [1]))
    with pytest.raises(ValueError, match="empty successor set"):
        SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                      relation=([0, 0], []))
    boxed = SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                          boxes=(np.array([[0.0]]), np.array([[1.0]])))
    assert boxed.successor_ids(0, 0) == (0, 1)
    for lo, hi in ((0.5, 9.0), (0.5, 0.0), (np.nan, 0.5)):
        # out of bounds, inverted, not finite
        with pytest.raises(ValueError, match="box meets no cell"):
            SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                          boxes=(np.array([[lo]]), np.array([[hi]])))


def test_model_refuses_pairs_its_loader_never_produces():
    # pair_ptr runs from 0 to the pair count over one entry per state and
    # one more, and a state's input ids ascend and index the input table
    lattice = line_lattice(2)
    inputs = [[0.0], [1.0]]
    for ptr in ([0, 1], [0, 1, 1, 1], [1, 1, 1], [0, 1, 2], [0, 2, 1]):
        with pytest.raises(ValueError, match="pair_ptr must rise from 0"):
            SymbolicModel(lattice, inputs, ptr, [0], **HAND_PARAMETERS,
                          relation=([0, 1], [0]))
    for ptr, uids in (([0, 1, 1], [5]), ([0, 1, 1], [-1]), ([0, 1, 1], [2]),
                      ([0, 2, 2], [1, 0]), ([0, 2, 2], [0, 0])):
        with pytest.raises(ValueError, match="input ids must strictly ascend"):
            SymbolicModel(lattice, inputs, ptr, uids, **HAND_PARAMETERS,
                          relation=(np.arange(len(uids) + 1), [0] * len(uids)))
    # ids start again with each state
    model = SymbolicModel(lattice, inputs, [0, 1, 2], [1, 0],
                          **HAND_PARAMETERS, relation=([0, 1, 2], [0, 1]))
    assert model.successor_ids(0, 1) == (0,)
    assert model.successor_ids(1, 0) == (1,)
    # the successor sets likewise: offsets rise strictly from 0 to the
    # target count, and each set's ids strictly ascend and index states;
    # [2, 0] once hid the stored successor 2 from is_successor, and [99]
    # raised a raw IndexError from successors
    lattice = line_lattice(3)
    for relation, words in ((([1, 2], [0, 1]), "offsets must rise strictly"),
                            (([0], [0]), "offsets must rise strictly"),
                            (([0, 2], [2, 0]), "ids must strictly ascend"),
                            (([0, 2], [1, 1]), "ids must strictly ascend"),
                            (([0, 1], [99]), "ids must strictly ascend"),
                            (([0, 1], [-1]), "ids must strictly ascend")):
        with pytest.raises(ValueError, match=words):
            SymbolicModel(lattice, [[0.0]], [0, 1, 1, 1], [0],
                          **HAND_PARAMETERS, relation=relation)
    # a set may start below the one before it
    model = SymbolicModel(lattice, [[0.0]], [0, 1, 2, 2], [0, 0],
                          **HAND_PARAMETERS, relation=([0, 2, 3], [1, 2, 0]))
    found = model.is_successor(np.array([0, 0, 1]), np.array([2, 0, 0]))
    assert found.tolist() == [True, False, True]


def test_model_takes_one_successor_representation_per_pair():
    # neither representation, two sets for one pair, and a relation given
    # as lists, which is stored as int64 arrays
    lattice = line_lattice(2)
    ptr, uids = [0, 1, 1], [0]
    box = (np.array([[0.0]]), np.array([[1.0]]))
    for kwargs in ({}, {"relation": ([0, 1], [1]), "boxes": box}):
        with pytest.raises(ValueError, match="exactly one of relation and"):
            SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                          **kwargs)
    with pytest.raises(ValueError, match="2 successor sets or boxes for 1"):
        SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                      relation=(np.array([0, 1, 2]), np.array([0, 1])))
    with pytest.raises(ValueError, match="2 successor sets or boxes for 1"):
        SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                      boxes=(np.repeat(box[0], 2, 0), np.repeat(box[1], 2, 0)))
    model = SymbolicModel(lattice, [[0.0]], ptr, uids, **HAND_PARAMETERS,
                          relation=([0, 2], [0, 1]))
    assert [part.dtype for part in model.relation()] == [np.int64] * 2
    assert model.successor_ids(0, 0) == (0, 1)
    assert model.transition_count() == 2


def test_enabled_queries_never_enumerate(pendulum_scenario, monkeypatch):
    sys_, lattice, built = pendulum_scenario
    enabled = [tuple(u for u in range(built.n_inputs)
                     if built.successor_ids(sid, u))
               for sid in range(built.n_states)]
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], built)
    model = sq.build_abstraction(sys_, lattice,
                                 sq.InputApproxConfig(0.002, 51))

    def refused(self):
        raise AssertionError("successor sets enumerated")

    monkeypatch.setattr(SymbolicModel, "materialize", refused)
    for sid, cell in enumerate(model.cells):
        assert model.enabled_ids(sid) == enabled[sid]
        assert model.enabled_inputs(cell) == enabled[sid]
        assert (not model.enabled_inputs(cell)) == (not enabled[sid])
    assert sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model) == safe
    assert safe.inputs == tuple(sorted(set().union(
        *(enabled[model.state_id(c)] for c in safe.cells))))


@pytest.fixture
def query_cases(pendulum_scenario, contracting_scenario):
    """Models for the successor-set queries, each with its pairs' sets from
    the per-pair query: random models (arbitrary and singleton sets, states
    without pairs) and two built models, the contracting one with
    singleton sets."""
    rng = np.random.default_rng(29)
    models = [random_model(rng) for _ in range(30)]
    return [(rng, model, [model.successor_ids(sid, uid) for sid, uid in zip(
        model.pair_state.tolist(), model.pair_input.tolist())])
        for model in models + [pendulum_scenario[2], contracting_scenario[2]]]


def test_query_cases_hold_every_kind_of_set(query_cases):
    sizes = [[len(succ) for succ in sets] for _, _, sets in query_cases]
    assert all(min(s) >= 1 for s in sizes)
    assert 1 in sizes[-1] and max(sizes[-1]) > 1
    assert any(np.diff(model.pair_ptr).min() == 0
               for _, model, _ in query_cases[:-2])


def test_controllable_matches_brute_force(query_cases):
    for rng, model, sets in query_cases:
        n = model.n_states
        for target in (np.ones(n, bool), np.zeros(n, bool),
                       rng.random(n) < 0.5, rng.random(n) < 0.9):
            found, good = model.controllable(target)
            want = [all(target[t] for t in succ) for succ in sets]
            assert good.tolist() == want
            assert found.tolist() == [
                any(want[k] for k in range(model.pair_ptr[sid],
                                           model.pair_ptr[sid + 1]))
                for sid in range(n)]


def test_is_successor_matches_brute_force(query_cases):
    for rng, model, sets in query_cases:
        # every target of every pair, and the ids next to each target
        rows = [(k, t + d) for k, succ in enumerate(sets) for t in succ
                for d in (-1, 0, 1)]
        rows = [rows[i] for i in rng.permutation(len(rows))]
        pairs, ids = np.array(rows, np.int64).reshape(-1, 2).T
        assert model.is_successor(pairs, ids).tolist() == [
            t in sets[k] for k, t in rows]
        assert model.is_successor(pairs[:0], ids[:0]).tolist() == []


def test_singletons_match_brute_force(query_cases):
    for _, model, sets in query_cases:
        pairs, states = model.singletons()
        want = [(k, succ[0]) for k, succ in enumerate(sets) if len(succ) == 1]
        assert list(zip(pairs.tolist(), states.tolist())) == want


def test_enabled_semantics(pendulum_scenario):
    _, _, model = pendulum_scenario
    for cell in model.cells:
        enabled = model.enabled_inputs(cell)
        assert set(enabled) <= set(range(model.n_inputs))
        for uid in enabled:
            assert model.successors(cell, uid)
        for uid in set(range(model.n_inputs)) - set(enabled):
            assert model.successors(cell, uid) == ()
    with pytest.raises(OutOfDomainError):
        model.enabled_inputs((9, 9))


def test_inputs_stay_in_input_box(pendulum_scenario):
    sys_, _, model = pendulum_scenario
    lo = np.array(sys_.input_lo)
    hi = np.array(sys_.input_hi)
    assert (model.inputs >= lo).all() and (model.inputs <= hi).all()


def test_lazy_equals_eager(pendulum_scenario, tmp_path):
    # a fresh model computes its successor sets on the first query; its
    # saved-and-loaded copy is given them; both answer every query alike
    sys_, lattice, built = pendulum_scenario
    sq.save_abstraction(built, tmp_path / "m.abs")
    given = sq.load_abstraction(tmp_path / "m.abs")
    computed = sq.build_abstraction(sys_, lattice,
                                    sq.InputApproxConfig(0.002, 51))
    assert computed.enabled_inputs((0, 0)) == given.enabled_inputs((0, 0))
    assert computed.cells == given.cells
    assert (computed.inputs == given.inputs).all()
    assert list(iter_transitions(computed)) == list(iter_transitions(given))
    assert computed.transition_count() == given.transition_count()
    for sid in range(given.n_states):
        assert computed.enabled_ids(sid) == given.enabled_ids(sid)
        for uid in range(given.n_inputs):
            assert (computed.successor_ids(sid, uid)
                    == given.successor_ids(sid, uid))


def test_successor_sets_computed_once_on_first_use(contracting_scenario,
                                                   monkeypatch):
    sys_, lattice, _ = contracting_scenario
    passes = []

    def counted(lattice, box_lo, box_hi):
        passes.append(len(box_lo))
        return _targets_many(lattice, box_lo, box_hi)

    monkeypatch.setattr(abstraction, "_targets_many", counted)
    model = sq.build_abstraction(sys_, lattice,
                                 sq.InputApproxConfig(0.002, 21))
    assert passes == []
    uid = model.enabled_inputs((0, 0))[0]  # read from the pairs alone
    assert passes == []
    model.successors((0, 0), uid)
    assert passes == [len(model.pair_input)]  # one pass over every pair
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    sq.safety_fixpoint(model, safe)
    model.transition_count()
    assert passes == [len(model.pair_input)]


def test_containment_sampled(pendulum_scenario):
    # quantized true successors always land in the stored successor sets
    sys_, lattice, model = pendulum_scenario
    rng = np.random.default_rng(9)
    checked = 0
    for _ in range(2000):
        sid = int(rng.integers(model.n_states))
        cell = model.cells[sid]
        enabled = model.enabled_ids(sid)
        if not enabled:
            continue
        x = lattice.sample_in_cell(cell, rng)[0]
        uid = enabled[rng.integers(len(enabled))]
        nxt = sq.successor(sys_, x, model.inputs[uid])
        assert lattice.quantize(nxt) in model.successors(cell, uid)
        checked += 1
    assert checked > 1000


def test_containment_finer_eta():
    # refining the lattice must not break containment
    sys_ = sq.pendulum_system()
    lattice = sq.LogLattice.from_params(0.1, [0.4, 0.4], [-1, -1], [1, 1],
                                        "edge_anchored")
    model = sq.build_abstraction(sys_, lattice, sq.InputApproxConfig(0.002, 21))
    rng = np.random.default_rng(10)
    for _ in range(500):
        sid = int(rng.integers(model.n_states))
        cell = model.cells[sid]
        enabled = model.enabled_ids(sid)
        if not enabled:
            continue
        x = lattice.sample_in_cell(cell, rng)[0]
        uid = enabled[rng.integers(len(enabled))]
        nxt = sq.successor(sys_, x, model.inputs[uid])
        assert lattice.quantize(nxt) in model.successors(cell, uid)


ROTATION = [[-0.2, 1.0], [-1.0, -0.2]]  # damped rotation, ||A||_inf = 1.2


@pytest.mark.parametrize("A, B, lipschitz, tau, eta, pairs, split", [
    ([[0, 1], [0, 0]], [[0], [1]], 1.0, 0.2, 0.2, 2581, (10, 26, 160)),
    (ROTATION, [[0], [1]], 1.2, 0.2, 0.2, 2607, (2, 24, 206)),
    (ROTATION, [[0], [1]], 3.0, 0.2, 0.2, 2479, (0, 0, 48)),
    ([[-1]], [[1]], 1.0, 0.2, 0.1, 341, (0, 2, 0)),
    (-np.eye(3), np.ones((3, 1)), 1.0, 0.5, 0.2, 47507, (0, 0, 0)),
], ids=["double_integrator", "rotation_L1.2", "rotation_L3", "linear",
        "cube3d"])
def test_affine_oracle_pins_paper_radius_misses(A, B, lipschitz, tau, eta,
                                                pairs, split):
    # paper mode on [-1, 1]^d, scale 0.05, 11 inputs, mu 0.002: the exact
    # hulls find every pair whose successor set lacks a true successor, and
    # a successor from an inset corner of the source cell confirms each
    sys_ = dataclasses.replace(sq.affine_system(A, B, (-1.0,), (1.0,), tau),
                               lipschitz=lipschitz)
    d = sys_.dim_x
    lattice = sq.LogLattice.from_params(eta, [0.05] * d, [-1] * d, [1] * d)
    model = sq.build_abstraction(sys_, lattice,
                                 sq.InputApproxConfig(mu=0.002,
                                                      input_samples=11))
    assert len(model.pair_input) == pairs
    misses, ties = affine_misses(model, sys_)
    assert ties.size == 0
    assert miss_classes(model, misses) == dict(
        zip(("deadzone", "outer", "interior"), split))
    assert corner_witnesses(model, sys_, misses).all()
    if d < 3:  # the corners find no other pair (too slow at 3-D)
        confirmed = corner_witnesses(model, sys_, np.arange(pairs))
        assert np.flatnonzero(confirmed).tolist() == misses.tolist()


def _random_affine(kind, d, rng):
    """A random A of a family with a random one-column B: ``hurwitz``, a
    Gaussian A shifted until its spectral abscissa is -0.5; ``metzler``,
    nonnegative off the diagonal and strictly diagonally dominant;
    ``rotating``, skew-symmetric plus a small contraction."""
    if kind == "hurwitz":
        A = rng.normal(size=(d, d))
        A -= (np.linalg.eigvals(A).real.max() + 0.5) * np.eye(d)
    elif kind == "metzler":
        A = rng.uniform(0.0, 1.0, size=(d, d))
        np.fill_diagonal(A, 0.0)
        A -= np.diag(A.sum(axis=1) + rng.uniform(0.2, 1.0, size=d))
    else:
        S = rng.normal(size=(d, d))
        A = S - S.T - rng.uniform(0.1, 0.4) * np.eye(d)
    return A, rng.normal(size=(d, 1))


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", ["hurwitz", "metzler", "rotating"])
def test_affine_family_oracle_and_sampled_check_agree(kind, d, seed):
    # paper mode with L = ||A||_inf: the exact oracle's misses are real (a
    # corner successor shows each, and in 2-D the corners show no other
    # pair), and no sampled violation lies on a pair the oracle calls sound
    A, B = _random_affine(kind, d, np.random.default_rng([seed, d]))
    sys_ = sq.affine_system(A, B, (-1.0,), (1.0,), tau=0.2)
    eta, scale = (0.2, 0.05) if d == 2 else (0.3, 0.1)
    lattice = sq.LogLattice.from_params(eta, [scale] * d, [-1] * d, [1] * d)
    model = sq.build_abstraction(sys_, lattice,
                                 sq.InputApproxConfig(mu=0.002,
                                                      input_samples=11))
    misses, ties = affine_misses(model, sys_)
    assert ties.size == 0
    assert corner_witnesses(model, sys_, misses).all()
    if d == 2:
        pairs = np.arange(len(model.pair_input))
        confirmed = corner_witnesses(model, sys_, pairs)
        assert np.flatnonzero(confirmed).tolist() == misses.tolist()
    missed = set(zip(model.pair_state[misses].tolist(),
                     model.pair_input[misses].tolist()))
    report = sq.check_feedback_refinement(model, sys_, 3000, seed=seed)
    assert {(model.state_id(w.source), w.input_index)
            for w in report.violations} <= missed


def test_dimension_mismatch_rejected():
    sys_ = sq.linear_system()
    with pytest.raises(ConfigError):
        sq.build_abstraction(sys_, EDGE_LATTICE, sq.InputApproxConfig(0.002, 5))


def test_save_load_roundtrip(pendulum_scenario, tmp_path):
    _, _, model = pendulum_scenario
    path = tmp_path / "model.abs"
    sq.save_abstraction(model, path)
    loaded = sq.load_abstraction(path)
    assert loaded.cells == model.cells
    assert (loaded.inputs == model.inputs).all()
    assert loaded.tau == model.tau and loaded.mu == model.mu
    assert loaded.lattice.shared_eta == model.lattice.shared_eta
    assert loaded.lipschitz == model.lipschitz
    assert list(iter_transitions(loaded)) == list(iter_transitions(model))
    for cell in model.cells:
        assert loaded.enabled_inputs(cell) == model.enabled_inputs(cell)
    # lattice geometry survives
    assert loaded.lattice.lo == model.lattice.lo
    assert [a.scale for a in loaded.lattice.axes] == \
           [a.scale for a in model.lattice.axes]
    # saving again is byte-identical
    path2 = tmp_path / "model2.abs"
    sq.save_abstraction(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()


def _reference_file(model) -> bytes:
    """The model file as the writer formatted it before it joined whole
    successor sets: one ``%d`` conversion per id of every transition."""
    lat = model.lattice
    ptr, targets = model.relation()
    counts = np.diff(ptr)
    table = np.column_stack((np.repeat(model.pair_state, counts), targets,
                             np.repeat(model.pair_input, counts)))

    def floats(values):
        return ",".join(repr(float(v)) for v in values)

    text = ["#version 1\n",
            "#lattice variant=%s eta=%s scale=%s lo=%s hi=%s\n" % (
                lat.axes[0].variant.value, repr(lat.shared_eta),
                floats(axis.scale for axis in lat.axes), floats(lat.lo),
                floats(lat.hi)),
            "#tau %s #eta %s #mu %s #L %s\n" % (
                repr(model.tau), repr(lat.shared_eta), repr(model.mu),
                repr(model.lipschitz)),
            ("%d %d %d\n" * len(table)) % tuple(table.ravel().tolist())]
    text += ["input %d %s\n" % (uid, " ".join(repr(float(v)) for v in row))
             for uid, row in enumerate(model.inputs)]
    text += [f"state {sid} {sq.format_cell(cell)}\n"
             for sid, cell in enumerate(model.cells)]
    return "".join(text).encode()


def _wide_models():
    """Models on a 121-cell lattice with 150 inputs, so state and input ids
    cross 9 -> 10 and 99 -> 100: one from tables, and one built directly
    with blocking states."""
    lattice = sq.LogLattice.from_params(0.25, [0.1, 0.1], [-1, -1], [1, 1],
                                        "edge_anchored")
    cells = lattice.enumerate_cells()
    n, k = len(cells), 150
    inputs = np.linspace(-1.0, 1.0, k)[:, None]
    rng = np.random.default_rng(7)
    succ = {(s, u): sorted(set(rng.integers(0, n, rng.integers(1, 5))
                               .tolist()))
            for s in range(n) for u in rng.choice(k, 3, replace=False)
            if s % 5}
    tables = SymbolicModel.from_tables(lattice, inputs, succ, tau=0.2,
                                       mu=0.002, lipschitz=6.0)
    pair_state, pair_input, sets = [], [], []
    for s in range(n):
        uids = np.sort(rng.choice(k, int(rng.integers(0, 4)), replace=False))
        for uid in uids.tolist():
            dst = np.unique(rng.integers(0, n, rng.integers(0, 4)))
            if dst.size:  # a pair is an enabled input
                pair_state.append(s)
                pair_input.append(uid)
                sets.append(dst)
    pair_ptr = np.searchsorted(pair_state, np.arange(n + 1))
    offsets = np.cumsum([0] + [len(t) for t in sets])
    direct = SymbolicModel(lattice, inputs, pair_ptr, pair_input, tau=0.2,
                           mu=0.002, lipschitz=6.0,
                           relation=(offsets, np.concatenate(sets)))
    assert (np.diff(pair_ptr) == 0).any()
    return tables, direct


def test_saved_text_matches_per_transition_reference(pendulum_scenario,
                                                     tmp_path, monkeypatch):
    # the bundled model has more inputs than states and blocking states
    models = [pendulum_scenario[2], *_wide_models()]
    for model in models:
        want = _reference_file(model)
        for chunk in (abstraction._CHUNK, 3):
            with monkeypatch.context() as patch:
                patch.setattr(abstraction, "_CHUNK", chunk)
                sq.save_abstraction(model, tmp_path / "m.abs")
            assert (tmp_path / "m.abs").read_bytes() == want, chunk


def test_from_tables_model_saves_a_file_that_reloads(tmp_path):
    # the model's eta is its lattice's, so both header lines carry it
    lattice = sq.LogLattice.from_params(0.2, [0.4], [-1], [1])
    model = SymbolicModel.from_tables(lattice, [[0.0], [1.0]],
                                      {(0, 1): (1, 2), (2, 0): (2,)},
                                      tau=0.2, mu=0.01, lipschitz=1.0)
    assert model.lattice.shared_eta == 0.2
    sq.save_abstraction(model, tmp_path / "m.abs")
    lines = (tmp_path / "m.abs").read_text().splitlines()
    assert " eta=0.2 " in lines[1] and " #eta 0.2 " in lines[2]
    assert _same_model(sq.load_abstraction(tmp_path / "m.abs"), model)
    # a model whose tau, mu or L the loader refuses is never made, so it
    # cannot be written
    for key, value, message in (
            ("tau", 0.0, "#tau must be positive, got 0.0"),
            ("mu", 1.0, "#mu must lie in (0, 1), got 1.0"),
            ("lipschitz", float("inf"), "#L must be positive, got inf")):
        with pytest.raises(ValueError, match=re.escape(message)):
            SymbolicModel.from_tables(lattice, [[0.0]], {}, **{
                **HAND_PARAMETERS, key: value})


def test_model_argument_checks():
    bare = SymbolicModel.from_tables(line_lattice(2), [0.0, 1.0],
                                     {(0, 1): (1,)}, **HAND_PARAMETERS)
    assert bare.inputs.shape == (2, 1)
    assert SymbolicModel.from_tables(line_lattice(1), [], {},
                                     **HAND_PARAMETERS).inputs.shape == (0, 1)
    with pytest.raises(ValueError, match="unknown state or input"):
        SymbolicModel.from_tables(line_lattice(1), [[0.0]], {(0, 0): (1,)},
                                  **HAND_PARAMETERS)
    with pytest.raises(TypeError, match="lipschitz"):
        SymbolicModel.from_tables(line_lattice(1), [[0.0]], {}, tau=0.2,
                                  mu=0.002)
    relation = bare.relation()
    bare.materialize()  # complete already: nothing is recomputed
    assert bare.relation() is relation


def _blow_up():
    """dx/dt = x^2, which leaves every float within a period from the
    cell of 6, and a lattice around it."""
    sys_ = sq.SampledSystem(dim_x=1, dim_u=1, field=lambda x, u: x * x,
                            lipschitz=1.0, tau=1.0, input_lo=(-1.0,),
                            input_hi=(1.0,), vectorized=True)
    lattice = sq.LogLattice.from_params(0.3, [1.0], [-10.0], [10.0])
    return sys_, lattice, lattice.quantize([6.0])


def test_diverging_pair_has_no_targets(caplog):
    sys_, lattice, cell = _blow_up()
    with caplog.at_level("WARNING", logger="symquant.abstraction"):
        assert sq.transition_targets(cell, [0.0], sys_, lattice) == ()
    assert "divergence from cell" in caplog.text
    assert sq.transition_targets((0,), [0.0], sys_, lattice) != ()


def test_cell_whose_every_sample_diverges_has_no_inputs(caplog):
    sys_, lattice, cell = _blow_up()
    cfg = sq.InputApproxConfig(mu=0.01, input_samples=3)
    with caplog.at_level("WARNING", logger="symquant.abstraction"):
        assert sq.approximate_inputs(cell, lattice, sys_, cfg) == []
    assert caplog.text.count("skipping divergent input sample") == 3
    assert len(sq.approximate_inputs((0,), lattice, sys_, cfg)) >= 1


def test_from_tables_hand_model():
    succ = {(0, 0): (1,), (1, 0): (2,), (2, 0): (2,)}
    model = SymbolicModel.from_tables(line_lattice(3), [[0.0]], succ,
                                      **HAND_PARAMETERS)
    assert model.enabled_inputs((0,)) == (0,)
    assert model.successors((0,), 0) == ((1,),)
    assert model.transition_count() == 3


def test_line_lattice_numbers_its_cells_from_zero():
    for n in range(1, 51):
        lattice = line_lattice(n)
        cells = [(i,) for i in range(n)]
        assert lattice.enumerate_cells() == cells
        assert lattice.cell_ids(cells).tolist() == list(range(n))


def test_state_ids_are_the_lattice_cell_ids(pendulum_scenario):
    _, lattice, model = pendulum_scenario
    assert model.cells == lattice.enumerate_cells()
    assert lattice.checked_cell_ids(model.cells).tolist() == list(range(25))
    assert lattice.checked_cell_ids([]).tolist() == []
    assert [model.state_id(c) for c in model.cells] == list(range(25))
    assert model.state_id([1, -1]) == model.state_id((1, -1))


def test_sparse_map_iteration_consistency(pendulum_scenario):
    # walking the transitions state-major equals querying every
    # (state, input) pair directly
    _, _, model = pendulum_scenario
    by_state = sorted(iter_transitions(model))
    by_pair = sorted(
        (sid, dst, uid)
        for sid in range(model.n_states)
        for uid in range(model.n_inputs)
        for dst in model.successor_ids(sid, uid))
    assert by_state == by_pair


def _same_model(a, b) -> bool:
    ptr_a, targets_a = a.relation()
    ptr_b, targets_b = b.relation()
    return (a.cells == b.cells and np.array_equal(a.inputs, b.inputs)
            and np.array_equal(a.pair_ptr, b.pair_ptr)
            and np.array_equal(a.pair_input, b.pair_input)
            and np.array_equal(ptr_a, ptr_b)
            and np.array_equal(targets_a, targets_b)
            and (a.tau, a.lattice.shared_eta, a.mu, a.lipschitz)
            == (b.tau, b.lattice.shared_eta, b.mu, b.lipschitz)
            and a.lattice == b.lattice)


def test_chunked_paths_match_default_run(pendulum_scenario, tmp_path,
                                         monkeypatch):
    # one transition per chunk, and blocks of a few characters or cut right
    # at the start of the transitions or of the input and state tables
    pendulum, lattice, _ = pendulum_scenario
    for (sys_, lattice), samples in (((pendulum, lattice), 51),
                                     (_cube(), 3)):
        cfg = sq.InputApproxConfig(0.002, samples)
        default = sq.build_abstraction(sys_, lattice, cfg)
        sq.save_abstraction(default, tmp_path / "default.abs")
        loaded = sq.load_abstraction(tmp_path / "default.abs")
        text = (tmp_path / "default.abs").read_text()
        body = len("".join(text.splitlines(True)[:3]))  # after the header
        tail = text.index("\ninput ") + 1
        with monkeypatch.context() as patch:
            patch.setattr(abstraction, "_CHUNK", 1)
            chunked = sq.build_abstraction(sys_, lattice, cfg)
            for got, want in zip(chunked.relation(), default.relation()):
                assert np.array_equal(got, want)
            sq.save_abstraction(chunked, tmp_path / "chunked.abs")
            assert (tmp_path / "chunked.abs").read_bytes() == \
                (tmp_path / "default.abs").read_bytes()
            assert list(iter_transitions(chunked)) == \
                list(iter_transitions(default))
            for block in (1, 7, body, tail - 1, tail, tail + 1):
                patch.setattr(abstraction, "_BLOCK", block)
                assert _same_model(
                    sq.load_abstraction(tmp_path / "default.abs"), loaded)
        assert list(iter_transitions(loaded)) == \
            list(iter_transitions(default))


def _load_outcome(path):
    """The loaded model, or the message of the ValueError it raised."""
    try:
        return sq.load_abstraction(path)
    except ValueError as exc:
        return str(exc)


def test_model_file_fuzz(tmp_path, monkeypatch):
    # every mutation either loads or names the file (and the line where one
    # is at fault), alike at the default and at a tiny block size.  Outside
    # the transitions only a new input value, or a line left as it was,
    # loads: any other change to a header or table line is refused at that
    # line, a repeated one at its copy, and a deleted last input or state
    # line where the tables end too early.  The tables are checked before
    # the transitions, and they start at the first "input " line
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    original = sq.load_abstraction(path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines))  # no newline after the last line
    assert _same_model(sq.load_abstraction(path), original)
    body = range(3, lines.index("input 0 -1.0"))
    inputs = range(body.stop, lines.index("state 0 -3"))
    for k, name, mutated in line_mutations(lines):
        path.write_text("\n".join(mutated) + "\n")
        outcomes = [_load_outcome(path)]
        with monkeypatch.context() as patch:
            patch.setattr(abstraction, "_BLOCK", 5)
            outcomes.append(_load_outcome(path))
        got, tiny = outcomes
        if k in body:
            at = None if name in ("delete", "duplicate", "swap") else k + 1
        elif name == "delete" and k in (inputs[-1], len(lines) - 1):
            at = None
        elif k == inputs[0] and name in ("blank", "swap", "append"):
            # the tables start at the next line, whose input is the first
            # one, or is one wider than the first
            at = k + 2
        else:
            at = k + 2 if name == "duplicate" else k + 1
        if isinstance(got, str):
            assert got == tiny and got.startswith(f"{path}:"), (k, name)
            if at:
                assert got.startswith(f"{path}:{at}: "), (k, name, got)
        else:
            assert _same_model(got, tiny), (k, name)
            assert (at is None or mutated == lines
                    or k in inputs and name in MUTATED_NUMBERS), (k, name)
            if k in body and name == "duplicate":
                assert _same_model(got, original)


# spellings of a transition line (bytes, without its newline) that the
# grammar refuses: three ids of decimal digits, single spaces, a "\n" end
TRANSITION_FAULTS = {
    "tab": lambda line: line.replace(b" ", b"\t", 1),
    "cr_lf": lambda line: line + b"\r",
    "double_space": lambda line: line.replace(b" ", b"  ", 1),
    "trailing_space": lambda line: line + b" ",
    "plus": lambda line: b"+" + line,
    "minus": lambda line: line.replace(b" ", b" -", 1),
    # the same id, 19 digits wide
    "digits_19": lambda line: b"%019d%s" % (int(line.split()[0]),
                                            line[line.index(b" "):]),
    "non_ascii": lambda line: line + "é".encode(),
    # starts like a state line, so it is read as a transition line
    "letter": lambda line: b"s" + line,
    "not_utf8": lambda line: line + b"\xff",
}


@pytest.mark.parametrize("fault", sorted(TRANSITION_FAULTS))
def test_model_file_transition_grammar(tmp_path, monkeypatch, fault):
    # a faulty transition line is refused at its own line, the second or the
    # last, at the default block size, a tiny one, and one whose first
    # block ends inside the last transition line
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    original = sq.load_abstraction(path)
    lines = path.read_bytes().splitlines(True)
    end = lines.index(b"input 0 -1.0\n")
    inside_last = len(b"".join(lines[3:end - 1])) + 3
    blocks = (abstraction._BLOCK, 5, inside_last)
    for block in blocks:
        monkeypatch.setattr(abstraction, "_BLOCK", block)
        assert _same_model(sq.load_abstraction(path), original)
    for k in (4, end - 1):
        line = TRANSITION_FAULTS[fault](lines[k][:-1])
        path.write_bytes(b"".join(lines[:k] + [line + b"\n"] + lines[k + 1:]))
        for block in blocks:
            monkeypatch.setattr(abstraction, "_BLOCK", block)
            with pytest.raises(ValueError) as info:
                sq.load_abstraction(path)
            assert str(info.value) == (f"{path}:{k + 1}: malformed line "
                                       f"{line.decode(errors='replace')!r}")


def test_model_load_memory_is_the_model_plus_one_block(tmp_path,
                                                      monkeypatch):
    # pendulum_fine's model (177,001 transitions): besides the arrays the
    # model keeps, a load holds one block's temporaries (at most about 24
    # bytes per byte of the block) and one chunk's of keys
    cfg = parse_config(os.path.join(os.path.dirname(os.path.dirname(
        __file__)), "bench", "scenarios", "pendulum_fine.cfg"))
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        cfg.build_system(), cfg.lattice, cfg.approx_config()), path)
    sq.load_abstraction(path)  # imports and caches
    for block in (abstraction._BLOCK, 1 << 12):
        monkeypatch.setattr(abstraction, "_BLOCK", block)
        tracemalloc.start()
        try:
            model = sq.load_abstraction(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert model.transition_count() == 177_001
        stored = sum(part.nbytes for part in (
            model.pair_ptr, model.pair_state, model.pair_input, model.inputs,
            *model.relation()))
        allowance = 24 * (block + abstraction._CHUNK)
        assert peak <= stored + allowance, (block, peak - stored)


# a header line out of the writer's shape is refused with this message
SHAPE = "expected {shape!r}, got {line!r}"


@pytest.mark.parametrize("at, old, new, message", [
    # a field out of the writer's shape; each id names the fault
    pytest.param(3, " #L 1.0", " #L 1.0 #Lx 9", SHAPE,
                 id="3- #L 1.0- #L 1.0 #Lx 9-unknown header key '#Lx'"),
    pytest.param(2, " hi=1.3", " hi=1.3 foo=1", SHAPE,
                 id="2- hi=1.3- hi=1.3 foo=1-unknown #lattice field 'foo=1'"),
    pytest.param(2, " hi=1.3", " hi=1.3 eta", SHAPE,
                 id="2- hi=1.3- hi=1.3 eta-unknown #lattice field 'eta'"),
    pytest.param(2, " hi=1.3", "", SHAPE,
                 id="2- hi=1.3--the #lattice line lacks 'hi'"),
    pytest.param(2, " hi=1.3", " hi=1.3 hi=1.3", SHAPE,
                 id="2- hi=1.3- hi=1.3 hi=1.3-repeated #lattice field 'hi'"),
    (3, "#tau 0.3", "#tau abc", "#tau is not a finite number: 'abc'"),
    (3, "#L 1.0", "#L nan", "#L is not a finite number: 'nan'"),
    (2, "eta=0.25", "eta=abc", "eta is not a finite number: 'abc'"),
    (2, "lo=-0.8", "lo=-0.8,inf", "lo is not a finite number: 'inf'"),
    (2, "eta=0.25", "eta=1.5", "eta must lie in (0, 1)"),
    (3, "#eta 0.25", "#eta 0.5", "#eta 0.5 differs from the #lattice eta 0.25"),
    # the values that the builders refuse
    (3, "#tau 0.3", "#tau -0.2", "#tau must be positive, got -0.2"),
    (3, "#tau 0.3", "#tau 0", "#tau must be positive, got 0.0"),
    (3, "#mu 0.002", "#mu 7", "#mu must lie in (0, 1), got 7.0"),
    (3, "#mu 0.002", "#mu 0", "#mu must lie in (0, 1), got 0.0"),
    (3, "#mu 0.002", "#mu 1", "#mu must lie in (0, 1), got 1.0"),
    (3, "#L 1.0", "#L 0", "#L must be positive, got 0.0"),
    (3, "#L 1.0", "#L -6", "#L must be positive, got -6.0"),
    (2, "value_anchored", "bogus", "'bogus' is not a valid QuantizerVariant"),
    (1, "#version 1", "#version 2", "unsupported abstraction format '2'"),
    # the input table's values are finite too
    (44, "-1.0", "nan", "malformed line 'input 0 nan'"),
    (45, "1.0", "inf", "malformed line 'input 1 inf'"),
    (45, "1.0", "-inf", "malformed line 'input 1 -inf'"),
])
def test_model_file_header_checked_at_its_line(tmp_path, at, old, new,
                                               message):
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    lines = path.read_text().splitlines(True)
    assert old in lines[at - 1]
    lines[at - 1] = lines[at - 1].replace(old, new)
    path.write_text("".join(lines))
    with pytest.raises(ValueError) as info:
        sq.load_abstraction(path)
    if message == SHAPE:
        message = SHAPE.format(shape=abstraction._HEADER[at - 1],
                               line=lines[at - 1].rstrip("\n"))
    assert str(info.value).startswith(f"{path}:{at}: {message}")


PARAMS = "#tau ... #eta ... #mu ... #L ..."
LATTICE = "#lattice variant=... eta=... scale=... lo=... hi=..."


@pytest.mark.parametrize("edit, message", [
    (lambda h: [h[0], h[1], h[2] + " #tau 0.7"],
     f":3: expected {PARAMS!r}, got '#tau 0.3 #eta 0.25 #mu 0.002 #L 1.0 "
     "#tau 0.7'"),
    (lambda h: [h[0], h[1], h[2], "#L 2.0"], ":4: malformed line '#L 2.0'"),
    (lambda h: [h[0], h[1], h[1].replace("eta=0.25", "eta=0.5"), h[2]],
     f":3: expected {PARAMS!r}, got '#lattice variant=value_anchored "
     "eta=0.5 scale=0.2 lo=-0.8 hi=1.3'"),
    (lambda h: [h[0], h[0], h[1], h[2]],
     f":2: expected {LATTICE!r}, got '#version 1'"),
    (lambda h: [h[0], h[2]],
     f":2: expected {LATTICE!r}, got '#tau 0.3 #eta 0.25 #mu 0.002 #L 1.0'"),
], ids=["tau", "L_own_line", "lattice", "version", "no_lattice"])
def test_model_file_header_keys_appear_once(tmp_path, edit, message):
    # a repeated key or line is rejected at the line that repeats it, not
    # read with the last value winning, and no header line may be left out
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    lines = path.read_text().splitlines()
    assert lines[2].startswith("#tau ") and " #L " in lines[2]
    path.write_text("\n".join(edit(lines[:3]) + lines[3:]) + "\n")
    with pytest.raises(ValueError) as info:
        sq.load_abstraction(path)
    assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize("edit, message", [
    (lambda t: [t[0], t[1], "state 2 5", *t[3:]],
     ":48: state 2 5 is not cell 2 of the #lattice"),
    (lambda t: [t[0], t[1], "state 2 0", "state 3 -1", *t[4:]],
     ":48: state 2 0 is not cell 2 of the #lattice"),
    (lambda t: [*t, "state 8 5"], ":54: state 8 5 is not cell 8 of the "
     "#lattice"),
    (lambda t: [*t[:-1], "state 7 4,0"],
     ":53: state 7 4,0 is not cell 7 of the #lattice"),
    (lambda t: t[:-1], ": 7 states where the #lattice has 8 cells"),
    (lambda t: [t[0], t[1], "state 2 -1,,0", *t[3:]],
     ":48: malformed line 'state 2 -1,,0'"),
    (lambda t: [t[0], t[1], "state 2 -1,", *t[3:]],
     ":48: malformed line 'state 2 -1,'"),
    (lambda t: [t[0], t[1], "state 2 ,-1", *t[3:]],
     ":48: malformed line 'state 2 ,-1'"),
], ids=["off_lattice", "swapped", "extra", "long", "missing", "empty_middle",
        "empty_last", "empty_first"])
def test_model_file_states_are_the_lattice_cells(tmp_path, edit, message):
    # the state lines are the #lattice line's cells in order, checked as
    # they are read, each spelled with no empty level
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    lines = path.read_text().splitlines()
    assert lines[45:] == [f"state {i} {m}" for i, m in enumerate(range(-3, 5))]
    path.write_text("\n".join(lines[:45] + edit(lines[45:])) + "\n")
    with pytest.raises(ValueError) as info:
        sq.load_abstraction(path)
    assert str(info.value) == f"{path}{message}"


@pytest.mark.parametrize("end", ["\n", ""], ids=["newline", "no_newline"])
def test_model_file_without_tables_is_refused(tmp_path, end):
    # a file cut after its transition lines: the last line counts as a
    # transition line with or without its newline, so no table line is
    # misread and the missing states are reported
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    lines = path.read_text().splitlines()
    assert lines[43].startswith("input 0 ")
    path.write_text("\n".join(lines[:43]) + end)
    with pytest.raises(ValueError) as info:
        sq.load_abstraction(path)
    assert str(info.value) == (f"{path}: 0 states where the #lattice has "
                               "8 cells")


def test_model_file_header_keys_default_when_missing(tmp_path):
    # no header key takes a default when missing: a parameter line without
    # one of its keys, or no parameter line at all, is refused at line 3
    # rather than loaded with a value the file does not give
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    lines = path.read_text().splitlines()
    params = lines[2]
    assert params == "#tau 0.3 #eta 0.25 #mu 0.002 #L 1.0"
    cases = [params.replace(f"{key} {value} ", "")
             if key != "#L" else params.removesuffix(" #L 1.0")
             for key, value in (("#tau", 0.3), ("#eta", 0.25),
                                ("#mu", 0.002), ("#L", 1.0))]
    cases += ["#tau 0.3", ""]
    for line in cases:
        path.write_text("\n".join(lines[:2] + [line] + lines[3:]) + "\n")
        with pytest.raises(ValueError) as info:
            sq.load_abstraction(path)
        assert str(info.value) == \
            f"{path}:3: expected {PARAMS!r}, got {line!r}", line
    path.write_text("\n".join(lines[:2] + lines[3:]) + "\n")
    with pytest.raises(ValueError) as info:
        sq.load_abstraction(path)
    assert str(info.value) == f"{path}:3: expected {PARAMS!r}, got '0 1 1'"


def test_model_file_in_another_shape_is_refused(tmp_path):
    # the loader reads only what the writer writes: a reordered, repeated
    # or unknown header key, a lattice field out of its place, a fourth
    # header line, a blank line or a table line out of order is refused at
    # its line
    sys_, lattice = _line()
    path = tmp_path / "m.abs"
    sq.save_abstraction(sq.build_abstraction(
        sys_, lattice, sq.InputApproxConfig(0.002, 2)), path)
    lines = path.read_text().splitlines()
    assert lines[:3] == [
        "#version 1",
        "#lattice variant=value_anchored eta=0.25 scale=0.2 lo=-0.8 hi=1.3",
        "#tau 0.3 #eta 0.25 #mu 0.002 #L 1.0"]
    assert lines[43:46] == ["input 0 -1.0", "input 1 1.0", "state 0 -3"]
    lat = lines[1]
    cases = [
        (2, "#eta 0.25 #tau 0.3 #mu 0.002 #L 1.0"),
        (2, "#tau 0.3 #eta 0.25 #L 1.0 #mu 0.002"),
        (2, "#tau 0.3 #tau 0.3 #mu 0.002 #L 1.0"),
        (2, "#tau 0.3 #eta 0.25 #mu 0.002 #Lx 1.0"),
        (2, ""),
        (1, lat.replace("variant=value_anchored eta=0.25",
                        "eta=0.25 variant=value_anchored")),
        (1, lat.replace("#lattice", "#lattice ", 1).replace("eta=", "eta ")),
        (0, "#version"),
        (0, "#version 1 1"),
        (0, "version 1"),
    ]
    for k, line in cases:
        path.write_text("\n".join(lines[:k] + [line] + lines[k + 1:]) + "\n")
        with pytest.raises(ValueError) as info:
            sq.load_abstraction(path)
        shape = abstraction._HEADER[k]
        assert str(info.value) == \
            f"{path}:{k + 1}: expected {shape!r}, got {line!r}", line
    # a fourth header line
    path.write_text("\n".join(lines[:3] + ["#mu 0.5"] + lines[3:]) + "\n")
    with pytest.raises(ValueError) as info:
        sq.load_abstraction(path)
    assert str(info.value) == f"{path}:4: malformed line '#mu 0.5'"
    # a blank line or a line out of order in the tables
    for edit, message in (
            (lines[:44] + [""] + lines[44:], ":45: malformed line ''"),
            (lines + [""], ":54: malformed line ''"),
            (lines + ["input 2 0.5"], ":54: malformed line 'input 2 0.5'"),
            (lines[:43] + [lines[44], lines[43]] + lines[45:],
             ":44: malformed line 'input 1 1.0'"),
            (lines[:45] + [lines[46], lines[45]] + lines[47:],
             ":46: malformed line 'state 1 -2'"),
            (lines[:44] + ["input 1 1.0 2.0"] + lines[45:],
             ":45: malformed line 'input 1 1.0 2.0'")):
        path.write_text("\n".join(edit) + "\n")
        with pytest.raises(ValueError) as info:
            sq.load_abstraction(path)
        assert str(info.value) == f"{path}{message}"


def test_loaded_model_lattice_equals_the_building_one(pendulum_scenario,
                                                      tmp_path):
    _, lattice, model = pendulum_scenario
    sq.save_abstraction(model, tmp_path / "m.abs")
    loaded = sq.load_abstraction(tmp_path / "m.abs").lattice
    assert loaded is not lattice
    assert loaded == lattice and hash(loaded) == hash(lattice)
