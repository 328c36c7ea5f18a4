"""Sampled refinement checking and abstract safe sets."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

import symquant as sq
from symquant import refinement
from symquant.abstraction import SymbolicModel
from symquant.errors import ConfigError
from conftest import contains


def test_relate_is_vector_quantize():
    lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                        "value_anchored")
    assert lattice.quantize([0.45, 0.1]) == (1, 0)


def test_relate_centers_and_single_valuedness(pendulum_scenario):
    _, lattice, _ = pendulum_scenario
    for cell in lattice.enumerate_cells():
        assert lattice.quantize(lattice.center(cell)) == cell
    rng = np.random.default_rng(11)
    boxes = {c: lattice.cell_box(c) for c in lattice.enumerate_cells()}
    for x in rng.uniform(-1, 1, size=(300, 2)):
        cell = lattice.quantize(x)
        owners = [c for c, b in boxes.items() if contains(b, x)]
        assert owners == [cell]


def test_zero_samples_vacuous_pass(pendulum_scenario, caplog):
    sys_, _, model = pendulum_scenario
    with caplog.at_level("WARNING"):
        report = sq.check_feedback_refinement(model, sys_, 0, seed=0)
    assert report.samples_tested == 0 and report.passed
    assert any("zero samples" in message for message in caplog.messages)


def test_every_cell_blocking_samples_nothing(pendulum_scenario, caplog):
    sys_, lattice, real = pendulum_scenario
    model = SymbolicModel.from_tables(
        lattice, real.inputs, {}, tau=real.tau, mu=real.mu,
        lipschitz=real.lipschitz)
    with caplog.at_level("WARNING"):
        report = sq.check_feedback_refinement(model, sys_, 100, seed=0)
    assert report.samples_tested == 0 and report.passed
    assert "every cell is blocking; nothing to sample" in caplog.messages


def test_check_argument_checks(pendulum_scenario):
    sys_, _, real = pendulum_scenario
    line = sq.LogLattice.from_params(0.2, [0.4], [-1], [1])
    one_axis = SymbolicModel.from_tables(line, real.inputs, {}, tau=real.tau,
                                         mu=real.mu, lipschitz=real.lipschitz)
    with pytest.raises(ConfigError, match="dimensions differ"):
        sq.check_feedback_refinement(one_axis, sys_, 10, seed=0)
    with pytest.raises(ValueError, match="safe box dimension"):
        sq.abstract_safe_set([-1], [1], real)


def test_pendulum_model_refines(pendulum_scenario):
    sys_, _, model = pendulum_scenario
    for seed in (0, 1, 2):
        report = sq.check_feedback_refinement(model, sys_, 2000, seed=seed)
        assert report.samples_tested == 2000
        assert report.passed, report.summary_lines()


def _expanding():
    """dx/dt = x on [-1, 1], the system and its paper-radius model."""
    sys_ = sq.affine_system([[1.0]], [[0.0]], (-1.0,), (1.0,), tau=0.2,
                            name="expanding")
    lattice = sq.LogLattice.from_params(0.5, [0.4], [-1], [1],
                                        "value_anchored")
    return sys_, sq.build_abstraction(sys_, lattice,
                                      sq.InputApproxConfig(0.002, 3))


def test_paper_radius_misses_expanding_outer_cells():
    # a known gap of the paper radius theta * e^(L tau) * |q| (clipped
    # outer cells): on dx/dt = x the outer cells span 0.27 <= |x| <= 1
    # around centers at |q| = 0.4, so the far points' successors leave the
    # box around the center's successor; the counts pin the paper boxes on
    # this adversarial system
    sys_, model = _expanding()
    report = sq.check_feedback_refinement(model, sys_, 5000, 0)
    assert not report.condition1_failures
    assert len(report.violations) == 1284
    assert {(w.source, w.input_index) for w in report.violations} == \
        {((-1,), 0), ((1,), 0)}


def test_determinism_given_seed(pendulum_scenario):
    sys_, _, model = pendulum_scenario
    a = sq.check_feedback_refinement(model, sys_, 500, seed=42)
    b = sq.check_feedback_refinement(model, sys_, 500, seed=42)
    assert a.samples_tested == b.samples_tested
    assert len(a.violations) == len(b.violations)


def test_detects_removed_successor(pendulum_scenario):
    sys_, lattice, real = pendulum_scenario
    # corrupt one cell: point every enabled input of the deadzone cell at a
    # single far-away successor
    succ = {(s, u): real.successor_ids(s, u)
            for s in range(real.n_states) for u in real.enabled_ids(s)}
    sid = real.state_id((0, 0))
    wrong = (real.state_id((2, 2)),)
    for uid in real.enabled_ids(sid):
        succ[(sid, uid)] = wrong
    model = SymbolicModel.from_tables(
        lattice, real.inputs, succ, tau=real.tau, mu=real.mu,
        lipschitz=real.lipschitz, system=sys_)
    report = sq.check_feedback_refinement(model, sys_, 3000, seed=0)
    assert not report.passed
    assert all(w.source == (0, 0) for w in report.violations)
    witness = report.violations[0]
    # the witness replays: integrating it reproduces the mismatch
    replayed = sq.successor(sys_, witness.x, witness.u)
    assert lattice.quantize(replayed) == witness.observed
    assert witness.observed not in witness.expected


def _key_search_reference(model, sys_, sample_count, seed):
    """Violations by the search the per-pair bisection replaced: the check's
    draws, then one sorted key per (pair, target) and a global
    searchsorted of each sample's (pair, observed cell) key."""
    lattice = model.lattice
    ptr, targets = model.relation()
    enabled = np.flatnonzero(ptr[1:] > ptr[:-1])
    per_state = np.bincount(model.pair_state[enabled],
                            minlength=model.n_states)
    nonblocking = np.flatnonzero(per_state)
    first_enabled = np.cumsum(per_state) - per_state
    rng = np.random.default_rng(seed)
    _, box_lo, box_hi = lattice.geometry()
    sids = nonblocking[rng.integers(len(nonblocking), size=sample_count)]
    xs = rng.uniform(box_lo[sids], box_hi[sids])
    pairs = enabled[first_enabled[sids] + rng.integers(per_state[sids])]
    succ = sq.successor_many(sys_, xs, model.inputs[model.pair_input[pairs]])
    inside = lattice.contains_many(succ)
    levels = lattice.quantize_many(np.where(inside[:, None], succ, 0.0))
    n = model.n_states
    keys = np.repeat(np.arange(len(ptr) - 1), np.diff(ptr)) * n + targets
    query = pairs * n + lattice.cell_ids(levels)
    found = np.searchsorted(keys, query)
    member = inside & (keys[np.minimum(found, len(keys) - 1)] == query)
    return sorted(
        (model.cells[sids[k]], int(model.pair_input[pairs[k]]),
         tuple(xs[k]), tuple(levels[k].tolist()) if inside[k] else None,
         tuple(model.cells[t] for t in targets[ptr[pairs[k]]:
                                               ptr[pairs[k] + 1]]))
        for k in np.flatnonzero(~member))


def test_bisection_matches_key_search_on_removed_successor(
        pendulum_scenario):
    # drop the middle successor of every set of two cells, so the observed
    # cell is missing from sets of several sizes and at several positions
    sys_, lattice, real = pendulum_scenario
    succ = {(s, u): real.successor_ids(s, u)
            for s in range(real.n_states) for u in real.enabled_ids(s)}
    for cell in ((0, 0), (1, 1)):
        sid = real.state_id(cell)
        for uid in real.enabled_ids(sid):
            dsts = succ[(sid, uid)]
            if len(dsts) > 1:
                succ[(sid, uid)] = dsts[:len(dsts) // 2] + \
                    dsts[len(dsts) // 2 + 1:]
    model = SymbolicModel.from_tables(
        lattice, real.inputs, succ, tau=real.tau, mu=real.mu,
        lipschitz=real.lipschitz, system=sys_)
    for seed in (0, 5):
        report = sq.check_feedback_refinement(model, sys_, 3000, seed=seed)
        got = [(w.source, w.input_index, tuple(w.x), w.observed, w.expected)
               for w in report.violations]
        assert got and got == _key_search_reference(model, sys_, 3000, seed)


def _loop_reference(model, sys_, sample_count, seed):
    """The per-sample loop the vectorized check replaced: the same draws in
    the same order, then one quantize and membership test per sample."""
    lattice = model.lattice
    nonblocking = [sid for sid in range(model.n_states)
                   if model.enabled_ids(sid)]
    rng = np.random.default_rng(seed)
    boxes = [lattice.cell_box(model.cells[sid]) for sid in nonblocking]
    picks = rng.integers(len(nonblocking), size=sample_count)
    xs = rng.uniform(np.stack([boxes[p].lo for p in picks]),
                     np.stack([boxes[p].hi for p in picks]))
    uids = []
    for k in range(sample_count):
        enabled = model.enabled_ids(nonblocking[picks[k]])
        uids.append(enabled[rng.integers(len(enabled))])
    succ = sq.successor_many(sys_, xs, model.inputs[uids])
    violations = []
    for k in range(sample_count):
        cell = model.cells[nonblocking[picks[k]]]
        try:
            observed = lattice.quantize(succ[k])
        except ValueError:
            observed = None
        expected = model.successors(cell, uids[k])
        if observed not in expected:
            violations.append((cell, uids[k], tuple(xs[k]), observed,
                               expected))
    return sorted(violations)


def test_vectorized_check_matches_loop_reference(pendulum_scenario):
    # the blocking outer cells get a self-loop under every input, so some
    # samples leave the bounds; the deadzone cell points at a far cell
    sys_, lattice, real = pendulum_scenario
    succ = {(s, u): real.successor_ids(s, u)
            for s in range(real.n_states) for u in real.enabled_ids(s)}
    for sid, cell in enumerate(real.cells):
        if not real.enabled_inputs(cell):
            succ.update({(sid, u): (sid,) for u in range(real.n_inputs)})
    zero = real.state_id((0, 0))
    for uid in real.enabled_ids(zero):
        succ[(zero, uid)] = (real.state_id((2, 2)),)
    model = SymbolicModel.from_tables(
        lattice, real.inputs, succ, tau=real.tau, mu=real.mu,
        lipschitz=real.lipschitz)
    report = sq.check_feedback_refinement(model, sys_, 3000, seed=3)
    got = [(w.source, w.input_index, tuple(w.x), w.observed, w.expected)
           for w in report.violations]
    assert got == _loop_reference(model, sys_, 3000, seed=3)
    assert any(w.observed is None for w in report.violations)
    assert any(w.source == (0, 0) for w in report.violations)


def _report_text(report):
    return (report.summary_lines(),
            [w.format_line() for w in report.violations],
            report.condition1_failures)


@pytest.mark.parametrize("case", ["expanding", "pendulum"])
def test_chunked_check_matches_one_chunk(pendulum_scenario, monkeypatch,
                                         case):
    # the pendulum model is checked against a narrower input box, so the
    # input-box failures span chunks too
    if case == "expanding":
        (sys_, model), count = _expanding(), 5000
    else:
        sys_, _, model = pendulum_scenario
        sys_, count = dataclasses.replace(sys_, input_lo=(-1.0,),
                                          input_hi=(1.0,)), 3000
    runs = []
    for chunk in (1, 7, refinement._CHUNK, count + 1):
        monkeypatch.setattr(refinement, "_CHUNK", chunk)
        runs.append(_report_text(
            sq.check_feedback_refinement(model, sys_, count, seed=0)))
    assert runs[1:] == runs[:-1]
    _, witnesses, failures = runs[0]
    assert len(witnesses if case == "expanding" else failures) > 1000


def test_check_memory_is_the_draws_plus_one_chunk(pendulum_scenario):
    # only the seeded draws (sample ids, states, pairs) are held per
    # sample; integration, quantization and the bisection run per chunk
    sys_, _, model = pendulum_scenario
    sq.check_feedback_refinement(model, sys_, 10, seed=0)  # lazy caches
    count = 200_000
    tracemalloc.start()
    try:
        report = sq.check_feedback_refinement(model, sys_, count, seed=0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak <= 80 * count + (1 << 20), peak / count


def test_detects_growth_bound_breach():
    # with a short sampling period the inflation radius on deadzone axes
    # under-covers the cell spread and the checker must surface witnesses
    sys_ = sq.pendulum_system(tau=0.05)
    lattice = sq.LogLattice.from_params(0.2, [0.4, 0.4], [-1, -1], [1, 1],
                                        "edge_anchored")
    model = sq.build_abstraction(sys_, lattice, sq.InputApproxConfig(0.002, 51))
    report = sq.check_feedback_refinement(model, sys_, 4000, seed=0)
    assert not report.passed
    assert len(report.violations) > 0


def test_report_files(pendulum_scenario, tmp_path):
    sys_, _, model = pendulum_scenario
    report = sq.check_feedback_refinement(model, sys_, 200, seed=0)
    summary = tmp_path / "report.txt"
    report.write_summary(summary)
    text = summary.read_text()
    assert "samples tested: 200" in text and "PASS" in text


def test_parameter_mismatch_rejected(pendulum_scenario):
    _, _, model = pendulum_scenario
    other = sq.pendulum_system(tau=0.1)
    with pytest.raises(ConfigError):
        sq.check_feedback_refinement(model, other, 10, seed=0)


def test_abstract_safe_set_full_box(pendulum_scenario):
    _, _, model = pendulum_scenario
    safe = sq.abstract_safe_set([-1, -1], [1, 1], model)
    assert set(safe.cells) == set(model.cells)


def test_abstract_safe_set_inside_deadzone(pendulum_scenario):
    _, _, model = pendulum_scenario
    safe = sq.abstract_safe_set([-0.3, -0.3], [0.3, 0.3], model)
    assert safe.cells == ()


def test_abstract_safe_set_partial_box(pendulum_scenario):
    _, _, model = pendulum_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    expected = {c for c in model.cells
                if abs(c[0]) <= 1 and abs(c[1]) <= 1}
    assert set(safe.cells) == expected
    assert [c for c in model.cells if c in safe] == list(safe.cells)
    assert [1, -1] in safe and (2, 0) not in safe
    # inputs are the union of enabled inputs over the kept cells
    union = set()
    for cell in safe.cells:
        union.update(model.enabled_inputs(cell))
    assert safe.inputs == tuple(sorted(union))


def test_abstract_safe_set_under_approximates(pendulum_scenario):
    _, lattice, model = pendulum_scenario
    safe = sq.abstract_safe_set([-0.7, -0.7], [0.7, 0.7], model)
    rng = np.random.default_rng(12)
    for cell in safe.cells:
        for x in lattice.sample_in_cell(cell, rng, count=50):
            assert (x >= -0.7).all() and (x <= 0.7).all()


@pytest.mark.parametrize("count, seed, name", [(-1, 0, "sample_count"),
                                               (10, -1, "seed")])
def test_refinement_check_rejects_negative_arguments(pendulum_scenario, count,
                                                     seed, name):
    sys_, _, model = pendulum_scenario
    with pytest.raises(ValueError, match=rf"^{name} must be an int of at "
                                         r"least 0, got -1$"):
        sq.check_feedback_refinement(model, sys_, count, seed)
