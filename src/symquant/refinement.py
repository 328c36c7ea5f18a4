"""Quantizer-induced refinement checks and abstract safe sets.

The relation between concrete states and abstract cells is the quantizer
itself, :meth:`LogLattice.quantize`: a state is related to exactly the cell
containing it.  Under that relation the symbolic model refines the sampled
system, which makes any controller synthesized on the model valid for the
concrete system once composed with the quantizer.

The concrete state set is uncountable, so the refinement conditions are
checked here by dense seeded sampling rather than proved: samples are drawn
uniformly per cell (avoiding volume bias toward large outer cells), pushed
through one sampling period, and their quantized successors are required to
lie in the stored abstract successor sets.  A violation is a regression
witness (it indicates an integrator or growth-bound breach) and is recorded
with everything needed to replay it.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .abstraction import SymbolicModel
from .dynamics import SampledSystem, successor_many
from .errors import ConfigError
from .quantizer import format_cell

__all__ = [
    "RefinementWitness",
    "RefinementReport",
    "check_feedback_refinement",
    "AbstractSafeSet",
    "abstract_safe_set",
]

logger = logging.getLogger(__name__)

_CHUNK = 1 << 11  # samples integrated, quantized and tested at once


@dataclass(frozen=True, eq=False)
class RefinementWitness:
    """One replayable containment failure."""

    x: np.ndarray                      # sampled concrete state
    u: np.ndarray                      # applied input vector
    source: tuple[int, ...]            # cell the state was drawn from
    input_index: int
    observed: tuple[int, ...] | None   # successor's cell, None if it left bounds
    expected: tuple[tuple[int, ...], ...]

    def format_line(self) -> str:
        obs = format_cell(self.observed) if self.observed is not None else "out"
        exp = ";".join(format_cell(c) for c in self.expected)
        return " ".join([
            " ".join(repr(float(v)) for v in self.x),
            " ".join(repr(float(v)) for v in self.u),
            obs, exp,
        ])


@dataclass
class RefinementReport:
    samples_tested: int
    violations: list[RefinementWitness] = field(default_factory=list)
    condition1_failures: list[tuple[tuple[int, ...], int]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.condition1_failures

    def summary_lines(self) -> list[str]:
        lines = [
            f"samples tested: {self.samples_tested}",
            f"containment violations: {len(self.violations)}",
            f"enabled-input box failures: {len(self.condition1_failures)}",
            "result: " + ("PASS" if self.passed else "FAIL"),
        ]
        return lines

    def write_summary(self, path):
        with open(path, "w") as fh:
            fh.write("\n".join(self.summary_lines()) + "\n")

    def write_violations(self, path):
        with open(path, "w") as fh:
            for witness in self.violations:
                fh.write(witness.format_line() + "\n")


def check_feedback_refinement(model: SymbolicModel, sys: SampledSystem,
                              sample_count: int, seed: int) -> RefinementReport:
    """Sample-based refinement check of a model against its system.

    Draws ``sample_count`` pairs (x uniform in a uniformly chosen non-blocking
    cell, input uniform over the cell's enabled inputs), integrates one
    period, and records a violation whenever the quantized successor is not
    among the stored abstract successors (or leaves the bounds box).  Also
    asserts that every applied input lies in the input box.  Deterministic
    given the seed; violations are sorted before they are returned.  All
    draws come first; integration, quantization and membership then run on
    ``_CHUNK`` samples at a time, so only the draws grow with the count.
    """
    for name, value in (("sample_count", sample_count), ("seed", seed)):
        if value < 0:
            raise ValueError(f"{name} must be non-negative, got {value!r}")
    if model.tau != sys.tau or model.lipschitz != sys.lipschitz:
        raise ConfigError(
            f"model built for tau={model.tau}, L={model.lipschitz}; "
            f"system has tau={sys.tau}, L={sys.lipschitz}")
    if sys.dim_x != model.lattice.dim:
        raise ConfigError("system and lattice dimensions differ")

    report = RefinementReport(samples_tested=0)
    if sample_count == 0:
        logger.warning("refinement check invoked with zero samples; "
                       "vacuously passing")
        return report

    lattice = model.lattice
    per_state = np.diff(model.pair_ptr)  # enabled inputs per state
    nonblocking = np.flatnonzero(per_state)
    if not nonblocking.size:
        logger.warning("every cell is blocking; nothing to sample")
        return report
    ptr, targets = model.relation()

    rng = np.random.default_rng(seed)
    _, box_lo, box_hi = lattice.geometry()  # state ids are lattice cell ids
    sids = nonblocking[rng.integers(len(nonblocking), size=sample_count)]
    xs = rng.uniform(box_lo[sids], box_hi[sids])
    # one draw per sample, in sample order, as a loop of scalar draws would
    pairs = model.pair_ptr[sids] + rng.integers(per_state[sids])
    in_lo, in_hi = np.array(sys.input_lo), np.array(sys.input_hi)
    violations, failures = report.violations, report.condition1_failures
    for a in range(0, sample_count, _CHUNK):
        s, p, x = sids[a:a + _CHUNK], pairs[a:a + _CHUNK], xs[a:a + _CHUNK]
        uids = model.pair_input[p]
        us = model.inputs[uids]
        out = ~((us >= in_lo) & (us <= in_hi)).all(axis=1)
        failures.extend((model.cells[sid], uid) for sid, uid
                        in zip(s[out].tolist(), uids[out].tolist()))
        succ = successor_many(sys, x, us)
        inside = lattice.contains_many(succ)
        levels = lattice.quantize_many(np.where(inside[:, None], succ, 0.0))
        # bisection for the last target not above the observed cell id
        # inside each sample's successor set, which ascends and is not empty
        want = lattice.cell_ids(levels)
        first, size = ptr[p], ptr[p + 1] - ptr[p]
        while (size > 1).any():
            half = size // 2
            first += half * (targets[first + half] <= want)
            size -= half
        for k in np.flatnonzero(~(inside & (targets[first] == want))):
            expected = targets[ptr[p[k]]:ptr[p[k] + 1]]
            violations.append(RefinementWitness(
                x=x[k].copy(), u=us[k].copy(), source=model.cells[s[k]],
                input_index=int(uids[k]),
                observed=tuple(levels[k].tolist()) if inside[k] else None,
                expected=tuple(model.cells[t] for t in expected)))

    violations.sort(key=lambda w: (w.source, w.input_index, tuple(w.x)))
    report.samples_tested = sample_count
    return report


@dataclass(frozen=True)
class AbstractSafeSet:
    """Cells entirely inside a concrete safe box, plus their enabled inputs."""

    cells: tuple[tuple[int, ...], ...]
    inputs: tuple[int, ...]

    def __contains__(self, cell) -> bool:
        return tuple(cell) in self._cell_set

    def __post_init__(self):
        object.__setattr__(self, "_cell_set", frozenset(self.cells))


def abstract_safe_set(safe_lo, safe_hi,
                      model: SymbolicModel) -> AbstractSafeSet:
    """Under-approximate a concrete safe box by whole cells of the model's
    lattice.

    A cell qualifies only when its closure is contained in the box, so every
    concrete state related to a qualifying cell is safe.  The input component
    is the union of enabled inputs over the qualifying cells.  An empty
    result is legal.
    """
    lattice = model.lattice
    safe_lo = np.atleast_1d(np.asarray(safe_lo, float))
    safe_hi = np.atleast_1d(np.asarray(safe_hi, float))
    if safe_lo.shape != (lattice.dim,) or safe_hi.shape != (lattice.dim,):
        raise ValueError("safe box dimension does not match the lattice")
    _, lo, hi = lattice.geometry()  # state ids are lattice cell ids
    inside = (lo >= safe_lo).all(axis=1) & (hi <= safe_hi).all(axis=1)
    return AbstractSafeSet(
        cells=tuple(model.cells[sid] for sid in np.flatnonzero(inside)),
        inputs=tuple(np.flatnonzero(np.bincount(
            model.pair_input[inside[model.pair_state]],
            minlength=model.n_inputs)).tolist()))
