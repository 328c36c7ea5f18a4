"""Scenario configuration: flat key-value text with section headers.

Format, by example::

    [system]
    name = pendulum
    tau = 0.2

    [quantizer]
    variant = edge_anchored
    eta = 0.2
    scale = 0.4 0.4          # one value per state axis

Lines are ``key = value`` pairs inside ``[section]`` headers; ``#`` starts a
comment.  Two layers override the file: an environment variable named
``SYMQUANT_<SECTION>__<KEY>`` (uppercase) overrides any key, and a
command-line flag of :data:`FLAGS` (``--seed``, ``--samples``) overrides
its ``[verify]`` key and the variable; :func:`parse_config` takes the
flags' texts, and each layer's text is read and checked by its key's row
like a file value.  :data:`KEYS` holds one row per key: the
:class:`ScenarioConfig` attribute it fills, its parser, which reads the
value's grammar, its default (or :data:`REQUIRED`) and the range rule of
:mod:`symquant.quantizer` that each number it holds must keep, each number
of a list alike; the checks that relate several keys (vector lengths, box
orders, the state dimension of ``simulate.x0``, ``plan.start`` and
``plan.goals``, ``x0`` inside the state box, the plan's cells on the
lattice) follow in :func:`parse_config`.
Lines and numbers are read by :mod:`symquant.quantizer`'s one grammar: a
line ends at ``\\n``, the blanks are ASCII space and tab, and numbers are
ASCII decimal digits, no ``_``, finite reals.  Unknown sections and keys,
and a key set twice, are rejected, and every error names the file and line,
the environment variable or the flag that set the value.
"""

from __future__ import annotations

import os
from dataclasses import replace
from types import SimpleNamespace
from typing import Any, Callable, NamedTuple

from .dynamics import SampledSystem, make_system
from .errors import ConfigError
from .quantizer import (_BLANK, _COUNT, _NATURAL, _POSITIVE, _UNIT,
                        LogLattice, QuantizerVariant, _check, _fields, _int,
                        _lines, _real, _reals, format_cell, parse_cell)

__all__ = ["ScenarioConfig", "parse_config", "KEYS", "FLAGS", "REQUIRED",
           "ENV_PREFIX"]

ENV_PREFIX = "SYMQUANT_"
REQUIRED = object()


def _bool(text):
    lowered = text.strip(_BLANK).lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _variant(text):
    return QuantizerVariant(text.strip(_BLANK).lower())


def _policy(text):
    if (policy := text.strip(_BLANK)) not in ("controller", "plan"):
        raise ValueError(f"policy must be 'controller' or 'plan', got "
                         f"{policy!r}")
    return policy


def _cells(text):
    return tuple(map(parse_cell, text.split(";"))) if _fields(text) else ()


class _Key(NamedTuple):
    field: str | None  # the ScenarioConfig attribute; None: no effect
    section: str
    key: str
    parse: Callable[[str], Any]
    default: Any = None
    rule: tuple | None = None  # the range of each number it holds


KEYS = (
    _Key("system_name", "system", "name", str, "pendulum"),
    _Key("tau", "system", "tau", _real, 0.2, _POSITIVE),
    _Key("lipschitz", "system", "lipschitz", _real, None, _POSITIVE),
    _Key("integrator_steps", "system", "integrator_steps", _int, 10, _COUNT),
    _Key("input_lo", "system", "input_lo", _reals),
    _Key("input_hi", "system", "input_hi", _reals),
    _Key("variant", "quantizer", "variant", _variant,
         QuantizerVariant.VALUE_ANCHORED),
    _Key("eta", "quantizer", "eta", _real, REQUIRED, _UNIT),
    _Key("scale", "quantizer", "scale", _reals, REQUIRED, _POSITIVE),
    _Key("state_lo", "quantizer", "state_lo", _reals, REQUIRED),
    _Key("state_hi", "quantizer", "state_hi", _reals, REQUIRED),
    _Key("mu", "abstraction", "mu", _real, REQUIRED, _UNIT),
    _Key("input_samples", "abstraction", "input_samples", _int, 51, _COUNT),
    _Key(None, "abstraction", "lazy", _bool, False),
    _Key("safe_lo", "synthesis", "safe_lo", _reals),  # unset: the state box
    _Key("safe_hi", "synthesis", "safe_hi", _reals),
    _Key("seed", "verify", "seed", _int, 0, _NATURAL),
    _Key("samples", "verify", "samples", _int, 10000, _NATURAL),
    _Key("plan_start", "plan", "start", parse_cell),
    _Key("plan_goals", "plan", "goals", _cells, ()),
    _Key("plan_relaxed", "plan", "relaxed", _bool, False),
    _Key("plan_grid", "plan", "grid_resolution", _real, 0.02, _POSITIVE),
    _Key("plan_max_steps", "plan", "max_segment_steps", _int, 200, _COUNT),
    _Key("sim_x0", "simulate", "x0", _reals),
    _Key("sim_max_steps", "simulate", "max_steps", _int, 100, _NATURAL),
    _Key("sim_policy", "simulate", "policy", _policy, "controller"),
)
_BY_NAME = {(k.section, k.key): k for k in KEYS}
# the key that each environment variable and each command-line flag
# overrides, by its name: the two layers over the file, in this order
_ENV = {f"{ENV_PREFIX}{s.upper()}__{k.upper()}": (s, k) for s, k in _BY_NAME}
FLAGS = {"--seed": ("verify", "seed"), "--samples": ("verify", "samples")}


class _RawConfig:
    """The scenario's value texts, each with where it was set: its file
    line ``path:N``, or the environment variable or flag that overrides
    it.  An unknown section or key, and a key set twice in the file, raise
    at their line."""

    def __init__(self, path: str, flags):
        self.path = path
        self.values: dict[tuple[str, str], tuple[str, str]] = {}
        sections = {section for section, _ in _BY_NAME}
        section, first = "", {}
        for lineno, text in _lines(path, ConfigError):
            line = text.split("#", 1)[0].strip(_BLANK)
            if not line:
                continue
            if line.startswith("[") and line.endswith("]"):
                section = line[1:-1].strip(_BLANK).lower()
                if section not in sections:
                    raise ConfigError(
                        f"{path}:{lineno}: unknown section [{section}]")
                continue
            if "=" not in line:
                raise ConfigError(
                    f"{path}:{lineno}: expected 'key = value', got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip(_BLANK).lower()
            if (section, key) not in _BY_NAME:
                raise ConfigError(
                    f"{path}:{lineno}: unknown key [{section}] {key}")
            if (section, key) in first:
                raise ConfigError(
                    f"{path}:{lineno}: [{section}] {key} is already set at "
                    f"line {first[(section, key)]}")
            first[(section, key)] = lineno
            self.values[(section, key)] = (value.strip(_BLANK),
                                           f"{path}:{lineno}")
        for texts, layer in ((os.environ, _ENV), (flags, FLAGS)):
            for name, at in layer.items():
                if texts.get(name) is not None:
                    self.values[at] = (texts[name], name)

    def location(self, section: str, key: str) -> str:
        _, where = self.values.get((section, key), ("", self.path))
        return f"{where}: [{section}] {key}"

    def fail(self, section: str, key: str, message: str):
        raise ConfigError(f"{self.location(section, key)}: {message}")

    def parse(self, row: _Key):
        """The checked value of one key: flag, then environment, then file,
        then the row's default."""
        if (row.section, row.key) not in self.values:
            if row.default is REQUIRED:
                raise ConfigError(f"{self.path}: missing required key "
                                  f"[{row.section}] {row.key}")
            return row.default
        where = self.location(row.section, row.key)
        try:
            value = row.parse(self.values[(row.section, row.key)][0])
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"{where}: {exc}") from None
        if row.rule is not None:
            for v in value if isinstance(value, tuple) else (value,):
                _check(f"{where}: {row.key}", v, row.rule, ConfigError)
        return value


class ScenarioConfig(SimpleNamespace):
    """Validated scenario values, ``path`` plus one attribute per field of
    :data:`KEYS`, the scenario's ``lattice``, ``system_name_at`` (where
    ``[system] name`` was set), and builders for the live objects."""

    def build_system(self) -> SampledSystem:
        overrides = {name: value for name, value in (
            ("lipschitz", self.lipschitz), ("input_lo", self.input_lo),
            ("input_hi", self.input_hi)) if value is not None}
        where = self.system_name_at
        try:
            system = make_system(self.system_name)
            if system.dim_x != self.lattice.dim:
                raise ValueError(f"system dimension {system.dim_x} does not "
                                 f"match lattice dimension {self.lattice.dim}")
            where = self.path
            return replace(system, tau=self.tau,
                           integrator_steps=self.integrator_steps, **overrides)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    def build_lattice(self) -> LogLattice:
        try:
            return LogLattice.from_params(self.eta, self.scale, self.state_lo,
                                          self.state_hi, self.variant)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [quantizer]: {exc}") from None

    def approx_config(self):
        # imported here: reading a scenario loads no pipeline stage
        from .abstraction import InputApproxConfig

        return InputApproxConfig(mu=self.mu, input_samples=self.input_samples)


def parse_config(path, flags=None) -> ScenarioConfig:
    """Parse and validate a scenario file (see the module docstring).

    ``flags`` maps a flag of :data:`FLAGS`, such as ``--seed``, to its
    text, or to None where it is not given, as ``vars()`` of the command
    line's parsed arguments does; other names are not read."""
    raw = _RawConfig(str(path), flags or {})
    values = {row.field: raw.parse(row) for row in KEYS}
    del values[None]  # the keys accepted with no effect
    cfg = ScenarioConfig(path=str(path), **values,
                         system_name_at=raw.location("system", "name"))

    if cfg.input_lo is not None and cfg.input_hi is not None:
        if len(cfg.input_lo) != len(cfg.input_hi):
            raw.fail("system", "input_lo", "input_lo/input_hi lengths differ")
        if any(lo > hi for lo, hi in zip(cfg.input_lo, cfg.input_hi)):
            raw.fail("system", "input_lo", "input box is empty")
    if not len(cfg.scale) == len(cfg.state_lo) == len(cfg.state_hi):
        raw.fail("quantizer", "scale", "scale/state_lo/state_hi lengths differ")
    if any(lo >= hi for lo, hi in zip(cfg.state_lo, cfg.state_hi)):
        raw.fail("quantizer", "state_lo", "need state_lo < state_hi per axis")
    cfg.safe_lo = cfg.state_lo if cfg.safe_lo is None else cfg.safe_lo
    cfg.safe_hi = cfg.state_hi if cfg.safe_hi is None else cfg.safe_hi
    dim = len(cfg.state_lo)
    if len(cfg.safe_lo) != dim or len(cfg.safe_hi) != dim:
        raw.fail("synthesis", "safe_lo", "safe box dimension mismatch")
    if any(lo > hi for lo, hi in zip(cfg.safe_lo, cfg.safe_hi)):
        raw.fail("synthesis", "safe_lo", "safe box is empty")
    for section, key, points in (("simulate", "x0", (cfg.sim_x0,)),
                                 ("plan", "start", (cfg.plan_start,)),
                                 ("plan", "goals", cfg.plan_goals)):
        if any(p is not None and len(p) != dim for p in points):
            raw.fail(section, key, f"need {dim} components, one per state "
                                   "axis")
    lattice = cfg.lattice = cfg.build_lattice()
    if cfg.sim_x0 is not None and not lattice.contains_many([cfg.sim_x0])[0]:
        raw.fail("simulate", "x0", "x0 lies outside the state box")
    cells = [("start", cfg.plan_start)] + [("goals", c) for c in cfg.plan_goals]
    for key, cell in cells:
        if cell is not None and cell not in lattice:
            raw.fail("plan", key, f"{format_cell(cell)} is not a lattice cell")
    return cfg
