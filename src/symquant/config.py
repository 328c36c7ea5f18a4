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
comment.  Every value can be overridden by an environment variable named
``SYMQUANT_<SECTION>__<KEY>`` (uppercase).  Numeric constraints of the owning
modules are re-validated at parse time, and unknown sections and keys are
rejected, each reported with file and line.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from .abstraction import InputApproxConfig
from .dynamics import SampledSystem, make_system
from .errors import ConfigError
from .quantizer import LogLattice, QuantizerVariant, parse_cell

__all__ = ["ScenarioConfig", "parse_config", "ENV_PREFIX"]

ENV_PREFIX = "SYMQUANT_"


class _RawConfig:
    """Parsed key-value pairs with their source locations."""

    def __init__(self, path: str):
        self.path = path
        self.values: dict[tuple[str, str], tuple[str, int]] = {}
        self.headers: list[tuple[str, int]] = []
        self.read: set[tuple[str, str]] = set()
        section = ""
        with open(path) as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith("[") and line.endswith("]"):
                    section = line[1:-1].strip().lower()
                    self.headers.append((section, lineno))
                    continue
                if "=" not in line:
                    raise ConfigError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}")
                key, _, value = line.partition("=")
                self.values[(section, key.strip().lower())] = (value.strip(), lineno)

    def location(self, section: str, key: str) -> str:
        entry = self.values.get((section, key))
        if entry is None:
            return f"{self.path}: [{section}] {key}"
        return f"{self.path}:{entry[1]}: [{section}] {key}"

    def get(self, section: str, key: str, default=None):
        self.read.add((section, key))
        env = os.environ.get(f"{ENV_PREFIX}{section.upper()}__{key.upper()}")
        if env is not None:
            return env
        entry = self.values.get((section, key))
        if entry is None:
            return default
        return entry[0]

    def _parse(self, section, key, conv, default, required):
        text = self.get(section, key)
        if text is None:
            if required:
                raise ConfigError(f"{self.path}: missing required key "
                                  f"[{section}] {key}")
            return default
        try:
            return conv(text)
        except (ValueError, KeyError) as exc:
            raise ConfigError(
                f"{self.location(section, key)}: {exc}") from None

    def reject_unknown(self):
        """Raise on the first section or key that no reader asked for."""
        known = {section for section, _ in self.read}
        unknown = [(line, f"section [{name}]") for name, line in self.headers
                   if name not in known]
        unknown += [(line, f"key [{section}] {key}")
                    for (section, key), (_, line) in self.values.items()
                    if (section, key) not in self.read]
        if unknown:
            line, what = min(unknown)
            raise ConfigError(f"{self.path}:{line}: unknown {what}")

    def get_float(self, section, key, default=None, required=False):
        return self._parse(section, key, float, default, required)

    def get_int(self, section, key, default=None, required=False):
        return self._parse(section, key, int, default, required)

    def get_bool(self, section, key, default=False):
        def conv(text):
            lowered = text.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return self._parse(section, key, conv, default, False)

    def get_floats(self, section, key, default=None, required=False):
        def conv(text):
            return tuple(float(v) for v in text.replace(",", " ").split())
        return self._parse(section, key, conv, default, required)

    def get_str(self, section, key, default=None, required=False):
        return self._parse(section, key, str, default, required)


@dataclass
class ScenarioConfig:
    """Validated scenario parameters plus builders for the live objects."""

    path: str
    system_name: str
    tau: float
    lipschitz: float
    integrator_steps: int
    input_lo: tuple[float, ...] | None
    input_hi: tuple[float, ...] | None
    variant: QuantizerVariant
    eta: float
    scale: tuple[float, ...]
    state_lo: tuple[float, ...]
    state_hi: tuple[float, ...]
    mu: float
    input_samples: int
    safe_lo: tuple[float, ...]
    safe_hi: tuple[float, ...]
    seed: int
    samples: int
    plan_start: tuple[int, ...] | None
    plan_goals: tuple[tuple[int, ...], ...]
    plan_relaxed: bool
    plan_grid: float
    plan_max_steps: int
    sim_x0: tuple[float, ...] | None
    sim_max_steps: int
    sim_policy: str

    def build_system(self) -> SampledSystem:
        try:
            sys = make_system(self.system_name, tau=self.tau,
                              integrator_steps=self.integrator_steps)
        except TypeError:
            sys = make_system(self.system_name)
            sys = sys.with_settings(tau=self.tau,
                                    integrator_steps=self.integrator_steps)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: {exc}") from None
        overrides = {}
        if self.lipschitz is not None:
            overrides["lipschitz"] = self.lipschitz
        if self.input_lo is not None:
            overrides["input_lo"] = self.input_lo
        if self.input_hi is not None:
            overrides["input_hi"] = self.input_hi
        if overrides:
            sys = sys.with_settings(**overrides)
        return sys

    def build_lattice(self) -> LogLattice:
        try:
            return LogLattice.from_params(self.eta, self.scale, self.state_lo,
                                          self.state_hi, self.variant)
        except ValueError as exc:
            raise ConfigError(f"{self.path}: [quantizer]: {exc}") from None

    def approx_config(self) -> InputApproxConfig:
        return InputApproxConfig(mu=self.mu, input_samples=self.input_samples)


def parse_config(path) -> ScenarioConfig:
    """Parse and validate a scenario file (see the module docstring)."""
    raw = _RawConfig(str(path))

    system_name = raw.get_str("system", "name", default="pendulum")
    tau = raw.get_float("system", "tau", default=0.2)
    lipschitz = raw.get_float("system", "lipschitz", default=None)
    integrator_steps = raw.get_int("system", "integrator_steps", default=10)
    input_lo = raw.get_floats("system", "input_lo", default=None)
    input_hi = raw.get_floats("system", "input_hi", default=None)
    if tau <= 0:
        raise ConfigError(f"{raw.location('system', 'tau')}: tau must be positive")
    if integrator_steps < 1:
        raise ConfigError(f"{raw.location('system', 'integrator_steps')}: "
                          "need at least one substep")
    if lipschitz is not None and lipschitz <= 0:
        raise ConfigError(f"{raw.location('system', 'lipschitz')}: "
                          "lipschitz must be positive")
    if input_lo is not None and input_hi is not None:
        if len(input_lo) != len(input_hi):
            raise ConfigError(f"{raw.location('system', 'input_lo')}: "
                              "input_lo/input_hi lengths differ")
        if any(lo > hi for lo, hi in zip(input_lo, input_hi)):
            raise ConfigError(f"{raw.location('system', 'input_lo')}: "
                              "input box is empty")

    def conv_variant(text):
        return QuantizerVariant(text.strip().lower())
    variant = raw._parse("quantizer", "variant", conv_variant,
                         QuantizerVariant.VALUE_ANCHORED, False)
    eta = raw.get_float("quantizer", "eta", required=True)
    scale = raw.get_floats("quantizer", "scale", required=True)
    state_lo = raw.get_floats("quantizer", "state_lo", required=True)
    state_hi = raw.get_floats("quantizer", "state_hi", required=True)
    if not (0.0 < eta < 1.0):
        raise ConfigError(f"{raw.location('quantizer', 'eta')}: "
                          "eta must lie in (0, 1)")
    if any(s <= 0 for s in scale):
        raise ConfigError(f"{raw.location('quantizer', 'scale')}: "
                          "scales must be positive")
    if not (len(scale) == len(state_lo) == len(state_hi)):
        raise ConfigError(f"{raw.location('quantizer', 'scale')}: "
                          "scale/state_lo/state_hi lengths differ")
    if any(lo >= hi for lo, hi in zip(state_lo, state_hi)):
        raise ConfigError(f"{raw.location('quantizer', 'state_lo')}: "
                          "need state_lo < state_hi per axis")

    mu = raw.get_float("abstraction", "mu", required=True)
    input_samples = raw.get_int("abstraction", "input_samples", default=51)
    if not (0.0 < mu < 1.0):
        raise ConfigError(f"{raw.location('abstraction', 'mu')}: "
                          "mu must lie in (0, 1)")
    if input_samples < 1:
        raise ConfigError(f"{raw.location('abstraction', 'input_samples')}: "
                          "need at least one sample")

    safe_lo = raw.get_floats("synthesis", "safe_lo", default=state_lo)
    safe_hi = raw.get_floats("synthesis", "safe_hi", default=state_hi)
    if len(safe_lo) != len(state_lo) or len(safe_hi) != len(state_hi):
        raise ConfigError(f"{raw.location('synthesis', 'safe_lo')}: "
                          "safe box dimension mismatch")

    seed = raw.get_int("verify", "seed", default=0)
    samples = raw.get_int("verify", "samples", default=10000)
    if samples < 0:
        raise ConfigError(f"{raw.location('verify', 'samples')}: "
                          "samples must be nonnegative")

    # accepted with no effect, but still checked
    raw.get_bool("abstraction", "lazy")
    if (raw.get_int("run", "threads") or 1) < 1:
        raise ConfigError(f"{raw.location('run', 'threads')}: "
                          "threads must be positive")

    def conv_cells(text):
        return tuple(parse_cell(part) for part in text.split(";") if part.strip())

    plan_start = raw._parse("plan", "start", parse_cell, None, False)
    plan_goals = raw._parse("plan", "goals", conv_cells, (), False)
    plan_relaxed = raw.get_bool("plan", "relaxed", default=False)
    plan_grid = raw.get_float("plan", "grid_resolution", default=0.02)
    plan_max_steps = raw.get_int("plan", "max_segment_steps", default=200)
    if plan_grid <= 0:
        raise ConfigError(f"{raw.location('plan', 'grid_resolution')}: "
                          "grid resolution must be positive")

    sim_x0 = raw.get_floats("simulate", "x0", default=None)
    sim_max_steps = raw.get_int("simulate", "max_steps", default=100)
    sim_policy = raw.get_str("simulate", "policy", default="controller")
    if sim_max_steps < 0:
        raise ConfigError(f"{raw.location('simulate', 'max_steps')}: "
                          "max_steps must be nonnegative")
    if sim_policy not in ("controller", "plan"):
        raise ConfigError(f"{raw.location('simulate', 'policy')}: "
                          "policy must be 'controller' or 'plan'")
    raw.reject_unknown()

    return ScenarioConfig(
        path=str(path), system_name=system_name, tau=tau, lipschitz=lipschitz,
        integrator_steps=integrator_steps, input_lo=input_lo,
        input_hi=input_hi, variant=variant, eta=eta, scale=scale,
        state_lo=state_lo, state_hi=state_hi, mu=mu,
        input_samples=input_samples, safe_lo=safe_lo, safe_hi=safe_hi,
        seed=seed, samples=samples, plan_start=plan_start,
        plan_goals=plan_goals, plan_relaxed=plan_relaxed, plan_grid=plan_grid,
        plan_max_steps=plan_max_steps, sim_x0=sim_x0,
        sim_max_steps=sim_max_steps, sim_policy=sim_policy)
