"""Shared exception types."""

from . import _public

__all__ = _public(__name__)


class OutOfDomainError(ValueError):
    """A point lies outside the lattice bounds, or a cell index is invalid."""


class DivergenceError(RuntimeError):
    """Numerical integration produced a non-finite state.

    Carries the zero-based substep index at which divergence was detected.
    """

    def __init__(self, substep: int):
        self.substep = substep
        super().__init__(f"integration diverged at substep {substep}")


class ConfigError(ValueError):
    """Invalid configuration value or inconsistent component parameters."""


class PlanningError(RuntimeError):
    """No plan satisfying the requested goal sequence was found."""

