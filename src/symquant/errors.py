"""Shared exception types."""

import functools
import re

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


def _located_decoding(load, error=ValueError):
    """Decorate a loader of a path: a UnicodeDecodeError becomes an
    ``error`` naming the file and the line of its first non-UTF-8 byte."""
    @functools.wraps(load)
    def loader(path, *args, **kwargs):
        try:
            return load(path, *args, **kwargs)
        except UnicodeDecodeError as exc:
            # the loaders' lines, with each undecodable byte as a surrogate
            with open(path, errors="surrogateescape") as fh:
                at = next((f"{n}:" for n, line in enumerate(fh, start=1)
                           if re.search("[\udc80-\udcff]", line)), "")
            raise error(f"{path}:{at} not UTF-8 ({exc.reason})") from None

    return loader
