"""Sampled-time nonlinear control systems and fixed-step integration.

A :class:`SampledSystem` wraps a continuous vector field ``dx/dt = f(x, u)``
together with its sampling period ``tau``, a growth constant ``lipschitz``
(user-supplied, not estimated), and the input box.  The growth constant is
the L of the paper's radius ``theta * exp(L*tau) * |q_i|``.  A growth bound
needs only ``L >= sup mu_inf(df/dx)``, the supremum of the logarithmic
infinity-norm of the Jacobian, not a Lipschitz constant: the pendulum's
declared 6 bounds its mu_inf, which is 1, but is below its infinity-norm
Lipschitz constant ``g/l + k/m = 7.96``.  Inputs are held constant
over each sampling period; the one-period successor map is evaluated by
classical fixed-step 4th-order integration with a configurable number of
substeps, which keeps every evaluation deterministic and bit-reproducible.

An affine field ``dx/dt = A x + B u`` is built by :func:`affine_system`,
whose growth constant is ``||A||_inf``; the scalar
:func:`linear_system` is one.  The bundled pendulum model is

    dx1/dt = x2
    dx2/dt = -(g/l) sin(x1) - (k/m) x2 + u

with g = 9.8, l = 5, m = 0.5, k = 3, torque bounded in [-2.5, 2.5].
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _public
from .errors import DivergenceError
from .quantizer import _COUNT, _NON_NEGATIVE, _POSITIVE, _UNIT, _check, _frozen

__all__ = _public(__name__)


@dataclass(frozen=True, eq=False)
class SampledSystem:
    """Sampled control system: vector field plus integration settings.

    ``field(x, u)`` must be deterministic.  ``lipschitz`` is the growth
    constant L; the module docstring says what it must bound.  If
    ``vectorized`` is set the field must accept stacked arguments of shape
    (..., dim_x) / (..., dim_u), broadcast, and return a float array of
    shape (..., dim_x); otherwise batched evaluation falls back to a row
    loop.

    Immutable after construction; successor evaluation is pure, so concurrent
    use from many workers is safe.
    """

    dim_x: int
    dim_u: int
    field: Callable[[np.ndarray, np.ndarray], np.ndarray]
    lipschitz: float
    tau: float
    input_lo: tuple[float, ...]
    input_hi: tuple[float, ...]
    integrator_steps: int = 10
    vectorized: bool = False
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "input_lo",
                           tuple(float(v) for v in np.atleast_1d(self.input_lo)))
        object.__setattr__(self, "input_hi",
                           tuple(float(v) for v in np.atleast_1d(self.input_hi)))
        _check("dim_x", self.dim_x, _COUNT)
        _check("dim_u", self.dim_u, _COUNT)
        _check("tau", self.tau, _POSITIVE)
        _check("lipschitz", self.lipschitz, _POSITIVE)
        _check("integrator_steps", self.integrator_steps, _COUNT)
        if len(self.input_lo) != self.dim_u or len(self.input_hi) != self.dim_u:
            raise ValueError("input box dimension does not match dim_u")
        if any(lo > hi for lo, hi in zip(self.input_lo, self.input_hi)):
            raise ValueError("input box is empty")


def _field(sys: SampledSystem):
    """The vector field over stacked rows: ``sys.field`` itself, or a loop
    over its rows when it is not vectorized."""
    if sys.vectorized:
        return sys.field
    return lambda x, u: np.stack([np.asarray(sys.field(xk, uk), float)
                                  for xk, uk in zip(x, u)])


def _rk4_step(f, x: np.ndarray, u: np.ndarray, h: float) -> np.ndarray:
    # x + (h/6)(k1 + 2 k2 + 2 k3 + k4), rounded in that order, in five fresh
    # temporaries: a field may return its argument, so none it sees is written
    k1 = f(x, u)
    k2 = f(np.add(t := k1 * (h / 2.0), x, out=t), u)
    k3 = f(np.add(t := k2 * (h / 2.0), x, out=t), u)
    k4 = f(np.add(t := k3 * h, x, out=t), u)
    acc = k2 * 2.0
    acc += k1
    acc += k3 * 2.0
    acc += k4
    acc *= h / 6.0
    acc += x
    return acc


def successor_many(sys: SampledSystem, x0: np.ndarray, u: np.ndarray,
                   steps: int | None = None) -> np.ndarray:
    """One-period successors for a batch of (state, input) rows.

    Rows that diverge propagate as non-finite values; callers decide how to
    handle them.  ``steps`` overrides ``sys.integrator_steps`` and must be
    an ``int`` of at least 1.  Uses the same elementwise kernel as
    :func:`successor`, so batched and single evaluations agree bit for bit.
    """
    x = np.asarray(x0, float)
    u = np.asarray(u, float)
    if x.ndim != 2 or x.shape[1] != sys.dim_x:
        raise ValueError(f"expected states of shape (N, {sys.dim_x})")
    if u.ndim != 2 or u.shape[1] != sys.dim_u or u.shape[0] != x.shape[0]:
        raise ValueError(f"expected inputs of shape (N, {sys.dim_u})")
    steps = (sys.integrator_steps if steps is None
             else _check("steps", steps, _COUNT))
    h = sys.tau / steps
    f = _field(sys)
    with np.errstate(all="ignore"):
        for _ in range(steps):
            x = _rk4_step(f, x, u, h)
    return x


def successor(sys: SampledSystem, x0, u, steps: int | None = None) -> np.ndarray:
    """State reached after one sampling period from x0 under constant input u.

    Raises :class:`DivergenceError` (carrying the substep index) if the
    integration produces a non-finite intermediate state.
    """
    x = np.asarray(x0, float).reshape(1, sys.dim_x)
    uu = np.atleast_1d(np.asarray(u, float)).reshape(1, sys.dim_u)
    y = successor_many(sys, x, uu, steps)
    if np.isfinite(y).all():
        return y[0]
    # non-finite stays non-finite: re-run substep by substep to find the
    # first, which the same kernel on the same row reaches within `steps`
    steps = sys.integrator_steps if steps is None else steps
    h = sys.tau / steps
    f = _field(sys)
    with np.errstate(all="ignore"):
        for k in range(steps):
            x = _rk4_step(f, x, uu, h)
            if not np.isfinite(x).all():
                break
    raise DivergenceError(k)


def input_grid(sys: SampledSystem, samples: int) -> np.ndarray:
    """Uniform grid of ``samples`` points per axis over the input box, rows
    in lexicographic order; row k is the input of input id k in every
    model, controller and plan of a scenario.  A ``samples`` that is not
    an ``int`` of at least 1 raises ValueError."""
    _check("samples", samples, _COUNT)
    axes = [np.linspace(lo, hi, samples)
            for lo, hi in zip(sys.input_lo, sys.input_hi)]
    rows = list(itertools.product(*axes))
    return np.array(rows, float).reshape(len(rows), sys.dim_u)


def growth_radius(q_center, eta: float, lipschitz: float, tau: float) -> np.ndarray:
    """The paper's per-axis radius ``theta * exp(L*tau) * qbar`` around the
    nominal successor of a cell center ``q``: ``theta = eta / (1 - eta)``,
    ``qbar_i = |q_i|``, or 1 where ``q_i = 0``.

    Not a sound bound: the Lipschitz bound gives only ``exp(L*tau) *
    max_j |x_j - q_j|``, and the box can miss true successors of deadzone
    cells, of clipped outer cells and under coupling between axes.  On the
    441-cell pendulum lattice (eta 0.15, tau 0.2, 10 RK4 substeps) the
    integration error is below 1.4e-5 of this radius, so at these settings
    the radius needs no term for integration error."""
    q = np.atleast_1d(np.asarray(q_center, float))
    _check("eta", eta, _UNIT)
    _check("lipschitz", lipschitz, _POSITIVE)
    _check("tau", tau, _NON_NEGATIVE)
    theta = eta / (1.0 - eta)
    qbar = np.where(q == 0.0, 1.0, np.abs(q))
    return theta * math.exp(lipschitz * tau) * qbar


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Closed-loop sample record.

    ``states`` holds K+1 states at times ``0, tau, ..., K*tau``; ``inputs``
    holds the K inputs applied on the intervals between them.  ``terminated``
    records why the run stopped ("max_steps", "plan_complete" or
    "out_of_domain").
    """

    times: np.ndarray
    states: np.ndarray
    inputs: np.ndarray
    terminated: str = "max_steps"

    def __post_init__(self):
        for name in ("times", "states", "inputs"):
            object.__setattr__(self, name, _frozen(getattr(self, name)))
        times, states, inputs = self.times, self.states, self.inputs
        if states.ndim != 2 or times.shape != (states.shape[0],):
            raise ValueError("times and states lengths do not match")
        if inputs.ndim != 2 or inputs.shape[0] != states.shape[0] - 1:
            raise ValueError("need exactly one input per step")
        if not np.isfinite(states).all():
            raise ValueError("trajectory contains non-finite states")
        if len(times) > 1 and not (np.diff(times) > 0).all():
            raise ValueError("timestamps must strictly increase")

    @property
    def steps(self) -> int:
        return self.inputs.shape[0]

    def write_csv(self, path):
        """CSV with header t,x1,...,xn,u1,...,um; the final row has empty
        input fields (no input is applied after the last recorded state)."""
        n = self.states.shape[1]
        m = self.inputs.shape[1]
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t"] + [f"x{i+1}" for i in range(n)]
                            + [f"u{j+1}" for j in range(m)])
            for k in range(self.states.shape[0]):
                row = [repr(float(self.times[k]))]
                row += [repr(float(v)) for v in self.states[k]]
                if k < self.inputs.shape[0]:
                    row += [repr(float(v)) for v in self.inputs[k]]
                else:
                    row += [""] * m
                writer.writerow(row)


PENDULUM_CONSTANTS = {
    "gravity": 9.8,
    "rod_length": 5.0,
    "mass": 0.5,
    "friction": 3.0,
}


def pendulum_system(tau: float = 0.2) -> SampledSystem:
    """Damped pendulum with torque input bounded in [-2.5, 2.5], growth
    constant 6 and 10 RK4 substeps; copy it with
    :func:`dataclasses.replace` to change a field."""
    gravity_ratio = PENDULUM_CONSTANTS["gravity"] / PENDULUM_CONSTANTS["rod_length"]
    friction_ratio = PENDULUM_CONSTANTS["friction"] / PENDULUM_CONSTANTS["mass"]

    def field(x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        # -(g/l) sin(x1) - (k/m) x2 + u, with the same roundings
        dv = np.sin(x[..., 0])
        dv *= -gravity_ratio
        dv -= friction_ratio * x[..., 1]
        out = np.empty(np.broadcast_shapes(dv.shape, u.shape[:-1]) + (2,))
        out[..., 0] = x[..., 1]
        np.add(dv, u[..., 0], out=out[..., 1])  # one state may meet many inputs
        return out

    return SampledSystem(dim_x=2, dim_u=1, field=field, lipschitz=6.0,
                         tau=tau, input_lo=(-2.5,), input_hi=(2.5,),
                         vectorized=True, name="pendulum")


def affine_system(A, B, input_lo, input_hi, tau: float = 0.2,
                  name: str = "affine") -> SampledSystem:
    """The sampled affine field ``dx/dt = A x + B u`` over the input box
    ``[input_lo, input_hi]``: ``A`` is square and ``B`` has one row per
    state axis and one column per input axis.  The growth constant is
    ``||A||_inf``, the largest absolute row sum of ``A``, an infinity-norm
    Lipschitz constant of the field in x; copy the system with
    :func:`dataclasses.replace` to declare another."""
    A, B = np.array(A, float), np.array(B, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or not np.isfinite(A).all():
        raise ValueError(f"A must be a finite square matrix, got {A.tolist()}")
    if B.ndim != 2 or B.shape[0] != len(A) or not np.isfinite(B).all():
        raise ValueError(f"B must be a finite matrix with {len(A)} rows, "
                         f"got {B.tolist()}")
    lipschitz = float(np.abs(A).sum(axis=1).max(initial=0.0))

    def field(x, u):
        return np.asarray(x, float) @ A.T + np.asarray(u, float) @ B.T

    return SampledSystem(dim_x=len(A), dim_u=B.shape[1], field=field,
                         lipschitz=lipschitz, tau=tau, input_lo=input_lo,
                         input_hi=input_hi, vectorized=True, name=name)


def linear_system(tau: float = 0.2) -> SampledSystem:
    """Scalar test system dx/dt = -x + u with the closed-form solution
    x(t) = u + (x0 - u) * exp(-t); used as an integration oracle."""
    return affine_system([[-1.0]], [[1.0]], (-1.0,), (1.0,), tau, "linear")


_SYSTEMS: dict[str, Callable[..., SampledSystem]] = {
    "pendulum": pendulum_system,
    "linear": linear_system,
}


def register_system(name: str, factory: Callable[..., SampledSystem]):
    """Register a user-defined system factory for selection by name."""
    _SYSTEMS[str(name)] = factory


def make_system(name: str) -> SampledSystem:
    """Instantiate a registered system with its factory's defaults; copy it
    with :func:`dataclasses.replace` to change a field."""
    try:
        factory = _SYSTEMS[name]
    except KeyError:
        known = ", ".join(sorted(_SYSTEMS))
        raise ValueError(f"unknown system {name!r} (registered: {known})") from None
    return factory()
