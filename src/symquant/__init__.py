"""Symbolic abstractions of sampled nonlinear control systems via
logarithmic quantization, with safety controller synthesis and
quantizer-based controller refinement.

Submodules load on first use: ``import symquant`` loads none of them, and
the first access to a public name imports the submodule that owns it.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_OWNERS = {name: module for module, names in [
    ("errors", "ConfigError DivergenceError OutOfDomainError PlanningError"),
    ("quantizer", "Box LogLattice LogQuantizerAxis QuantizerVariant "
                  "format_cell parse_cell"),
    ("dynamics", "SampledSystem Trajectory affine_system growth_radius "
                 "input_grid linear_system make_system pendulum_system "
                 "register_system successor successor_many"),
    ("abstraction", "InputApproxConfig SymbolicModel approximate_inputs "
                    "build_abstraction load_abstraction save_abstraction "
                    "transition_targets"),
    ("refinement", "AbstractSafeSet RefinementReport RefinementWitness "
                   "abstract_safe_set check_feedback_refinement"),
    ("synthesis", "Plan SafetyController cpre load_controller load_plan "
                  "plan_reach plan_rollout safety_fixpoint save_controller "
                  "save_plan simulate_closed_loop"),
] for name in names.split()}

__all__ = sorted(_OWNERS)


def _public(module: str) -> list[str]:
    """The public names of submodule ``module`` (its ``__name__``)."""
    return sorted(n for n, m in _OWNERS.items() if f"{__name__}.{m}" == module)


def __getattr__(name: str):
    if name in _OWNERS:
        value = getattr(import_module(f".{_OWNERS[name]}", __name__), name)
    elif name in _OWNERS.values():
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_OWNERS.values()})
