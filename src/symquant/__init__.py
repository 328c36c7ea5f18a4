"""Symbolic abstractions of sampled nonlinear control systems via
logarithmic quantization, with safety controller synthesis and
quantizer-based controller refinement."""

from .errors import (ConfigError, DivergenceError, OutOfDomainError,
                     PlanningError)
from .quantizer import (Box, LogLattice, LogQuantizerAxis, QuantizerVariant,
                        cell_bounds, enumerate_cells, format_cell,
                        levels_overlapping_interval, parse_cell,
                        scalar_quantize, vector_quantize)
from .dynamics import (SampledSystem, Trajectory, growth_radius,
                       linear_system, make_system, pendulum_system,
                       register_system, successor, successor_many)
from .abstraction import (InputApproxConfig, SymbolicModel,
                          approximate_inputs, build_abstraction,
                          input_grid, load_abstraction, save_abstraction,
                          transition_targets)
from .refinement import (AbstractSafeSet, RefinementReport,
                         RefinementWitness, abstract_safe_set,
                         check_feedback_refinement, relate)
from .synthesis import (ConcreteController, Plan, SafetyController, cpre,
                        load_controller, load_plan, plan_reach,
                        refine_controller, safety_fixpoint, save_controller,
                        save_plan, simulate_closed_loop)

__version__ = "0.1.0"
