"""Command-line entry point.

Subcommands wire a scenario configuration to the library workflows::

    symquant abstract   --config CFG --out model.abs
    symquant synthesize --config CFG [--in model.abs] --out ctrl.txt
    symquant verify     --config CFG [--in model.abs] --out report.txt
    symquant plan       --config CFG [--in model.abs] --out plan.txt
    symquant simulate   --config CFG --in POLICY --out traj.csv
    symquant export     --config CFG [--in model.abs] --out graph.dot

Outputs are deterministic: identical configuration and seed produce
byte-identical files.  Exit codes: 0 success, 2 configuration error, 3 build
failure, 4 verification violations, 5 planning failure, 1 anything else.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys as _sys
from importlib import resources

# each command imports the pipeline stages (abstraction, refinement,
# synthesis) it runs, so that start-up compiles no stage it does not need
from .config import KEYS, REQUIRED, ScenarioConfig, check_value, parse_config
from .errors import ConfigError, OutOfDomainError, PlanningError
from .quantizer import format_cell

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_BUILD = 3
EXIT_VERIFY = 4
EXIT_PLAN = 5


def _resolve_config(value: str) -> str:
    """Accept a path or the bare name of a bundled scenario."""
    if os.path.exists(value):
        return value
    if os.sep not in value:
        name = value if value.endswith(".cfg") else value + ".cfg"
        bundle = resources.files("symquant").joinpath("scenarios", name)
        if bundle.is_file():
            return str(bundle)
    raise ConfigError(f"config file {value!r} not found")


def _prepare_out(path: str) -> str:
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    return path


def _build_or_load(args, cfg: ScenarioConfig):
    from . import abstraction

    sys_ = cfg.build_system()
    if not args.infile:
        return abstraction.build_abstraction(sys_, cfg.lattice,
                                             cfg.approx_config()), sys_
    model = abstraction.load_abstraction(args.infile, system=sys_)
    if model.lattice != cfg.lattice:
        raise ConfigError(f"{args.infile}: its #lattice is not the lattice "
                          f"of {cfg.path} [quantizer]")
    for key, have, want in (("#tau", model.tau, sys_.tau),
                            ("#L", model.lipschitz, sys_.lipschitz),
                            ("#mu", model.mu, cfg.mu)):
        if have != want:
            raise ConfigError(f"{args.infile}: its {key} is {have!r} where "
                              f"{cfg.path} gives {want!r}")
    return model, sys_


def _cmd_abstract(args, cfg: ScenarioConfig) -> int:
    from . import abstraction

    model, _ = _build_or_load(args, cfg)
    abstraction.save_abstraction(model, _prepare_out(args.out))
    info = model.summary()
    print(f"states {info['states']} inputs {info['inputs']} "
          f"transitions {info['transitions']}")
    return EXIT_OK


def _cmd_synthesize(args, cfg: ScenarioConfig) -> int:
    from . import refinement, synthesis

    model, _ = _build_or_load(args, cfg)
    safe = refinement.abstract_safe_set(cfg.safe_lo, cfg.safe_hi, model)
    controller = synthesis.safety_fixpoint(model, safe)
    synthesis.save_controller(controller, _prepare_out(args.out))
    lines = [
        f"states {model.n_states}",
        f"inputs {model.n_inputs}",
        f"transitions {model.transition_count()}",
        f"iterations {controller.iterations}",
        f"domain {len(controller.domain)}",
    ]
    with open(args.out + ".summary", "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_verify(args, cfg: ScenarioConfig) -> int:
    from . import refinement

    check_value("verify", "samples", args.samples, "--samples")
    check_value("verify", "seed", args.seed, "--seed")
    samples = args.samples if args.samples is not None else cfg.samples
    seed = args.seed if args.seed is not None else cfg.seed
    model, sys_ = _build_or_load(args, cfg)
    report = refinement.check_feedback_refinement(model, sys_, samples, seed)
    summary = "\n".join(report.summary_lines())
    if args.out:
        report.write_summary(_prepare_out(args.out))
    print(summary)
    if not report.passed:
        witness_path = (args.out or "refinement") + ".violations"
        report.write_violations(_prepare_out(witness_path))
        print(f"witnesses written to {witness_path}", file=_sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _cmd_plan(args, cfg: ScenarioConfig) -> int:
    from . import synthesis

    if cfg.plan_start is None or not cfg.plan_goals:
        raise ConfigError(f"{cfg.path}: [plan] start and goals are required")
    model, _ = _build_or_load(args, cfg)
    plan = synthesis.plan_reach(model, cfg.plan_start, cfg.plan_goals,
                                relaxed=cfg.plan_relaxed,
                                grid_resolution=cfg.plan_grid,
                                max_segment_steps=cfg.plan_max_steps)
    synthesis.save_plan(plan, _prepare_out(args.out))
    print(f"plan with {len(plan.steps)} entries, {plan.total_steps} steps")
    return EXIT_OK


def _cmd_simulate(args, cfg: ScenarioConfig) -> int:
    from . import abstraction, synthesis

    if cfg.sim_x0 is None:
        raise ConfigError(f"{cfg.path}: [simulate] x0 is required")
    # --in names the policy file, so the model is always rebuilt from the
    # configuration (deterministic)
    sys_ = cfg.build_system()
    model = abstraction.build_abstraction(sys_, cfg.lattice,
                                          cfg.approx_config())
    load = (synthesis.load_controller if cfg.sim_policy == "controller"
            else synthesis.load_plan)
    policy = load(args.infile, model.inputs, model.lattice)
    trajectory = synthesis.simulate_closed_loop(sys_, policy, cfg.sim_x0,
                                                cfg.sim_max_steps)
    trajectory.write_csv(_prepare_out(args.out))
    print(f"{trajectory.steps} steps; terminated: {trajectory.terminated}")
    return EXIT_OK


def _cmd_export(args, cfg: ScenarioConfig) -> int:
    model, _ = _build_or_load(args, cfg)
    with open(_prepare_out(args.out), "w") as fh:
        fh.write("digraph abstraction {\n")
        for sid, cell in enumerate(model.cells):
            fh.write(f'  s{sid} [label="{format_cell(cell)}"];\n')
        for text in model.transition_text("  s%s -> s", ' [label="%s"];\n'):
            fh.write(text)
        fh.write("}\n")
    print(f"wrote {model.transition_count()} edges")
    return EXIT_OK


# name: (function, help line, needs --out, needs --in)
_COMMANDS = {
    "abstract": (_cmd_abstract, "build the symbolic model and write it to "
                 "--out", True, False),
    "synthesize": (_cmd_synthesize, "synthesize a safety controller (writes "
                   "summary too)", True, False),
    "verify": (_cmd_verify, "sample-check the refinement relation", False,
               False),
    "plan": (_cmd_plan, "search an input schedule for the configured goal "
             "cells", True, False),
    "simulate": (_cmd_simulate, "run the closed loop under a controller or "
                 "plan file", True, True),
    "export": (_cmd_export, "emit the transition graph in DOT form", True,
               False),
}


def _config_reference() -> str:
    """The --help epilog: every scenario key with its default."""
    def shown(row):
        if row.field is None:
            return "(accepted, no effect)"
        if row.default is REQUIRED:
            return "(required)"
        if row.default in (None, ()):
            return "(unset)"
        return str(getattr(row.default, "value", row.default)).lower()
    return "\n".join(
        ["scenario file keys (section.key = default):"]
        + [f"  {row.section}.{row.key} = {shown(row)}" for row in KEYS]
        + ["(unset): the system's own lipschitz and input box, the state box "
           "for the safe box, else no value",
           "environment overrides: SYMQUANT_<SECTION>__<KEY>"]) + "\n"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symquant",
        allow_abbrev=False,  # a renamed flag must not parse as its prefix
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=_config_reference(),
        description="Symbolic abstraction and safety synthesis for sampled "
                    "nonlinear systems via logarithmic quantization.\n\n"
                    "commands:\n" + "\n".join(
                        f"  {name:<12}{row[1]}"
                        for name, row in _COMMANDS.items()))
    parser.add_argument("command", choices=_COMMANDS, metavar="command",
                        help="the command to run (see the list above)")
    parser.add_argument("--config", required=True,
                        help="scenario file, or the name of a bundled scenario")
    parser.add_argument("--out", help="output file path")
    parser.add_argument("--in", dest="infile",
                        help="input file (abstraction, controller or plan)")
    parser.add_argument("--threads", type=int, help="accepted, no effect")
    parser.add_argument("--seed", type=int,
                        help="override the configured random seed")
    parser.add_argument("--samples", type=int,
                        help="override the configured sample count")
    parser.add_argument("--lazy", action="store_true",
                        help="accepted, no effect (successor sets are always "
                             "computed on first use)")
    parser.add_argument("--verbose", action="store_true",
                        help="log the count and time of each phase to stderr")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    # the package logger writes to this run's stderr, whatever the host's
    # root logger holds; its settings are restored on return
    log = logging.getLogger("symquant")
    handler = logging.StreamHandler(_sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level, propagate = log.level, log.propagate
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    log.propagate = False
    log.addHandler(handler)
    try:
        return _run(args)
    finally:
        log.removeHandler(handler)
        log.setLevel(level)
        log.propagate = propagate


def _run(args) -> int:
    try:
        run, _, needs_out, needs_in = _COMMANDS[args.command]
        if needs_out and not args.out:
            raise ConfigError(f"{args.command} requires --out")
        if needs_in and not args.infile:
            raise ConfigError(f"{args.command} requires --in")
        cfg = parse_config(_resolve_config(args.config))
        return run(args, cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except PlanningError as exc:
        print(f"planning failed: {exc}", file=_sys.stderr)
        return EXIT_PLAN
    except (OutOfDomainError, OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_BUILD


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
