"""The command line and scenario files that ``bench/run.py`` relies on.

The harness is only read here: its workloads' argument lists must still
parse, and its scenario files must still load, so that a change to either
fails this suite first.
"""

import glob
import importlib.util
import os

import pytest

from symquant import cli
from symquant.config import parse_config

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _load_run():
    spec = importlib.util.spec_from_file_location(
        "bench_run", os.path.join(BENCH, "run.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load_run()


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_every_workload_step_parses(name):
    workload = RUN.WORKLOADS[name]
    config = os.path.join(BENCH, "scenarios", workload.config)
    assert [step.command for step in workload.steps] == [
        "abstract", "synthesize", "verify", "plan", "simulate"]
    for step in workload.steps:
        # the argument list that the harness's Pass.run builds
        argv = [step.command, "--config", config, "--threads", "1",
                *step.args]
        if step.command == "verify":
            argv += ["--seed", "0"]
        args = cli._parser().parse_args(argv)
        _, _, needs_out, needs_in = cli._COMMANDS[args.command]
        assert args.out == step.output, argv  # the file the harness checks
        assert (args.out or not needs_out) and (args.infile or not needs_in)


def test_bench_scenarios_parse():
    paths = sorted(glob.glob(os.path.join(BENCH, "scenarios", "*.cfg")))
    assert [os.path.basename(p) for p in paths] == sorted(
        workload.config for workload in RUN.WORKLOADS.values())
    for path in paths:
        cfg = parse_config(path)
        assert cfg.sim_x0 is not None and cfg.plan_goals, path


@pytest.mark.parametrize("argv", [
    ["verify", "--conf", "pendulum"],
    ["verify", "--config", "pendulum", "--thread", "1"],
])
def test_flag_prefixes_do_not_parse(argv, capsys):
    # a flag renamed to a longer name must not keep parsing under its old
    # one, or the workloads above would pass a flag the CLI no longer has
    with pytest.raises(SystemExit) as info:
        cli.main(argv)
    assert info.value.code == 2
    assert "error:" in capsys.readouterr().err
