"""The command line, scenario files and API that ``bench/run.py`` relies on.

The harness is only read and run here: its workloads' argument lists must
still parse, its scenario files must still load, and its child process must
still wrap and call the package's functions, so that a change to any of
them fails this suite first.
"""

import glob
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import symquant as sq
from symquant import cli
from symquant.config import FLAGS, parse_config
from conftest import rows_with_zeros

BENCH = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench")


def _load(name):
    spec = importlib.util.spec_from_file_location(
        f"bench_{name}", os.path.join(BENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


RUN = _load("run")


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
        # the --seed and --samples texts are read as cli._run reads them,
        # by the [verify] rows over the workload's scenario
        cfg = parse_config(config, vars(args))
        for flag, (_, key) in FLAGS.items():
            if vars(args)[flag] is not None:
                assert str(getattr(cfg, key)) == vars(args)[flag], argv


@pytest.mark.parametrize("name", sorted(RUN.WORKLOADS))
def test_one_harness_pass_meets_its_checks(name, tmp_path, monkeypatch):
    # one untraced pass on the package's source checks each subcommand's
    # exit code, printed lines and output structure and, with the default
    # seed, each output's sha256: a run with any failure is incorrect
    monkeypatch.setattr(RUN, "OUT", tmp_path)
    monkeypatch.setattr(RUN, "SRC", Path(BENCH).parent / "src")
    monkeypatch.setattr(RUN, "STARTED", time.perf_counter())
    run = RUN.Pass(name, RUN.DEFAULT_SEED)
    run.run_all()
    assert run.failures == []


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


def _child(tmp_path, out, *argv):
    """Run ``bench/child.py argv`` in tmp_path on the package's source, and
    read the JSON file ``out`` that it writes; it must exit 0."""
    src = os.path.join(os.path.dirname(BENCH), "src")
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "child.py"), *argv],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": src,
                           "PYTHONDONTWRITEBYTECODE": "1"},
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads((tmp_path / out).read_text())


def test_tracer_wraps_what_the_package_defines(tmp_path):
    # installing the tracer wraps every layer entry point by name, and the
    # model counts are read through the model's public queries
    trace = _child(tmp_path, "t.json", "cli", "--trace", "t.json", "--",
                   "abstract", "--config", "pendulum", "--out", "m.abs")
    assert sorted(trace["stats"]["model"]) == [
        "blocking_cells", "enabled_pairs", "inputs", "states", "transitions"]


def test_probes_call_what_the_package_defines(tmp_path):
    (tmp_path / "traj.csv").write_text(
        "t,x1,x2,u1\n0.0,0.1,0.0,0.5\n0.2,0.1,0.05,-0.5\n0.4,0.09,0.0,\n")
    probes = _child(tmp_path, "probes.json", "probe",
                    os.path.join(os.path.dirname(cli.__file__), "scenarios",
                                 "pendulum.cfg"),
                    "--seed", "0", "--points", "traj.csv", "--out",
                    "probes.json")
    assert sorted(probes["timings"]) == [
        "abstraction.approximate_inputs_us",
        "abstraction.transition_targets_us",
        "dynamics.successor_many_us_per_row", "dynamics.successor_us",
        "quantizer.levels_in_interval_us", "quantizer.quantize_us"]


def test_cube3d_is_the_affine_factory_bit_for_bit():
    # the harness's hand-written cube3d field and affine_system give the
    # same successors, so the harness can switch to the factory with its
    # outputs unchanged (what the switch costs in time is not checked here)
    bench = _load("systems").cube3d_system()
    factory = sq.affine_system(-np.eye(3), np.ones((3, 1)), (-1.0,), (1.0,),
                               tau=0.5)
    assert (factory.tau, factory.lipschitz, factory.input_lo,
            factory.input_hi, factory.integrator_steps) == \
        (bench.tau, bench.lipschitz, bench.input_lo, bench.input_hi,
         bench.integrator_steps)
    x, u = rows_with_zeros(np.random.default_rng(3), 20_000, 3, 1)
    assert sq.successor_many(factory, x, u).tobytes() == \
        sq.successor_many(bench, x, u).tobytes()
