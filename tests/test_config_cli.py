"""Scenario parsing, environment overrides, CLI workflows and exit codes."""

import io
import itertools
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import symquant as sq
from symquant import cli
from symquant.config import KEYS, parse_config
from symquant.errors import ConfigError
from symquant.quantizer import _COUNT, _NATURAL, _int
from conftest import (RANGE_RULES, SEPARATORS, iter_transitions,
                      line_mutations, separator_mutations)

BUNDLED = os.path.join(os.path.dirname(sq.__file__), "scenarios",
                       "pendulum.cfg")


def _child_env():
    """The environment of a child Python that imports this package."""
    src = os.path.dirname(os.path.dirname(sq.__file__))
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}


def test_parse_bundled_scenario():
    cfg = parse_config(BUNDLED)
    assert cfg.system_name == "pendulum"
    assert cfg.tau == 0.2 and cfg.lipschitz == 6.0
    assert cfg.eta == 0.2 and cfg.scale == (0.4, 0.4)
    assert cfg.variant == sq.QuantizerVariant.EDGE_ANCHORED
    assert cfg.mu == 0.002 and cfg.input_samples == 51
    assert cfg.state_lo == (-1.0, -1.0) and cfg.state_hi == (1.0, 1.0)
    assert cfg.samples == 10000 and cfg.seed == 0
    assert cfg.plan_start == (-1, 0)
    assert cfg.plan_goals == ((0, 0), (-1, 0))
    system = cfg.build_system()
    assert system.name == "pendulum" and system.tau == 0.2
    lattice = cfg.build_lattice()
    assert len(lattice.enumerate_cells()) == 25


def test_env_override(monkeypatch, tmp_path, capsys):
    monkeypatch.setenv("SYMQUANT_VERIFY__SAMPLES", "7")
    monkeypatch.setenv("SYMQUANT_ABSTRACTION__INPUT_SAMPLES", "11")
    cfg = parse_config(BUNDLED)
    assert cfg.samples == 7
    assert cfg.input_samples == 11
    # the file's seed is beaten by its variable, which is beaten by --seed;
    # an unset flag leaves the layers below it
    path = tmp_path / "s.cfg"
    path.write_text(Path(BUNDLED).read_text())
    at = _with_line(path, "verify", "seed = 1")
    assert parse_config(path).seed == 1
    monkeypatch.setenv("SYMQUANT_VERIFY__SEED", "2")
    assert parse_config(path, {"--seed": None}).seed == 2
    assert parse_config(path, {"--seed": "3", "--samples": None}).seed == 3
    # a bad value is refused at its own source, by the key's one row, with
    # the command line's exit code 2
    for file, variable, flag, where in (
            ("-1", None, None, f"{path}:{at}"),
            ("1", "-2", None, "SYMQUANT_VERIFY__SEED"),
            ("1", "2", "-3", "--seed")):
        _with_line(path, "verify", f"seed = {file}")
        if variable is None:
            monkeypatch.delenv("SYMQUANT_VERIFY__SEED")
        else:
            monkeypatch.setenv("SYMQUANT_VERIFY__SEED", variable)
        value = flag or variable or file
        message = (f"{where}: [verify] seed: seed must be an int of at least "
                   f"0, got {value}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(path, {"--seed": flag})
        argv = ["verify", "--config", str(path),
                *(["--seed", flag] if flag else [])]
        assert cli.main(argv) == cli.EXIT_CONFIG
        assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize("variable, value, message", [
    ("VERIFY__SEED", "0_0", "[verify] seed: not an integer: '0_0'"),
    ("SIMULATE__X0", "0.5 5", "[simulate] x0: x0 lies outside the state box"),
    ("PLAN__GOALS", "0,0 ; 9,9", "[plan] goals: 9,9 is not a lattice cell"),
])
def test_env_override_errors_name_the_variable(capsys, monkeypatch, variable,
                                               value, message):
    # the key's line in the file holds another value, so the error names
    # the variable, for a value its key refuses and for one that fails a
    # check across keys alike
    monkeypatch.setenv("SYMQUANT_" + variable, value)
    assert cli.main(["verify", "--config", "pendulum"]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"configuration error: SYMQUANT_{variable}: {message}\n"


def test_scenario_environment_fuzz(tmp_path, monkeypatch):
    # each line mutation of a key's line in the bundled scenario that keeps
    # the key, given instead by the key's variable over the file, has the
    # file's outcome: the same values, or the same error with the variable
    # where the file's error names the mutated line
    with open(BUNDLED) as fh:
        lines = fh.read().splitlines()
    path = tmp_path / "pendulum.cfg"

    def outcome(lines):
        path.write_text("\n".join(lines) + "\n")
        try:
            return vars(parse_config(path)) | {"path": None}
        except ConfigError as exc:
            return str(exc)

    sections = list(itertools.accumulate(
        (line[1:-1] if line.startswith("[") else None for line in lines),
        lambda section, new: new or section))
    cases = named = 0
    for k, name, mutated in line_mutations(lines):
        key = lines[k].partition("=")[0].strip()
        if (lines[k].startswith("#") or "=" not in lines[k]
                or len(mutated) != len(lines)
                or mutated[k].partition("=")[0].strip(" \t") != key):
            continue
        variable = f"SYMQUANT_{sections[k].upper()}__{key.upper()}"
        in_file = outcome(mutated)
        monkeypatch.setenv(variable, mutated[k].partition("=")[2].strip(" \t"))
        in_environment = outcome(lines)
        monkeypatch.delenv(variable)
        cases += 1
        # where the file names the mutated line, the environment names the
        # variable: in an error, and in where [system] name was set
        at = (f"{path}:{k + 1}: ", f"{variable}: ")
        if isinstance(in_file, str):
            assert in_environment == in_file.replace(*at), (k, name)
            assert in_environment.startswith((f"{path}:", f"{variable}: "))
            named += in_environment.startswith(variable)
        else:
            in_file["system_name_at"] = in_file["system_name_at"].replace(*at)
            assert in_environment == in_file, (k, name)
    assert cases > 200 and named > 100


def test_real_lists_take_commas_or_blanks(monkeypatch):
    for text in ("0.4 0.4", "0.4,0.4", "0.4, 0.4", " 0.4 ,0.4 ", "0.4 ,\t0.4"):
        monkeypatch.setenv("SYMQUANT_QUANTIZER__SCALE", text)
        assert parse_config(BUNDLED).scale == (0.4, 0.4), text


def test_config_errors_cite_location(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[quantizer]\neta = 1.7\nscale = 0.4\n"
                   "state_lo = -1\nstate_hi = 1\n[abstraction]\nmu = 0.002\n")
    with pytest.raises(ConfigError) as info:
        parse_config(bad)
    assert "bad.cfg:2" in str(info.value)

    missing = tmp_path / "missing.cfg"
    missing.write_text("[quantizer]\nscale = 0.4\n")
    with pytest.raises(ConfigError):
        parse_config(missing)

    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("[system]\njust a stray line\n")
    with pytest.raises(ConfigError) as info:
        parse_config(malformed)
    assert "malformed.cfg:2" in str(info.value)


def test_unknown_section_or_key_rejected(tmp_path, capsys):
    with open(BUNDLED) as fh:
        lines = fh.read().splitlines()
    good = tmp_path / "good.cfg"  # with a known key of no effect
    good.write_text("\n".join(lines + ["[abstraction]", "lazy = true"])
                    + "\n")
    assert parse_config(good).samples == 10000
    typo = lines.index("samples = 10000")
    for at, line in [(typo, "sample = 5"), (len(lines), "[verfy]"),
                     (len(lines), "[run]"), (0, "tau = 0.2")]:
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines[:at] + [line] + lines[at:]) + "\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:{at + 1}: unknown"):
            parse_config(bad)
    # a misspelt required key is named at its line, not reported missing
    eta = lines.index("eta = 0.2")
    bad.write_text("\n".join(lines[:eta] + ["eat = 0.2"] + lines[eta + 1:]))
    with pytest.raises(ConfigError, match=rf"bad\.cfg:{eta + 1}: unknown key "
                                          r"\[quantizer\] eat$"):
        parse_config(bad)
    # the CLI names the typo and exits 2 instead of running 10k samples
    bad.write_text("\n".join(lines[:typo] + ["sample = 5"] + lines[typo + 1:]))
    assert cli.main(["verify", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert (f"bad.cfg:{typo + 1}: unknown key [verify] sample"
            in capsys.readouterr().err)


def test_key_set_twice_rejected(tmp_path, capsys, monkeypatch):
    # the second line is refused and names the first, as for a model
    # header key; before, the last value won
    with open(BUNDLED) as fh:
        lines = fh.read().splitlines()
    eta = lines.index("eta = 0.2")
    path = tmp_path / "twice.cfg"
    path.write_text("\n".join(lines[:eta + 1] + ["ETA = 0.5"]
                              + lines[eta + 1:]) + "\n")
    with pytest.raises(ConfigError, match=rf"twice\.cfg:{eta + 2}: "
                       rf"\[quantizer\] eta is already set at line {eta + 1}$"):
        parse_config(path)
    assert cli.main(["verify", "--config", str(path)]) == cli.EXIT_CONFIG
    assert f"twice.cfg:{eta + 2}: " in capsys.readouterr().err
    # a repeated section header and an environment override are no repeats
    seed = lines.index("seed = 0")
    path.write_text("\n".join(lines[:seed] + lines[seed + 1:]
                              + ["[verify]", "seed = 3"]) + "\n")
    monkeypatch.setenv("SYMQUANT_QUANTIZER__ETA", "0.25")
    cfg = parse_config(path)
    assert cfg.seed == 3 and cfg.eta == 0.25


def _fast_cfg(tmp_path, **overrides):
    """A small, fast variant of the bundled scenario."""
    values = {
        "tau": 0.2,
        "samples": 300,
        "input_samples": 21,
        "max_steps": 150,
        "policy": "plan",
        "goals": "0,0 ; -1,0",
        "relaxed": "true",
    }
    values.update(overrides)
    path = tmp_path / "scenario.cfg"
    path.write_text(f"""
[system]
name = pendulum
tau = {values['tau']}
lipschitz = 6
integrator_steps = 10

[quantizer]
variant = edge_anchored
eta = 0.2
scale = 0.4 0.4
state_lo = -1 -1
state_hi = 1 1

[abstraction]
mu = 0.002
input_samples = {values['input_samples']}

[verify]
samples = {values['samples']}
seed = 0

[plan]
start = -1,0
goals = {values['goals']}
relaxed = {values['relaxed']}

[simulate]
x0 = -0.48 0
max_steps = {values['max_steps']}
policy = {values['policy']}
""")
    return str(path)


def test_cli_abstract_deterministic(tmp_path):
    cfg = _fast_cfg(tmp_path)
    out1 = tmp_path / "m1.abs"
    out2 = tmp_path / "m2.abs"
    assert cli.main(["abstract", "--config", cfg, "--out", str(out1)]) == 0
    assert cli.main(["abstract", "--config", cfg, "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    model = sq.load_abstraction(out1)
    assert model.n_states == 25


def test_cli_bundled_scenario_by_name(tmp_path, monkeypatch):
    # bare scenario names resolve against the packaged scenarios
    monkeypatch.setenv("SYMQUANT_ABSTRACTION__INPUT_SAMPLES", "5")
    out = tmp_path / "m.abs"
    assert cli.main(["abstract", "--config", "pendulum",
                     "--out", str(out)]) == 0
    assert out.exists()


def test_cli_config_naming_a_directory(tmp_path, capsys, monkeypatch):
    # a directory is not a scenario file: a configuration error like a
    # missing file, and one named like a bundled scenario does not hide it
    monkeypatch.setenv("SYMQUANT_ABSTRACTION__INPUT_SAMPLES", "5")
    out = tmp_path / "m.abs"
    code = cli.main(["abstract", "--config", str(tmp_path), "--out",
                     str(out)])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"configuration error: config file {str(tmp_path)!r} not found\n"
    monkeypatch.chdir(tmp_path)
    os.mkdir("pendulum")
    assert cli.main(["abstract", "--config", "pendulum", "--out",
                     str(out)]) == 0
    assert out.exists()


def test_cli_synthesize_summary(tmp_path):
    cfg = _fast_cfg(tmp_path)
    out = tmp_path / "ctrl.txt"
    assert cli.main(["synthesize", "--config", cfg, "--out", str(out)]) == 0
    summary = (tmp_path / "ctrl.txt.summary").read_text().splitlines()
    entries = dict(line.split() for line in summary)
    assert entries["states"] == "25"
    assert entries["domain"] == "0"  # the coarse safety game is lost
    assert int(entries["transitions"]) > 0
    assert out.read_text().startswith("#controller 1")


def test_cli_verify_pass_and_report(tmp_path):
    cfg = _fast_cfg(tmp_path)
    out = tmp_path / "report.txt"
    code = cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--samples", "200"])
    assert code == 0
    assert "result: PASS" in out.read_text()


def test_cli_verify_detects_violations(tmp_path):
    # short sampling period breaks the deadzone coverage; exit code 4 plus a
    # witness file
    cfg = _fast_cfg(tmp_path, tau=0.05)
    out = tmp_path / "report.txt"
    code = cli.main(["verify", "--config", cfg, "--out", str(out),
                     "--samples", "2000"])
    assert code == cli.EXIT_VERIFY
    witness_lines = (tmp_path / "report.txt.violations").read_text().splitlines()
    assert witness_lines


def test_cli_plan_simulate_roundtrip(tmp_path):
    cfg = _fast_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    assert cli.main(["plan", "--config", cfg, "--out", str(plan_path)]) == 0
    csv_path = tmp_path / "run.csv"
    assert cli.main(["simulate", "--config", cfg, "--in", str(plan_path),
                     "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "t,x1,x2,u1"
    assert len(lines) >= 3
    # trajectory starts at the configured x0
    first = lines[1].split(",")
    assert float(first[1]) == -0.48 and float(first[2]) == 0.0


def test_cli_simulate_zero_steps(tmp_path, monkeypatch):
    cfg = _fast_cfg(tmp_path)
    plan_path = tmp_path / "plan.txt"
    assert cli.main(["plan", "--config", cfg, "--out", str(plan_path)]) == 0
    monkeypatch.setenv("SYMQUANT_SIMULATE__MAX_STEPS", "0")
    csv_path = tmp_path / "zero.csv"
    assert cli.main(["simulate", "--config", cfg, "--in", str(plan_path),
                     "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 2  # header plus the initial state row


def test_cli_plan_failure_exit_code(tmp_path):
    cfg = _fast_cfg(tmp_path, relaxed="false")
    code = cli.main(["plan", "--config", cfg, "--out",
                     str(tmp_path / "plan.txt")])
    assert code == cli.EXIT_PLAN


def test_cli_export_matches_per_transition_reference(tmp_path):
    # the DOT text as written one f-string per transition
    out = tmp_path / "g.dot"
    assert cli.main(["export", "--config", "pendulum", "--out", str(out)]) == 0
    cfg = parse_config(BUNDLED)
    model = sq.build_abstraction(cfg.build_system(), cfg.build_lattice(),
                                 cfg.approx_config())
    want = ["digraph abstraction {\n"]
    want += [f'  s{sid} [label="{sq.format_cell(cell)}"];\n'
             for sid, cell in enumerate(model.cells)]
    want += [f'  s{sid} -> s{dst} [label="{uid}"];\n'
             for sid, dst, uid in iter_transitions(model)]
    assert out.read_bytes() == ("".join(want) + "}\n").encode()


def test_cli_pipeline_never_imports_numpy_ma(tmp_path):
    # numpy.ma costs about 10 ms to import; np.unique is one way in
    script = f"""
import sys
from symquant import cli
d = {str(tmp_path)!r} + "/"
for argv in (["abstract", "--out", d + "m.abs"],
             ["synthesize", "--in", d + "m.abs", "--out", d + "c.txt"],
             ["verify", "--in", d + "m.abs", "--out", d + "v.txt"],
             ["plan", "--out", d + "p.txt"],
             ["simulate", "--in", d + "p.txt", "--out", d + "t.csv"],
             ["export", "--in", d + "m.abs", "--out", d + "g.dot"]):
    assert cli.main(argv + ["--config", "pendulum"]) == 0, argv
assert "numpy.ma" not in sys.modules
"""
    env = _child_env()
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_export_roundtrips_transition_count(tmp_path):
    cfg = _fast_cfg(tmp_path)
    model_path = tmp_path / "m.abs"
    assert cli.main(["abstract", "--config", cfg, "--out", str(model_path)]) == 0
    dot_path = tmp_path / "g.dot"
    assert cli.main(["export", "--config", cfg, "--in", str(model_path),
                     "--out", str(dot_path)]) == 0
    model = sq.load_abstraction(model_path)
    edges = [line for line in dot_path.read_text().splitlines()
             if "->" in line]
    assert len(edges) == model.transition_count()


@pytest.mark.parametrize("case", ["unknown_state", "unknown_input",
                                  "noncontiguous_states",
                                  "unpaired_header_token",
                                  "unknown_header_key",
                                  "non_numeric_header_value",
                                  "repeated_header_key", "no_lattice_line",
                                  "eta_not_the_lattice_eta",
                                  "lattice_too_fine",
                                  "faults_in_both_regions",
                                  "parameter_line_without_tau", "mu_7"])
def test_cli_rejects_bad_model_file(tmp_path, capsys, case):
    cfg = _fast_cfg(tmp_path)
    path = tmp_path / "m.abs"
    assert cli.main(["abstract", "--config", cfg, "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    src, dst, uid = lines[3].split()  # the first transition line
    if case == "unknown_state":
        at, lines[3] = 4, f"{src} 999 {uid}"
    elif case == "unknown_input":
        at, lines[3] = 4, f"{src} {dst} 9999"
    elif case == "unpaired_header_token":
        assert lines[2].startswith("#tau ")
        at, lines[2] = 3, lines[2] + " junk"
    elif case == "unknown_header_key":
        at, lines[2] = 3, lines[2] + " #Lx 9"
    elif case == "non_numeric_header_value":
        assert lines[1].startswith("#lattice ") and " eta=" in lines[1]
        at = 2
        lines[1] = re.sub(r" eta=\S+", " eta=abc", lines[1])
    elif case == "repeated_header_key":
        at, lines[2] = 3, lines[2] + " #tau 0.7"
    elif case == "eta_not_the_lattice_eta":
        assert " #eta 0.2 " in lines[2]
        at, lines[2] = 3, lines[2].replace(" #eta 0.2 ", " #eta 0.5 ")
    elif case == "lattice_too_fine":
        # the header alone: the lattice is refused before it is built
        at, lines = 2, [lines[0], lines[1].replace(" eta=0.2 ", " eta=1e-07 "),
                        lines[2].replace(" #eta 0.2 ", " #eta 1e-07 ")]
        assert "=1e-07" in lines[1] and "#eta 1e-07" in lines[2]
    elif case == "no_lattice_line":
        # the parameter line stands where the #lattice line must
        assert lines[1].startswith("#lattice ")
        at = 2
        del lines[1]
    elif case == "parameter_line_without_tau":
        # no value is made up for it: the file, not the scenario, is at fault
        assert lines[2].startswith("#tau 0.2 ")
        at, lines[2] = 3, lines[2].removeprefix("#tau 0.2 ")
    elif case == "mu_7":
        assert " #mu 0.002 " in lines[2]
        at, lines[2] = 3, lines[2].replace(" #mu 0.002 ", " #mu 7 ")
    else:
        at = lines.index(next(ln for ln in lines if ln.startswith("state 5 ")))
        lines[at] = lines[at].replace("state 5 ", "state 7 ")
        at += 1
        if case == "faults_in_both_regions":
            # the tables are checked before the transitions
            lines[3] = "not a transition"
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    where = f"m.abs:{at}: "
    for command in ("synthesize", "verify", "export"):
        code = cli.main([command, "--config", cfg, "--in", str(path),
                         "--out", str(tmp_path / "out.txt")])
        assert code == cli.EXIT_BUILD
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err, command


def test_cli_verbose_logs_phases(tmp_path):
    # the ``python -m symquant.cli`` entry point in a fresh process
    cfg = _fast_cfg(tmp_path)
    env = _child_env()
    runs = []
    for flags in ([], ["--verbose"]):
        out = tmp_path / f"m{len(flags)}.abs"
        proc = subprocess.run(
            [sys.executable, "-m", "symquant.cli", "abstract", "--config",
             cfg, "--out", str(out), *flags],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append((out.read_bytes(), proc.stderr))
    (quiet_file, quiet_log), (verbose_file, verbose_log) = runs
    assert verbose_file == quiet_file
    assert quiet_log == ""
    assert re.search(r"^INFO symquant\.abstraction: targets: \d+ pairs, "
                     r"\d+ transitions, \d+\.\d+ s$", verbose_log, re.M)
    assert "symquant.abstraction: save: " in verbose_log


def test_cli_verbose_logs_plan_and_simulate(tmp_path):
    # a relaxed plan logs its search and no model build, and the closed loop
    # logs its run; the files stay byte-identical
    cfg = _fast_cfg(tmp_path)
    env = _child_env()
    files, logs = {}, {}
    for flags in ([], ["--verbose"]):
        plan = str(tmp_path / f"p{len(flags)}")
        for command, infile in (("plan", []), ("simulate", ["--in", plan])):
            out = tmp_path / f"{command[0]}{len(flags)}"
            proc = subprocess.run(
                [sys.executable, "-m", "symquant.cli", command, "--config",
                 cfg, "--out", str(out), *infile, *flags],
                capture_output=True, text=True, env=env, timeout=120)
            assert proc.returncode == 0, proc.stderr
            files[command, bool(flags)] = out.read_bytes()
            logs[command, bool(flags)] = proc.stderr
    for command in ("plan", "simulate"):
        assert files[command, True] == files[command, False]
        assert logs[command, False] == ""
    assert re.fullmatch(r"INFO symquant\.synthesis: plan: 2 goals, \d+ layers, "
                        r"\d+ rows, \d+\.\d+ s\n", logs["plan", True])
    assert re.fullmatch(r"INFO symquant\.synthesis: simulate: \d+ steps, "
                        r"plan_complete, \d+\.\d+ s\n", logs["simulate", True])


def test_cli_verbose_in_process(tmp_path, capsys):
    # a host whose root logger has a handler, and repeated calls
    cfg = _fast_cfg(tmp_path)
    host = logging.StreamHandler(io.StringIO())
    logging.getLogger().addHandler(host)
    try:
        for flags in (["--verbose"], ["--verbose"], []):
            assert cli.main(["abstract", "--config", cfg, "--out",
                             str(tmp_path / "m.abs"), *flags]) == 0
            err = capsys.readouterr().err
            assert err.count("INFO symquant.abstraction: save: ") == len(flags)
    finally:
        logging.getLogger().removeHandler(host)
    assert logging.getLogger("symquant").handlers == []


def test_cli_lazy_and_threads_flags_change_nothing(tmp_path):
    cfg = _fast_cfg(tmp_path)
    runs = []
    for flags in ([], ["--lazy", "--threads", "2"]):
        files = {}
        for command in ("abstract", "synthesize", "plan"):
            out = tmp_path / command
            assert cli.main([command, "--config", cfg, "--out", str(out),
                             *flags]) == 0
            files[command] = out.read_bytes()
        files["summary"] = (tmp_path / "synthesize.summary").read_bytes()
        runs.append(files)
    assert runs[0] == runs[1]


def test_cli_config_error_exit_code(tmp_path):
    assert cli.main(["abstract", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path / "m.abs")]) == cli.EXIT_CONFIG
    cfg = _fast_cfg(tmp_path)
    assert cli.main(["abstract", "--config", cfg]) == cli.EXIT_CONFIG  # no --out


def test_cli_simulate_requires_in(tmp_path, capsys):
    cfg = _fast_cfg(tmp_path)
    code = cli.main(["simulate", "--config", cfg, "--out",
                     str(tmp_path / "t.csv")])
    assert code == cli.EXIT_CONFIG
    assert capsys.readouterr().err == \
        "configuration error: simulate requires --in\n"
    assert not (tmp_path / "t.csv").exists()


@pytest.mark.parametrize("section,line,message", [
    ("quantizer", "state_lo = -0.3 -1", "[quantizer]: axis 0: bounds"),
    ("quantizer", "eta = 1e-7", "[quantizer]: too fine: up to"),
])
def test_config_rejects_what_its_builders_reject(tmp_path, capsys, section,
                                                 line, message):
    # the lattice is built when the scenario is read, and its failure has
    # no one line to name
    cfg = _fast_cfg(tmp_path)
    _with_line(cfg, section, line)
    code = cli.main(["abstract", "--config", cfg, "--out",
                     str(tmp_path / "m.abs")])
    assert code == cli.EXIT_CONFIG
    assert f"configuration error: {cfg}: {message}" in capsys.readouterr().err


def test_cli_rejects_scenario_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "pendulum.cfg"
    with open(BUNDLED, "rb") as fh:
        path.write_bytes(fh.read() + b"\xff\xfe junk")
    at = path.read_bytes().count(b"\n") + 1
    code = cli.main(["abstract", "--config", str(path), "--out",
                     str(tmp_path / "m.abs")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert (f"configuration error: {path}:{at}: not UTF-8 (invalid start "
            "byte)") in err
    assert "Traceback" not in err


def test_lattice_bound_above_the_ceiling_is_a_config_error(tmp_path):
    # 1e300 over a deadzone of 1e-10 has no level below the float range:
    # the lattice refuses the bound, naming its axis, as a located exit-2
    # error, never with a raw OverflowError and its traceback
    path = tmp_path / "pendulum.cfg"
    path.write_text(Path(BUNDLED).read_text())
    _with_line(path, "quantizer", "scale = 1e-10 1e-10")
    _with_line(path, "quantizer", "state_hi = 1e300 1")
    top = sq.LogQuantizerAxis(0.2, 1e-10, "edge_anchored").ceiling
    message = (f"{path}: [quantizer]: axis 0: bounds [-1.0, 1e+300] must lie "
               f"within the ceiling [-{top}, {top}]")
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
        parse_config(str(path))
    env = _child_env()
    proc = subprocess.run(
        [sys.executable, "-m", "symquant.cli", "abstract", "--config",
         str(path), "--out", str(tmp_path / "m.abs")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == cli.EXIT_CONFIG
    assert proc.stderr == f"configuration error: {message}\n"
    assert "Traceback" not in proc.stderr


def _contracting_cfg(tmp_path):
    # a user-defined system selected by name via the registration hook
    sq.register_system("contracting", lambda: sq.affine_system(
        -np.eye(2), np.ones((2, 1)), (-1.0,), (1.0,), tau=0.5,
        name="contracting"))
    path = tmp_path / "contracting.cfg"
    path.write_text("""
[system]
name = contracting
tau = 0.5
lipschitz = 1

[quantizer]
variant = edge_anchored
eta = 0.2
scale = 0.4 0.4
state_lo = -1 -1
state_hi = 1 1

[abstraction]
mu = 0.002
input_samples = 21

[synthesis]
safe_lo = -0.7 -0.7
safe_hi = 0.7 0.7

[simulate]
x0 = 0.1 -0.2
max_steps = 40
policy = controller
""")
    return str(path)


def test_cli_simulate_controller_mode(tmp_path):
    cfg = _contracting_cfg(tmp_path)
    ctrl_path = tmp_path / "ctrl.txt"
    assert cli.main(["synthesize", "--config", cfg,
                     "--out", str(ctrl_path)]) == 0
    summary = dict(line.split() for line in
                   (tmp_path / "ctrl.txt.summary").read_text().splitlines())
    assert summary["domain"] == "9"
    csv_path = tmp_path / "loop.csv"
    assert cli.main(["simulate", "--config", cfg, "--in", str(ctrl_path),
                     "--out", str(csv_path)]) == 0
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 42  # header + initial state + 40 steps
    # the loop never leaves the safe box
    for line in lines[1:]:
        _, x1, x2 = line.split(",")[:3]
        assert abs(float(x1)) <= 0.7 and abs(float(x2)) <= 0.7


@pytest.mark.parametrize("case", ["input_99", "input_minus_1", "no_inputs",
                                  "ids_descending", "ids_repeated",
                                  "not_a_cell", "repeated_cell",
                                  "no_cell_keyword", "empty_level_middle",
                                  "empty_level_last", "empty_level_first",
                                  "plan_hold_0", "plan_input_99"])
def test_cli_simulate_rejects_bad_policy_file(tmp_path, capsys, case):
    if case.startswith("plan"):
        cfg = _fast_cfg(tmp_path)
        path = tmp_path / "plan.txt"
        assert cli.main(["plan", "--config", cfg, "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        uid, hold = lines[0].split()
        lines[0] = f"{uid} 0" if case == "plan_hold_0" else f"99 {hold}"
        at = 1
    else:
        cfg = _contracting_cfg(tmp_path)
        path = tmp_path / "ctrl.txt"
        assert cli.main(["synthesize", "--config", cfg, "--out",
                         str(path)]) == 0
        lines = path.read_text().splitlines()
        cell = lines[1].split(":")[0]
        if case == "repeated_cell":
            lines.append(lines[1])
            at = len(lines)
        elif case == "not_a_cell":
            lines[1] = "cell 99,99 : 0"
            at = 2
        elif case == "no_cell_keyword":
            lines[1:] = ["foo" + line[len("cell"):] for line in lines[1:]]
            at = 2
        elif case.startswith("empty_level"):
            # the cell's own levels with one empty part
            levels, ids = lines[1][len("cell "):].split(":")
            levels = levels.strip()
            spelled = {"empty_level_middle": levels.replace(",", ",,"),
                       "empty_level_last": levels + ",",
                       "empty_level_first": "," + levels}[case]
            lines[1] = f"cell {spelled} :{ids}"
            at = 2
        else:
            ids = {"input_99": " 99", "input_minus_1": " -1", "no_inputs": "",
                   "ids_descending": " 1 0", "ids_repeated": " 2 2"}
            lines[1] = cell + ":" + ids[case]
            at = 2
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    code = cli.main(["simulate", "--config", cfg, "--in", str(path),
                     "--out", str(tmp_path / "run.csv")])
    assert code == cli.EXIT_BUILD
    assert f"{path.name}:{at}: " in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["model", "controller", "plan"])
@pytest.mark.parametrize("fault", ["not_utf8", "mutated"])
def test_cli_rejects_faulty_input_file(tmp_path, capsys, kind, fault):
    # a saved file with bytes that are not UTF-8 appended, or one line
    # fuzzed, exits 3 with the file and line and without a traceback
    if kind == "controller":
        cfg = _contracting_cfg(tmp_path)
        command, path, first = "synthesize", tmp_path / "ctrl.txt", 1
    else:
        cfg = _fast_cfg(tmp_path)
        command, path, first = (("abstract", tmp_path / "m.abs", 3)
                                if kind == "model"
                                else ("plan", tmp_path / "plan.txt", 0))
    assert cli.main([command, "--config", cfg, "--out", str(path)]) == 0
    lines = path.read_text().splitlines()
    if fault == "not_utf8":
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe junk")
        at, message = len(lines) + 1, "not UTF-8 (invalid start byte)"
    else:
        mutated = next(new for k, name, new in line_mutations(lines)
                       if k == first and name == "abc")
        path.write_text("\n".join(mutated) + "\n")
        at, message = first + 1, "malformed line"
    capsys.readouterr()
    use = "synthesize" if kind == "model" else "simulate"
    code = cli.main([use, "--config", cfg, "--in", str(path),
                     "--out", str(tmp_path / "out.txt")])
    err = capsys.readouterr().err
    assert code == cli.EXIT_BUILD
    assert f"error: {path}:{at}: {message}" in err
    assert "Traceback" not in err


def _with_line(path, section, line):
    """Rewrite a scenario so that ``line`` sets its key in ``section``
    (replacing the key's line, or right after the header, which is appended
    if missing); returns the 1-based number of that line."""
    lines = open(path).read().splitlines()
    if f"[{section}]" not in lines:
        lines.append(f"[{section}]")
    key = line.split("=")[0].strip()
    at = lines.index(f"[{section}]") + 1
    while at < len(lines) and not lines[at].startswith("["):
        if lines[at].split("=")[0].strip() == key:
            break
        at += 1
    else:
        at = lines.index(f"[{section}]") + 1
        lines.insert(at, "")
    lines[at] = line
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return at + 1


@pytest.mark.parametrize("section,line", [
    ("plan", "max_segment_steps = 0"),
    ("plan", "max_segment_steps = -3"),
    ("verify", "seed = -1"),
    ("simulate", "x0 = 0.1"),
    ("simulate", "x0 = 0.1 0.2 0.3"),
    ("plan", "start = -1"),
    ("plan", "start = -1,,0"),
    ("plan", "start = -1,0,"),
    ("plan", "goals = 0,0 ; ,-1,0"),
    ("plan", "goals = 0,0 ; ; -1,0"),
    ("plan", "goals = 0,0 ; -1,0 ;"),
    ("quantizer", "state_lo = -1,,-1"),
    ("quantizer", "state_lo = -1,-1,"),
    ("quantizer", "state_lo = ,-1,-1"),
    ("plan", "goals = 0,0 ; -1,0,0"),
    # non-finite values, in every real-valued key
    ("system", "tau = inf"),
    ("system", "lipschitz = nan"),
    ("system", "input_lo = -inf"),
    ("system", "input_hi = nan"),
    ("quantizer", "eta = nan"),
    ("quantizer", "scale = 0.4 inf"),
    ("quantizer", "state_lo = nan -1"),
    ("quantizer", "state_hi = 1 inf"),
    ("abstraction", "mu = nan"),
    ("synthesis", "safe_lo = -inf -1"),
    ("synthesis", "safe_hi = nan 1"),
    ("plan", "grid_resolution = nan"),
    ("simulate", "x0 = inf 0"),
    ("plan", "relaxed = maybe"),
    # looked up when each command builds the system
    ("system", "name = no_such_system"),
])
def test_config_rejects_values_that_fail_later(tmp_path, capsys, section,
                                               line):
    cfg = _fast_cfg(tmp_path)
    at = _with_line(cfg, section, line)
    for command in ("abstract", "plan", "verify"):
        code = cli.main([command, "--config", cfg, "--out",
                         str(tmp_path / "out")])
        assert code == cli.EXIT_CONFIG
        assert f"scenario.cfg:{at}: [{section}] " in capsys.readouterr().err


@pytest.mark.parametrize("section,lines,key,message", [
    ("system", ("input_hi = 1", "input_lo = -1 -1"), "input_lo",
     "input_lo/input_hi lengths differ"),
    ("system", ("input_hi = -1", "input_lo = 1"), "input_lo",
     "input box is empty"),
    ("quantizer", ("scale = 0.4",), "scale",
     "scale/state_lo/state_hi lengths differ"),
    ("quantizer", ("state_lo = -1 1",), "state_lo",
     "need state_lo < state_hi per axis"),
    ("synthesis", ("safe_lo = -1",), "safe_lo", "safe box dimension mismatch"),
    ("synthesis", ("safe_hi = -1 1", "safe_lo = 1 -1"), "safe_lo",
     "safe box is empty"),
    ("simulate", ("x0 = 5 0",), "x0", "x0 lies outside the state box"),
    ("plan", ("start = 9,9",), "start", "9,9 is not a lattice cell"),
    ("plan", ("goals = 0,0 ; 0,-3",), "goals", "0,-3 is not a lattice cell"),
])
def test_config_cross_key_checks_name_their_key(tmp_path, capsys, section,
                                                lines, key, message):
    # a check across keys names the line of one of them, `key`; that line
    # is written last, so no later insertion moves it
    cfg = _fast_cfg(tmp_path)
    at = [_with_line(cfg, section, line) for line in lines][-1]
    code = cli.main(["abstract", "--config", cfg, "--out",
                     str(tmp_path / "out")])
    assert code == cli.EXIT_CONFIG
    assert (f"scenario.cfg:{at}: [{section}] {key}: {message}\n"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command,key,message", [
    ("plan", "start", "[plan] start and goals are required"),
    ("plan", "goals", "[plan] start and goals are required"),
    ("simulate", "x0", "[simulate] x0 is required"),
])
def test_cli_command_needs_its_section_keys(tmp_path, capsys, monkeypatch,
                                            command, key, message):
    from symquant import abstraction

    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise RuntimeError("a model was built or loaded")

    monkeypatch.setattr(abstraction, "build_abstraction", spy)
    monkeypatch.setattr(abstraction, "load_abstraction", spy)
    cfg = _fast_cfg(tmp_path)
    with open(cfg) as fh:
        kept = [line for line in fh if not line.startswith(f"{key} =")]
    with open(cfg, "w") as fh:
        fh.writelines(kept)
    # the check comes before any model is built or loaded, so the --in file
    # need not exist
    absent = ["--in", str(tmp_path / "absent")]
    for infile in ([absent] if command == "simulate" else [[], absent]):
        code = cli.main([command, "--config", cfg, "--out",
                         str(tmp_path / "out"), *infile])
        assert (code, calls) == (cli.EXIT_CONFIG, [])
        assert capsys.readouterr().err == \
            f"configuration error: {cfg}: {message}\n"


@pytest.mark.parametrize("command,variable,value", [
    ("abstract", "SYSTEM__INPUT_HI", "nan"),
    ("plan", "PLAN__GRID_RESOLUTION", "nan"),
    ("abstract", "QUANTIZER__STATE_HI", "1 inf"),
    ("synthesize", "SYNTHESIS__SAFE_HI", "nan 1"),
])
def test_config_rejects_non_finite_environment_values(tmp_path, capsys,
                                                      monkeypatch, command,
                                                      variable, value):
    # each of these once ran on: exit 0 with no inputs or an empty domain,
    # exit 5 after a numpy warning, or a raw OverflowError traceback
    cfg = _fast_cfg(tmp_path)
    monkeypatch.setenv("SYMQUANT_" + variable, value)
    code = cli.main([command, "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    section, key = variable.lower().split("__")
    assert (f"[{section}] {key}: not a finite number"
            in capsys.readouterr().err)


@pytest.mark.parametrize("flag,value", [("--samples", "-5"), ("--seed", "-2")])
def test_cli_verify_rejects_negative_flag(tmp_path, capsys, flag, value):
    cfg = _fast_cfg(tmp_path)
    code = cli.main(["verify", "--config", cfg, flag, value])
    assert code == cli.EXIT_CONFIG
    assert f"configuration error: {flag}: " in capsys.readouterr().err
    # zero stays valid for both
    assert cli.main(["verify", "--config", cfg, flag, "0"]) == 0


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_cli_every_command_rejects_negative_seed_and_samples(tmp_path, capsys,
                                                             command):
    # refused by the [verify] rows as the last override layer, in KEYS order
    # with the rest of the scenario, before any command runs; abstract once
    # ran with both
    cfg = _fast_cfg(tmp_path)
    out = tmp_path / "out"
    infile = ["--in", str(tmp_path / "p.txt")] if command == "simulate" else []
    for flag in ("--seed", "--samples"):
        code = cli.main([command, "--config", cfg, "--out", str(out), *infile,
                         flag, "-3"])
        assert code == cli.EXIT_CONFIG
        assert f"configuration error: {flag}: " in capsys.readouterr().err
    assert not out.exists()


_ARABIC_INDIC = str.maketrans("0123456789", "\u0660\u0661\u0662\u0663"
                              "\u0664\u0665\u0666\u0667\u0668\u0669")
_FULL_WIDTH = str.maketrans("0123456789", "\uff10\uff11\uff12\uff13"
                            "\uff14\uff15\uff16\uff17\uff18\uff19")
# spellings of a number that Python's int() and float() read as its value
SPELLINGS = {
    "underscore": lambda n: re.sub(r"\d", r"0_\g<0>", n, count=1),
    "arabic_indic": lambda n: n.translate(_ARABIC_INDIC),
    "full_width": lambda n: n.translate(_FULL_WIDTH),
}
# reader: (file, pattern whose group is the number respelled, on the first
# line that matches it)
READERS = {
    "scenario_real": ("scenario", r"^tau = (\S+)"),
    "scenario_int": ("scenario", r"^samples = (\S+)"),
    "model_tau": ("model", r"^#tau (\S+)"),
    "model_lattice_scale": ("model", r" scale=([^,]+)"),
    "model_input_id": ("model", r"^input (\S+)"),
    "model_input_value": ("model", r"^input \S+ (\S+)"),
    "controller_id": ("controller", r": (\S+)"),
    "plan_uid": ("plan", r"^(\S+) "),
    "plan_hold": ("plan", r" (\S+)$"),
}


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """file kind: (the scenario the CLI reads it under, the file)."""
    d = tmp_path_factory.mktemp("saved")
    fast, contracting = _fast_cfg(d), _contracting_cfg(d)
    files = {"scenario": (None, Path(fast)), "model": (fast, d / "m.abs"),
             "plan": (fast, d / "plan.txt"),
             "controller": (contracting, d / "ctrl.txt")}
    for command, kind in (("abstract", "model"), ("plan", "plan"),
                          ("synthesize", "controller")):
        cfg, path = files[kind]
        assert cli.main([command, "--config", cfg, "--out", str(path)]) == 0
    return files


@pytest.mark.parametrize("spelling", SPELLINGS)
@pytest.mark.parametrize("reader", [*READERS, "environment", "seed_flag"])
def test_numbers_are_ascii_decimals(saved_files, tmp_path, capsys,
                                    monkeypatch, reader, spelling):
    # each reader refuses a number spelled with "_" or non-ASCII digits at
    # its file and line, where int() and float() read the same value
    respell = SPELLINGS[spelling]
    assert float(respell("-2.5")) == -2.5 and int(respell("10")) == 10
    scenario = str(saved_files["scenario"][1])
    if reader in ("environment", "seed_flag"):
        # the flag is one more override layer, read by the key's own row
        argv = ["verify", "--config", scenario]
        if reader == "environment":
            monkeypatch.setenv("SYMQUANT_VERIFY__SEED", respell("0"))
        else:
            argv += ["--seed", respell("0")]
        assert cli.main(argv) == cli.EXIT_CONFIG
        where = "SYMQUANT_VERIFY__SEED" if reader == "environment" else "--seed"
        assert (f"{where}: [verify] seed: not an integer"
                in capsys.readouterr().err)
        return
    kind, pattern = READERS[reader]
    cfg, source = saved_files[kind]
    lines = source.read_text().splitlines()
    k, match = next((k, m) for k, line in enumerate(lines)
                    if (m := re.search(pattern, line)))
    line = lines[k]
    lines[k] = (line[:match.start(1)] + respell(match.group(1))
                + line[match.end(1):])
    path = tmp_path / source.name
    path.write_text("\n".join(lines) + "\n")
    _assert_refused_at(kind, cfg, path, k + 1, tmp_path, capsys)


def _read(kind, cfg, path, out):
    """Run the command that reads a file of a kind (a scenario under
    ``abstract``, a model under ``synthesize``, a controller or plan under
    ``simulate`` with the scenario ``cfg``); returns its exit code."""
    if kind == "scenario":
        argv = ["abstract", "--config", str(path)]
    else:
        command = "synthesize" if kind == "model" else "simulate"
        argv = [command, "--config", cfg, "--in", str(path)]
    return cli.main(argv + ["--out", str(out)])


def _assert_refused_at(kind, cfg, path, at, tmp_path, capsys):
    """The file is refused at line ``at``: exit 2 for a scenario, 3 for a
    model, controller or plan file."""
    capsys.readouterr()
    code = _read(kind, cfg, path, tmp_path / "out")
    assert code == (cli.EXIT_CONFIG if kind == "scenario" else cli.EXIT_BUILD)
    assert f"{path}:{at}: " in capsys.readouterr().err


# reader: (file kind, pattern whose group is the field that a separator
# goes in or next to, on the first line that matches it)
SEPARATED = {
    "scenario_key": ("scenario", r"^(tau) = "),
    "scenario_value": ("scenario", r"^scale = (\S+) "),
    "model_header": ("model", r"^#tau (\S+) "),
    "model_input": ("model", r"^input \S+ (\S+)"),
    "model_state": ("model", r"^state \S+ (\S+)"),
    "controller_row": ("controller", r": (\S+)"),
    "plan_line": ("plan", r"^(\S+) "),
}


@pytest.mark.parametrize("fault", SEPARATORS)
@pytest.mark.parametrize("reader", SEPARATED)
def test_only_ascii_blanks_separate(saved_files, tmp_path, capsys, reader,
                                    fault):
    # a line ends at "\n" and fields are split by ASCII spaces and tabs, so
    # any other separator is refused at the line that holds it; a \x1c once
    # split a model's input line, and a lone \r a scenario line, in two
    kind, pattern = SEPARATED[reader]
    cfg, source = saved_files[kind]
    lines = source.read_text().splitlines()
    k, match = next((k, m) for k, line in enumerate(lines)
                    if (m := re.search(pattern, line)))
    lines[k] = dict(separator_mutations(lines[k], *match.span(1)))[fault]
    path = tmp_path / source.name
    path.write_text("\n".join(lines) + "\n")
    _assert_refused_at(kind, cfg, path, k + 1, tmp_path, capsys)


def test_crlf_files_read_as_lf_files(saved_files, tmp_path, capsys):
    # a "\r" before a line's "\n" is dropped, in every line of a scenario,
    # controller or plan file and in a model's header and table lines
    # (transition lines end at "\n" alone)
    for kind, (cfg, source) in saved_files.items():
        outputs = []
        for crlf in (False, True):
            lines = source.read_text().splitlines()
            if crlf:
                lines = [line + "\r" if kind != "model" or line.startswith(
                    ("#", "input ", "state ")) else line for line in lines]
            path = tmp_path / (("crlf_" if crlf else "lf_") + source.name)
            path.write_text("\n".join(lines) + "\n")
            out = tmp_path / "out"
            capsys.readouterr()
            assert _read(kind, cfg, path, out) == 0, kind
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1], kind
    scenario = saved_files["scenario"][1]
    values = [vars(parse_config(path))
              for path in (scenario, tmp_path / f"crlf_{scenario.name}")]
    for cfg in values:  # the two files differ in their paths only
        cfg["system_name_at"] = cfg["system_name_at"].replace(cfg.pop("path"),
                                                              "")
    assert values[0] == values[1]


def test_cli_plan_with_and_without_a_model_file(tmp_path):
    # the bundled scenario's relaxed plan builds no model; planned over a
    # model file, which is checked against the scenario, it is the same plan
    d = str(tmp_path) + "/"
    assert cli.main(["abstract", "--config", "pendulum", "--out",
                     d + "m.abs"]) == 0
    assert cli.main(["plan", "--config", "pendulum", "--out", d + "a"]) == 0
    assert cli.main(["plan", "--config", "pendulum", "--in", d + "m.abs",
                     "--out", d + "b"]) == 0
    plan = (tmp_path / "a").read_bytes()
    assert plan and plan == (tmp_path / "b").read_bytes()


def test_readme_and_help_list_every_key(capsys):
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text[text.index("| Section | Key |"):].split("\n\n")[0]
    listed = [((section.strip(), key.strip()), row)
              for row in table.splitlines()[2:]
              for section, keys in [row.strip("|").split("|")[:2]]
              for key in keys.split("/")]
    # a list, not a dict: a key listed twice makes the lengths differ
    assert (sorted(pair for pair, _ in listed)
            == sorted((row.section, row.key) for row in KEYS))
    # each key's row states the range of its rule, and no other range
    rows = dict(listed)
    for row in KEYS:
        found = {rule: written
                 for rule, (_, written, _) in RANGE_RULES.items()
                 if written in rows[(row.section, row.key)]}
        # a range found inside a longer one found, as ">= 0" and "an int"
        # inside "an int >= 0", is part of that one
        stated = [rule for rule, written in found.items()
                  if not any(written != other and written in other
                             for other in found.values())]
        assert stated == ([row.rule] if row.rule else []), row.key
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    printed = capsys.readouterr().out
    for row in KEYS:
        assert f"  {row.section}.{row.key} = " in printed


@pytest.mark.parametrize("row", [row for row in KEYS if row.rule],
                         ids=lambda row: f"{row.section}-{row.key}")
def test_every_ruled_key_refuses_with_its_rule(tmp_path, row):
    # a number outside its key's range is refused at its line with the
    # rule's one message, each number of a scale alike; the values are
    # finite, as _real refuses nan and inf first
    words, _, outside = RANGE_RULES[row.rule]
    path = tmp_path / "scenario.cfg"
    path.write_text(Path(BUNDLED).read_text())
    first = "0.4 " if row.key == "scale" else ""
    # a file spells numbers only, and an int key's grammar refuses one that
    # is not an int before its rule
    for value in (v for v in outside
                  if type(v) is (int if row.parse is _int else float)):
        at = _with_line(path, row.section, f"{row.key} = {first}{value}")
        message = (f"{path}:{at}: [{row.section}] {row.key}: {row.key} "
                   f"{words}, got {value!r}")
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(str(path))
    if row.rule in (_COUNT, _NATURAL):
        edge = 1 if row.rule is _COUNT else 0
        _with_line(path, row.section, f"{row.key} = {edge}")
        assert getattr(parse_config(str(path)), row.field) == edge


def _non_finite(lines):
    """Each line with its first number replaced by a value that is not a
    finite float: yields (line index, value, mutated lines)."""
    for k, line in enumerate(lines):
        number = re.search(r"-?\d+(?:\.\d+)?", line)
        for value in ("nan", "inf", "-inf", "1e400") if number else ():
            new = line[:number.start()] + value + line[number.end():]
            yield k, value, lines[:k] + [new] + lines[k + 1:]


SCENARIOS = [BUNDLED] + sorted(
    os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench",
                 "scenarios", name) for name in ("cube3d_lazy.cfg",
                                                 "pendulum_fine.cfg"))


@pytest.mark.parametrize("source", SCENARIOS, ids=os.path.basename)
def test_scenario_file_fuzz(tmp_path, source):
    # each line of a scenario under each mutation either fails with an
    # error naming the file, or parses to a config whose plan cells are
    # lattice cells, whose x0 lies in the state box and whose safe box is
    # not inverted
    with open(source) as fh:
        lines = fh.read().splitlines()
    path = tmp_path / os.path.basename(source)
    cases = 0
    for k, name, mutated in itertools.chain(line_mutations(lines),
                                            _non_finite(lines)):
        cases += 1
        path.write_text("\n".join(mutated) + "\n")
        try:
            cfg = parse_config(path)
        except ConfigError as exc:
            assert str(exc).startswith(str(path)), (k, name, str(exc))
            continue
        lattice = cfg.build_lattice()
        for cell in [cfg.plan_start, *cfg.plan_goals]:
            if cell is not None:
                lattice.checked_cell_ids([cell])
        if cfg.sim_x0 is not None:
            assert lattice.contains_many([cfg.sim_x0])[0], (k, name)
        assert all(lo <= hi for lo, hi in zip(cfg.safe_lo, cfg.safe_hi)), \
            (k, name)
    assert cases > 300


def test_cli_refuses_a_model_on_another_lattice(tmp_path, capsys):
    # a.abs is on the bundled 25-cell lattice, b.cfg on an 81-cell one
    model = tmp_path / "a.abs"
    assert cli.main(["abstract", "--config", "pendulum", "--out",
                     str(model)]) == 0
    text = open(BUNDLED).read()
    assert "scale = 0.4 0.4\n" in text
    other = tmp_path / "b.cfg"
    other.write_text(text.replace("scale = 0.4 0.4\n", "scale = 0.2 0.2\n"))
    capsys.readouterr()
    for command in ("abstract", "synthesize", "verify", "plan", "export"):
        code = cli.main([command, "--config", str(other), "--in", str(model),
                         "--out", str(tmp_path / "out.txt")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, command
        assert err == (f"configuration error: {model}: its #lattice is not "
                       f"the lattice of {other} [quantizer]\n"), command
    # the scenario that wrote the model still reads it
    for command in ("abstract", "synthesize", "verify", "plan", "export"):
        assert cli.main([command, "--config", "pendulum", "--in", str(model),
                         "--out", str(tmp_path / "out.txt")]) == 0, command


@pytest.mark.parametrize("variable, key, have, want", [
    ("SYSTEM__TAU", "#tau", 0.2, 0.3),
    ("SYSTEM__LIPSCHITZ", "#L", 6.0, 1.0),
    ("ABSTRACTION__MU", "#mu", 0.002, 0.01)])
def test_cli_refuses_a_model_built_for_other_dynamics(tmp_path, capsys,
                                                      monkeypatch, variable,
                                                      key, have, want):
    # a.abs is the bundled scenario's; the override changes one parameter
    # its successor sets depend on, on the same lattice
    model = tmp_path / "a.abs"
    assert cli.main(["abstract", "--config", "pendulum", "--out",
                     str(model)]) == 0
    monkeypatch.setenv("SYMQUANT_" + variable, str(want))
    capsys.readouterr()
    for command in ("abstract", "synthesize", "verify", "plan", "export"):
        code = cli.main([command, "--config", "pendulum", "--in", str(model),
                         "--out", str(tmp_path / "out.txt")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, command
        assert err == (f"configuration error: {model}: its {key} is {have!r} "
                       f"where {BUNDLED} gives {want!r}\n"), command


@pytest.mark.parametrize("variable, value", [
    ("ABSTRACTION__INPUT_SAMPLES", "11"), ("SYSTEM__INPUT_LO", "-2")])
def test_cli_refuses_a_model_built_on_another_input_grid(tmp_path, capsys,
                                                        monkeypatch, variable,
                                                        value):
    # a.abs is the bundled scenario's and b.abs the override's: the same
    # lattice, tau, L and mu, but input ids that name other inputs
    models = {False: tmp_path / "a.abs", True: tmp_path / "b.abs"}

    def scenario(override):
        if override:
            monkeypatch.setenv("SYMQUANT_" + variable, value)
        else:
            monkeypatch.delenv("SYMQUANT_" + variable, raising=False)

    for override, model in models.items():
        scenario(override)
        assert cli.main(["abstract", "--config", "pendulum", "--out",
                         str(model)]) == 0
    capsys.readouterr()
    for override, model in models.items():
        scenario(not override)
        for command in ("abstract", "synthesize", "verify", "plan", "export"):
            code = cli.main([command, "--config", "pendulum", "--in",
                             str(model), "--out", str(tmp_path / "out.txt")])
            err = capsys.readouterr().err
            assert code == cli.EXIT_CONFIG, (command, override)
            assert err == (f"configuration error: {model}: its input table "
                           f"is not the input grid of {BUNDLED} [system] "
                           "input_lo, input_hi, [abstraction] "
                           "input_samples\n"), command
    # the scenario that wrote a model still reads it
    for override, model in models.items():
        scenario(override)
        for command in ("abstract", "synthesize", "verify", "plan", "export"):
            assert cli.main([command, "--config", "pendulum", "--in",
                             str(model), "--out",
                             str(tmp_path / "out.txt")]) == 0, command


def test_cli_plan_over_another_input_grid_never_reaches_simulate(
        tmp_path, capsys, monkeypatch):
    # an 11-input model planned under the bundled 51-input scenario would
    # give simulate input ids that name other inputs there
    m11, plan = tmp_path / "m11.abs", tmp_path / "plan.txt"
    monkeypatch.setenv("SYMQUANT_ABSTRACTION__INPUT_SAMPLES", "11")
    assert cli.main(["abstract", "--config", "pendulum", "--out",
                     str(m11)]) == 0
    monkeypatch.delenv("SYMQUANT_ABSTRACTION__INPUT_SAMPLES")
    capsys.readouterr()
    assert cli.main(["plan", "--config", "pendulum", "--in", str(m11),
                     "--out", str(plan)]) == cli.EXIT_CONFIG
    assert "its input table is not the input grid" in capsys.readouterr().err
    assert not plan.exists()


def test_cli_refuses_a_system_of_another_dimension(tmp_path, capsys):
    # the 1-D linear system on the bundled 2-D lattice, also in simulate,
    # which builds no model
    plan = tmp_path / "plan.txt"
    assert cli.main(["plan", "--config", "pendulum", "--out", str(plan)]) == 0
    text = open(BUNDLED).read()
    assert "name = pendulum\n" in text
    at = text[:text.index("name = pendulum\n")].count("\n") + 1
    other = tmp_path / "linear.cfg"
    other.write_text(text.replace("name = pendulum\n", "name = linear\n"))
    capsys.readouterr()
    for argv in (["abstract"], ["simulate", "--in", str(plan)]):
        code = cli.main(argv + ["--config", str(other), "--out",
                                str(tmp_path / "out.txt")])
        assert code == cli.EXIT_CONFIG, argv
        assert capsys.readouterr().err == (
            f"configuration error: {other}:{at}: [system] name: system "
            "dimension 1 does not match lattice dimension 2\n"), argv


@pytest.mark.parametrize("name,message", [
    ("no_such_system", "unknown system 'no_such_system' (registered: "),
    ("linear", "system dimension 1 does not match lattice dimension 2\n"),
])
def test_system_name_errors_name_the_variable_that_set_it(
        tmp_path, capsys, monkeypatch, name, message):
    cfg = _fast_cfg(tmp_path)
    monkeypatch.setenv("SYMQUANT_SYSTEM__NAME", name)
    assert cli.main(["abstract", "--config", cfg, "--out",
                     str(tmp_path / "m.abs")]) == cli.EXIT_CONFIG
    assert capsys.readouterr().err.startswith(
        "configuration error: SYMQUANT_SYSTEM__NAME: [system] name: "
        + message)


def test_system_name_left_unset_is_located_at_the_file(tmp_path):
    cfg = _fast_cfg(tmp_path)
    with open(cfg) as fh:
        kept = [line for line in fh if not line.startswith("name =")]
    with open(cfg, "w") as fh:
        fh.writelines(kept)
    parsed = parse_config(cfg)
    assert (parsed.system_name, parsed.system_name_at) == (
        "pendulum", f"{cfg}: [system] name")


def test_cli_build_constructs_one_lattice(tmp_path, monkeypatch):
    plan = tmp_path / "plan.txt"
    assert cli.main(["plan", "--config", "pendulum", "--out", str(plan)]) == 0
    built = []
    post_init = sq.LogLattice.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(sq.LogLattice, "__post_init__", counted)
    for argv in (["abstract", "--out", str(tmp_path / "m.abs")],
                 ["simulate", "--in", str(plan), "--out",
                  str(tmp_path / "t.csv")]):
        built.clear()
        assert cli.main(argv + ["--config", "pendulum"]) == 0
        assert len(built) == 1, argv
