"""Scenario parsing, environment overrides, CLI workflows and exit codes."""

import io
import itertools
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import symquant as sq
from symquant import cli
from symquant.config import parse_config
from symquant.errors import ConfigError
from conftest import line_mutations

BUNDLED = os.path.join(os.path.dirname(sq.__file__), "scenarios",
                       "pendulum.cfg")


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


def test_env_override(monkeypatch):
    monkeypatch.setenv("SYMQUANT_VERIFY__SAMPLES", "7")
    monkeypatch.setenv("SYMQUANT_ABSTRACTION__INPUT_SAMPLES", "11")
    cfg = parse_config(BUNDLED)
    assert cfg.samples == 7
    assert cfg.input_samples == 11


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
    good.write_text("\n".join(lines + ["[run]", "threads = 2"]) + "\n")
    assert parse_config(good).samples == 10000
    typo = lines.index("samples = 10000")
    for at, line in [(typo, "sample = 5"), (len(lines), "[verfy]"),
                     (0, "tau = 0.2")]:
        bad = tmp_path / "bad.cfg"
        bad.write_text("\n".join(lines[:at] + [line] + lines[at:]) + "\n")
        with pytest.raises(ConfigError, match=rf"bad\.cfg:{at + 1}: unknown"):
            parse_config(bad)
    # the CLI names the typo and exits 2 instead of running 10k samples
    bad.write_text("\n".join(lines[:typo] + ["sample = 5"] + lines[typo + 1:]))
    assert cli.main(["verify", "--config", str(bad)]) == cli.EXIT_CONFIG
    assert (f"bad.cfg:{typo + 1}: unknown key [verify] sample"
            in capsys.readouterr().err)


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
             for sid, dst, uid in model.iter_transitions()]
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
    src = os.path.dirname(os.path.dirname(sq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
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
                                  "eta_not_the_lattice_eta"])
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
    elif case == "no_lattice_line":
        assert lines[1].startswith("#lattice ")
        at = None
        del lines[1]
    else:
        at = lines.index(next(ln for ln in lines if ln.startswith("state 5 ")))
        lines[at] = lines[at].replace("state 5 ", "state 7 ")
        at += 1
    path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    where = "m.abs: no #lattice line" if at is None else f"m.abs:{at}: "
    for command in ("synthesize", "verify", "export"):
        code = cli.main([command, "--config", cfg, "--in", str(path),
                         "--out", str(tmp_path / "out.txt")])
        assert code == cli.EXIT_BUILD
        err = capsys.readouterr().err
        assert where in err and "Traceback" not in err, command


def test_cli_verbose_logs_phases(tmp_path):
    # the ``python -m symquant.cli`` entry point in a fresh process
    cfg = _fast_cfg(tmp_path)
    src = os.path.dirname(os.path.dirname(sq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
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
    ("system", "name = no_such_system", "unknown system 'no_such_system'"),
    ("quantizer", "state_lo = -0.3 -1", "[quantizer]: axis 0: bounds"),
])
def test_config_rejects_what_its_builders_reject(tmp_path, capsys, section,
                                                 line, message):
    # the system is built by each command, the lattice already when the
    # scenario is read; neither failure has one line to name
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


def _contracting_cfg(tmp_path):
    # a user-defined system selected by name via the registration hook
    def field(x, u):
        x = np.asarray(x, float)
        u = np.asarray(u, float)
        return np.stack([-x[..., 0] + u[..., 0], -x[..., 1] + u[..., 0]],
                        axis=-1)

    def factory(tau=0.5, integrator_steps=10):
        return sq.SampledSystem(dim_x=2, dim_u=1, field=field, lipschitz=1.0,
                                tau=tau, input_lo=(-1.0,), input_hi=(1.0,),
                                integrator_steps=integrator_steps,
                                vectorized=True, name="contracting")

    sq.register_system("contracting", factory)
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
                                  "no_cell_keyword",
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
    ("plan", "goals = 0,0 ; -1,0,0"),
    ("run", "threads = 0"),
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


def test_readme_and_help_list_every_key(capsys):
    from symquant.config import KEYS
    readme = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                          "README.md")
    with open(readme) as fh:
        text = fh.read()
    table = text[text.index("| Section | Key |"):].split("\n\n")[0]
    listed = [(section.strip(), key.strip())
              for row in table.splitlines()[2:]
              for section, keys in [row.strip("|").split("|")[:2]]
              for key in keys.split("/")]
    assert sorted(listed) == sorted((row.section, row.key) for row in KEYS)
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    printed = capsys.readouterr().out
    for row in KEYS:
        assert f"  {row.section}.{row.key} = " in printed


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
                lattice.check_index(cell)
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
