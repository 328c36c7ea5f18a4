"""The package's import graph and public names: each entry point loads
only the submodules it runs.  pytest's own process already holds every
module, so each check of what gets loaded runs in a fresh interpreter."""

import importlib
import inspect
import os
import subprocess
import sys

import pytest

import symquant as sq

STAGES = ("abstraction", "refinement", "synthesis")


def _run(script):
    src = os.path.dirname(os.path.dirname(sq.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_pipeline_stage():
    _run(f"""
import sys
def loaded():
    return {{m for m in sys.modules if m.startswith("symquant")}}
import symquant
assert loaded() == {{"symquant"}}, loaded()
import symquant.cli
assert loaded() == {{"symquant." + m for m in ("errors", "quantizer",
                    "dynamics", "config", "cli")}} | {{"symquant"}}, loaded()
assert symquant.__version__ == {sq.__version__!r}
""")


def test_each_command_loads_only_its_stages(tmp_path):
    # a stage once loaded stays loaded, so each command runs in a fresh
    # interpreter; earlier rows write the files that later rows read
    d = str(tmp_path) + "/"
    for argv, stages in (
            (["abstract", "--out", d + "m.abs"], {"abstraction"}),
            (["export", "--in", d + "m.abs", "--out", d + "g.dot"],
             {"abstraction"}),
            (["verify", "--in", d + "m.abs", "--out", d + "v.txt"],
             {"abstraction", "refinement"}),
            (["synthesize", "--in", d + "m.abs", "--out", d + "c.txt"],
             set(STAGES)),
            # the bundled scenario's plan is relaxed: it needs no model
            (["plan", "--out", d + "p.txt"], {"synthesis"}),
            (["plan", "--in", d + "m.abs", "--out", d + "q.txt"],
             {"abstraction", "synthesis"}),
            (["simulate", "--in", d + "p.txt", "--out", d + "t.csv"],
             {"synthesis"})):
        _run(f"""
import sys
from symquant import cli
assert cli.main({argv + ["--config", "pendulum"]!r}) == 0
loaded = {{m for m in {STAGES!r} if "symquant." + m in sys.modules}}
assert loaded == {stages!r}, ({argv[0]!r}, loaded)
""")


def test_public_names_resolve_on_first_use():
    # each name is the object its defining submodule holds, and is listed
    _run("""
import importlib
import symquant
names = set(dir(symquant))
for name in symquant.__all__:
    value = getattr(symquant, name)
    owner = importlib.import_module(value.__module__)
    assert owner.__name__.startswith("symquant."), name
    assert getattr(owner, name) is value, name
    assert name in names, name
star = {}
exec("from symquant import *", star)
assert set(symquant.__all__) <= set(star)
""")


def test_each_public_name_is_declared_once():
    # a submodule exports exactly its _OWNERS names, and every class or
    # function that it defines without a leading underscore is one of them
    for module_name in set(sq._OWNERS.values()):
        module = importlib.import_module(f"symquant.{module_name}")
        names = sorted(n for n, m in sq._OWNERS.items() if m == module_name)
        assert module.__all__ == names, module_name
        defined = {name for name, value in vars(module).items()
                   if (inspect.isclass(value) or inspect.isfunction(value))
                   and value.__module__ == module.__name__}
        assert {n for n in defined if not n.startswith("_")} <= set(names), \
            module_name
    # a value that is not a class or function stays out of the exports
    from symquant import dynamics
    assert "PENDULUM_CONSTANTS" not in dynamics.__all__
    assert dynamics.PENDULUM_CONSTANTS["mass"] > 0


def test_submodule_and_unknown_name_after_bare_import():
    _run("""
import sys
import symquant
assert symquant.abstraction is sys.modules["symquant.abstraction"]
assert "abstraction" in dir(symquant)
assert "symquant.refinement" not in sys.modules
try:
    symquant.no_such_name
except AttributeError as exc:
    assert "no_such_name" in str(exc)
else:
    raise AssertionError("an unknown name resolved")
""")


def test_dir_lists_public_names_and_submodules():
    # in this process, so that the tier-1 run covers __dir__ itself
    names = dir(sq)
    assert names == sorted(set(names))
    assert set(sq.__all__) <= set(names)
    assert {"errors", "quantizer", "dynamics", *STAGES} <= set(names)



def test_method_forwarders_stay_deleted():
    # each forwarded to one method, which is now the operation's one name
    from symquant import quantizer, refinement, synthesis
    for name in ("scalar_quantize", "vector_quantize", "cell_bounds",
                 "levels_overlapping_interval", "enumerate_cells", "relate"):
        for module in (sq, quantizer, refinement):
            with pytest.raises(AttributeError):
                getattr(module, name)
        assert name not in dir(sq) and name not in sq.__all__
    # the model's forwarder to save_abstraction
    assert not hasattr(sq.SymbolicModel, "save")
    # a controller answers concrete states itself, and a plan carries the
    # lattice whose bounds stop it
    for name in ("refine_controller", "ConcreteController"):
        for module in (sq, synthesis):
            with pytest.raises(AttributeError):
                getattr(module, name)
        assert name not in dir(sq) and name not in sq.__all__
    plan = sq.Plan(steps=((0, 1),), inputs=[[0.0]],
                   lattice=sq.LogLattice.from_params(0.2, [1.0], [-1], [1]))
    with pytest.raises(TypeError, match="lattice"):
        sq.simulate_closed_loop(sq.linear_system(), plan, [0.0], 1,
                                lattice=plan.lattice)
    # second names of an operation that another name owns: the lattice's
    # checked cell ids, its eta, an empty enabled-input set, the query, and
    # dataclasses.replace
    model = sq.SymbolicModel.from_tables(plan.lattice, [[0.0]], {(0, 0): [0]},
                                         tau=0.2, mu=0.002, lipschitz=1.0)
    for owner, name in ((model, "state_ids"), (model, "eta"),
                        (model, "is_blocking"),
                        (sq.SafetyController, "in_domain"),
                        (sq.SampledSystem, "with_settings"),
                        (plan.lattice, "check_index")):
        assert not hasattr(owner, name), name
    # parameters that no caller passed
    with pytest.raises(TypeError):
        sq.make_system("linear", tau=0.1)
    with pytest.raises(TypeError):
        sq.DivergenceError(0, "diverged")
