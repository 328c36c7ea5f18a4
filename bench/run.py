"""End-to-end benchmark of the ``symquant`` command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the package from ``src``
there and writes its files under ``.bench_out``.  Each subcommand runs as a
fresh ``python3`` process with ``--threads 1``, one at a time, as a user
would run the pipeline.  One pass runs every subcommand of the workload
once, a fresh process times the set-up a user waits for, and another times
a fixed reference job that does not use symquant.  After one untimed
warm-up pass, these jobs run in turn until ``--seconds`` are spent.  Each
end-to-end time is the interquartile mean of its runs, scaled by the
reference job's to a fixed machine speed (see ``end_to_end``); the raw
samples go to ``.bench_out/<workload>/walls.json``.

Every subcommand's exit code and printed counts are checked against the
pinned values below, and its outputs against structural checks; with the
default seed the sha256 of every output file is pinned as well.  Any
mismatch counts as a failed subcommand: the result line then reads
``"correct": false`` and the exit code is 1.

``--trace 1`` runs one pass untraced and one traced, then the layer probes
(probes.py), and prints the per-layer metrics instead; the spans go to
``.bench_out/<workload>/spans.json``.  See NOTES.md for what each metric
means and which end-to-end metric it should move.
"""

import argparse
import csv
import functools
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DEFAULT_SEED = 0
# The end-to-end times are reported at the speed where the reference job
# (child.py) takes this long; end_to_end says why.
REFERENCE_S = 0.5
# A child still running this long after the benchmark started is killed, so
# that a hung subcommand fails the run instead of outliving it.
DEADLINE_S = 170
STARTED = time.perf_counter()


@dataclass
class Step:
    """One subcommand of a pass: its arguments after ``--config``, the lines
    it must print, and the output file it writes."""

    command: str
    args: list
    expect: list
    output: str


@dataclass
class Workload:
    config: str
    steps: list
    hashes: dict  # output file -> sha256 with the default seed


WORKLOADS = {
    "pendulum_fine": Workload(
        config="pendulum_fine.cfg",
        steps=[
            Step("abstract", ["--out", "m.abs"],
                 ["states 441 inputs 11 transitions 177001"], "m.abs"),
            Step("synthesize", ["--in", "m.abs", "--out", "ctrl.txt"],
                 ["states 441", "inputs 11", "transitions 177001",
                  "iterations 8", "domain 0"], "ctrl.txt"),
            Step("verify", ["--in", "m.abs", "--out", "verify.txt"],
                 ["samples tested: 10000", "containment violations: 0",
                  "enabled-input box failures: 0", "result: PASS"],
                 "verify.txt"),
            Step("plan", ["--lazy", "--out", "plan.txt"],
                 ["plan with 15 entries, 76 steps"], "plan.txt"),
            Step("simulate", ["--in", "plan.txt", "--out", "traj.csv"],
                 ["76 steps; terminated: plan_complete"], "traj.csv"),
        ],
        hashes={
            "m.abs": "3f4b1d7418a7425f6633a134fec7a6bf"
                     "e3232e2fc38d70216dd0db523a123c8c",
            "ctrl.txt": "c4229ea8c62d58f4afaa6ac45369a2d7"
                        "eea8d279f3e121f75f363c802a23fade",
            "verify.txt": "7fc57556009f23021957da743bdc56ed"
                          "3542e36e9765be585908a02514260199",
            "plan.txt": "6599f80683a6221c55b690067c768314"
                        "4a3cff46106453cbf0349731d6b1bc60",
            "traj.csv": "f6d3ec0816cd6e578f08c26fa908c722"
                        "f446eb254f9f53ab08461d0fb4788be5",
        },
    ),
    "cube3d_lazy": Workload(
        config="cube3d_lazy.cfg",
        steps=[
            Step("abstract", ["--out", "m.abs"],
                 ["states 343 inputs 11 transitions 114067"], "m.abs"),
            Step("synthesize", ["--lazy", "--out", "ctrl.txt"],
                 ["states 343", "inputs 11", "transitions 114067",
                  "iterations 1", "domain 125"], "ctrl.txt"),
            Step("verify", ["--out", "verify.txt"],
                 ["samples tested: 5000", "containment violations: 0",
                  "enabled-input box failures: 0", "result: PASS"],
                 "verify.txt"),
            Step("plan", ["--lazy", "--out", "plan.txt"],
                 ["plan with 3 entries, 6 steps"], "plan.txt"),
            Step("simulate", ["--in", "ctrl.txt", "--out", "traj.csv"],
                 ["1000 steps; terminated: max_steps"], "traj.csv"),
        ],
        hashes={
            "m.abs": "85795bf8cba5b22bd18d036626deb43c"
                     "088ecc1af243e3031815e391a8c930f6",
            "ctrl.txt": "2d8750f1e14e171d4703f7f5819d64ef"
                        "b9a34fbcf64c2c5f47dbad341facaabf",
            "verify.txt": "c50be5865fcf34d8114cc28eb3fc73c7"
                          "2bdef11186353b8ab32ccc8590d9c79f",
            "plan.txt": "dabc454a612adb77ddb42247d6773fbe"
                        "8a6d311ab61c49c9a45425497033d97e",
            "traj.csv": "3553e0dcce1dec11ed09f0f9753901a5"
                        "209d8d9e785a20cd454186d1f4be1bb8",
        },
    ),
}


class Failure(Exception):
    """A check failed; the message says which."""


def spawn(argv, cwd, stdout_path, env_extra=None):
    """Run ``python3 bench/child.py argv`` to completion; returns (exit
    code, wall seconds, peak RSS in MB)."""
    with open(stdout_path, "w") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "child.py"), *argv], cwd=cwd,
            stdout=out, stderr=subprocess.STDOUT,
            env={**os.environ, "PYTHONPATH": str(SRC), **(env_extra or {})})
        left = STARTED + DEADLINE_S - start
        watchdog = threading.Timer(max(left, 0.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if wall >= left:
        raise Failure(f"{' '.join(argv[:3])} still ran at the deadline")
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _symquant():
    """The package under test, for the geometry the checks need."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import symquant.config
    return symquant.config


def read_trajectory(path, dim_x):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in row[1:1 + dim_x]] for row in rows])


def check_output(step: Step, workdir: Path, cfg, printed: list):
    """Structural checks that hold for every seed."""
    path = workdir / step.output
    if not path.is_file() or path.stat().st_size == 0:
        raise Failure(f"{step.output} missing or empty")
    text = path.read_text()
    if step.command == "synthesize":
        cells = [ln for ln in text.splitlines() if ln.startswith("cell ")]
        if f"domain {len(cells)}" not in printed:
            raise Failure(f"{step.output} holds {len(cells)} cells")
    elif step.command == "verify":
        if text.splitlines() != printed:
            raise Failure(f"{step.output} differs from the printed summary")
    elif step.command == "plan":
        holds = [int(line.split()[1]) for line in text.splitlines()]
        if printed != [f"plan with {len(holds)} entries, {sum(holds)} steps"]:
            raise Failure(f"{step.output} disagrees with the printed plan")
    elif step.command == "simulate":
        states = read_trajectory(path, len(cfg.state_lo))
        if printed[0].split()[0] != str(len(states) - 1):
            raise Failure(f"{step.output} holds {len(states)} states")
        if cfg.sim_policy == "controller":
            inside = ((states >= np.array(cfg.safe_lo))
                      & (states <= np.array(cfg.safe_hi))).all(axis=1)
            if not inside.all():
                raise Failure(f"state {int(np.argmin(inside))} leaves the "
                              "safe box")


def pick_x0(cfg, ctrl_path: Path, seed: int) -> str:
    """A seeded start state inside the synthesized controller's domain."""
    cells = [line.split()[1] for line in ctrl_path.read_text().splitlines()
             if line.startswith("cell ")]
    if not cells:
        raise Failure("the controller domain is empty")
    rng = np.random.default_rng(seed)
    cell = tuple(int(v) for v in cells[rng.integers(len(cells))].split(","))
    box = cfg.build_lattice().cell_box(cell)
    return " ".join(repr(float(v)) for v in rng.uniform(box.lo, box.hi))


class Pass:
    """The subcommands of one workload, run in one fresh directory."""

    def __init__(self, name: str, seed: int, trace: bool = False):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.trace = trace
        self.config_path = BENCH / "scenarios" / self.workload.config
        self.cfg = _symquant().parse_config(self.config_path)
        self.workdir = OUT / name / ("traced" if trace else "pass")
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.walls = {step.command: [] for step in self.workload.steps}
        self.setup_walls = []
        self.reference_walls = []
        self.peak_rss_mb = 0.0
        self.printed = {}
        self.failures = []
        self.attempted = 0

    def run_all(self):
        for step in self.workload.steps:
            self.run(step)

    def setup(self):
        """Time one fresh process that does the set-up and exits."""
        self.attempted += 1
        try:
            code, wall, _ = spawn(["setup", str(self.config_path)],
                                  self.workdir, self.workdir / "setup.log")
            self.setup_walls.append(wall)
            if code != 0:
                raise Failure(f"exit code {code}")
        except Failure as exc:
            self.failures.append(f"setup: {exc}")

    def reference(self):
        """Time one fresh process that does the reference work and exits."""
        self.attempted += 1
        try:
            code, wall, _ = spawn(["reference"], self.workdir,
                                  self.workdir / "reference.log")
            self.reference_walls.append(wall)
            if code != 0:
                raise Failure(f"exit code {code}")
        except Failure as exc:
            self.failures.append(f"reference: {exc}")

    def run(self, step: Step):
        """Run one subcommand and check what it printed and wrote."""
        self.attempted += 1
        argv = ["cli"]
        if self.trace:
            argv += ["--trace", f"{step.command}.trace.json"]
        argv += ["--", step.command, "--config", str(self.config_path),
                 "--threads", "1", *step.args]
        env = {}
        try:
            if step.command == "verify":
                argv += ["--seed", str(self.seed)]
            if step.command == "simulate" and \
                    self.cfg.sim_policy == "controller":
                env["SYMQUANT_SIMULATE__X0"] = pick_x0(
                    self.cfg, self.workdir / "ctrl.txt", self.seed)
            log = self.workdir / f"{step.command}.log"
            code, wall, rss = spawn(argv, self.workdir, log, env)
            self.walls[step.command].append(wall)
            self.peak_rss_mb = max(self.peak_rss_mb, rss)
            printed = log.read_text().splitlines()
            self.printed[step.command] = printed
            if code != 0:
                raise Failure(f"exit code {code}: {printed[-3:]}")
            if printed != step.expect:
                raise Failure(f"printed {printed}, expected {step.expect}")
            check_output(step, self.workdir, self.cfg, printed)
            pinned = self.workload.hashes.get(step.output)
            if self.seed == DEFAULT_SEED and pinned is not None:
                got = sha256(self.workdir / step.output)
                if got != pinned:
                    raise Failure(f"{step.output} sha256 {got} != {pinned}")
        except (Failure, OSError, ValueError, IndexError) as exc:
            self.failures.append(f"{step.command}: {exc}")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def middle_mean(values) -> float:
    """The mean of the middle half of ``values`` (the interquartile mean).
    Like the median it ignores the slowest and fastest quarter, where the
    machine's bursts land, but it averages more samples."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def end_to_end(name: str, seed: int, seconds: float):
    """One warm-up pass, then the jobs of the pass (the reference work, the
    set-up, then each subcommand) in turn until ``seconds`` are spent.  The
    warm-up pass is checked like every other but not timed.  Taking the jobs
    in turn spreads each job's samples over the whole run.  A job runs only
    while its median so far still fits in the time left.

    Each time metric is the job's interquartile mean wall time scaled to
    the reference speed: times ``REFERENCE_S`` over the reference job's
    interquartile mean in the same run.  The machine's speed drifts by a
    third between runs a minute apart, and every job drifts with it
    (NOTES.md); the scaling takes that common factor out.  The raw times are
    printed as well."""
    start = time.perf_counter()
    run = Pass(name, seed)
    jobs = [("reference", run.reference), ("setup", run.setup)] + [
        (step.command, functools.partial(run.run, step))
        for step in run.workload.steps]
    walls = {"reference": run.reference_walls, "setup": run.setup_walls,
             **run.walls}
    for _, job in jobs:
        job()
    warm = {key: w[-1] if w else 0.0 for key, w in walls.items()}
    for w in walls.values():
        w.clear()
    turn = 0
    while not run.failures:
        key, job = jobs[turn % len(jobs)]
        expected = statistics.median(walls[key]) if walls[key] else warm[key]
        if expected > seconds - (time.perf_counter() - start):
            break
        job()
        turn += 1
    raw = {key: middle_mean(w or [warm[key]]) for key, w in walls.items()}
    speed = REFERENCE_S / raw["reference"] if raw["reference"] > 0 else 0.0
    metrics = {f"{key}_s": _metric(value * speed, "s")
               for key, value in raw.items() if key != "reference"}
    metrics["peak_rss_mb"] = _metric(run.peak_rss_mb, "MB")
    with open(OUT / name / "walls.json", "w") as fh:
        json.dump({"warm_up": warm, "timed": walls}, fh)
    failed = len(run.failures)
    print(f"{name}: seed {seed}, timed runs after one warm-up pass; "
          f"scale {speed:.4f} = {REFERENCE_S} s / reference time")
    for key, w in walls.items():
        w = w or [warm[key]]
        scaled = f"{raw[key] * speed:>8.4f} s scaled" if key != "reference" \
            else " " * 17
        print(f"  {key + '_s':<14} {scaled}  raw {raw[key]:.4f} "
              f"min {min(w):.4f} max {max(w):.4f} n={len(w)}")
    print(f"  {'peak_rss_mb':<14} {run.peak_rss_mb:>8.4f} MB")
    print(f"  {'failed_frac':<14} {failed / run.attempted:>8.4f} ratio "
          f"({failed} of {run.attempted})")
    return metrics, run.attempted, failed, run.failures


def _self_times(spans):
    """Self time of each span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def _total(spans, name):
    return sum(end - start for n, start, end, _ in spans if n == name)


def _count(printed, pattern):
    """The integer that ``pattern``'s group captures in a printed line."""
    for line in printed:
        found = re.fullmatch(pattern, line)
        if found:
            return int(found.group(1))
    raise Failure(f"no printed line matches {pattern!r}")


def _percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def traced(name: str, seed: int):
    """One untraced pass, one traced pass and the layer probes."""
    plain = Pass(name, seed)
    plain.run_all()
    trace = Pass(name, seed, trace=True)
    trace.run_all()
    failures = plain.failures + trace.failures
    workdir = OUT / name / "traced"
    config_path = BENCH / "scenarios" / WORKLOADS[name].config
    code, _, _ = spawn(["probe", str(config_path), "--seed", str(seed),
                        "--points", "traj.csv", "--out", "probes.json"],
                       workdir, workdir / "probe.log")
    if code != 0:
        raise Failure(f"probe: exit code {code}")
    if failures:
        raise Failure("; ".join(failures))
    probes = json.loads((workdir / "probes.json").read_text())

    procs = {}
    for step in WORKLOADS[name].steps:
        procs[step.command] = json.loads(
            (workdir / f"{step.command}.trace.json").read_text())
    spans = [s for p in procs.values() for s in p["spans"]]
    printed = trace.printed
    model = procs["abstract"]["stats"]["model"]

    m = {}
    m["cli.import_s"] = _metric(statistics.median(
        _total(p["spans"], "cli.import") for p in procs.values()), "s")
    m["config.parse_s"] = _metric(statistics.median(
        _total(p["spans"], "config.parse") for p in procs.values()), "s")
    for key, timing in probes["timings"].items():
        m[key] = _metric(timing["us"], "us")

    build_self = 0.0
    for p in procs.values():
        ps = p["spans"]
        for i, (n, start, end, _) in enumerate(ps):
            if n == "abstraction.build":
                children = sum(e - s for c, s, e, parent in ps if parent == i
                               and c == "abstraction.materialize")
                build_self += end - start - children
    m["abstraction.build_s"] = _metric(build_self, "s")
    m["abstraction.materialize_s"] = _metric(
        _total(spans, "abstraction.materialize"), "s")
    eager = _total(procs["abstract"]["spans"], "abstraction.materialize")
    m["abstraction.transitions_per_s"] = _metric(
        model["transitions"] / eager, "1/s")
    m["abstraction.save_s"] = _metric(_total(spans, "abstraction.save"), "s")
    m["abstraction.save_bytes"] = _metric(
        (workdir / "m.abs").stat().st_size, "bytes")
    m["abstraction.load_s"] = _metric(_total(spans, "abstraction.load"), "s")
    m["abstraction.load_rss_mb"] = _metric(max(
        p["stats"].get("load_rss_mb", 0.0) for p in procs.values()), "MB")
    m["abstraction.dedup_ratio"] = _metric(
        probes["candidate_pairs"] / probes["grid_pairs"], "ratio")
    m["abstraction.enabled_ratio"] = _metric(
        model["enabled_pairs"] / probes["candidate_pairs"], "ratio")

    verify_s = _total(spans, "refinement.verify")
    m["refinement.safe_set_s"] = _metric(
        _total(spans, "refinement.safe_set"), "s")
    m["refinement.verify_s"] = _metric(verify_s, "s")
    samples = _count(printed["verify"], r"samples tested: (\d+)")
    m["refinement.verify_us_per_sample"] = _metric(verify_s / samples * 1e6,
                                                   "us")

    fixpoint_s = _total(spans, "synthesis.fixpoint")
    sweeps = _count(printed["synthesize"], r"iterations (\d+)")
    m["synthesis.fixpoint_s"] = _metric(fixpoint_s, "s")
    m["synthesis.fixpoint_sweeps"] = _metric(sweeps, "count")
    m["synthesis.fixpoint_s_per_sweep"] = _metric(fixpoint_s / sweeps, "s")
    m["synthesis.plan_s"] = _metric(_total(spans, "synthesis.plan"), "s")
    m["synthesis.simulate_s"] = _metric(
        _total(spans, "synthesis.simulate"), "s")
    # One closed-loop step runs from one successor call to the next.
    sim = procs["simulate"]["spans"]
    loop = [i for i, s in enumerate(sim) if s[0] == "synthesis.simulate"][0]
    starts = sorted(s[1] for s in sim
                    if s[3] == loop and s[0] == "dynamics.successor")
    steps_us = [(b - a) * 1e6 for a, b in zip(starts, starts[1:])]
    m["synthesis.step_us_p50"] = _metric(_percentile(steps_us, 0.5), "us")
    m["synthesis.step_us_p99"] = _metric(_percentile(steps_us, 0.99), "us")

    for key in ("states", "inputs", "enabled_pairs", "transitions",
                "blocking_cells"):
        m[f"abstraction.{key}"] = _metric(model[key], "count")
    m["synthesis.domain_cells"] = _metric(
        _count(printed["synthesize"], r"domain (\d+)"), "count")
    m["synthesis.plan_steps"] = _metric(_count(
        printed["plan"], r"plan with \d+ entries, (\d+) steps"), "count")
    m["synthesis.closed_loop_steps"] = _metric(_count(
        printed["simulate"], r"(\d+) steps; terminated: \w+"), "count")

    # Parent indexes point into the span list of their own process, so self
    # times are computed per process before they are summed by layer.
    layers = {}
    for cmd, p in procs.items():
        own_times = _self_times(p["spans"])
        if own_times and min(own_times) < 0:
            raise Failure(f"{cmd}: a span's children outlast it")
        for (n, *_), own in zip(p["spans"], own_times):
            layer = n.split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + own
    wall = sum(w[0] for w in trace.walls.values())
    layers["cli"] = wall - sum(v for k, v in layers.items() if k != "cli")
    for layer in ("cli", "config", "abstraction", "dynamics", "refinement",
                  "synthesis"):
        m[f"layer.{layer}.self_s"] = _metric(layers.get(layer, 0.0), "s")
    m["trace.overhead_s"] = _metric(
        wall - sum(w[0] for w in plain.walls.values()), "s")
    m["trace.spans"] = _metric(len(spans), "count")

    with open(OUT / name / "spans.json", "w") as fh:
        json.dump([{"run": f"{name}/seed{seed}/{cmd}", "name": n,
                    "start": start, "end": end, "parent": parent}
                   for cmd, p in procs.items()
                   for n, start, end, parent in p["spans"]], fh)

    print(f"{name}: seed {seed}, traced pass minus untraced pass")
    for step in WORKLOADS[name].steps:
        cmd = step.command
        print(f"  {cmd + '_s':<14} traced {trace.walls[cmd][0]:.4f} s, "
              f"untraced {plain.walls[cmd][0]:.4f} s")
    print("layer probes (per call or row, samples timed):")
    for key, timing in probes["timings"].items():
        print(f"  {key:<38} {timing['us']:>10.3f} us  n={timing['samples']}")
    for key, value in m.items():
        print(f"  {key:<38} {value['value']:>14.6g} {value['unit']}")
    return m, plain.attempted + trace.attempted + 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "symquant" / "__init__.py").is_file():
        print(f"no symquant sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # Children inherit this: every process runs on the same CPU, which
    # halved the spread of the set-up time on the 2-vCPU machine the bounds
    # were sized on (NOTES.md).
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    if args.trace:
        try:
            metrics, attempted = traced(args.workload, args.seed)
            failures = []
        except (Failure, OSError, KeyError, ValueError) as exc:
            metrics, attempted, failures = {}, 1, [str(exc)]
        failed = len(failures)
    else:
        metrics, attempted, failed, failures = end_to_end(
            args.workload, args.seed, args.seconds)
    for failure in failures:
        print(f"FAILED {args.workload} seed {args.seed}: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
