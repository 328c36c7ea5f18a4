"""One child process of the benchmark.

    python3 bench/child.py cli [--trace FILE] -- <symquant arguments>
    python3 bench/child.py setup CONFIG
    python3 bench/child.py probe CONFIG --seed N --points FILE --out FILE
    python3 bench/child.py reference

``cli`` runs one ``symquant`` subcommand through ``symquant.cli.main``, as
the installed ``symquant`` script would, after registering the benchmark's
own systems.  With ``--trace`` it wraps the layer entry points first and
writes the spans and counts to FILE as JSON when the subcommand ends.
``setup`` stops after the set-up a user waits for before any subcommand
works: importing the package, parsing the scenario and building the system
and the lattice.  ``probe`` times single layer functions (see probes.py).
``reference`` does a fixed piece of work that does not touch symquant; run.py
times it to follow the machine's speed.

The package is imported from ``PYTHONPATH``; run.py points it at the
checkout's ``src``.
"""

import argparse
import json
import sys
import time


def _import_cli():
    start = time.perf_counter()
    import symquant.cli
    end = time.perf_counter()
    import systems
    systems.register()
    return symquant.cli, start, end


def run_cli(argv, trace_path):
    cli, import_start, import_end = _import_cli()
    if trace_path is None:
        return cli.main(argv)
    from tracing import Tracer

    tracer = Tracer()
    tracer.span("cli.import", import_start, import_end)
    tracer.install(cli)
    code = cli.main(argv)
    if argv and argv[0] == "abstract":
        tracer.stats["model"] = tracer.model_stats()
    with open(trace_path, "w") as fh:
        json.dump({"spans": tracer.spans, "stats": tracer.stats}, fh)
    return code


def run_setup(config):
    _import_cli()
    from symquant.config import parse_config

    cfg = parse_config(config)
    cfg.build_system()
    cfg.build_lattice()
    return 0


REFERENCE_ROUNDS = 1200


def run_reference():
    """Work of the same kind as the program's, with numpy and without
    symquant: quantize small batches of points in a Python loop into a dict,
    and sort a block of points.  A change to the program cannot change it."""
    import numpy as np

    rng = np.random.default_rng(12345)
    points = rng.uniform(-1.0, 1.0, size=(4096, 3))
    counts = {}
    total = 0.0
    for r in range(REFERENCE_ROUNDS):
        first = (r * 64) % len(points)
        for row in points[first:first + 64]:
            cell = tuple(int(v) for v in np.floor(row * 8.0))
            counts[cell] = counts.get(cell, 0) + 1
        block = points[:512] * (1.0 + r * 1e-6)
        total += float(np.sort(block, axis=0)[256].sum())
    return 0 if len(counts) == 2593 and np.isfinite(total) else 1


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["cli"]:
        rest = argv[1:]
        trace_path = None
        if rest[:1] == ["--trace"]:
            trace_path, rest = rest[1], rest[2:]
        if rest[:1] == ["--"]:
            rest = rest[1:]
        return run_cli(rest, trace_path)
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    setup = sub.add_parser("setup")
    setup.add_argument("config")
    probe = sub.add_parser("probe")
    probe.add_argument("config")
    probe.add_argument("--seed", type=int, required=True)
    probe.add_argument("--points", required=True)
    probe.add_argument("--out", required=True)
    sub.add_parser("reference")
    args = parser.parse_args(argv)
    if args.mode == "reference":
        return run_reference()
    if args.mode == "setup":
        return run_setup(args.config)
    _import_cli()
    import probes
    return probes.main(args.config, args.seed, args.points, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
