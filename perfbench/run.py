"""Benchmark of the markup-guarantee command line, run in process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the workload's configs from the seed, then runs whole passes through
its CLI commands (`markup_guarantee.cli.main`) for about S seconds, checking
every output row against the benchmark's own reference values.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (setup_s, pass_s,
peak_rss_mb).  With --trace 1 untraced and traced passes alternate, and the
metrics are the per-layer ones the tracer gathers from the traced passes.
The program is imported from src/ next to this directory; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_REPEATS = 7

EXIT_NO_PROGRAM = 2
EXIT_TRACER = 3

# Runs in a fresh interpreter: import the package and build the configs,
# timed from inside so interpreter start-up is excluded.
_SETUP_CHILD = """
import sys, time
sys.path[:0] = [sys.argv[1], sys.argv[2]]
t0 = time.perf_counter()
import markup_guarantee.cli
import workloads
workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5])
print(repr(time.perf_counter() - t0))
"""


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload, seed, work_dir):
    """Median over fresh interpreters of importing the package and building
    the workload's configs."""
    times = []
    for i in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD, SRC, HERE, workload,
             str(seed), os.path.join(work_dir, f"setup{i}")],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_pass(cli, commands, out_dir, tracer=None):
    """Run every command once; returns (wall seconds, [(exit, text)])."""
    results = []
    sink = io.StringIO()
    t0 = time.perf_counter()
    for cmd, config_path in commands:
        cmd_out = os.path.join(out_dir, cmd.name)
        span = (tracer.span("cli.command") if tracer
                else contextlib.nullcontext())
        with span, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            code = cli.main(cmd.argv(config_path, cmd_out))
        results.append(code)
    wall = time.perf_counter() - t0
    texts = []
    for (cmd, _), code in zip(commands, results):
        path = os.path.join(out_dir, cmd.name, cmd.output)
        try:
            with open(path) as fh:
                texts.append(fh.read())
        except FileNotFoundError:
            texts.append(None)
        if os.path.isdir(os.path.join(out_dir, cmd.name)):
            shutil.rmtree(os.path.join(out_dir, cmd.name))
    return wall, list(zip(results, texts))


def check_pass(workloads, commands, outputs):
    """Returns (attempted, [(command, row label, failures)])."""
    attempted = 0
    failures = []
    for (cmd, _), (code, text) in zip(commands, outputs):
        for label, fails in workloads.check_command(cmd, code, text):
            attempted += 1
            if fails:
                failures.append((cmd.name, label, fails))
    return attempted, failures


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "markup_guarantee",
                                       "__init__.py")):
        print(f"no program: {SRC}/markup_guarantee is missing",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path[:0] = [SRC, HERE]
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    # the CLI's default worker count, unless the workload pins it
    os.environ.pop("MARKUP_GUARANTEE_THREADS", None)
    if args.workload in workloads.PINNED_WORKERS:
        os.environ["MARKUP_GUARANTEE_THREADS"] = str(
            workloads.PINNED_WORKERS[args.workload])
    run_dir = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        return _run(args, workloads, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args, workloads, run_dir):
    setup_s = None if args.trace else measure_setup(args.workload, args.seed,
                                                    run_dir)

    import markup_guarantee.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"imported {cli.__file__}, not the program under {SRC}",
              file=sys.stderr)
        return EXIT_NO_PROGRAM
    commands = workloads.build(args.workload, args.seed,
                               os.path.join(run_dir, "configs"))
    tracer_mod = None
    if args.trace:
        import tracer as tracer_mod

    attempted = 0
    failed = 0
    correct = True
    first_outputs = None
    untraced, traced_passes = [], []
    failures_seen = {}
    t_start = time.perf_counter()
    n_pass = 0
    while True:
        traced = bool(args.trace) and n_pass % 2 == 1
        tracer = tracer_mod.Tracer() if traced else None
        if tracer is not None:
            try:
                tracer.install()
            except AttributeError as exc:
                tracer.uninstall()
                print(f"tracer: a traced function is gone: {exc}",
                      file=sys.stderr)
                return EXIT_TRACER
        try:
            wall, outputs = run_pass(cli, commands,
                                     os.path.join(run_dir, "pass"), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        n_pass += 1
        if traced:
            traced_passes.append((wall, tracer))
        else:
            untraced.append(wall)

        n, fails = check_pass(workloads, commands, outputs)
        attempted += n
        failed += len(fails)
        for cmd_name, label, why in fails:
            failures_seen[(cmd_name, label)] = why
        texts = [text for _, text in outputs]
        if first_outputs is None:
            first_outputs = texts
        elif texts != first_outputs:
            correct = False
            print(f"pass {n_pass} ({'traced' if traced else 'untraced'}) "
                  "wrote different output from pass 1", file=sys.stderr)

        elapsed = time.perf_counter() - t_start
        typical = statistics.median(untraced + [w for w, _ in traced_passes])
        need_more = args.trace and not traced_passes
        if not need_more and elapsed + typical > args.seconds:
            break

    print("untraced passes (s): " + " ".join(f"{w:.3f}" for w in untraced),
          file=sys.stderr)
    if traced_passes:
        print("traced passes (s): "
              + " ".join(f"{w:.3f}" for w, _ in traced_passes),
              file=sys.stderr)
    for (cmd_name, label), why in sorted(failures_seen.items()):
        print(f"FAILED {cmd_name} {label}: {'; '.join(why)}", file=sys.stderr)

    if args.trace:
        metrics, problems = tracer_mod.layer_metrics(
            args.workload, [t for _, t in traced_passes])
        metrics["trace.overhead"] = {
            "value": statistics.median([w for w, _ in traced_passes])
            / statistics.median(untraced), "unit": "ratio"}
        traced_passes[-1][1].write_spans(
            os.path.join(OUT, f"spans-{args.workload}.jsonl"))
        if problems:
            for p in problems:
                print(f"tracer: {p}", file=sys.stderr)
            return EXIT_TRACER
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "pass_s": {"value": statistics.median(untraced), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                / 1024.0, "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
