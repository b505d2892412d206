"""Benchmark of the `pluralism` command line, driven in-process.

    python3 perfbench/run.py --workload exact-counts --seed 1 --seconds 25 --trace 0

Load model: a closed loop with one client.  One process and one thread run
one command at a time through `temporal_pluralism.cli.main`, over instance
files generated from `--seed` (see workloads.py).  The program sees only
those files.  Every command's output is checked against an oracle that
does not run the optimizer being timed (see oracle.py).

A run prepares the instances and answers (once per seed and code, in a
child process), runs one warm-up batch, then repeats the batch until
`--seconds` are used up.  With `--trace 1` one more batch runs with spans
at every layer boundary (see tracer.py) and the spans are written to
.bench_work/traces/<workload>.tsv.gz, replacing the previous run's.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The metrics are BENCHMARK.json's `end_to_end` list with
`--trace 0` and its `per_layer` list with `--trace 1`.  Lines before it,
each starting with '#', give the same figures for a reader.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import checkout
from tracer import Tracer

PREPARE_TIMEOUT_S = 170
MIN_SAMPLES = 20  # per run, so the tail percentile has ten samples beyond it
MAX_MEASURE_S = 120  # stop repeating batches here even if MIN_SAMPLES is short


def tail(samples) -> tuple:
    """(value, percentile): the highest percentile with >= 10 samples beyond it."""
    ordered = sorted(samples)
    k = max(len(ordered) - 11, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def prepare(workload: str, seed: int):
    """Directory holding the instances and manifest for (workload, seed)."""
    directory = checkout.WORK / f"{workload}-s{seed}-{checkout.code_digest()}"
    if not (directory / "manifest.json").is_file():
        shutil.rmtree(directory, ignore_errors=True)
        subprocess.run(
            [sys.executable, str(checkout.BENCH / "prepare.py"), "--workload", workload,
             "--seed", str(seed), "--dir", str(directory)],
            check=True, timeout=PREPARE_TIMEOUT_S, stdout=sys.stderr,
        )
    return directory


def command_argv(command: dict, directory, out_dir) -> list:
    files = ["--env", str(directory / command["env"]),
             "--scheme", str(directory / command["scheme"])]
    verb = "evaluate" if command["kind"] == "evaluate" else "optimize"
    return [verb] + files + command["args"] + ["--out", str(out_dir)]


class Bench:
    """The workload's commands and the checks of their outputs."""

    def __init__(self, package, directory, commands):
        import oracle  # needs the package on sys.path

        self.oracle = oracle
        self.package = package
        self.commands = commands
        self.argv = []
        self.out_dirs = []
        self.objects = []
        for command in commands:
            out_dir = directory / "out" / command["name"]
            self.out_dirs.append(out_dir)
            self.argv.append(command_argv(command, directory, out_dir))
            if command["kind"] in ("greedy", "memory_q"):
                load = package.serialize
                self.objects.append((load.load_env(directory / command["env"]),
                                     load.load_scheme(directory / command["scheme"])))
            else:
                self.objects.append((None, None))
        self.attempted = 0
        self.failures: list = []

    def run_batch(self, tracer: Tracer) -> tuple:
        """(wall seconds, [(exit code, stdout, stderr)]) of one pass."""
        main = tracer.wrap("cli", self.package.cli.main)
        results = []
        with tracer:
            started = time.perf_counter()
            for argv in self.argv:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = main(argv)
                    except SystemExit as exc:
                        code = exc.code
                    except Exception:  # a traceback is a failed command, not a crash
                        code = None
                        traceback.print_exc()
                results.append((code, out.getvalue(), err.getvalue()))
            wall = time.perf_counter() - started
        self.check(results)
        return wall, results

    def check(self, results) -> None:
        for command, out_dir, (env, scheme), (code, stdout, stderr) in zip(
            self.commands, self.out_dirs, self.objects, results
        ):
            self.attempted += 1
            if code != 0 or "Traceback" in stderr:
                why = f"exit {code}: {stderr.strip()[-300:]}"
            else:
                try:
                    why = self.oracle.check(command, stdout, out_dir, env, scheme)
                except Exception as err:  # unreadable output is a wrong answer
                    why = f"output not checkable: {err!r}"
            if why:
                self.failures.append(f"{command['name']}: {why}")

    def quality(self, results, kind: str) -> float:
        """Mean of score / closed-form optimum over the `kind` commands."""
        ratios = []
        for command, (_, stdout, _) in zip(self.commands, results):
            score = self.oracle.printed_fields(stdout).get("score")
            if command["kind"] == kind and score is not None:
                ratios.append(float(score) / command["expect"]["optimum"])
        return statistics.fmean(ratios) if ratios else 0.0


def layer_metrics(bench: Bench, tracer: Tracer, results, traced_wall, untraced_wall) -> dict:
    calls, own = tracer.self_times()
    evaluations = sum(
        int(bench.oracle.printed_fields(stdout).get("evaluations", 0)) for _, stdout, _ in results
    )
    evaluated = sum(1 for c in bench.commands if c["kind"] == "evaluate")
    steps = calls.get("environment.step", 0)
    machine_steps = calls.get("machine.step", 0)
    aggregates = calls.get("scheme.aggregate", 0)
    out = {
        "optimize.evaluations": evaluations,
        "environment.steps_per_evaluation": steps / max(evaluations + evaluated, 1),
        "scheme.aggregate.entries_per_call": tracer.aggregate_entries / max(aggregates, 1),
        "machine.guards_per_step":
            tracer.child_count("formula.eval", "machine.step") / max(machine_steps, 1),
        "trace.overhead": traced_wall / untraced_wall,
        "quality.greedy": bench.quality(results, "greedy"),
        "quality.q": bench.quality(results, "memory_q"),
    }
    for name in ("cli", "serialize.load", "serialize.write", "machine.validate", "optimize",
                 "environment.replay", "environment.step", "environment.state_id",
                 "scheme.score", "scheme.status_eval", "scheme.aggregate", "scheme.log_score",
                 "machine.step", "formula.eval"):
        out[f"{name}.calls"] = calls.get(name, 0)
        out[f"{name}.self_s"] = own.get(name, 0.0)
    return out


def pick(values: dict, declared: list) -> dict:
    """The declared metrics, with their declared units."""
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"benchmark computes no value for {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((checkout.ROOT / "BENCHMARK.json").read_text())
    try:
        package = checkout.import_package()
    except checkout.CheckoutError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    import temporal_pluralism.cli  # noqa: F401  (binds package.cli)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload '{args.workload}'")

    directory = prepare(args.workload, args.seed)
    commands = json.loads((directory / "manifest.json").read_text())
    bench = Bench(package, directory, commands)

    _, warm = bench.run_batch(Tracer(package, full=False))
    walls, setup, solve = [], [], []
    measure_start = time.perf_counter()
    while True:
        tracer = Tracer(package, full=False)
        wall, _ = bench.run_batch(tracer)
        walls.append(wall)
        for _, load_s, solve_s in tracer.per_command():
            setup.append(load_s)
            solve.append(solve_s)
        elapsed = time.perf_counter() - measure_start
        # Start no batch that would end past --seconds, once enough samples exist.
        done = elapsed + statistics.median(walls) > args.seconds and len(solve) >= MIN_SAMPLES
        if done or elapsed >= MAX_MEASURE_S:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tail_s, tail_pct = tail(solve)
    e2e = {
        "setup_s": statistics.median(setup),
        "solve_s.p50": statistics.median(solve),
        "solve_s.tail": tail_s,
        "batch_s": statistics.median(walls),
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"# host: Python {platform.python_version()}, {os.cpu_count()} CPUs, "
          f"{platform.machine()}")
    print(f"# {args.workload} seed {args.seed}: {len(commands)} commands per batch, "
          f"1 warm-up + {len(walls)} timed batches, closed loop, 1 client")
    for name, value in e2e.items():
        print(f"# {name} {value:.6g}")
    print(f"# solve_s.tail is p{tail_pct:.1f} of {len(solve)} samples")
    if any(c["kind"] in ("greedy", "memory_q") for c in commands):
        print(f"# quality.greedy {bench.quality(warm, 'greedy'):.6g}  "
              f"quality.q {bench.quality(warm, 'memory_q'):.6g}")

    if args.trace:
        tracer = Tracer(package, full=True)
        traced_wall, results = bench.run_batch(tracer)
        values = layer_metrics(bench, tracer, results, traced_wall, e2e["batch_s"])
        traces = checkout.WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}.tsv.gz")
        metrics = pick(values, declared["per_layer"])
        for name, m in metrics.items():
            print(f"# {name} {m['value']:.6g} {m['unit']}")
    else:
        metrics = pick(e2e, declared["end_to_end"])

    failed = len(bench.failures)
    print(f"# wrong_frac {failed / bench.attempted:.6g} ({failed} of {bench.attempted})")
    for why in bench.failures[:10]:
        print(f"# FAILED {why}")
    print(json.dumps({"correct": failed == 0, "attempted": bench.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
