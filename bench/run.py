"""Benchmark for symentropy: end-to-end metrics, or per-layer metrics from a traced run.

Run from the repository root:

    python3 bench/run.py --workload verify-n8 --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all

A run resolves the workload in-process, runs one warm-up pass whose reports
become the reference, then repeats the pass for ``--seconds`` seconds.  Every
operation of every pass goes through the correctness gate in workloads.py.
``--trace 0`` reports the ``end_to_end`` metrics of BENCHMARK.json; ``--trace 1``
alternates untraced and traced passes and reports its ``per_layer`` metrics.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Human-readable lines,
the run metadata and the per-operation problems come before it; a record of
the run (and the spans, when traced) is written under bench/out/.
"""

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

SETUP_RUNS = 7  # fresh interpreters timed per run, after one untimed
# A fresh interpreter: import symentropy (through workloads) and resolve the laws.
SETUP_PROBE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.prepare(sys.argv[3], sys.argv[4])"
)
ENV_KNOBS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "SYMENTROPY_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_probe(workload, seed):
    """Wall time of one fresh interpreter that imports and resolves the workload."""
    cmd = [sys.executable, "-c", SETUP_PROBE, SRC, BENCH_DIR, workload, str(seed)]
    start = time.perf_counter()
    # No timeout: with one, the wait polls and rounds the time up to 50 ms steps.
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


class Runner:
    """Runs passes of one workload and applies the gate to every operation."""

    def __init__(self, ctx):
        self.ctx = ctx
        self.references = {}
        self.sigmas = None
        self.attempted = 0
        self.failed = 0
        self.problems = {}  # op name -> first problem seen

    def timed_pass(self):
        import workloads

        start = time.perf_counter()
        results = [workloads.invoke(op, self.ctx) for op in self.ctx.ops]
        elapsed = time.perf_counter() - start
        outcomes = [
            workloads.gate(op, self.ctx, result, self.references.get(op.name))
            for op, result in zip(self.ctx.ops, results)
        ]
        if self.sigmas is None:
            self.references = {o.op: o.report for o in outcomes}
            self.sigmas = [o.sigma for o in outcomes if o.sigma is not None]
        self.attempted += len(outcomes)
        for o in outcomes:
            if o.problem:
                self.failed += 1
                self.problems.setdefault(o.op, o.problem)
        return elapsed

    def sigma_rms(self):
        return math.sqrt(sum(s * s for s in self.sigmas) / len(self.sigmas))


def measure(runner, seconds, probe, pass_estimate):
    """Pass times over ``seconds``, and SETUP_RUNS set-up times taken between passes.

    The host's speed drifts over seconds, so the set-up probes are spread
    over the run, one every few passes, instead of taken back to back.
    Their time does not count against ``seconds``.
    """
    every = max(1, round(seconds / pass_estimate / SETUP_RUNS))
    times, setup = [], []
    deadline = time.perf_counter() + seconds
    while not times or time.perf_counter() < deadline:
        if len(setup) < SETUP_RUNS and len(times) % every == 0:
            setup.append(probe())
            deadline += setup[-1]
        times.append(runner.timed_pass())
    while len(setup) < SETUP_RUNS:
        setup.append(probe())
    return times, setup


def measure_traced(runner, seconds, tracer):
    """Alternate untraced and traced passes; returns both lists of pass times."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        plain.append(runner.timed_pass())
        tracer.pass_id = len(traced)
        tracer.install()
        try:
            traced.append(runner.timed_pass())
        finally:
            tracer.uninstall()
    return plain, traced


def _git_commit():
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="ascii") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="ascii") as fh:
                head = fh.read().strip()
        return head
    except OSError:
        return "unknown"


def _src_lines():
    total = 0
    for folder, _, files in os.walk(SRC):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(folder, name), "rb") as fh:
                    total += sum(1 for _ in fh)
    return total


def metadata(seed):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": {knob: os.environ.get(knob) for knob in ENV_KNOBS},
        "commit": _git_commit(),
        "seed": seed,
        "src_lines": _src_lines(),
    }


def _select(specs, figures, known):
    """The figures named in BENCHMARK.json, with units; a name never computed is an error."""
    out = {}
    for spec in specs:
        name = spec["name"]
        if name not in figures and not known(name):
            raise KeyError(f"metric {name!r} of BENCHMARK.json is not computed")
        out[name] = {"value": figures.get(name, 0.0), "unit": spec["unit"]}
    return out


def _print_metrics(workload, specs, metrics):
    for spec in specs:
        m = metrics[spec["name"]]
        print(f"{workload}  {spec['name']:<48} {m['value']:>16.6g} {m['unit']:<9} "
              f"({spec['better']} is better)")


def run_workload(args, bench):
    import spans
    import workloads

    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    probe = functools.partial(setup_probe, args.workload, args.seed)
    if not args.trace:
        probe()  # untimed: the first interpreter also compiles bytecode and fills caches
    ctx = workloads.prepare(args.workload, args.seed)
    runner = Runner(ctx)
    warmup_s = runner.timed_pass()
    record = {"workload": args.workload, "trace": args.trace, "meta": metadata(args.seed),
              "warmup_s": warmup_s}

    if args.trace:
        tracer = spans.Tracer()
        plain, traced = measure_traced(runner, seconds, tracer)
        figures = spans.layer_metrics(tracer.spans)
        figures["trace.untraced_pass_s"] = statistics.median(plain)
        figures["trace.pass_s"] = statistics.median(traced)
        figures["trace.overhead_s"] = figures["trace.pass_s"] - figures["trace.untraced_pass_s"]
        traced_names = tracer.names | {"trace"}
        specs = bench["per_layer"]
        metrics = _select(specs, figures, lambda n: n.rpartition(".")[0] in traced_names)
        record.update(pass_times={"untraced": plain, "traced": traced}, layers=figures)
    else:
        times, setup_times = measure(runner, seconds, probe, warmup_s)
        pass_s = statistics.median(times)
        sigma_rms = runner.sigma_rms()
        figures = {
            "setup_s": statistics.median(setup_times),
            "pass_s": pass_s,
            "sigma_rms": sigma_rms,
            "mc_efficiency": 1.0 / (sigma_rms * sigma_rms * pass_s),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        }
        specs = bench["end_to_end"]
        metrics = _select(specs, figures, lambda n: False)
        record.update(pass_times=times, setup_times=setup_times)

    failed_ratio = runner.failed / runner.attempted
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    record.update(result=result, failed_ratio=failed_ratio, problems=runner.problems)
    os.makedirs(OUT_DIR, exist_ok=True)
    stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        with open(stem + "-spans.jsonl", "w", encoding="ascii") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(dict(zip(
                    ("id", "name", "start", "end", "parent", "pass", "counts"), span))) + "\n")

    print("meta " + json.dumps(record["meta"], sort_keys=True))
    for op, problem in runner.problems.items():
        print(f"{args.workload}  FAILED {op}: {problem}")
    _print_metrics(args.workload, specs, metrics)
    print(f"{args.workload}  {'failed_ratio':<48} {failed_ratio:>16.6g} {'fraction':<9} "
          f"(lower is better; {runner.failed} of {runner.attempted} operations)")
    print(json.dumps(result, sort_keys=True))
    return 0


def run_all(args):
    """Each workload in a process of its own, so peak RSS is that workload's."""
    import workloads

    status = 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--trace", str(args.trace)]
        if args.seconds is not None:
            cmd += ["--seconds", str(args.seconds)]
        status = max(status, subprocess.run(cmd, check=False).returncode)
    return status


def main(argv=None):
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "symentropy")):
        print(f"error: no symentropy package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    sys.path[:0] = [SRC, BENCH_DIR]
    if args.workload == "all":
        return run_all(args)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)} or 'all'", file=sys.stderr)
        return 2
    return run_workload(args, bench)


if __name__ == "__main__":
    sys.exit(main())
