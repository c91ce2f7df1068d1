"""Measurement loop of the sepscope benchmark.

One run of a workload: set-up is timed in fresh interpreters; then the
workload's command list runs pass after pass until the time budget is spent.
Each command runs in-process through ``sepscope.cli.main`` with its stdout
captured, and every output is checked after its pass, outside the timed
region.  Between commands, also outside the timed region, a reference kernel
samples how fast the shared machine is running, and times are reported at
the reference speed.  With tracing on, untraced and traced passes alternate:
the traced ones give the per-layer metrics, the difference between the two
gives the tracing overhead.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

import sepscope.cli

import calibrate
import tracing
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

END_TO_END: tuple[tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("slowest_op_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("passed_frac", "ratio"),
)
SETUP_REPS = 9
KERNEL_REPS = 3  # reference-kernel runs after each command
KERNEL_START_REPS = 20  # and before the first pass
# passes made whatever the budget: untraced ones without tracing, and rounds of
# one untraced and one traced pass with it
MIN_PASSES = 3
MIN_TRACED_ROUNDS = 2

# Set-up as a user's process pays it: numpy is loaded first, so the timer
# covers importing sepscope (and anything it imports) and building the inputs.
_SETUP_CHILD = """\
import sys, time
import numpy
sys.path[:0] = {paths!r}
start = time.perf_counter()
import sepscope.cli, workloads
workloads.build({name!r}, {seed!r}, {tiny!r})
print(time.perf_counter() - start)
"""


def measure_setup(name: str, seed: int, tiny: bool) -> float:
    """Seconds a fresh interpreter takes to import sepscope and build the inputs."""
    code = _SETUP_CHILD.format(paths=[SRC, BENCH_DIR], name=name, seed=seed, tiny=tiny)
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(proc.stdout.split()[-1])


def run_pass(commands: list[workloads.Command], kernel: list[float]):
    """Run each command once; returns per-command seconds, stdout and exit code.

    After each command, outside its timing, the reference kernel runs
    KERNEL_REPS times into ``kernel``.  An exception escaping ``main`` is a
    failed command (exit code None).
    """
    times, outputs, codes = [], [], []
    for cmd in commands:
        buf = io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = sepscope.cli.main(list(cmd.argv))
        except Exception:
            traceback.print_exc()
            code = None
        times.append(time.perf_counter() - start)
        outputs.append(buf.getvalue())
        codes.append(code)
        kernel += [calibrate.kernel_s() for _ in range(KERNEL_REPS)]
    return times, outputs, codes


def medians(passes: list[list[float]]) -> list[float]:
    """Each command's median time over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def reference_scale(kernel: list[float]) -> float:
    """Factor taking this run's times to the reference speed.

    Other tenants of a shared machine slow every instruction of this process
    by up to 2x, for seconds or for minutes; the reference kernel, timed
    between commands all through the run, is slowed alike.  Its median time
    in the run against calibrate.REFERENCE_S is the slowdown to divide out.
    """
    return calibrate.REFERENCE_S / statistics.median(kernel)


def check_output(cmd: workloads.Command, output: str, code) -> list[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        return cmd.check(output)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False):
    """Measure one workload; returns (result, details).

    ``result`` is the benchmark's result object; ``details`` holds per-pass
    times, output digests, problems found and, with tracing, the spans of the
    last traced pass.
    """
    setup = [] if trace else [measure_setup(name, seed, tiny) for _ in range(SETUP_REPS)]
    commands = workloads.build(name, seed, tiny)
    kernel = [calibrate.kernel_s() for _ in range(KERNEL_START_REPS)]
    untraced: list[list[float]] = []
    traced: list[list[float]] = []
    layer_passes: list[dict[str, float]] = []
    digests: list[list[str]] = [[] for _ in commands]
    problems: list[str] = []
    attempted = failed = 0
    tracer = None
    start = time.perf_counter()
    while True:
        for with_trace in (False, True) if trace else (False,):
            if with_trace:
                with tracing.Tracer() as tracer:
                    times, outputs, codes = run_pass(commands, kernel)
                layer_passes.append(tracing.pass_metrics(tracer))
                traced.append(times)
            else:
                times, outputs, codes = run_pass(commands, kernel)
                untraced.append(times)
            for index, (cmd, output, code) in enumerate(zip(commands, outputs, codes)):
                attempted += 1
                found = check_output(cmd, output, code)
                if found:
                    failed += 1
                    problems += [f"{cmd.label}: {p}" for p in found[:3]]
                digest = hashlib.sha256(output.encode()).hexdigest()
                if digest not in digests[index]:
                    digests[index].append(digest)
        # stop before a round that would overrun the budget
        elapsed = time.perf_counter() - start
        if len(untraced) >= (MIN_TRACED_ROUNDS if trace else MIN_PASSES) and (
            elapsed * (len(untraced) + 1) / len(untraced) > seconds
        ):
            break

    scale = reference_scale(kernel)
    raw = medians(untraced)
    per_command = [t * scale for t in raw]
    if trace:
        values = tracing.median_metrics(layer_passes)
        values["trace.overhead_s"] = sum(medians(traced)) * scale - sum(per_command)
        units = dict(tracing.PER_LAYER)
    else:
        values = {
            "setup_s": statistics.median(setup),
            "wall_s": sum(per_command),
            "slowest_op_s": max(per_command),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "passed_frac": (attempted - failed) / attempted,
        }
        units = dict(END_TO_END)
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()
               if key in values}
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    details = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "setup_s": setup,
        "kernel_s": kernel,
        "reference_scale": scale,
        "untraced_pass_s": untraced,
        "traced_pass_s": traced,
        "commands": [
            {"argv": list(cmd.argv), "median_s": t, "stdout_sha256": d}
            for cmd, t, d in zip(commands, raw, digests)
        ],
        "problems": problems,
        "absent": tracer.missing if tracer else [],
        "spans": tracer.spans if tracer else [],
    }
    return result, details


def git_commit(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine_facts() -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "git_commit": git_commit(ROOT),
    }


def _print_summary(result: dict, details: dict) -> None:
    passes = len(details["untraced_pass_s"])
    traced = len(details["traced_pass_s"])
    print(f"## {details['workload']} seed {details['seed']}: {passes} untraced"
          + (f" and {traced} traced" if traced else "") + " passes"
          + f"; {result['attempted']} commands, {result['failed']} failed")
    print(f"#   reference kernel median {statistics.median(details['kernel_s']) * 1e3:.3f} ms:"
          f" command medians below are raw; wall_s and slowest_op_s are scaled"
          f" by {details['reference_scale']:.4f}")
    for cmd in details["commands"]:
        print(f"#   {cmd['median_s']:.4f} s  sha256 {cmd['stdout_sha256'][0][:16]}"
              f"  {' '.join(cmd['argv'])}")
    for problem in details["problems"][:20]:
        print(f"#   FAILED {problem}")
    if details["absent"]:
        print(f"#   absent (not in this sepscope): {', '.join(details['absent'])}")
    for key, metric in result["metrics"].items():
        print(f"{key:<36} {metric['value']:.6g} {metric['unit']}")


def main(args) -> int:
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r} "
              f"(known: {', '.join(workloads.WORKLOADS)}, all)", file=sys.stderr)
        return 2
    facts = machine_facts()
    print("# machine " + json.dumps(facts, sort_keys=True))
    os.makedirs(RESULTS_DIR, exist_ok=True)
    results = {}
    for name in names:
        result, details = run_workload(name, args.seed, args.seconds, bool(args.trace),
                                       args.tiny)
        path = os.path.join(RESULTS_DIR, f"{name}-seed{args.seed}-trace{args.trace}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"machine": facts, "result": result, **details}, handle)
        _print_summary(result, details)
        results[name] = result
    if len(names) == 1:
        final = results[names[0]]
    else:  # one process for every workload: peak_rss_mb is the process's peak so far
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{key}": metric for name, r in results.items()
                        for key, metric in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0
