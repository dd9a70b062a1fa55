#!/usr/bin/env python3
"""Builds and runs the qsteer end-to-end benchmark (qbench).

Run from the repository root:

  python3 qbench/run.py --workload discover|serve-hot|fleet-mixed \
      --seed N --seconds S --trace 0|1
      One run. Prints the workload's report, then, as the last line, one
      JSON object {"correct", "attempted", "failed", "metrics"} holding the
      end-to-end metrics of BENCHMARK.json (--trace 0) or its per-layer
      metrics (--trace 1). Exits non-zero when an output check fails.

  python3 qbench/run.py --report [--seed N] [--seconds S]
      Every workload untraced and traced: prints every end-to-end and
      per-layer metric by name with its unit, the trace coverage and the
      tracing overhead. Exits non-zero when any output check fails.

  python3 qbench/run.py --selftest
      Injects a corrupted digest and dropped acknowledged mutations and
      checks that each run fails.

The library under src/ and the program in qbench/ are built from source
with CMake (Release) into $CARGO_TARGET_DIR/qbench, default .bench_build.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["discover", "serve-hot", "fleet-mixed"]
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_rev():
    """The git revision of the sources, or "unknown" outside a git checkout."""
    # The ceiling keeps git from reporting an enclosing repository's revision.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10, env=env)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "qbench")  # an absolute target stays as given


def local_env(**extra):
    """The environment for child processes: temporary files stay inside
    the build directory."""
    tmp = os.path.join(build_dir(), "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp, **extra)


def build():
    """Configures and builds qbench; returns the binary path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("qbench: no qsteer sources (src/CMakeLists.txt) next to qbench/; cannot build")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", out, "-j", str(min(os.cpu_count() or 1, 4))])
        for step in steps:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=local_env())
            if done.returncode != 0:
                log("qbench: build step failed: " + " ".join(step))
                return None
    binary = os.path.join(out, "qbench")
    return binary if os.path.isfile(binary) else None


def run_binary(binary, workload, seed, seconds, trace, inject=None, echo=True):
    """Runs one workload; returns (exit code, parsed result or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--out-dir", ".bench_out",
           "--digests", os.path.join("qbench", "digests.json")]
    if inject:
        cmd += ["--inject", inject]
    env = local_env(QBENCH_SOURCE_REV=source_rev())
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("qbench: %s run exceeded %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    lines = done.stdout.rstrip("\n").split("\n")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        result = json.loads(lines[-1])
    except (ValueError, IndexError):
        log("qbench: no result line from the benchmark binary (exit %d)" % done.returncode)
        return done.returncode or 1, None
    return done.returncode, result


def benchmark_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["end_to_end"], spec["per_layer"]


def select(result, declared, fill_missing):
    """The declared metrics, in declared order. Per-layer metrics a workload
    does not exercise read 0; a missing end-to-end metric is an error."""
    out = {}
    for metric in declared:
        name = metric["name"]
        got = result["metrics"].get(name)
        if got is None:
            if not fill_missing:
                raise KeyError(name)
            got = {"value": 0.0, "unit": metric["unit"]}
        out[name] = {"value": got["value"], "unit": metric["unit"]}
    return out


def print_metrics(title, metrics):
    print(title)
    for name, m in metrics.items():
        print("  %-34s %20.6f %s" % (name, m["value"], m["unit"]))


def one_run(args):
    binary = build()
    if binary is None:
        return 2
    end_to_end, per_layer = benchmark_metrics()
    code, result = run_binary(binary, args.workload, args.seed, args.seconds, args.trace == 1)
    if result is None:
        return code or 1
    try:
        metrics = select(result, per_layer if args.trace == 1 else end_to_end, args.trace == 1)
    except KeyError as missing:
        log("qbench: workload %s did not report end-to-end metric %s" % (args.workload, missing))
        return 1
    print_metrics("%s metrics (%s):" % (args.workload, "per-layer" if args.trace else "end-to-end"),
                  metrics)
    out = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
           "failed": int(result["failed"]), "metrics": metrics}
    print(json.dumps(out), flush=True)
    return 0 if code == 0 and out["correct"] else 1


def report(args):
    binary = build()
    if binary is None:
        return 2
    end_to_end, per_layer = benchmark_metrics()
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            print("=== %s, %s ===" % (workload, "traced" if trace else "untraced"))
            code, result = run_binary(binary, workload, args.seed, args.seconds, trace)
            if result is None:
                ok = False
                continue
            ok = ok and code == 0 and result["correct"]
            declared = per_layer if trace else end_to_end
            print_metrics("metrics:", select(result, declared, True))
            print("  correct=%s attempted=%d failed=%d failed_frac=%.6f" % (
                result["correct"], result["attempted"], result["failed"],
                result["failed"] / max(result["attempted"], 1)))
    print("all output checks passed" if ok else "OUTPUT CHECK FAILED")
    return 0 if ok else 1


def selftest(args):
    binary = build()
    if binary is None:
        return 2
    cases = [("discover", "corrupt-digest"), ("serve-hot", "drop-mutation"),
             ("fleet-mixed", "drop-mutation")]
    ok = True
    for workload, inject in cases:
        code, result = run_binary(binary, workload, args.seed, 2, False, inject, echo=False)
        caught = code != 0 and result is not None and not result["correct"]
        print("selftest %-12s --inject %-15s %s" % (workload, inject,
                                                     "caught" if caught else "NOT CAUGHT"))
        ok = ok and caught
    print("selftest passed" if ok else "SELFTEST FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--report", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.report:
        return report(args)
    if args.selftest:
        return selftest(args)
    if args.workload is None:
        parser.error("--workload is required")
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
