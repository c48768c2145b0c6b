#!/usr/bin/env python3
"""The repository benchmark: the command BENCHMARK.json names.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
engine and the benchmark binary (perfbench/CMakeLists.txt, Release) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs reuse the
build. The binary's last output line, one JSON object with the keys
correct, attempted, failed and metrics, is checked against BENCHMARK.json
(every metric of the run's kind, by name and unit) and printed last.
Scratch files (the block store, the write-ahead log) live under
.bench_tmp/ and are removed when the run ends; a traced run leaves its
span dump in .bench_tmp/trace_<workload>.json.

--self-test runs the binary's own unit checks, then every workload at smoke
size with and without tracing, then every workload once per injected wrong
answer, and expects each of those runs to fail its correctness gate.
"""
import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
FAULTS = {
    "paper_solver": ["drop_row", "sr_better"],
    "scan_disk": ["drop_row", "sr_better"],
    "serve_rw": ["drop_row", "payload", "standing"],
}


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def load_benchmark():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die("cannot read BENCHMARK.json: %s" % e)


def build():
    """Configure (once) and build the binary; returns its path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        die("engine sources (CMakeLists.txt, src/) not found at " + ROOT)
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    out = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.call(cmd, stdout=out, stderr=out) != 0:
            die("cmake configure failed")
    if subprocess.call(["cmake", "--build", build_dir, "-j", "4",
                        "--target", "perfbench_bin"],
                       stdout=out, stderr=out) != 0:
        die("build failed")
    with open(os.path.join(build_dir, "CMakeCache.txt")) as f:
        if "CMAKE_BUILD_TYPE:STRING=Release\n" not in f.read():
            die("the build directory is not a Release build")
    return os.path.join(build_dir, "perfbench_bin")


def check_result(line, bench, trace):
    """Validate the result line against BENCHMARK.json; returns the object."""
    try:
        result = json.loads(line)
    except ValueError:
        die("the binary's last line is not JSON: " + line[:200])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die("result keys are %s" % sorted(result))
    if not isinstance(result["correct"], bool):
        die("'correct' is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            die("'%s' is not a whole number" % key)
    if result["attempted"] < 1:
        die("'attempted' is below 1")
    wanted = bench["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    metrics = result["metrics"]
    if set(metrics) != set(units):
        die("metrics differ from BENCHMARK.json: missing %s, extra %s" %
            (sorted(set(units) - set(metrics)),
             sorted(set(metrics) - set(units))))
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != units[name]:
            die("metric %s is %s, expected unit %s" % (name, metric, units[name]))
        value = metric["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            die("metric %s has no finite value" % name)
    return result


def run_binary(binary, bench, workload, seed, seconds, trace, extra=()):
    """One benchmark run; returns (exit code, output lines, checked result)."""
    tmp_root = os.path.join(ROOT, ".bench_tmp")
    tmp = os.path.join(tmp_root, "run-%d" % os.getpid())
    os.makedirs(tmp, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--tmp-dir", tmp]
    if trace:
        cmd += ["--trace-out",
                os.path.join(tmp_root, "trace_%s.json" % workload)]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die("the benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if proc.returncode not in (0, 1) or not lines:
        return proc.returncode, lines, None
    return proc.returncode, lines, check_result(lines[-1], bench, trace)


def self_test(binary, bench):
    failures = []

    def expect(ok, what):
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    rc = subprocess.call([binary, "--self-test"])
    expect(rc == 0, "unit checks")
    for workload in FAULTS:
        for trace in (False, True):
            rc, _, result = run_binary(binary, bench, workload, 1, 2, trace,
                                       ["--smoke"])
            kind = "per-layer" if trace else "end-to-end"
            expect(rc == 0 and result is not None and result["correct"],
                   "%s smoke run prints every %s metric with its unit"
                   % (workload, kind))
        for fault in FAULTS[workload]:
            rc, _, result = run_binary(binary, bench, workload, 1, 2, False,
                                       ["--smoke", "--inject", fault])
            expect(rc == 1 and result is not None and not result["correct"],
                   "%s gate fires on injected %s" % (workload, fault))
    print("self-test %s" % ("FAILED" if failures else "passed"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()

    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    if not args.self_test and args.workload not in names:
        die("--workload must be one of " + ", ".join(names))
    binary = build()
    if args.self_test:
        return self_test(binary, bench)
    seconds = args.seconds if args.seconds else bench["run_seconds"]
    rc, lines, result = run_binary(binary, bench, args.workload, args.seed,
                                   seconds, args.trace == 1)
    if result is None:
        die("the benchmark failed (exit code %d)" % rc)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return rc


if __name__ == "__main__":
    sys.exit(main())
