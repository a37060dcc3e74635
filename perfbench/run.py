#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload mixed_io --seed 1 --seconds 30 --trace 0

Builds perfbench/ together with the library under src/ (CMake, Release)
into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
one workload. Build output goes to stderr; the binary's output passes
through to stdout once its last line has been checked: it must carry
exactly the metrics BENCHMARK.json names for the trace mode, with their
units. The exit code is the binary's, or 1 when that check fails or the
run has not ended after 4x --seconds plus 120 s (it is then stopped).
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
# A closed-loop window may stretch to 4x --seconds to collect enough
# samples; set-up, warm-up, the oracle pass and the open loop's rate ladder
# fit in the allowance.
WINDOW_STRETCH = 4
SETUP_ALLOWANCE_S = 120
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.join(ROOT, target), "perfbench")


def build(out):
    """Configures once and builds the benchmark binary into `out`."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no src/ next to perfbench/; "
                         "run from a full checkout")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", out, "--target", "perfbench", "-j", jobs]]
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=Release"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def git_sha():
    """HEAD of the checkout's own .git, or "unknown" outside a clone."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def check_result(line, spec, trace):
    """Problems with a result line against BENCHMARK.json; [] when none."""
    try:
        result = json.loads(line)
    except ValueError:
        return ["last line is not JSON: %r" % line[:200]]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return ["result keys are not %s" % sorted(RESULT_KEYS)]
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append("%s is not a whole number" % key)
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("nothing was attempted")
    section = spec["per_layer"] if trace else spec["end_to_end"]
    wanted = {m["name"]: m["unit"] for m in section}
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    for name in sorted(set(metrics) - set(wanted)):
        problems.append("unexpected metric %s" % name)
    for name, unit in sorted(wanted.items()):
        got = metrics.get(name)
        if not isinstance(got, dict) or set(got) != {"value", "unit"}:
            problems.append("metric %s missing or malformed" % name)
        elif got["unit"] != unit:
            problems.append("metric %s has unit %s, not %s"
                            % (name, got["unit"], unit))
        elif (not isinstance(got["value"], (int, float))
              or isinstance(got["value"], bool)):
            problems.append("metric %s is not a number" % name)
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(SPEC) as f:
        spec = json.load(f)
    binary = build(build_dir())
    timeout = WINDOW_STRETCH * args.seconds + SETUP_ALLOWANCE_S
    try:
        run = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--git-sha", git_sha()],
            stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: no result within %d s; stopped" % timeout,
              file=sys.stderr)
        return 1
    lines = run.stdout.splitlines()
    if run.returncode != 0 or not lines:
        # A failing binary prints no result line; pass on what it did print.
        sys.stdout.write(run.stdout)
        print("perfbench: exited with %d" % run.returncode, file=sys.stderr)
        return run.returncode or 1
    problems = check_result(lines[-1], spec, args.trace)
    if problems:
        sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
        for p in problems:
            print("perfbench: " + p, file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
