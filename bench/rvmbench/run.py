#!/usr/bin/env python3
"""Builds rvmbench from this checkout's sources and runs it.

Usage, from the repository root:

    python3 bench/rvmbench/run.py --workload tpca --seed 1 --seconds 12 --trace 0
    python3 bench/rvmbench/run.py --smoke

All arguments are passed to the rvmbench binary (see README.md). The build
goes to .bench_build/rvmbench and the benchmark's scratch files to
.bench_build/rvmbench-work. The binary's last output line is a JSON result;
this script checks that it reports exactly the metrics BENCHMARK.json names,
each with its unit, and exits nonzero if not, if the build fails, or if the
benchmark's own correctness checks fail.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
BUILD = os.path.join(ROOT, ".bench_build", "rvmbench")
WORK = os.path.join(ROOT, ".bench_build", "rvmbench-work")


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "rvmbench", "-j", "4"],
                   stdout=sys.stderr, check=True)


def check_metrics(metrics, expected, where):
    """Returns a list of problems: missing, extra, or wrongly-united metrics."""
    problems = []
    for name, unit in expected.items():
        if name not in metrics:
            problems.append(f"{where}: metric {name} missing")
        elif metrics[name].get("unit") != unit:
            problems.append(f"{where}: metric {name} has unit "
                            f"{metrics[name].get('unit')!r}, not {unit!r}")
    problems += [f"{where}: metric {name} not in BENCHMARK.json"
                 for name in metrics if name not in expected]
    return problems


def arg_value(args, flag):
    """The value of `flag` given as `--flag value` or `--flag=value`."""
    for i, arg in enumerate(args):
        if arg == flag and i + 1 < len(args):
            return args[i + 1]
        if arg.startswith(flag + "="):
            return arg.split("=", 1)[1]
    return None


def main():
    args = sys.argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 1

    proc = subprocess.run([os.path.join(BUILD, "rvmbench"), *args, "--dir", WORK],
                          stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        print(f"run.py: rvmbench exited {proc.returncode} without a result",
              file=sys.stderr)
        return proc.returncode or 1

    trace = arg_value(args, "--trace")
    if "workloads" in result:  # full run: every metric of every workload
        traced = trace != "0" or "--smoke" in args
        expected = {**end_to_end, **per_layer} if traced else end_to_end
        problems = [p for name, r in result["workloads"].items()
                    for p in check_metrics(r["metrics"], expected, name)]
    else:  # one workload: exactly one of the two metric sets
        problems = check_metrics(result["metrics"],
                                 per_layer if trace == "1" else end_to_end,
                                 "result")
    if problems:
        for problem in problems:
            print(f"run.py: {problem}", file=sys.stderr)
        return 1
    print(lines[-1])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
