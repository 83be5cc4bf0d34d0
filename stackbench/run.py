#!/usr/bin/env python3
"""Build and run the end-to-end benchmark of the simulated ASA stack.

Run from the repository root:

    python3 stackbench/run.py --workload steady-r4 --seed 1 --seconds 10 --trace 0
    python3 stackbench/run.py --smoke

The first call configures and builds an optimised binary from ../src under
.bench_build/stackbench (later calls rebuild incrementally). A measuring
call passes its arguments to the binary, whose last stdout line is the JSON
result. --smoke runs every workload tiny in both modes, checks that each
metric declared in BENCHMARK.json is printed with its unit, that the
negative control trips the correctness gate while its honest twin passes,
and that a different seed changes the deterministic counts.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
BUILD_DIR = REPO / ".bench_build" / "stackbench"
BINARY = BUILD_DIR / "stackbench"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"stackbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (REPO / "src" / "storage" / "cluster.hpp").is_file():
        fail(f"library sources not found under {REPO / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step))


def source_digest():
    digest = hashlib.sha256()
    for root in (REPO / "src", BENCH_DIR):
        for path in sorted(p for p in root.rglob("*") if p.is_file()):
            if "__pycache__" in path.parts:
                continue
            digest.update(str(path.relative_to(REPO)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit():
    try:
        out = subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def run_binary(workload, seed, seconds, trace, capture=False):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--commit", git_commit(), "--source-digest", source_digest()]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S, text=True,
                              stdout=subprocess.PIPE if capture else None)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")


def smoke():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    problems = []

    def run(workload, seed, trace):
        proc = run_binary(workload, seed, 1, trace, capture=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        return proc.returncode, result, lines

    for workload in spec["workloads"]:
        name = workload["name"] + "@smoke"
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            code, result, _ = run(name, 1, trace)
            if code != 0 or result.get("correct") is not True:
                problems.append(f"{name} --trace {trace}: exit {code}, "
                                f"correct={result.get('correct')}")
            metrics = result.get("metrics", {})
            for metric in spec[key]:
                got = metrics.get(metric["name"])
                if got is None:
                    problems.append(f"{name}: {metric['name']} missing")
                elif got["unit"] != metric["unit"]:
                    problems.append(f"{name}: {metric['name']} unit "
                                    f"{got['unit']} != {metric['unit']}")
            print(f"{name} --trace {trace}: exit {code}, "
                  f"{len(metrics)} metrics")

    code, result, _ = run("negative-control", 1, 0)
    if code == 0 or result.get("correct") is not False:
        problems.append(f"negative control did not trip the gate "
                        f"(exit {code})")
    print(f"negative-control: exit {code}, correct={result.get('correct')}")
    code, result, _ = run("negative-control@honest", 1, 0)
    if code != 0 or result.get("correct") is not True:
        problems.append(f"honest twin of the negative control failed "
                        f"(exit {code})")
    print(f"negative-control@honest: exit {code}, "
          f"correct={result.get('correct')}")

    fingerprints = []
    for seed in (1, 2):
        _, _, lines = run("steady-r4@smoke", seed, 0)
        fingerprints.append([l for l in lines if l.startswith("fingerprint")])
    if not fingerprints[0] or fingerprints[0] == fingerprints[1]:
        problems.append("a different seed did not change the counts")
    print("seed change alters fingerprint:", fingerprints[0] != fingerprints[1])

    for problem in problems:
        print("SMOKE FAIL:", problem)
    print("smoke:", "FAIL" if problems else "PASS")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload or --smoke is required")
    build()
    if args.smoke:
        return smoke()
    sys.stdout.flush()
    return run_binary(args.workload, args.seed, args.seconds,
                      args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
