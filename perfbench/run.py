#!/usr/bin/env python3
"""Entry point of the LDMO benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the repository root. Builds perfbench/ (which pulls in the
repository's own CMake project) under .bench_build/, runs one workload and
prints, as the last line of standard output, one JSON object with the keys
correct, attempted, failed and metrics. --trace 0 reports the end-to-end
metrics of BENCHMARK.json, --trace 1 the per-layer ones. Every run checks
that the binary measured exactly the metrics BENCHMARK.json declares for the
mode, with the declared units, and reports them in the declared order.

setup_s is the median of the run's own set-up and SETUP_PROCESSES extra
set-ups, each in a fresh process (the kernel and FFT-plan caches are
process-wide, so a second set-up in one process would measure nothing),
half of them before the measured run and half after it, so that a slow
stretch of a shared host does not hold all of them.

--smoke runs every workload named in BENCHMARK.json for a few samples, in
both modes, through the same code and checks.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "ldmo_perfbench"
SETUP_PROCESSES = 6


def run_timeout_s(seconds):
    """Limit on one binary run: a run measures for about `seconds`, a
    traced flow run twice that (each clip runs untraced and traced), plus
    set-up and the per-layer timings."""
    return 2 * seconds + 110


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then builds incrementally; build logs go to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no repository sources beside perfbench/ (CMakeLists.txt, src/)")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD.parent / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "ldmo_perfbench",
                  "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            fail("build failed: " + " ".join(step), 3)


def source_record():
    """The commit when the tree is a git checkout, and always a digest of the
    sources the benchmark builds, so results from different trees differ."""
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src", "bench", "perfbench"):
        path = ROOT / base
        files = [path] if path.is_file() else sorted(
            p for p in path.rglob("*") if p.is_file())
        for f in files:
            digest.update(str(f.relative_to(ROOT)).encode() + b"\0")
            digest.update(f.read_bytes())
    commit = "none"
    if (ROOT / ".git").exists():
        probe = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                               capture_output=True, text=True)
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {"git_commit": commit, "source_sha256": digest.hexdigest()[:16]}


def run_binary(arguments, seconds):
    """Runs the benchmark binary; returns (exit code, stdout lines, result)."""
    timeout = run_timeout_s(seconds)
    try:
        proc = subprocess.run([str(BINARY), *arguments], stdout=subprocess.PIPE,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("ldmo_perfbench did not finish within %d s" % timeout, 4)
    lines = proc.stdout.splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, lines, result


def run_workload(workload, seed, seconds, trace, smoke=False):
    common = ["--workload", workload, "--seed", str(seed),
              "--seconds", repr(seconds)] + (["--smoke"] if smoke else [])
    setups = []

    def set_up(count):
        for _ in range(0 if trace else count):
            code, lines, result = run_binary(
                common + ["--trace", "0", "--setup-only"], seconds)
            if code != 0 or result is None:
                print("\n".join(lines))
                fail("set-up of %s failed (exit %d)" % (workload, code), 1)
            setups.append(result["metrics"]["setup_s"]["value"])

    set_up(SETUP_PROCESSES // 2)
    code, lines, result = run_binary(
        common + ["--trace", "1" if trace else "0"], seconds)
    if code != 0 or result is None:
        print("\n".join(lines))
        fail("%s failed (exit %d)" % (workload, code), 1)
    set_up(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    if setups:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return lines[:-1], result, setups


def declared_metrics(workload, trace):
    """The metrics BENCHMARK.json declares for a mode, with their units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in (w["name"] for w in spec["workloads"]):
        fail("workload %s is not declared in BENCHMARK.json" % workload)
    return [(m["name"], m["unit"])
            for m in spec["per_layer" if trace else "end_to_end"]]


def order_metrics(workload, trace, measured):
    """The declared metrics in the declared order, or the mismatches with
    what the binary measured. A flow workload has no serve layer, so its
    serve.* per-layer metrics read 0 with no samples."""
    ordered, problems = {}, []
    declared = declared_metrics(workload, trace)
    for name, unit in declared:
        if name in measured:
            got = measured[name]
        elif name.startswith("serve.") and not workload.startswith("serve"):
            got = {"value": 0.0, "unit": unit, "samples": 0}
        else:
            problems.append("metric %s was not measured" % name)
            continue
        if got["unit"] != unit:
            problems.append("metric %s measured in %s, declared in %s" % (
                name, got["unit"], unit))
        ordered[name] = got
    extra = sorted(set(measured) - {name for name, _ in declared})
    problems += ["metric %s is not declared" % name for name in extra]
    return ordered, problems


def smoke():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            _, result, _ = run_workload(workload, 1, 1.0, trace, smoke=True)
            ordered, problems = order_metrics(workload, trace, result["metrics"])
            if problems or not result["correct"] or result["failed"]:
                print("\n".join(problems), file=sys.stderr)
                fail("smoke %s --trace %d failed" % (workload, trace), 1)
            print("smoke %-20s trace %d: %d metrics, %d attempted" % (
                workload, trace, len(ordered), result["attempted"]))
    print("smoke: ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    build()
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        fail("--workload, --seed, --seconds and --trace are required")

    lines, result, setups = run_workload(args.workload, args.seed, args.seconds,
                                         bool(args.trace))
    ordered, problems = order_metrics(args.workload, args.trace,
                                      result["metrics"])
    for line in lines:
        if line.startswith("host "):
            host = json.loads(line[5:])
            host.update(source_record())
            line = "host " + json.dumps(host, sort_keys=True)
        print(line)
    for name, metric in ordered.items():
        samples = ("n=%d processes" % len(setups) if name == "setup_s" and setups
                   else "n=%d" % metric["samples"])
        print("metric %-34s %14.6g %-10s %s" % (name, metric["value"],
                                               metric["unit"], samples))
    if problems:
        print("\n".join(problems), file=sys.stderr)
        fail("measured metrics differ from BENCHMARK.json", 1)
    result["metrics"] = {name: {"value": m["value"], "unit": m["unit"]}
                         for name, m in ordered.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
