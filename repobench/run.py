#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 repobench/run.py --workload flow-dragonfly --seed 1 --seconds 25 --trace 0
    python3 repobench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 repobench/run.py --selftest

The first call configures and builds repobench/ (which pulls in the
repo's src/ as the qlink library) into .bench_build/repobench; later
calls rebuild only what changed. Build output goes to stderr, so the
last line of stdout is always the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The line before it is the run record: machine manifest (cores, CPU,
compiler, build type, git sha), seed, sub-batch digests, per-repetition
host times and every correctness check. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer ones (BENCHMARK.json).
"""

import argparse
import json
import os
import re
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
BUILD_DIR = os.path.join(".bench_build", "repobench")
BINARY = os.path.join(BUILD_DIR, "repobench")
NAME_RE = re.compile(r"^[A-Za-z0-9_.-]+$")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("repobench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "repobench",
                  "-j", jobs])
    # Keep the compiler's temporary files inside the checkout too.
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  env=env, timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail("build step %s failed: %s" % (cmd[:2], e))
        if done.returncode != 0:
            fail("build step %s exited %d" % (cmd[:2], done.returncode))


def git_sha():
    """The checkout's commit, read from .git without leaving the checkout."""
    head_path = os.path.join(".git", "HEAD")
    try:
        with open(head_path) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(".git", "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_binary(args):
    """Run the benchmark binary; returns (exit code, record, result)."""
    try:
        done = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("benchmark run failed: %s" % e)
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2:
        fail("benchmark printed no result (exit %d)" % done.returncode)
    record = json.loads(lines[-2])["record"]
    record["machine"]["git_sha"] = git_sha()
    return done.returncode, record, json.loads(lines[-1])


def spec():
    with open(os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")) as f:
        return json.load(f)


def run_workloads(names, opts):
    """One result per workload; `all` folds them into one object whose
    metric names carry the workload as a prefix."""
    results = []
    code = 0
    for name in names:
        rc, record, result = run_binary(
            ["--workload", name, "--seed", str(opts.seed), "--seconds",
             str(opts.seconds), "--trace", str(opts.trace)])
        code = code or rc
        print(json.dumps({"record": record}))
        results.append((name, result))
    if len(results) == 1:
        print(json.dumps(results[0][1]))
        return code
    for name, result in results:
        print(json.dumps({"workload": name, "result": result}))
    merged = {
        "correct": all(r["correct"] for _, r in results),
        "attempted": sum(r["attempted"] for _, r in results),
        "failed": sum(r["failed"] for _, r in results),
        "metrics": {name + "." + k: v for name, r in results
                    for k, v in r["metrics"].items()},
    }
    print(json.dumps(merged))
    return code


def selftest(seed):
    """The benchmark's own checks, on short runs:
    - each seam decorator forwards exactly (the binary's --selftest);
    - every metric name matches [A-Za-z0-9_.-]+;
    - the binary's workloads and metrics are those BENCHMARK.json names,
      with the same units, and every per-layer metric appears in the
      traced output of every workload;
    - layers.json maps every per-layer metric."""
    problems = []
    rc = subprocess.run([BINARY, "--selftest", "--seed", str(seed),
                         "--scale", "0.05"], timeout=RUN_TIMEOUT_S).returncode
    if rc != 0:
        problems.append("seam decorators changed a digest")
    bench = spec()
    listed = subprocess.run([BINARY, "--list-metrics"], stdout=subprocess.PIPE,
                            text=True, check=True).stdout.split("\n")
    binary = {"workload": set(), "end_to_end": {}, "per_layer": {}}
    for line in filter(None, listed):
        kind, name, *unit = line.split()
        if kind == "workload":
            binary["workload"].add(name)
        else:
            binary[kind][name] = unit[0]
    if binary["workload"] != {w["name"] for w in bench["workloads"]}:
        problems.append("workloads differ from BENCHMARK.json")
    for kind in ("end_to_end", "per_layer"):
        declared = {m["name"]: m["unit"] for m in bench[kind]}
        if declared != binary[kind]:
            problems.append(kind + " names or units differ from BENCHMARK.json")
    with open(os.path.join(BENCH_DIR, "layers.json")) as f:
        mapped = set(json.load(f)["per_layer"])
    if mapped != set(binary["per_layer"]):
        problems.append("layers.json does not map exactly the per-layer metrics")
    for w in sorted(binary["workload"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            _, record, result = run_binary(
                ["--workload", w, "--seed", str(seed), "--seconds", "0",
                 "--trace", str(trace), "--scale", "0.05"])
            # The fast-path tolerance is statistical: it holds for the
            # full-size batches, not for these short ones.
            failed_checks = [c for c, v in record["checks"].items()
                             if not v["ok"] and c != "fastpath_tail_error"]
            metrics = result["metrics"]
            bad = [n for n in metrics if not NAME_RE.match(n)]
            missing = [m for m in binary[kind] if m not in metrics]
            wrong_unit = [m for m in binary[kind] if m in metrics and
                          metrics[m]["unit"] != binary[kind][m]]
            ok = not (failed_checks or bad or missing or wrong_unit)
            print("%s %-14s trace=%d checks=%s bad=%s missing=%s unit=%s" %
                  ("ok  " if ok else "FAIL", w, trace, failed_checks, bad,
                   missing, wrong_unit))
            if not ok:
                problems.append("%s trace %d output" % (w, trace))
    for p in problems:
        print("FAIL: " + p)
    print("selftest: %d problem(s)" % len(problems))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    opts = parser.parse_args()
    if not opts.selftest and not opts.workload:
        parser.error("--workload is required")
    if not os.path.isdir(os.path.join(os.path.dirname(BENCH_DIR), "src")):
        fail("run from the root of a repository checkout (no src/ beside "
             "repobench/)")
    build()
    if opts.selftest:
        return selftest(opts.seed)
    names = sorted(w["name"] for w in spec()["workloads"]) \
        if opts.workload == "all" else [opts.workload]
    return run_workloads(names, opts)


if __name__ == "__main__":
    sys.exit(main())
