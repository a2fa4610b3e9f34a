#!/usr/bin/env python3
"""Build and run the thin-locks benchmark.

Usage, from the root of a checkout:

    python3 perf/run.py --workload uncontended --seed 1 --seconds 20 --trace 0
    python3 perf/run.py --self-test

The first form builds perf/perfbench.exe in the release profile (into
.bench_build/), runs one workload and prints a stamp line, then as its
last line one JSON object with keys correct, attempted, failed and
metrics.  --trace 0 reports the end-to-end metrics; --trace 1 reports
every per-layer metric and writes the traced run's spans to
.bench_build/spans/.  --self-test checks that the inputs are a function
of the seed and that BENCHMARK.json names the metrics the program
prints.  Any failure exits non-zero without printing a result.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCH_DIR = os.path.relpath(HERE, ROOT)
BUILD_DIR = ".bench_build"
TARGET = "./" + BENCH_DIR + "/perfbench.exe"
EXE = os.path.join(ROOT, BUILD_DIR, "default", BENCH_DIR, "perfbench.exe")
WORKLOADS = ["uncontended", "scaling-2d", "fiber-storm"]


def fail(message):
    print("perf/run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    try:
        done = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "--build-dir", BUILD_DIR, TARGET],
            cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0 or not os.path.exists(EXE):
        fail("build failed")


def source_revision():
    """The git commit, or a digest of the sources when there is no git."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            if out.returncode == 0:
                return out.stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha1()
    for top in ["dune-project", "lib", BENCH_DIR]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f)
            for d, dirs, fs in os.walk(path)
            for f in fs
            if not any(p.startswith((".", "_")) for p in os.path.relpath(d, ROOT).split(os.sep)))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()[:12]


def perfbench(args, timeout):
    """Run perfbench; returns (exit code, stdout, stderr, peak RSS in MB)."""
    outs = [os.path.join(ROOT, BUILD_DIR, "perfbench.%s" % s) for s in ("out", "err")]
    with open(outs[0], "w") as out, open(outs[1], "w") as err:
        try:
            proc = subprocess.Popen([EXE] + args, cwd=ROOT, stdout=out, stderr=err)
        except OSError as e:
            fail("perfbench %s: %s" % (" ".join(args), e))
        deadline = time.monotonic() + timeout
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                proc.kill()
                os.wait4(proc.pid, 0)
                fail("perfbench %s: timed out" % " ".join(args))
            time.sleep(0.05)
    texts = []
    for path in outs:
        with open(path) as fh:
            texts.append(fh.read())
    return os.waitstatus_to_exitcode(status), texts[0], texts[1], usage.ru_maxrss / 1024.0


def self_test():
    digest = lambda seed: perfbench(["digest", "--seed", str(seed)], 120)[1].strip()
    a, b, c = digest(1), digest(1), digest(2)
    if not a or a != b:
        fail("seed 1 gave different inputs on two runs: %s vs %s" % (a, b))
    if a == c:
        fail("seeds 1 and 2 gave the same inputs")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    listed = perfbench(["metrics"], 60)[1].split()
    printed = list(zip(listed[0::2], listed[1::2]))
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    if printed != declared:
        fail("BENCHMARK.json per_layer does not match what perfbench prints")
    print("self-test passed: seed 1 -> %s, seed 2 -> %s; %d per-layer metrics match"
          % (a, c, len(declared)))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    build()
    if args.self_test:
        return self_test()
    if args.workload is None:
        fail("--workload is required")
    spans = os.path.join(BUILD_DIR, "spans", "%s-seed%d.tsv" % (args.workload, args.seed))
    os.makedirs(os.path.join(ROOT, os.path.dirname(spans)), exist_ok=True)
    code, stdout, stderr, peak_rss_mb = perfbench(
        ["run", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--programs", os.path.join(BENCH_DIR, "programs"),
         "--spans", spans, "--commit", source_revision()],
        170)
    sys.stderr.write(stderr)
    lines = stdout.strip().splitlines()
    if code != 0 or not lines:
        fail("perfbench exited with code %d" % code)
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("perfbench printed a malformed result")
    if args.trace == 0:
        result["metrics"]["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
