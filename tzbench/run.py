#!/usr/bin/env python3
"""Builds the tzbench benchmark from source and runs it.

One run (prints the benchmark's output; the last line is the result JSON):

    python3 tzbench/run.py --workload chat --seed 1 --seconds 10 --trace 0

Steadiness check: run each named workload once per seed and print every
metric's median, quartiles and spread (IQR / median) against the bounds in
BENCHMARK.json:

    python3 tzbench/run.py --steady 10 --workload cold_start,chat --seconds 10

Helper tests (tzbench/selftest.cc):

    python3 tzbench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/tzbench (default .bench_build/tzbench)
under the checkout root.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_start", "chat", "shared_prefix_spill")
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print("tzbench/run.py: " + msg, file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    path = os.path.realpath(os.path.join(ROOT, target, "tzbench"))
    if not path.startswith(os.path.realpath(ROOT) + os.sep):
        fail("build directory %s is outside the checkout" % path)
    return path


def build():
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no repository sources next to tzbench/ (need CMakeLists.txt "
             "and src/ in %s)" % ROOT)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs, "--target", "tzbench",
                  "tzbench_selftest"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout)
            fail("build step failed: " + " ".join(cmd), 1)
    return out


def source_id():
    """The git commit when the checkout is a git repository, else a SHA-256
    over the sources the benchmark builds."""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        if proc.returncode == 0:
            return proc.stdout.strip()
    digest = hashlib.sha256()
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "tzbench"):
        for dirpath, dirnames, names in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            files += [os.path.join(dirpath, n) for n in sorted(names)]
    for path in files:
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def run_once(out, workload, seed, seconds, trace, echo=True):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    cmd = [os.path.join(out, "tzbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--git-sha", source_id()]
    if trace:
        cmd += ["--trace-out", os.path.join(
            out, "trace_%s_%d.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail("benchmark run exceeded %d s" % RUN_TIMEOUT_S, 1)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines:
            print(line)
    return proc.returncode, lines


def bounds():
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError):
        return {}
    return {m["name"]: m.get("bound") for m in spec.get("end_to_end", [])}


def steady(out, workloads, runs, first_seed, seconds, trace):
    bound = bounds()
    worst = 0
    for workload in workloads:
        values = {}
        units = {}
        for seed in range(first_seed, first_seed + runs):
            code, lines = run_once(out, workload, seed, seconds, trace,
                                   echo=False)
            result = json.loads(lines[-1]) if lines else {}
            if code != 0 or not result.get("correct"):
                print("%s seed %d: run failed (exit %d)" %
                      (workload, seed, code))
                worst = 1
                continue
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\n%s: %d runs, seeds %d..%d, %s s each" %
              (workload, runs, first_seed, first_seed + runs - 1, seconds))
        print("%-30s %12s %12s %12s %8s %7s  %s" %
              ("metric", "median", "q1", "q3", "spread", "bound", "status"))
        for name in sorted(values):
            vals = values[name]
            med = statistics.median(vals)
            if len(vals) >= 2:
                q1, _, q3 = statistics.quantiles(vals, n=4)
            else:
                q1 = q3 = med
            spread = (q3 - q1) / med if med else 0.0
            b = bound.get(name)
            status = ""
            if b is not None and name != "setup_s":
                status = "ok" if spread < b / 3 else (
                    "within bound" if spread <= b else "TOO NOISY")
            print("%-30s %12.6g %12.6g %12.6g %8.4f %7s  %s %s" %
                  (name, med, q1, q3, spread, "" if b is None else b,
                   status, units[name]))
            print("    values: " + " ".join("%.6g" % v for v in vals))
    return worst


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="RUNS")
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()

    if not args.selftest:
        names = WORKLOADS if args.workload == "all" else tuple(
            w for w in args.workload.split(",") if w)
        if not names or any(w not in WORKLOADS for w in names):
            fail("--workload must be one of %s (or 'all' with --steady)" %
                 ", ".join(WORKLOADS))
        if len(names) > 1 and not args.steady:
            fail("several workloads need --steady")

    out = build()
    if args.selftest:
        sys.exit(subprocess.run([os.path.join(out, "tzbench_selftest")])
                 .returncode)
    if args.steady:
        sys.exit(steady(out, names, args.steady, args.first_seed,
                        args.seconds, args.trace))
    code, _ = run_once(out, names[0], args.seed, args.seconds, args.trace)
    sys.exit(code)


if __name__ == "__main__":
    main()
