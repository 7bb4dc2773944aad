#!/usr/bin/env python3
"""Build and run the serving benchmark (see servebench/README.md).

    python3 servebench/run.py --workload knn_disk --seed 1 --seconds 25 --trace 0
    python3 servebench/run.py --smoke

Run from the repository root. The first run configures and builds the
vsim library and the driver into $CARGO_TARGET_DIR (default
.bench_build); later runs only rebuild what changed. The driver's human
readable lines are echoed, and the last line of standard output is the
result object {"correct", "attempted", "failed", "metrics"}, with the
end-to-end metrics for --trace 0 and the per-layer metrics for --trace 1.
Each run also writes its full record (metadata, notes, result) and, for
--trace 1, a Chrome trace-event span file under servebench/results/.

--smoke runs every workload, traced and untraced, on a tiny corpus and
checks the output schema, the correctness oracle and the layer
expectations; it is the benchmark's own test.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# The driver's tiny sizing: seconds per run, not a measurement.
SMOKE_FLAGS = ["--smoke", "1"]
# Every workload the driver runs. BENCHMARK.json lists all but knn_ram,
# whose compute-bound figures swing with the host's speed by more than
# any bound allows (README "Noise"); it stays runnable and smoke-tested.
ALL_WORKLOADS = ("knn_ram", "knn_disk", "hot_cached_reindex")


def fail(message):
    print("servebench: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the vsim sources (src/) are missing next to servebench/")
    tree = os.path.join(build_dir(), "servebench")
    steps = []
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", tree,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", tree, "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(tree, "servebench")


def source_id():
    """The commit when the checkout is a git repository, else a digest of
    the sources the benchmark builds."""
    try:
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        out = done.stdout.split()
        # Only this checkout's own repository counts, not an enclosing one.
        if (done.returncode == 0 and len(out) == 2
                and os.path.realpath(out[0]) == os.path.realpath(ROOT)):
            return out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "servebench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def run_driver(binary, args, extra):
    out_dir = os.path.join(BENCH_DIR, "results")
    work_dir = os.path.join(build_dir(), "work")
    os.makedirs(out_dir, exist_ok=True)
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir, "--work-dir", work_dir,
           "--commit", source_id()] + extra
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver timed out after %d s" % RUN_TIMEOUT_S)
    if done.returncode != 0:
        fail("driver exited with code %d" % done.returncode)
    lines = done.stdout.rstrip("\n").split("\n")
    if not lines or not lines[-1].startswith("{"):
        fail("driver printed no result line")
    return lines, json.loads(lines[-1])


def check_result(spec, trace, result):
    """Returns a list of schema violations of one result object."""
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys are %s" % sorted(result))
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or result[key] < 0:
            problems.append("%s is not a whole number" % key)
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        problems.append("metric names differ from BENCHMARK.json")
        return problems
    for m in wanted:
        got = result["metrics"][m["name"]]
        if got.get("unit") != m["unit"]:
            problems.append("%s has unit %r" % (m["name"], got.get("unit")))
        if not isinstance(got.get("value"), (int, float)):
            problems.append("%s has no numeric value" % m["name"])
    return problems


def smoke():
    spec = load_spec()
    binary = build()
    failures = []
    for workload in ALL_WORKLOADS:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=1,
                                      trace=trace)
            _, result = run_driver(binary, args, SMOKE_FLAGS)
            problems = check_result(spec, trace, result)
            if not result.get("correct") or result.get("failed") != 0:
                problems.append("correct=%s failed=%s" % (
                    result.get("correct"), result.get("failed")))
            if trace == 1 and not problems:
                problems += layer_expectations(workload, result["metrics"])
                problems += check_files(workload)
            name = "%s trace=%d" % (workload, trace)
            print("%-28s %s" % (name, "ok" if not problems else
                                "FAILED: " + "; ".join(problems)))
            failures += problems
    print("smoke: %s" % ("ok" if not failures else "%d problems" % len(failures)))
    return 0 if not failures else 1


def layer_expectations(workload, metrics):
    """The layers each workload must (and must not) exercise."""
    v = {name: m["value"] for name, m in metrics.items()}
    problems = []

    def expect(ok, what):
        if not ok:
            problems.append(what)

    if workload in ("knn_ram", "hot_cached_reindex"):  # RAM snapshots
        for name in ("cache.pool_hit_ratio", "cache.pool_misses_per_query",
                     "storage.get_us"):
            expect(v[name] == 0, name + " != 0")
    if workload == "knn_disk":
        # The smoke corpus fits the pool, so only the full-size run can
        # show misses; the pool must still serve every refinement.
        expect(0 < v["cache.pool_hit_ratio"] <= 1, "pool_hit_ratio not in (0, 1]")
        expect(v["storage.get_us"] > 0, "storage.get_us == 0")
    if workload in ("knn_ram", "knn_disk"):
        expect(v["service.cache_hit_ratio"] == 0, "service.cache_hit_ratio != 0")
    if workload == "hot_cached_reindex":
        expect(v["service.cache_hit_ratio"] >= 0.8, "service.cache_hit_ratio < 0.8")
    expect(v["core.knn_us"] > 0 and v["distance.refined_per_query"] >= 10,
           "engine replay did no work")
    return problems


def check_files(workload):
    problems = []
    for suffix in (".trace.json", "_trace1.json"):
        path = os.path.join(BENCH_DIR, "results", workload + "_seed1" + suffix)
        try:
            with open(path) as f:
                json.load(f)
        except (OSError, ValueError) as e:
            problems.append("%s: %s" % (os.path.basename(path), e))
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    spec = load_spec()
    if args.workload not in ALL_WORKLOADS:
        parser.error("unknown workload " + args.workload)
    binary = build()
    lines, result = run_driver(binary, args, [])
    problems = check_result(spec, args.trace, result)
    if problems:
        fail("malformed result: " + "; ".join(problems))
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
