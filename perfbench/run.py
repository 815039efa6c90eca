#!/usr/bin/env python3
"""Build and run the repo benchmark (see perfbench/README.md).

Run from the root of a checkout:

    python3 perfbench/run.py --workload explore --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which builds the library
through the repository's own CMakeLists.txt) under $CARGO_TARGET_DIR, or
.bench_build when unset; later runs only check the build is current. The
last line of standard output is the result object; the line before it
holds the run's detail record (machine, build, digests, counters).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

# Time a run may take beyond --seconds: set-up, correctness gates and the
# traced run's replays.
EXTRA_TIMEOUT_S = 140


def checkout_root():
    return os.getcwd()


def build_dir(root):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(root, base, "perfbench")


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(root):
    """Configure (once) and build the perfbench binary; returns its path."""
    for need in ("CMakeLists.txt", "src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(os.path.join(root, need)):
            raise RuntimeError("not a repository checkout: missing " + need)
    out = build_dir(root)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", out,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def git_commit(root):
    """HEAD of the checkout, read from .git without leaving it."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
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


def expected_metrics(root, trace):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["explore", "sampled", "submit"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    root = checkout_root()
    try:
        binary = build(root)
        expected = expected_metrics(root, args.trace)
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.CalledProcessError) as e:
        log("cannot build or read the benchmark spec:", e)
        return 2

    out_dir = os.path.join(build_dir(root), "results")
    os.makedirs(out_dir, exist_ok=True)
    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_path = os.path.join(out_dir, tag + ".json")
    workdir = os.path.join(build_dir(root), "work", "%s-%d" % (tag, os.getpid()))
    if os.path.exists(out_path):
        os.remove(out_path)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out_path, "--workdir", workdir, "--commit", git_commit(root)]
    timeout = args.seconds + EXTRA_TIMEOUT_S
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("timed out after %d s" % timeout)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not os.path.exists(out_path):
        log("no result (exit code %d)" % proc.returncode)
        return 1
    with open(out_path) as f:
        result = json.load(f)

    metrics = result["metrics"]
    got = {name: m["unit"] for name, m in metrics.items()}
    if got != expected:
        log("metrics do not match BENCHMARK.json:",
            sorted(set(got.items()) ^ set(expected.items())))
        return 1
    host = result["detail"]["host_contention"]
    if host["contended"]:
        log("host contended during the timed loop (steal %.3f, other processes"
            " %.3f of host CPU): times are not comparable with a quiet run's"
            % (host["steal_frac"], host["others_busy_frac"]))
    correct = bool(result["correct"]) and proc.returncode == 0
    print(json.dumps({"detail": result["detail"]}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
