#!/usr/bin/env python3
"""Build and run the whole-pipeline benchmark from the root of a checkout.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (Release, into .bench_build/) on first use, runs one
workload, and passes the benchmark program's report through.  The last line of stdout
is the result: {"correct", "attempted", "failed", "metrics"}.  On top of the
benchmark program's own checks this script enforces determinism across runs:
static_instrs, exec_T and exec_W of a (workload, seed) must repeat exactly
in every later run of the same sources, traced or not.  A traced run also prints its tracing
overhead against the last untraced run of the same workload and seed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

BUILD = ".bench_build"
RESULTS = os.path.join(BUILD, "results")
DETERMINISTIC = ("static_instrs", "exec_T", "exec_W")


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """Digest of everything that decides the measured program and inputs."""
    h = hashlib.sha256()
    for root in ("src", os.path.join("perfbench", "programs"),
                 os.path.join("perfbench", "src")):
        for base, dirs, files in sorted(os.walk(root)):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:12]


def build():
    build_dir = os.path.join(BUILD, "perfbench")
    jobs = str(min(os.cpu_count() or 1, 4))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", "perfbench", "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return build_dir


def load(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", choices=("0", "1"), required=True)
    ap.add_argument("--corrupt", action="store_true",
                    help="self-test: perturb one checked output")
    args = ap.parse_args()

    for need in ("src", os.path.join("perfbench", "CMakeLists.txt")):
        if not os.path.exists(need):
            log(f"perfbench: {need} not found; run from the root of a "
                "checkout of the repository")
            return 2
    try:
        build_dir = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log(f"perfbench: build failed: {e}")
        return 1

    binary = os.path.join(build_dir, "perfbench_traced" if args.trace == "1"
                          else "perfbench")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds)]
    if args.corrupt:
        cmd.append("--corrupt")
    digest = source_digest()
    env = dict(os.environ)
    env.setdefault("NSCC_GIT_SHA", "src-" + digest)
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=175)
    except subprocess.TimeoutExpired:
        log("perfbench: the run did not finish within 175 s")
        return 1
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        log(f"perfbench: the benchmark program exited with {proc.returncode}")
        return 1
    result = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)

    # Determinism across runs of one (workload, seed).
    stem = f"{args.workload}-seed{args.seed}"
    mine = load(os.path.join(RESULTS, f"{stem}-trace{args.trace}.json"))
    if mine is None:
        log("perfbench: the benchmark program wrote no result file")
        return 1
    counts = {k: mine["end_to_end"][k] for k in DETERMINISTIC}
    det_path = os.path.join(RESULTS, f"determinism-{stem}-{digest}.json")
    first = load(det_path)
    if first is None:
        if not args.corrupt:
            with open(det_path, "w") as f:
                json.dump(counts, f)
    elif first != counts:
        print(f"  FAILED: determinism: {counts} != first run {first}")
        result["correct"] = False
        result["failed"] += 1

    # Tracing overhead: traced minus untraced, per end-to-end metric.
    if args.trace == "1":
        base = load(os.path.join(RESULTS, f"{stem}-trace0.json"))
        if base is not None:
            over = {k: v - base["end_to_end"][k]
                    for k, v in mine["end_to_end"].items()}
            print(" tracing overhead (traced - untraced):")
            for k, v in over.items():
                print(f"  {k} = {v:.6g}")
            mine["tracing_overhead"] = over
            with open(os.path.join(RESULTS, f"{stem}-trace1.json"), "w") as f:
                json.dump(mine, f, indent=2)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
