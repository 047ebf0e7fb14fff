#!/usr/bin/env python3
"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For every workload it runs a short clean
run (must be correct) and a run with one deliberately corrupted output
(--corrupt; must be reported incorrect, with the corruption counted in
`failed`).  It also runs the traced program once and checks that every
per-layer metric is present and that front + nsa + sa + opt account for at
least 90% of compile_cold's compile wall time, and that the command fails
without printing a result in a directory holding only the benchmark.
Exits nonzero on the first broken expectation.
"""
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("compile_cold", "engine_bulk", "serve_open", "serve_burst")


def run(workload, trace="0", corrupt=False, cwd="."):
    cmd = [sys.executable, os.path.abspath("perfbench/run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", trace]
    if corrupt:
        cmd.append("--corrupt")
    p = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                       stderr=subprocess.DEVNULL, text=True, timeout=180)
    return p.returncode, p.stdout.strip().splitlines()


def expect(cond, what):
    print(("ok   " if cond else "FAIL ") + what, flush=True)
    if not cond:
        sys.exit(1)


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    for w in WORKLOADS:
        code, out = run(w)
        res = json.loads(out[-1])
        expect(code == 0 and res["correct"] and res["failed"] == 0,
               f"{w}: clean run is correct")
        expect(set(res["metrics"]) == {m["name"] for m in bench["end_to_end"]},
               f"{w}: every end-to-end metric reported")
        code, out = run(w, corrupt=True)
        res = json.loads(out[-1])
        expect(code == 0 and not res["correct"] and res["failed"] >= 1,
               f"{w}: corrupted output counted in failed")

    code, out = run("compile_cold", trace="1")
    res = json.loads(out[-1])
    expect(set(res["metrics"]) == {m["name"] for m in bench["per_layer"]},
           "traced run reports every per-layer metric")
    share = res["metrics"]["compile.layer_share"]["value"]
    expect(share >= 0.9, f"front+nsa+sa+opt cover {share:.4f} of compile time")

    bare = os.path.join(".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, out = run("compile_cold", cwd=bare)
    expect(code != 0 and not any(l.startswith("{") for l in out),
           "fails without a result outside a checkout")
    shutil.rmtree(bare)


if __name__ == "__main__":
    main()
