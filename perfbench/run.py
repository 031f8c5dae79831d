#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the root of a checkout.  Builds perfbench/perfbench.exe with
dune, runs one workload (figures-warm first fills its store in a
separate process), and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`: every end-to-end metric
of BENCHMARK.json with --trace 0, every per-layer metric with --trace 1
(0 for a layer the workload does not use).  Scratch files and the
traced run's spans go to .perfbench/<workload>/.
"""

import argparse
import json
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
WORKLOADS = ["figures-cold", "figures-warm", "serve-mixed", "oracle-gap"]


def die(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(need):
            die("run from the root of a checkout: %s is missing" % need, 2)
    r = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet", "./perfbench/perfbench.exe"],
        stdout=sys.stderr,
    )
    if r.returncode != 0:
        die("build failed", r.returncode or 1)


def exe(*args):
    """Run the benchmark executable; return its last stdout line."""
    r = subprocess.run([EXE, *args], stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        die("%s exited with %d" % (" ".join(args[:1]), r.returncode))
    lines = r.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--small", action="store_true", help="small inputs, for a quick try")
    ap.add_argument("--selftest", action="store_true", help="run the checks' self-tests")
    a = ap.parse_args()
    build()
    if a.selftest:
        r = subprocess.run([EXE, "selftest", "--work", os.path.join(".perfbench", "selftest")])
        sys.exit(r.returncode)
    if a.workload is None:
        die("--workload is required", 2)

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]

    work = os.path.join(".perfbench", a.workload)
    small = ["--small"] if a.small else []
    if a.workload == "figures-warm":
        exe("fill", "--work", work, *small)
    line = exe(
        "run", "--workload", a.workload, "--seed", str(a.seed),
        "--seconds", str(a.seconds), "--trace", str(a.trace), "--work", work, *small,
    )
    try:
        got = json.loads(line)
    except ValueError:
        die("no result line from the benchmark executable")

    names = {m["name"] for m in wanted}
    unknown = sorted(set(got["metrics"]) - names)
    if unknown:
        die("metrics not in BENCHMARK.json: " + ", ".join(unknown))
    missing = [m["name"] for m in wanted if m["name"] not in got["metrics"] and not a.trace]
    if missing:
        die("end-to-end metrics not measured: " + ", ".join(missing))
    metrics = {
        m["name"]: {"value": got["metrics"].get(m["name"], 0), "unit": m["unit"]}
        for m in wanted
    }
    if not a.trace:
        for m in wanted:
            print("%-14s %14.6g %s" % (m["name"], metrics[m["name"]]["value"], m["unit"]))
    print(json.dumps({
        "correct": got["correct"],
        "attempted": got["attempted"],
        "failed": got["failed"],
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
