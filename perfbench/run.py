#!/usr/bin/env python3
"""Builds and runs the tuple-space benchmark (perfbench/tsbench.cpp).

    python3 perfbench/run.py --workload routed_keyed --seed 7 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

run.py builds libsting from the checkout's src/ into .bench_build/,
runs one workload, prints every metric BENCHMARK.json names for the
requested mode (end-to-end with --trace 0, per-layer with --trace 1) by
name with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

--record FILE appends the run (workload, seed and that JSON object) to a
JSON-lines file that perfbench/compare.py reads. --smoke runs every
workload briefly in both modes and checks that each named metric is
printed with its unit. See perfbench/NOTES.md.
"""

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "tsbench"
# tsbench is killed after this long, so a run ends well within 3 minutes.
RUN_BUDGET_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print("run.py: no libsting sources (src/CMakeLists.txt) in this "
              "checkout", file=sys.stderr)
        sys.exit(2)
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4",
                  "--target", "tsbench"])
    for step in steps:
        # Build chatter goes to stderr: stdout carries only results.
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=850)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def load_spec():
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as err:
        fail(f"cannot read {path}: {err}")


def run_tsbench(workload, seed, seconds, trace, rounds=None, budget=None):
    """Runs one workload; returns tsbench's result object."""
    args = [str(BINARY), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if rounds is not None:
        args += ["--rounds", str(rounds)]
    if trace:
        spans = ROOT / ".bench_build" / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        args += ["--spans-out", str(spans / f"{workload}-seed{seed}.jsonl")]
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget or RUN_BUDGET_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within its budget")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail(f"tsbench exited with {done.returncode} on {workload}")
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail(f"tsbench printed no result line on {workload}")


def select(result, wanted):
    """The metrics named in `wanted`, checked for presence and unit."""
    metrics = {}
    for spec in wanted:
        got = result["metrics"].get(spec["name"])
        if got is None:
            fail(f"metric {spec['name']} was not measured")
        if got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} measured in {got['unit']}, "
                 f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return metrics


def smoke(spec):
    ok = True
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run_tsbench(workload, 1, 2, trace, rounds=2)
            missing = [m["name"] for m in spec[key]
                       if result["metrics"].get(m["name"], {}).get("unit")
                       != m["unit"]]
            good = result["correct"] and not missing
            ok = ok and good
            print(f"{workload:18s} trace={trace} "
                  f"{len(spec[key]) - len(missing)}/{len(spec[key])} metrics "
                  f"with units, correct={result['correct']}"
                  + (f", missing: {', '.join(missing)}" if missing else ""))
    print("smoke:", "ok" if ok else "FAILED")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="append the result to this file")
    parser.add_argument("--smoke", action="store_true",
                        help="check every workload prints every metric")
    args = parser.parse_args()
    start = time.monotonic()

    build()
    spec = load_spec()
    if args.smoke:
        sys.exit(smoke(spec))
    if not args.workload:
        fail("--workload is required (see BENCHMARK.json)")
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be within 1..60")

    budget = max(10, RUN_BUDGET_S - (time.monotonic() - start))
    result = run_tsbench(args.workload, args.seed, args.seconds, args.trace,
                         budget=budget)
    key = "per_layer" if args.trace else "end_to_end"
    metrics = select(result, spec[key])

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  rounds {result['rounds']}")
    print(f"rtt samples {result['rtt_samples']}  attempted "
          f"{result['attempted']}  failed {result['failed']}")
    for error in result["errors"]:
        print(f"error: {error}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    attempted, failed = int(result["attempted"]), int(result["failed"])
    if attempted == 0:  # set-up itself failed: count it as the one attempt
        attempted, failed = 1, 1
    final = {"correct": bool(result["correct"]) and failed == 0,
             "attempted": attempted,
             "failed": failed,
             "metrics": metrics}
    if args.record:
        with open(args.record, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace,
                                  "result": final}) + "\n")
    print(json.dumps(final))


if __name__ == "__main__":
    main()
