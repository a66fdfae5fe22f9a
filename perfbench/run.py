#!/usr/bin/env python3
"""Build the benchmark from source and run it.

Run from the root of the repository:

  python3 perfbench/run.py --workload c3i_stream --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --all --seed 1 --seconds 10
  python3 perfbench/run.py --selftest
  python3 perfbench/run.py --repeat 10 --workload lu_solver --seconds 10

The first form builds perfbench/ (a Go module that uses the repository
through a replace directive) into .bench_build/ and runs one workload;
the last line of its output is the result object. --all runs every
workload of BENCHMARK.json, untraced and then traced, and prints every
metric by name with its unit; it exits 1 if any run failed or any
output was wrong. --selftest runs every
workload of BENCHMARK.json for a handful of apps on two seeds, both
untraced and traced, and checks that each run is correct, that every
metric BENCHMARK.json names is present and finite, and that the two
seeds give different inputs but the same metric set. --repeat N runs a
workload N times on seeds seed..seed+N-1 and prints, per metric, the
median, the quartiles and two spreads: (q3-q1)/median and
(max-min)/median.

Everything the build and the runs write stays under .bench_build/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
RUN_TIMEOUT_S = 170


def build():
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOMODCACHE": os.path.join(BUILD, "gopath", "pkg", "mod"),
        "XDG_CONFIG_HOME": os.path.join(BUILD, "config"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOPROXY": "off",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOTMPDIR": os.path.join(BUILD, "gotmp"),
    })
    os.makedirs(env["GOTMPDIR"], exist_ok=True)
    done = subprocess.run(["go", "build", "-o", BINARY, "."],
                          cwd=os.path.join(ROOT, "perfbench"), env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("perfbench: build failed")


def bench_args(workload, seed, seconds, trace, apps=0):
    args = [BINARY, "-workload", workload, "-seed", str(seed),
            "-seconds", str(seconds), "-trace", str(trace)]
    if apps:
        args += ["-apps", str(apps)]
    return args


def run_once(workload, seed, seconds, trace, apps=0):
    """Runs the built binary once; returns (run record, result) or raises."""
    done = subprocess.run(bench_args(workload, seed, seconds, trace, apps),
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no output, exit {done.returncode}")
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["run_record"] if len(lines) > 1 else {}
    if done.returncode != 0 or not result.get("correct"):
        raise RuntimeError(f"{workload} seed {seed} trace {trace}: exit {done.returncode}, "
                           f"{result.get('failed')} of {result.get('attempted')} failed")
    return record, result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def selftest():
    spec = load_spec()
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            seen = {}
            for seed in (1, 2):
                try:
                    record, result = run_once(w, seed, 1, trace, apps=24)
                except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                    problems.append(str(e))
                    continue
                got = set(result["metrics"])
                if got != want[trace]:
                    problems.append(f"{w} seed {seed} trace {trace}: missing {sorted(want[trace] - got)}, "
                                    f"unexpected {sorted(got - want[trace])}")
                bad = [k for k, m in result["metrics"].items()
                       if not isinstance(m["value"], (int, float)) or not math.isfinite(m["value"])]
                if bad:
                    problems.append(f"{w} seed {seed} trace {trace}: not finite: {bad}")
                if result["failed"] != 0 or result["attempted"] < 1:
                    problems.append(f"{w} seed {seed} trace {trace}: failed_frac "
                                    f"{result['failed']}/{result['attempted']}")
                seen[seed] = (record.get("inputs"), got)
            if len(seen) == 2:
                (in1, m1), (in2, m2) = seen[1], seen[2]
                if in1 == in2:
                    problems.append(f"{w} trace {trace}: seeds 1 and 2 gave the same inputs {in1}")
                if m1 != m2:
                    problems.append(f"{w} trace {trace}: seeds 1 and 2 gave different metric sets")
            print(f"selftest {w} trace {trace}: {len(seen)} of 2 seeds ran", file=sys.stderr)
    for p in problems:
        print("selftest:", p, file=sys.stderr)
    print(json.dumps({"selftest": "fail" if problems else "ok", "problems": len(problems)}))
    return 1 if problems else 0


def run_all(seed, seconds):
    """Runs every workload untraced, then traced, and prints every metric."""
    failed = 0
    for w in (w["name"] for w in load_spec()["workloads"]):
        for trace in (0, 1):
            try:
                _, result = run_once(w, seed, seconds, trace)
            except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
                print(f"{w} trace {trace}: FAILED: {e}")
                failed += 1
                continue
            print(f"{w} trace {trace}: {result['attempted']} apps attempted, {result['failed']} failed")
            for k, m in sorted(result["metrics"].items()):
                print(f"  {k:36s} {m['value']:14.6g} {m['unit']}")
    return 1 if failed else 0


def repeat(n, workload, seed, seconds, trace):
    values = {}
    units = {}
    for i in range(n):
        _, result = run_once(workload, seed + i, seconds, trace)
        for k, m in result["metrics"].items():
            values.setdefault(k, []).append(m["value"])
            units[k] = m["unit"]
        print(f"run {i + 1}/{n} seed {seed + i}: " +
              " ".join(f"{k}={m['value']:.6g}" for k, m in sorted(result["metrics"].items())),
              file=sys.stderr)
    summary = {}
    for k, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0],) * 3
        summary[k] = {"unit": units[k], "median": med, "q1": q1, "q3": q3,
                      "iqr_frac": (q3 - q1) / med if med else float("nan"),
                      "range_frac": (max(vs) - min(vs)) / med if med else float("nan"),
                      "values": vs}
        print(f"{k:36s} median {med:12.6g} {units[k]:7s} q1 {q1:12.6g} q3 {q3:12.6g} "
              f"iqr/med {summary[k]['iqr_frac']:7.4f} range/med {summary[k]['range_frac']:7.4f}")
    print(json.dumps({"workload": workload, "runs": n, "trace": trace, "metrics": summary}))
    return 0


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--repeat", type=int, default=0, help="run the workload N times and summarize")
    p.add_argument("--selftest", action="store_true", help="short runs of every workload, checked")
    p.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    a = p.parse_args()
    if not (a.selftest or a.all or a.workload):
        p.error("--workload is required")
    build()
    if a.selftest:
        return selftest()
    if a.all:
        return run_all(a.seed, a.seconds)
    if a.repeat:
        return repeat(a.repeat, a.workload, a.seed, a.seconds, a.trace)
    sys.stdout.flush()
    os.chdir(ROOT)
    os.execv(BINARY, bench_args(a.workload, a.seed, a.seconds, a.trace))


if __name__ == "__main__":
    sys.exit(main())
