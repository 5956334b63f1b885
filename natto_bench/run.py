#!/usr/bin/env python3
"""Builds natto_bench from source and runs it, one workload per process.

    python3 natto_bench/run.py --workload contention --seed 7 --seconds 25 --trace 0
    python3 natto_bench/run.py                  # all four workloads -> natto_bench.json
    python3 natto_bench/run.py --trace 1        # per-layer split -> natto_bench_traced.json
    python3 natto_bench/run.py --counts         # deterministic-count ceiling gate

Run from the repository root. The build goes to $CARGO_TARGET_DIR when set,
else .bench_build/, both relative to the repository root. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Exit status is nonzero when the build fails or an output check fails.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

WORKLOADS = ["contention", "writes", "site_parallel", "jitter"]
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CEILINGS = os.path.join(BENCH_DIR, "ceilings.json")
# Headroom written above each measured count by --update-ceilings.
CEILING_HEADROOM = 1.05


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then builds incrementally. Returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("natto_bench: no simulator sources at %s/src; run from a full "
            "checkout of the repository" % ROOT)
        sys.exit(2)
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "natto_bench",
                  "-j", "3"])
    for cmd in steps:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout)
            log("natto_bench: build step failed: %s" % " ".join(cmd))
            sys.exit(proc.returncode or 1)
    return os.path.join(out, "natto_bench")


def run_one(binary, workload, args, mode_flag, report_path):
    """Runs one workload in its own process; returns (exit code, stdout)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % args.seed,
           "--rounds=%d" % args.rounds, "--seconds=%g" % args.seconds]
    if mode_flag:
        cmd.append(mode_flag)
    if report_path:
        cmd.append("--out=" + report_path)
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def run_all(binary, args, mode_flag):
    """Every workload, one child process at a time, merged into one file."""
    reports, summary = {}, {"correct": True, "attempted": 0, "failed": 0,
                            "metrics": {}}
    status = 0
    with tempfile.TemporaryDirectory(dir=build_dir()) as tmp:
        for w in args.workloads:
            path = os.path.join(tmp, w + ".json")
            code, stdout = run_one(binary, w, args, mode_flag, path)
            sys.stdout.write(stdout)
            result = last_json(stdout)
            if code != 0 or result is None or not os.path.isfile(path):
                status = code or 1
                summary["correct"] = False
                summary["failed"] += 1
                continue
            with open(path) as f:
                reports[w] = json.load(f)
            summary["correct"] &= result["correct"]
            summary["attempted"] += result["attempted"]
            summary["failed"] += result["failed"]
            for name, m in result["metrics"].items():
                summary["metrics"]["%s.%s" % (w, name)] = m
    return status, reports, summary


def counts_gate(binary, args):
    """Fails when a deterministic count rises above its committed ceiling."""
    status, reports, summary = run_all(binary, args, "--counts")
    ceilings = {}
    if os.path.isfile(CEILINGS):
        with open(CEILINGS) as f:
            ceilings = json.load(f)
    if args.update_ceilings and status == 0:
        # Only the workloads this run measured get new ceilings.
        for w, r in reports.items():
            ceilings[w] = {name: round(m["value"] * CEILING_HEADROOM, 4)
                           for name, m in r["metrics"].items()}
        with open(CEILINGS, "w") as f:
            json.dump(ceilings, f, indent=2, sort_keys=True)
            f.write("\n")
        log("wrote %s" % CEILINGS)
    elif args.update_ceilings:
        log("counts: a run failed; %s left unchanged" % CEILINGS)
    for w, r in reports.items():
        for name, m in r["metrics"].items():
            ceiling = ceilings.get(w, {}).get(name)
            if ceiling is None:
                log("counts: %s %s has no ceiling" % (w, name))
                status = status or 1
            elif m["value"] > ceiling:
                log("counts: %s %s = %.4f exceeds its ceiling %.4f"
                    % (w, name, m["value"], ceiling))
                status = status or 1
    summary["correct"] &= status == 0
    return status, summary


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=4242)
    p.add_argument("--seconds", type=float, default=0,
                   help="keep adding rounds while the next fits (0: --rounds)")
    p.add_argument("--rounds", type=int, default=None,
                   help="minimum rounds (default 1 with --seconds, else 3)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--counts", action="store_true")
    p.add_argument("--update-ceilings", action="store_true")
    p.add_argument("--out", default=None,
                   help="merged report (default natto_bench[_traced].json "
                        "for --workload all)")
    args = p.parse_args()
    if args.rounds is None:
        args.rounds = 1 if args.seconds > 0 else 3
    args.workloads = WORKLOADS if args.workload == "all" else [args.workload]

    binary = build()
    if args.counts or args.update_ceilings:
        status, summary = counts_gate(binary, args)
        print(json.dumps(summary))
        return status

    mode_flag = "--traced" if args.trace else None
    if args.workload != "all" and args.out is None:
        code, stdout = run_one(binary, args.workload, args, mode_flag, None)
        sys.stdout.write(stdout)
        sys.stdout.flush()
        return code

    status, reports, summary = run_all(binary, args, mode_flag)
    out = args.out or ("natto_bench_traced.json" if args.trace
                       else "natto_bench.json")
    with open(out, "w") as f:
        json.dump({"bench": "natto_bench", "seed": args.seed,
                   "traced": bool(args.trace), "workloads": reports},
                  f, indent=1, sort_keys=True)
        f.write("\n")
    log("wrote %s" % out)
    print(json.dumps(summary))
    return status


if __name__ == "__main__":
    sys.exit(main())
