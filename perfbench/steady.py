#!/usr/bin/env python3
"""Steadiness tool for the end-to-end benchmark.

Runs each workload N times with consecutive seeds and prints the median,
quartiles and spread (interquartile distance over median) of every
end-to-end metric, next to the host's DRAM pointer-chase latency of each
run, so host drift can be told apart from a code change.  A saved set can be
compared with another one against the bounds in BENCHMARK.json.

    python3 perfbench/steady.py run [--runs 10] [--seed 1] [--workloads a,b]
                                    [--save set.json]
    python3 perfbench/steady.py compare first.json second.json
"""
import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def run_once(workload, seed, seconds):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} failed ({proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    chase = re.search(r"host\.dram_chase_ns ([0-9.]+)", proc.stderr)
    result["dram_chase_ns"] = float(chase.group(1)) if chase else None
    return result


def summarize(runs, workload):
    print(f"\n{workload}: {len(runs)} runs")
    for metric in SPEC["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = quartiles(values)
        spread = (q3 - q1) / med if med else float("inf")
        note = "" if name == "setup_s" else f"  (bound {metric['bound']})"
        print(f"  {name:20s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {spread:7.4f}{note}")
    shares = {r["failed"] / r["attempted"] for r in runs}
    chases = [r["dram_chase_ns"] for r in runs if r["dram_chase_ns"] is not None]
    print(f"  failed share {sorted(shares)}  correct {all(r['correct'] for r in runs)}")
    if chases:
        q1, med, q3 = quartiles(chases)
        print(f"  host.dram_chase_ns median {med:.1f} (q1 {q1:.1f}, q3 {q3:.1f})")


def cmd_run(args):
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in SPEC["workloads"]]
    saved = {}
    for workload in workloads:
        runs = []
        for i in range(args.runs):
            runs.append(run_once(workload, args.seed + i, args.seconds))
            print(f"  {workload} seed {args.seed + i}: live_mops "
                  f"{runs[-1]['metrics']['live_mops']['value']:.4f}", file=sys.stderr)
        saved[workload] = runs
        summarize(runs, workload)
    if args.save:
        Path(args.save).write_text(json.dumps(saved, indent=1))


def cmd_compare(args):
    first = json.loads(Path(args.first).read_text())
    second = json.loads(Path(args.second).read_text())
    ok = True
    for workload in first:
        if workload not in second:
            continue
        print(f"\n{workload}")
        for metric in SPEC["end_to_end"]:
            name = metric["name"]
            m1 = statistics.median(r["metrics"][name]["value"] for r in first[workload])
            m2 = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            verdict = "worse beyond bound" if worse > metric["bound"] else "ok"
            ok &= verdict == "ok"
            print(f"  {name:20s} {m1:12.6g} -> {m2:12.6g}  worse by {worse:+.4f}"
                  f" (bound {metric['bound']})  {verdict}")
        shares = [{r["failed"] / r["attempted"] for r in s[workload]}
                  for s in (first, second)]
        same = shares[0] == shares[1] and len(shares[0]) == 1
        ok &= same
        print(f"  failed share {sorted(shares[0])} vs {sorted(shares[1])}"
              f"  {'ok' if same else 'DIFFERS'}")
    sys.exit(0 if ok else 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)
    run = sub.add_parser("run")
    run.add_argument("--runs", type=int, default=10)
    run.add_argument("--seed", type=int, default=1)
    run.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    run.add_argument("--workloads")
    run.add_argument("--save")
    compare = sub.add_parser("compare")
    compare.add_argument("first")
    compare.add_argument("second")
    args = parser.parse_args()
    (cmd_run if args.cmd == "run" else cmd_compare)(args)


if __name__ == "__main__":
    main()
