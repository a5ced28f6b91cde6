#!/usr/bin/env python3
"""Check that the deterministic metrics repeat exactly across seeds.

Runs every workload twice, with two different seeds, untraced and traced,
and compares the metrics that must not depend on input values or machine
speed: the simnet figures and the count-type per-layer metrics.  Run from
the repository root:

    python3 perfbench/check_repeat.py [--seconds S] [--seeds A,B]

Exits 1 and names each metric that differs, or a run that fails.
"""

import argparse
import json
import subprocess
import sys

WORKLOADS = ["search_certify", "launch_bound", "bulk_run"]
EXACT = {
    0: ["sim_time", "sim_speedup", "ok_frac"],
    1: ["simnet.messages", "simnet.words", "mpsim.messages", "mpsim.bytes",
        "rules.nodes_expanded", "rules.nodes_generated",
        "rules.pruned_by_bound", "rules.rewrites", "verify.discharged_steps",
        "verify.reused_steps", "verify.demoted"],
}


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: correct is false")
    return {k: v["value"] for k, v in result["metrics"].items()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=2)
    parser.add_argument("--seeds", default="1,2")
    args = parser.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    differ = []
    for workload in WORKLOADS:
        for trace, names in EXACT.items():
            first, second = (run(workload, s, args.seconds, trace)
                             for s in seeds[:2])
            for name in names:
                same = first[name] == second[name]
                print(f"{workload:15s} {name:24s} {first[name]!r:>22} "
                      f"{second[name]!r:>22} {'same' if same else 'DIFFER'}")
                if not same:
                    differ.append(f"{workload}/{name}")
    if differ:
        print("differ: " + ", ".join(differ))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
