#!/usr/bin/env python3
"""Record the benchmark's baseline and check that it is steady.

    python3 perfbench/record.py [--runs 10] [--first-seed 1]
                                [--workloads a,b] [--out perfbench/baseline.json]

For every workload: --runs untraced runs of perfbench/run.py, each with
its own seed, then one traced run. Prints, per end-to-end metric, the
median and the spread (interquartile distance from
statistics.quantiles(values, n=4), as a share of the median) against
the metric's bound in BENCHMARK.json, marking spreads at or above a
third of the bound. Writes the values, the traced per-layer breakdown
of each workload, and whether the predicted split holds to --out.
Run from the checkout root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    host = next((l[len("# host "):] for l in lines
                 if l.startswith("# host ")), "{}")
    return json.loads(lines[-1]), json.loads(host)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--out", default="")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    names = ([w for w in args.workloads.split(",") if w] or
             [w["name"] for w in bench["workloads"]])
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    record = {"run_seconds": seconds, "runs": args.runs, "workloads": {}}
    steady = True
    for name in names:
        values = {m: [] for m in bounds}
        hosts = []
        for i in range(args.runs):
            result, host = run(name, args.first_seed + i, seconds, 0)
            hosts.append(host)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{name} seed {args.first_seed + i}: {result}")
            for m in bounds:
                values[m].append(result["metrics"][m]["value"])
            print(f"{name:12} seed {args.first_seed + i:4}: " +
                  " ".join(f"{m} {values[m][-1]:.5g}" for m in bounds) +
                  f" (steal {host.get('steal_frac', 0):.1%})", flush=True)
        summary = {}
        for m, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            ok = m == "setup_s" or spread < bounds[m] / 3
            steady &= ok
            summary[m] = {"median": med, "q1": q1, "q3": q3,
                          "spread": spread, "bound": bounds[m],
                          "values": vals}
            print(f"{name:12} {m:12} median {med:12.5g} spread "
                  f"{spread:7.2%} bound {bounds[m]:.0%}"
                  f"{'' if ok else '  <-- not under a third of the bound'}")
        traced, traced_host = run(name, args.first_seed, seconds, 1)
        record["workloads"][name] = {
            "end_to_end": summary,
            "traced_seed": args.first_seed,
            "traced": {k: v["value"] for k, v in traced["metrics"].items()},
            "hosts": hosts + [traced_host],
        }

    wl = record["workloads"]
    if "batch_1024" in wl and "wire_1" in wl:
        def core_share(name):
            t = wl[name]["traced"]
            core_ms = (t["core.decompose_us"] + t["core.gather_us"]) / 1e3
            return core_ms / wl[name]["end_to_end"]["lat_p50_ms"]["median"]
        batch, wire = core_share("batch_1024"), core_share("wire_1")
        record["predicted_split"] = {
            "claim": "core dominates batch_1024 latency; net plus runtime "
                     "dominate wire_1 (core < 5% of its p50)",
            "batch_1024_core_share_of_p50": batch,
            "wire_1_core_share_of_p50": wire,
            "holds": batch > 0.5 and wire < 0.05,
        }
        print("predicted split:", record["predicted_split"])

    if args.out:
        pathlib.Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    print("steady" if steady else "NOT steady")


if __name__ == "__main__":
    main()
