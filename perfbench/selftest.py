#!/usr/bin/env python3
"""Self-check of the repository benchmark.

    python3 perfbench/selftest.py

Run from the checkout root. Asserts that:
  * every workload in BENCHMARK.json, run briefly, exits 0 with a
    correct result whose metrics are exactly BENCHMARK.json's
    end_to_end metrics (--trace 0) or per_layer metrics (--trace 1),
    each with its unit;
  * the frozen parameters each workload prints (paced rate, saturated
    window, paced share, rounds, quiet share, set-up count) are the ones
    spec.json documents;
  * the correctness gate fires: with one expected bit corrupted, a run
    reports correct=false and exits non-zero;
  * in a directory holding only BENCHMARK.json and the benchmark's
    files, the command exits non-zero without printing a result.
"""

import json
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"


def run(args, cwd=ROOT):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return subprocess.run(bench["command"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def frozen_of(proc):
    """The '# workload {...}' line: the binary's frozen parameters."""
    for line in proc.stdout.splitlines():
        if line.startswith("# workload "):
            return json.loads(line[len("# workload "):])
    return None


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []

    def check(cond, what):
        print(("ok   " if cond else "FAIL ") + what)
        if not cond:
            failures.append(what)

    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "1",
                        "--seconds", SECONDS, "--trace", str(trace)])
            what = f"{workload} --trace {trace}"
            res = result_of(proc)
            check(proc.returncode == 0 and res is not None,
                  f"{what}: exits 0 with a result line")
            if res is None:
                continue
            check(sorted(res) == ["attempted", "correct", "failed", "metrics"],
                  f"{what}: result has exactly the contract's keys")
            check(res["correct"] and res["failed"] == 0 and
                  res["attempted"] >= 1, f"{what}: correct, nothing failed")
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == expected[trace],
                  f"{what}: every named metric with its unit")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in res["metrics"].values()),
                  f"{what}: every value is a number")
            documented = {
                "paced_rate_per_s":
                    spec["workloads"][workload]["paced_rate_per_s"],
                "saturated_window":
                    spec["workloads"][workload]["saturated_window"],
                "paced_share": spec["paced_share"],
                "rounds": spec["rounds"],
                "quiet_share": spec["quiet_share"],
                "setup_reps": spec["setup_reps"],
            }
            check(frozen_of(proc) == documented,
                  f"{what}: frozen parameters match spec.json")

    first = bench["workloads"][0]["name"]
    for workload in (w["name"] for w in bench["workloads"]):
        proc = run(["--workload", workload, "--seed", "1", "--seconds", "1",
                    "--trace", "0", "--corrupt", "1"])
        res = result_of(proc)
        check(proc.returncode != 0 and res is not None and
              not res["correct"] and res["failed"] > 0,
              f"{workload}: correctness gate fires on a corrupted reference")

    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in bench["paths"]:
        shutil.copytree(ROOT / path, bare / path)
    proc = run(["--workload", first, "--seed", "1", "--seconds", SECONDS,
                "--trace", "0"], cwd=bare)
    check(proc.returncode != 0 and not proc.stdout.strip(),
          "without the phi sources: non-zero exit, no result")
    shutil.rmtree(bare)

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
