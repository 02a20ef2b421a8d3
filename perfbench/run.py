#!/usr/bin/env python3
"""Run one workload of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first call configures and
builds perfbench/ (which builds the phi library from this checkout's
sources, Release) into .bench_build/perfbench; later calls rebuild
incrementally. Each workload's frozen parameters (paced rate,
saturated window) are constants of the benchmark binary, documented in
perfbench/spec.json. The binary's standard output is passed through:
'#' lines carry the host record and a readable copy of every metric,
and the last line is the JSON result. The exit code is the binary's:
0, or 1 when any operation failed or any output mismatched its
reference. A checkout without the phi sources exits 2 before running.
"""

import argparse
import hashlib
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKDIR = ROOT / ".bench_build" / "run"
RUN_TIMEOUT_S = 170


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                          check=True).stdout


def source_id():
    """The git commit when there is one, else a hash of the sources. A
    commit with uncommitted changes gets a '-dirty-' suffix and a hash
    of the changes, so the record names the code that was measured."""
    if (ROOT / ".git").exists():
        try:
            commit = git("rev-parse", "HEAD").decode().strip()
            status = git("status", "--porcelain")
            if not status:
                return commit
            digest = hashlib.sha256(git("diff", "HEAD") + status)
            return f"{commit}-dirty-{digest.hexdigest()[:16]}"
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "include"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "src-sha256-" + digest.hexdigest()[:16]


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no phi sources (CMakeLists.txt, src/) in this checkout", 2)
    cache = BUILD / "CMakeCache.txt"
    if cache.is_file():
        home = f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}"
        if home not in cache.read_text(errors="replace").splitlines():
            shutil.rmtree(BUILD)  # configured from another checkout
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD), "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(step), 3)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt", type=int, choices=(0, 1), default=0,
                    help="self-check: corrupt one expected output bit so "
                         "the correctness gate must fire")
    args = ap.parse_args()

    build()

    cmd = [str(BUILD / "phi_perfbench"),
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--workdir", str(WORKDIR),
           "--commit", source_id(),
           "--corrupt", str(args.corrupt)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"workload ran past {RUN_TIMEOUT_S} s", 4)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
