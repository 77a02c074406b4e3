#!/usr/bin/env python3
"""The repository benchmark: one command builds the workload process from
source, runs workloads, checks every output, and prints every metric.

    python3 perfbench/run.py --workload mixed_solve --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --seed 1 --seconds 20          # every workload
    python3 perfbench/run.py --selftest                     # span attribution

Run from the root of a checkout. The build goes to $CARGO_TARGET_DIR (or
.bench_build) under the checkout, always as a Release build. Each workload
runs in its own fresh process with its own spill directory, removed
afterwards. With --workload, the last stdout line is the run's JSON result
{"correct", "attempted", "failed", "metrics"}; the exit code is non-zero if
any output check failed.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

WORKLOADS = ["mixed_solve", "exact_solve", "session_churn"]
ROOT = os.getcwd()
BENCH_DIR = os.path.join(ROOT, "perfbench")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build():
    """Configures (Release) and builds the workload process; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "service", "service.h")):
        fail("no library sources under ./src; run from the root of a checkout")
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"] + generator,
                       check=True, stdout=sys.stderr)
    jobs = str(os.cpu_count() or 4)
    subprocess.run(["cmake", "--build", out, "--parallel", jobs],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def git_sha():
    """HEAD's sha, read from .git inside the checkout ("unknown" without one)."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def source_digest():
    """sha256 over the library and benchmark sources: the code's identity
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".h", ".cc", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:16]


def run_workload(binary, workload, seed, seconds, trace):
    """Runs one workload in a fresh process; returns (exit code, stdout)."""
    scratch = os.path.dirname(binary)
    spill = tempfile.mkdtemp(prefix=f"spill-{workload}-", dir=scratch)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--spill-dir", spill, "--git-sha", git_sha(),
               "--source-digest", source_digest()]
    if trace:
        command += ["--spans",
                    os.path.join(scratch, f"spans-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    finally:
        shutil.rmtree(spill, ignore_errors=True)
    return proc.returncode, proc.stdout


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()

    binary = build()
    if args.selftest:
        sys.exit(subprocess.run([binary, "--selftest", "--seed",
                                 str(args.seed)]).returncode)
    if args.workload:
        code, out = run_workload(binary, args.workload, args.seed,
                                 args.seconds, args.trace)
        sys.stdout.write(out)
        sys.exit(code)

    # Every workload, each in its own process: a table of every metric.
    worst = 0
    for workload in WORKLOADS:
        code, out = run_workload(binary, workload, args.seed, args.seconds,
                                 args.trace)
        worst = max(worst, code)
        lines = out.strip().splitlines()
        for line in lines[:-1]:
            print(line)
        result = json.loads(lines[-1]) if lines else {"correct": False}
        print(f"{workload}: correct={result.get('correct')} "
              f"attempted={result.get('attempted')} "
              f"failed={result.get('failed')}")
        for name, metric in result.get("metrics", {}).items():
            print(f"  {name:36s} {metric['value']:>14.6g} {metric['unit']}")
    sys.exit(worst)


if __name__ == "__main__":
    main()
