#!/usr/bin/env python3
"""Build the repository benchmark and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` crate (release,
offline) into `$CARGO_TARGET_DIR`, or `perfbench/target` when that is unset,
then runs the benchmark binary with the same arguments. On success it prints
one `#` line naming the host's core count and the code measured (git commit
when there is one, and a digest of the sources), then the binary's output,
whose last line is the JSON result. On any failure it prints no result and
exits non-zero.
"""

import hashlib
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Sources the measured program is built from.
SOURCES = ["Cargo.toml", "Cargo.lock", "src", "crates", "perfbench"]
SKIP_DIRS = {"target", ".bench_build", ".git", "__pycache__"}

# Grace beyond --seconds before the benchmark binary is stopped.
GRACE_SECONDS = 120


def source_digest():
    h = hashlib.sha256()
    for top in SOURCES:
        path = os.path.join(ROOT, top)
        if os.path.isfile(path):
            files = [path]
        else:
            files = []
            for d, dirs, names in os.walk(path):
                dirs[:] = sorted(x for x in dirs if x not in SKIP_DIRS)
                files.extend(os.path.join(d, n) for n in sorted(names))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "none"


def seconds_arg(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--seconds":
            try:
                return float(value)
            except ValueError:
                return 0.0
    return 0.0


def main(argv):
    os.chdir(ROOT)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    binary = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([binary] + argv, capture_output=True, text=True,
                             timeout=seconds_arg(argv) + GRACE_SECONDS)
    except subprocess.TimeoutExpired:
        print("perfbench: benchmark timed out", file=sys.stderr)
        return 1
    sys.stderr.write(run.stderr)
    if run.returncode != 0:
        sys.stderr.write(run.stdout)
        return run.returncode
    print(f"# perfbench nproc={len(os.sched_getaffinity(0))} commit={git_commit()} "
          f"source={source_digest()} args={' '.join(argv)}")
    sys.stdout.write(run.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
