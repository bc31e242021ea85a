#!/usr/bin/env python3
"""Builds the perfbench package and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload attack --seed 1 --seconds 10 --trace 0

perfbench is a Cargo package of its own (perfbench/Cargo.toml) that uses
the repository's crates by path. It is built in release mode into
$CARGO_TARGET_DIR (default: .bench_build), then run with the same
arguments. The last stdout line is the JSON result. The exit code is
non-zero, with no result printed, when the build fails; it is non-zero
when the run fails or its last line is not a result.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def source_id():
    """Hash of every source file the benchmark builds from."""
    digest = hashlib.sha256()
    for top in ("crates", "vendor", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("out", "target"))
            for name in sorted(filenames):
                if name.endswith((".rs", ".toml", ".lock", ".py")):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        digest.update(f.read())
    return digest.hexdigest()[:16]


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=20)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def main():
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    env["PERFBENCH_COMMIT"] = commit()
    env["PERFBENCH_SOURCE"] = source_id()
    exe = os.path.join(target, "release", "perfbench")
    try:
        run = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                             stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if run.returncode != 0:
        return run.returncode
    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        print("perfbench: last line is not a result", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
