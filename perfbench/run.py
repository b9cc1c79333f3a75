#!/usr/bin/env python3
"""Builds the PassFlow benchmark from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is the result: one JSON object with
`correct`, `attempted`, `failed` and `metrics` (the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics with `--trace 1`). Build output and
progress go to standard error. The exit code is 0 only when the run
finished and every correctness gate passed.
"""

import argparse
import json
import os
import pathlib
import shutil
import signal
import subprocess
import sys
import tempfile

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
# A run sets up three times and measures for `--seconds`; the traced run
# and serve's answer checks add at most about as much again.
SETUP_ALLOWANCE_S = 60
RUN_TIMEOUT_PER_SECOND = 4


def git_rev():
    """The checked-out commit, read from .git without leaving the checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")
    wanted = {m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    try:
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")
    if built.returncode != 0:
        fail(f"build failed with exit code {built.returncode}")

    scratch = target / "perfbench-tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=scratch)
    run_env = dict(env, TMPDIR=tmp, PERFBENCH_GIT_REV=git_rev())
    command = [
        str(target / "release" / "passflow-perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", repr(args.seconds),
        "--trace", str(args.trace),
        "--tmp", tmp,
    ]
    # The binary starts its extra set-ups as child processes; a session of
    # its own lets a timeout stop all of them.
    try:
        proc = subprocess.Popen(command, cwd=ROOT, env=run_env, stdout=subprocess.PIPE,
                                text=True, start_new_session=True)
    except OSError as e:
        shutil.rmtree(tmp, ignore_errors=True)
        fail(f"{args.workload}: cannot start: {e}")
    timeout = SETUP_ALLOWANCE_S + RUN_TIMEOUT_PER_SECOND * args.seconds
    try:
        stdout, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail(f"{args.workload}: no result within {timeout:.0f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail(f"{args.workload}: no result line (exit code {proc.returncode})")
    if set(result.get("metrics", {})) != wanted:
        fail(f"{args.workload}: metrics {sorted(result.get('metrics', {}))} "
             f"do not match BENCHMARK.json {sorted(wanted)}")
    print("\n".join(lines))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
