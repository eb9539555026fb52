#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

The first form builds `perfbench/` (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`), runs the workload and
passes the binary's output through; its last line is the JSON result.
It exits non-zero, printing no result, when the build or the run fails.

`--self-test` checks replay: per workload, two short same-seed runs in
each trace mode must agree on every deterministic figure, and another
seed must change the operation stream.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ["stack_exchange", "awareness", "federation"]
RUN_TIMEOUT_S = 170
SELF_TEST_OPS = {"stack_exchange": 1000, "awareness": 2000, "federation": 100}
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# Align every loop to 64 bytes. Without it, edits anywhere in the binary
# shift where the telemetry span-close scan loop falls, and that alone
# moved `stack_exchange` p50 between ~135 and ~200 us on the same code.
RUSTFLAGS = "-C llvm-args=-align-loops=64"


def build():
    """Builds the binary; returns its path, or None if the build failed."""
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    env["RUSTFLAGS"] = (env.get("RUSTFLAGS", "") + " " + RUSTFLAGS).strip()
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", os.path.join(here, "Cargo.toml"),
    ]
    try:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=880)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return None
    if done.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return None
    return os.path.join(target, "release", "perfbench")


def run(binary, args):
    """Runs the binary; returns (stdout lines, parsed result) or None."""
    try:
        done = subprocess.run(
            [binary] + args, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: run failed: {e}", file=sys.stderr)
        return None
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stdout)
        print(f"perfbench: run exited with {done.returncode}", file=sys.stderr)
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        sys.stderr.write(done.stdout)
        print("perfbench: no result line", file=sys.stderr)
        return None
    return lines, result


def det_figures(lines):
    """The `det:` line's deterministic figures, by name."""
    for line in lines:
        if line.startswith("det: "):
            return {k: v["value"] for k, v in json.loads(line[5:]).items()}
    return {}


def counts(result):
    """Per-layer figures that are counts, not times."""
    return {
        k: v["value"]
        for k, v in result["metrics"].items()
        if v["unit"] not in ("us", "s")
    }


def self_test(binary):
    ok = True
    for workload in WORKLOADS:
        ops = str(SELF_TEST_OPS[workload])
        base = ["--workload", workload, "--seconds", "0", "--ops", ops]
        figures = {}
        for trace in ("0", "1"):
            for attempt, seed in enumerate(("1", "1", "2")):
                out = run(binary, base + ["--seed", seed, "--trace", trace])
                if out is None or not out[1]["correct"]:
                    print(f"FAIL {workload} trace={trace} seed={seed}: run failed")
                    ok = False
                    continue
                det = det_figures(out[0])
                if trace == "1":
                    det.update(counts(out[1]))
                figures[(trace, attempt)] = det
            a, b, c = (figures.get((trace, i)) for i in range(3))
            if a is None or b is None or c is None:
                continue
            if a != b:
                diff = sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))
                print(f"FAIL {workload} trace={trace}: same seed differs in {diff}")
                ok = False
            elif a["op_stream_digest"] == c["op_stream_digest"]:
                print(f"FAIL {workload} trace={trace}: another seed gave the same op stream")
                ok = False
            else:
                print(f"ok   {workload} trace={trace}: {len(a)} figures replay exactly")
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", choices=["0", "1"])
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    measured = (args.workload, args.seed, args.seconds, args.trace)
    if not args.self_test and None in measured:
        parser.error("--workload, --seed, --seconds and --trace are required")

    binary = build()
    if binary is None:
        return 2
    if args.self_test:
        return self_test(binary)
    out = run(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", args.trace,
    ])
    if out is None:
        return 1
    print("\n".join(out[0]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
