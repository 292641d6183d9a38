#!/usr/bin/env python3
"""Build and run the cpsmon end-to-end benchmark.

Run from the repository root:

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: serve_mlp, campaign_lstm, robustness_sweep.

The script builds the `cpsmon` binary (the daemon `serve_mlp`
spawns) and the benchmark package in `e2ebench/` in release mode, into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary twice: once as `prepare`, which makes sure the benchmark's bundle
cache, `e2ebench/cache/`, holds the full-scale monitors (the first run
trains them), and once with the same arguments, to measure.

The last line of standard output is the JSON result object; per-run
metrics and the environment stamp are also written under
`e2ebench/results/`.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates"))):
        print("e2ebench: run from the cpsmon repository root "
              "(Cargo.toml and crates/ not found)", file=sys.stderr)
        return 2
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(root, target)
    env["CARGO_TARGET_DIR"] = target
    # Every workload, and the daemon child, runs with the same worker
    # count, whatever the machine.
    env["CPSMON_THREADS"] = "2"
    builds = [
        ["cargo", "build", "--release", "--offline", "--bin", "cpsmon"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join("e2ebench", "Cargo.toml")],
    ]
    for cmd in builds:
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"e2ebench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 1
    binary = os.path.join(target, "release", "cpsmon-e2ebench")
    done = subprocess.run([binary, "prepare"], cwd=root, env=env,
                          stdout=sys.stderr)
    if done.returncode != 0:
        print("e2ebench: preparing the bundle cache failed", file=sys.stderr)
        return done.returncode
    return subprocess.run([binary, *sys.argv[1:]], cwd=root, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
