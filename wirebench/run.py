#!/usr/bin/env python3
"""Build `hq` and the wirebench driver from this checkout, then run one benchmark.

Usage, from the repository root:

    python3 wirebench/run.py --workload read_hot --seed 1 --seconds 20 --trace 0

Workloads: read_hot, read_evict, write_mix, fix_mix. The last line of standard
output is one JSON object with the keys correct, attempted, failed and metrics.
Build output goes to standard error. Build products and generated inputs live
under $CARGO_TARGET_DIR (default: .bench_build).
"""

import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.getcwd()
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isdir(os.path.join(root, "crates", "cli"))):
        print("wirebench: run from the repository root "
              "(no Cargo.toml and crates/cli here)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bench_target = os.path.join(target, "wirebench")
    builds = [
        # The program under test, from this checkout's own workspace.
        (["cargo", "build", "--release", "--offline", "--quiet", "-p", "hq-cli"], target),
        # The driver is its own workspace; a separate target directory
        # keeps the two builds of the shared crates from evicting each other.
        (["cargo", "build", "--release", "--offline", "--quiet",
          "--manifest-path", os.path.join(here, "Cargo.toml")], bench_target),
    ]
    for cmd, target_dir in builds:
        env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("wirebench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    driver = os.path.join(bench_target, "release", "wirebench")
    hq = os.path.join(target, "release", "hq")
    out = os.path.join(bench_target, "out")
    return subprocess.run([driver, "--hq", hq, "--out", out] + sys.argv[1:]).returncode


if __name__ == "__main__":
    sys.exit(main())
