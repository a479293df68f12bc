#!/usr/bin/env python3
"""Build and run the rmsa benchmark.

    python3 perfbench/run.py --workload <solve_bound|hot|paper_sweep> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. Builds the `rmsa` binary from the
repository's workspace and the `perfbench` binary from this directory, both
in release mode into $CARGO_TARGET_DIR (default `.bench_build`), then runs
`perfbench` with the given arguments. Its last line of standard output is
the JSON result; its exit status is passed through.
"""

import os
import subprocess
import sys


def main():
    root = os.getcwd()
    target = os.environ.setdefault("CARGO_TARGET_DIR", os.path.join(root, ".bench_build"))
    target = os.path.abspath(target)
    os.environ["CARGO_TARGET_DIR"] = target
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", "Cargo.toml", "-p", "rmsa-cli", "--bin", "rmsa"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for command in builds:
        if subprocess.run(command, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(command))
            return 1
    release = os.path.join(target, "release")
    perfbench = [os.path.join(release, "perfbench"), *sys.argv[1:],
                 "--rmsa", os.path.join(release, "rmsa"),
                 "--work", os.path.join(target, "perfbench-work")]
    return subprocess.run(perfbench).returncode


if __name__ == "__main__":
    sys.exit(main())
