#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload cold-storm --seed 1 --seconds 20 --trace 0

Run it from the repository root. It builds the Go benchmark in this
directory from source into the build directory ($CARGO_TARGET_DIR, or
.bench_build when unset), keeps the Go build cache there as well, and
then replaces itself with the benchmark binary, passing the arguments
through. The exit status is the benchmark's; a failed build exits
non-zero without printing a result.
"""
import os
import subprocess
import sys


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(build, "gocache"),
        GOPATH=os.path.join(build, "gopath"),
        XDG_CONFIG_HOME=os.path.join(build, "config"),
        GOFLAGS="",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        CGO_ENABLED="0",
    )
    os.makedirs(build, exist_ok=True)
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(["go", "build", "-o", binary, "."], cwd=here, env=env,
                           stdout=sys.stderr)
    if built.returncode != 0:
        sys.exit(built.returncode or 1)
    args = [binary, "--out", os.path.join(build, "perfbench-out")] + sys.argv[1:]
    sys.stdout.flush()
    os.execve(binary, args, env)


if __name__ == "__main__":
    main()
