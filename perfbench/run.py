#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload walk-256 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The Go program in this directory is built from source into .bench_build/
at the repository root, with the Go build cache kept there too, and then
run from the repository root with the same arguments. Its last line of
standard output is the result JSON; its exit code is passed on. With
--workload all every workload runs in turn, each result line prefixed by
the workload's name, and the exit code is 0 only if every run's was. See
README.md in this directory.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")

# A run exits within this many seconds or is stopped and fails.
RUN_TIMEOUT_S = 170

WORKLOADS = ["walk-256", "walk-1024", "serve-spec"]


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOFLAGS="",
        CGO_ENABLED="0",
    )
    return env


def main():
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    build = subprocess.run(
        ["go", "build", "-o", binary, "."],
        cwd=HERE, env=go_env(), stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    args = sys.argv[1:]
    if "--workload" in args and args.index("--workload") + 1 < len(args):
        i = args.index("--workload") + 1
        if args[i] == "all":
            rc = 0
            for w in WORKLOADS:
                args[i] = w
                code, last = run_once(binary, args, capture=True)
                print("%s: %s" % (w, last), flush=True)
                rc = rc or code
            return rc
    return run_once(binary, args, capture=False)[0]


def run_once(binary, args, capture):
    """Runs the benchmark binary once; returns its exit code and, when
    capture is set, the last line of its standard output."""
    proc = subprocess.Popen([binary] + args, cwd=ROOT,
                            stdout=subprocess.PIPE if capture else None, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded %d s and was stopped" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1, ""
    except KeyboardInterrupt:
        proc.kill()
        proc.wait()
        return 1, ""
    lines = (out or "").strip().splitlines()
    return proc.returncode, lines[-1] if lines else ""


if __name__ == "__main__":
    sys.exit(main())
