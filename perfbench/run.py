#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

W is one of http-read, table2-batch, live-mix, shard-2. Run from the
root of a source tree. The build goes to .bench_build/ (dune, no shared
cache); temporary files and span dumps go to .bench_build/run/. The last
line of standard output is the JSON result.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
RUN_TIMEOUT_S = 170


def main():
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("run.py: no dune-project at %s: nothing to build" % ROOT, file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", BUILD, "--cache=disabled",
         "./perfbench/main.exe", "./bin/mgq.exe"],
        cwd=ROOT, stdout=sys.stderr)
    if build.returncode != 0:
        print("run.py: build failed", file=sys.stderr)
        return build.returncode
    scratch = os.path.join(BUILD, "run")
    os.makedirs(scratch, exist_ok=True)
    argv = [os.path.join(BUILD, "default", "perfbench", "main.exe")] + sys.argv[1:] + [
        "--mgq", os.path.join(BUILD, "default", "bin", "mgq.exe"), "--scratch", scratch]
    # A session of its own, so a timeout also stops the server the
    # http-read workload starts.
    child = subprocess.Popen(argv, cwd=ROOT, start_new_session=True)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("run.py: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    finally:
        if child.poll() is None:
            os.killpg(child.pid, 9)
            child.wait()


if __name__ == "__main__":
    sys.exit(main())
