#!/usr/bin/env python3
"""Builds perfbench from source and runs one benchmark workload.

    python3 perfbench/run.py --workload light|heavy --seed N
                             --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The build goes to $CARGO_TARGET_DIR/perfbench
when that variable is set, else to .bench_build/perfbench; the first run
configures and compiles (about a minute on 4 cores), later runs only check
that the build is current. Run records and Chrome traces go to
<build dir>/out. The last line of stdout is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, log, env, timeout):
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=log,
                              stderr=subprocess.STDOUT, env=env,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        return False
    return done.returncode == 0


def build(directory):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to perfbench/; "
             "run from a full checkout")
    # The compiler's temporary files stay inside the build tree too.
    env = dict(os.environ, TMPDIR=os.path.join(directory, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(directory, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(log_path, "w") as log:
        ok = True
        if not os.path.isfile(os.path.join(directory, "CMakeCache.txt")):
            ok = run_logged(["cmake", "-S", HERE, "-B", directory,
                             "-DCMAKE_BUILD_TYPE=Release"], log, env,
                            BUILD_TIMEOUT_S)
        ok = ok and run_logged(["cmake", "--build", directory, "-j", jobs],
                               log, env, BUILD_TIMEOUT_S)
    if not ok:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-40:]))
        fail("build failed (log: %s)" % log_path)
    return os.path.join(directory, "perfbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["light", "heavy"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    directory = build_dir()
    binary = build(directory)
    if args.selftest:
        cmd = [binary, "--selftest"]
    else:
        cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out-dir", os.path.join(directory, "out")]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        fail("benchmark did not finish within %d s" % RUN_TIMEOUT_S)
    sys.stdout.write(done.stdout)
    sys.stdout.flush()
    if done.returncode != 0:
        fail("benchmark exited with code %d" % done.returncode)


if __name__ == "__main__":
    main()
