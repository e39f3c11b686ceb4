#!/usr/bin/env python3
"""Build and run the repo benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds perfbench/main.exe in the release
profile into .bench_build (dune's shared cache off, so nothing is written
outside the checkout), then runs it with the same arguments. The last line
of standard output is the result JSON; the exit status is the benchmark's
(1 when an output check failed). A checkout without the program's sources
fails the build and exits nonzero without printing a result.
"""

import hashlib
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "main.exe")


def source_rev():
    """git revision when the checkout is a git repository, else a digest of
    the sources the benchmark builds from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(p.encode())
            with open(p, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")):
        sys.stderr.write("perfbench: run from the root of a full checkout "
                         "(dune-project and lib/ not found)\n")
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--profile", "release",
         "--build-dir", BUILD_DIR, "-j", "2", "./perfbench/main.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env, timeout=850)
    if build.returncode != 0:
        sys.stderr.write("perfbench: build failed\n")
        return 2
    proc = subprocess.run([EXE] + sys.argv[1:] + ["--rev", source_rev()],
                          timeout=175)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
