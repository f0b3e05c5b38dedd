#!/usr/bin/env python3
"""Build the qosalloc benchmark from source and run one workload.

Run from the root of a qosalloc checkout:

    python3 perfbench/run.py --workload serve-stream --seed 5 --seconds 10 --trace 0

Every argument is handed to perfbench/bench.exe (see bench.ml); this
script adds a host-independent source identifier so each result can be
traced back to the code it measured.  Build output goes to standard
error; the benchmark's own output, whose last line is the JSON result,
goes to standard output.  Without the library sources next to this
directory the build fails and the script exits non-zero.
"""

import hashlib
import os
import subprocess
import sys

EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
SOURCE_DIRS = ("lib", "bin", "perfbench")


def source_id():
    """Git commit when the checkout is a repository, else a digest of the sources."""
    try:
        if not os.path.exists(".git"):
            raise OSError("not a git checkout")
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
        )
        return "git:" + out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        pass
    h = hashlib.sha256()
    for top in SOURCE_DIRS:
        for root, dirs, files in os.walk(top):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(root, name)
                h.update(path.encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    # Without the shared dune cache the build reads and writes nothing
    # outside the checkout but the toolchain it reads from.
    build = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    sys.stdout.flush()
    run = subprocess.run([EXE] + sys.argv[1:] + ["--commit", source_id()])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
