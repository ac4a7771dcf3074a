#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload relay-flood --seed 1 --seconds 10 --trace 0

The Go program in this directory is built from the checkout's source
into .bench_build/ (build cache and temporary files included, so the
run reads and writes only inside the checkout), then run with the given
arguments. Its exit status is passed through. Without the repository's
source next to this directory the script exits with status 2 and prints
no result.
"""

import hashlib
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")


def tree_hash():
    """A hash of the checkout's Go source and module files."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:16]


def source_revision():
    """The git commit, with the source tree's hash appended when the
    working tree differs from it; the tree hash alone outside git."""
    if shutil.which("git") and os.path.isdir(os.path.join(ROOT, ".git")):
        head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        status = subprocess.run(["git", "-C", ROOT, "status", "--porcelain"],
                                capture_output=True, text=True)
        if head.returncode == 0 and status.returncode == 0:
            if status.stdout.strip():
                return head.stdout.strip() + "-dirty-" + tree_hash()
            return head.stdout.strip()
    return tree_hash()


def run(cmd, **kwargs):
    """Run cmd to completion, forwarding SIGINT/SIGTERM so it never outlives us."""
    child = subprocess.Popen(cmd, **kwargs)

    def forward(signum, _frame):
        child.send_signal(signum)

    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, forward)
    return child.wait()


def main():
    if not (os.path.isfile(os.path.join(ROOT, "go.mod"))
            and os.path.isdir(os.path.join(ROOT, "internal"))):
        print("perfbench: no repository source beside perfbench/; nothing to build",
              file=sys.stderr)
        return 2
    if shutil.which("go") is None:
        print("perfbench: the go toolchain is not on PATH", file=sys.stderr)
        return 2
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ,
               GOCACHE=os.path.join(BUILD, "gocache"),
               GOTMPDIR=tmp, TMPDIR=tmp,
               GOTOOLCHAIN="local", GOPROXY="off", GOWORK="off", GOFLAGS="")
    binary = os.path.join(BUILD, "perfbench")
    if run(["go", "build", "-buildvcs=false", "-o", binary, "."], cwd=HERE, env=env) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    cmd = [binary, "--workdir", BUILD, "--commit", source_revision(),
           "--manifest", os.path.join(ROOT, "BENCHMARK.json")] + sys.argv[1:]
    return run(cmd, cwd=ROOT, env=env)


if __name__ == "__main__":
    sys.exit(main())
