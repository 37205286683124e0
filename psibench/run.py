#!/usr/bin/env python3
"""Builds and runs the Ψ benchmark from the root of a repository checkout.

    python3 psibench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 psibench/run.py --selftest

The build goes to $CARGO_TARGET_DIR/psibench when that variable is set,
else to .bench_build/psibench. Build output goes to stderr; the benchmark's
own output, whose last line is the JSON result, goes to stdout.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg):
    print(f"psibench/run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(base), "psibench")


def build(out):
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail(f"{ROOT} is not a checkout of the repository (no CMakeLists.txt and src/)")
    configure = ["cmake", "-S", ROOT, "-B", out,
                 "-DPSI_BUILD_BENCHES=OFF", "-DPSI_BUILD_EXAMPLES=OFF",
                 "-DCMAKE_PROJECT_psi_INCLUDE=" + os.path.join(HERE, "psibench.cmake")]
    if shutil.which("ninja") and not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    jobs = str(len(os.sched_getaffinity(0)))
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for cmd in (configure,
                ["cmake", "--build", out, "-j", jobs,
                 "--target", "psibench", "psibench_selftest"]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when the checkout is a git repository, else a hash of
    the sources."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            head = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=10)
            if head.returncode == 0:
                return "git:" + head.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "psibench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def main(argv):
    out = build_dir()
    if argv == ["--selftest"]:
        build(out)
        return subprocess.run([os.path.join(out, "psibench_selftest")]).returncode
    if not argv:
        fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
    build(out)
    cmd = [os.path.join(out, "psibench"), *argv, "--source-id", source_id()]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
