#!/usr/bin/env python3
"""Build the daemon and the benchmark from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload twopath-dense --seed 1 --seconds 10 --trace 0

Builds `mmjoin-netd` and `mmjoin-serve` in the repository's workspace and
the benchmark package in `perfbench/`, all offline into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs the benchmark
binary with the given arguments. The last line of standard output is the
result JSON; build output and the readable report go to standard error.
A run that outlives RUN_TIMEOUT_S is killed with every daemon it started.
"""

import os
import signal
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RUN_TIMEOUT_S = 170


def build(args, cwd):
    proc = subprocess.run(
        ["cargo", "build", "--release", "--offline", "-q", *args],
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write(f"perfbench: build failed: cargo build {' '.join(args)}\n")
        sys.exit(3)


def main():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    os.environ["CARGO_TARGET_DIR"] = str(target)
    if not (ROOT / "Cargo.toml").is_file():
        sys.stderr.write("perfbench: no workspace Cargo.toml next to perfbench/; nothing to build\n")
        sys.exit(3)
    build(["-p", "mmjoin-net", "-p", "mmjoin-service", "--bin", "mmjoin-netd", "--bin", "mmjoin-serve"], ROOT)
    build(["--manifest-path", str(BENCH / "Cargo.toml")], ROOT)
    release = target / "release"
    cmd = [
        str(release / "mmjoin-perfbench"),
        *sys.argv[1:],
        "--netd",
        str(release / "mmjoin-netd"),
        "--serve",
        str(release / "mmjoin-serve"),
        "--work",
        str(ROOT / ".bench_work"),
    ]
    # Its own process group, so a timeout also stops the daemons.
    proc = subprocess.Popen(cmd, cwd=ROOT, start_new_session=True)
    try:
        sys.exit(proc.wait(timeout=RUN_TIMEOUT_S))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed\n")
        sys.exit(4)


if __name__ == "__main__":
    main()
