#!/usr/bin/env python3
"""Build and run the host-speed benchmark (see hostbench/README.md).

    python3 hostbench/run.py --workload gather-8c --seed 1 --seconds 50 --trace 0

Run it from the repository root. The first call configures and builds
the simulator libraries and the benchmark binary into $CARGO_TARGET_DIR
(default .bench_build); later calls rebuild only what changed. Build
output goes to stderr, so the last line on stdout is the binary's JSON
result. Per-run details (cycles, host context, the Perfetto trace and
the layer table of a traced run) land in <build dir>/results/.

Arguments other than the four below (--scale-mat, --scale-ten, --cores)
pass through to the binary.
"""

import argparse
import os
import pathlib
import signal
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent

BUILD_TIMEOUT_S = 850
# Beyond --seconds: the round in flight when time runs out, plus exit.
RUN_SLACK_S = 120


def run(cmd, timeout, **kwargs):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise


def build_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short=12",
                        "HEAD"], capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() \
        else "unknown"


def build(bdir):
    """Configure once, then (re)build the binary; returns its path."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(bdir), "--target", "hostbench",
                  "-j", jobs])
    for cmd in steps:
        rc = run(cmd, BUILD_TIMEOUT_S, stdout=sys.stderr)
        if rc != 0:
            raise RuntimeError(f"{' '.join(cmd)} exited {rc}")
    return bdir / "hostbench"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, extra = ap.parse_known_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        print(f"run.py: simulator sources not found in {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    bdir = build_dir()
    try:
        exe = build(bdir)
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as e:
        print(f"run.py: build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(bdir / "results"), "--commit", commit()] + extra
    try:
        return run(cmd, args.seconds + RUN_SLACK_S)
    except subprocess.TimeoutExpired:
        print(f"run.py: benchmark exceeded {args.seconds + RUN_SLACK_S} s",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
