#!/usr/bin/env python3
"""Tiny-scale smoke test of the host-speed benchmark.

    python3 hostbench/selftest.py

Runs every workload hostbench.cpp defines (BENCHMARK.json lists only some
of them) once untraced and once traced at 1/1024 matrix and 1/512
tensor scale on 2 cores, through run.py, and checks that:
  - the last stdout line is the result object with exactly the keys
    correct/attempted/failed/metrics, and every run verified;
  - every end-to-end metric (untraced) or per-layer metric (traced)
    named in BENCHMARK.json is emitted as a number with that unit;
  - the traced replay reproduced every replayed cell's cycles
    (replay.valid_frac == 1);
  - the layer self times plus the uncovered time sum to the traced
    wall time, and the span trace is valid JSON;
  - untraced and traced runs report the same per-cell cycles.
Exit status 0 when every check passes.
"""

import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
TINY = ["--scale-mat", "1024", "--scale-ten", "512", "--cores", "2"]
WORKLOADS = ["gather-8c", "merge-8c", "gather-64c", "tensor-8c"]


def results_dir():
    d = pathlib.Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return (d if d.is_absolute() else ROOT / d) / "results"


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", "0", "--trace", str(trace)] + TINY
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(cmd)} exited {p.returncode}\n"
                             f"{p.stderr[-2000:]}")
    return json.loads(lines[-1])


def check_result(res, specs, what):
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, what
    assert res["correct"] is True and res["failed"] == 0, what
    assert isinstance(res["attempted"], int) and res["attempted"] >= 1, what
    for spec in specs:
        m = res["metrics"].get(spec["name"])
        assert m is not None, f"{what}: {spec['name']} missing"
        assert m["unit"] == spec["unit"], f"{what}: {spec['name']} unit"
        assert isinstance(m["value"], (int, float)), f"{what}: value"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    for name in WORKLOADS:
        try:
            check_result(run(name, 0), bench["end_to_end"],
                         f"{name} untraced")
            plain = json.loads((results_dir() / f"{name}.json").read_text())
            res = run(name, 1)
            check_result(res, bench["per_layer"], f"{name} traced")
            assert res["metrics"]["replay.valid_frac"]["value"] == 1.0, \
                f"{name}: replay diverged from the untraced cycles"
            traced = json.loads(
                (results_dir() / f"{name}.traced.json").read_text())
            assert traced["cycles"] == plain["cycles"], \
                f"{name}: traced and untraced cycles differ"
            covered = sum(traced["layer_self_s"].values()) + \
                traced["uncovered_s"]
            assert abs(covered - traced["traced_wall_s"]) <= \
                1e-6 * max(1.0, traced["traced_wall_s"]), \
                f"{name}: layer self times do not sum to the wall time"
            json.loads(
                (results_dir() / f"{name}.traced.trace.json").read_text())
            print(f"ok   {name}")
        except (AssertionError, OSError, ValueError, KeyError,
                subprocess.TimeoutExpired) as e:
            failures += 1
            print(f"FAIL {name}: {e}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
