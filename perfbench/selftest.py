"""Fast self-test of the benchmark on n=8 versions of its workloads.

    python3 perfbench/selftest.py

Checks that both trace modes print exactly the metrics BENCHMARK.json names,
with their units; that the small executions pass the gate; that a tampered
pin raises the failure count; that the counts inferred for a lean run match
those counted from a recorded trace; and that the benchmark refuses to run
without the consim sources.  Takes about fifteen seconds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import bench  # noqa: E402


def expect(cond, message):
    if not cond:
        raise SystemExit(f"selftest FAILED: {message}")


def run_py(cwd, *args):
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=170)


def check_metrics_emitted():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    for workload in bench.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_py(ROOT, "--workload", workload, "--seed", "1",
                          "--seconds", "0", "--trace", str(trace), "--small")
            expect(proc.returncode == 0, f"{workload} --trace {trace}: "
                   f"exit {proc.returncode}\n{proc.stderr}")
            result = json.loads(proc.stdout.splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                   f"result keys {sorted(result)}")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1,
                   f"{workload} --trace {trace}: {proc.stderr}")
            want = {m["name"]: m["unit"] for m in spec[section]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            expect(got == want, f"{workload} --trace {trace}: metrics {got}")
            for name, v in result["metrics"].items():
                expect(isinstance(v["value"], (int, float))
                       and math.isfinite(v["value"]), f"{name} = {v['value']}")


def check_tampered_pin():
    for workload in ("hybrid-unicast", "matrix-small"):
        def rep(pins):
            return bench.repetition(workload, 1, t0=time.perf_counter(),
                                    small=True, pins=pins)
        tokens = rep(None)["tokens"]
        expect(tokens, f"{workload}: no gated executions")
        expect(rep(tokens)["failed"] == 0, f"{workload}: own pins fail")
        tampered = tokens[:-1] + ["0" * 8 if tokens[-1] != "0" * 8 else "1" * 8]
        bad = rep(tampered)
        expect(bad["failed"] == 1 and "pin mismatch" in bad["problems"][0],
               f"{workload}: tampered pin gave {bad['problems']}")


def check_lean_counts():
    def counts(record):
        bench.WORKLOADS["lean-probe"] = lambda seed, small: [
            dataclasses.replace(ex, record=record)
            for ex in bench.average_lean(seed, small)]
        try:
            layers = bench.repetition("lean-probe", 1, t0=time.perf_counter(),
                                      traced=True, small=True)["layers"]
        finally:
            del bench.WORKLOADS["lean-probe"]
        return {k: layers[k] for k in ("engine.sends", "engine.deliveries",
                                       "engine.dropped_deliveries",
                                       "engine.events", "protocol.msg_calls")}
    lean, recorded = counts(False), counts(True)
    expect(lean == recorded, f"lean counts {lean} != recorded {recorded}")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selftest-") as bare:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_py(bare, "--workload", "matrix-small", "--seed", "1",
                      "--seconds", "1", "--trace", "0")
        expect(proc.returncode != 0 and not proc.stdout.strip(),
               f"bare checkout: exit {proc.returncode}, stdout {proc.stdout!r}")


def main():
    check_metrics_emitted()
    check_tampered_pin()
    check_lean_counts()
    check_refuses_without_sources()
    print("selftest ok")


if __name__ == "__main__":
    main()
