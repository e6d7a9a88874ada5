"""consim benchmark entry point.

    python3 perfbench/run.py --workload hybrid-unicast --seed 1 --seconds 15 --trace 0

Runs repetitions of one workload until --seconds have passed, each in a
fresh interpreter (see worker.py), and prints one JSON object as the last
line of stdout: {"correct", "attempted", "failed", "metrics"}.  With
--trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
--trace 1 repetitions alternate untraced and traced, and the metrics are the
per-layer ones.

Other modes:
    --pin       run one repetition and write its pins into pins.json
    --profile   cProfile self-time split by source module (a diagnostic)
    --small     n=8 versions of the workloads, for selftest.py

Exit codes: 0 done (check "correct"), 1 a repetition crashed or timed out,
2 the consim sources are missing.
"""

from __future__ import annotations

import argparse
import fcntl
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("flood-async", "hybrid-unicast", "average-lean", "matrix-small")
SETUP_PROBES = 5  # set-up-only children per run, for a steady setup_s
RUN_LIMIT_S = 170  # a run must end within 180 s


class RepetitionError(Exception):
    pass


def child(workload, seed, *, traced=False, small=False, setup_only=False,
          pinned=True, timeout=RUN_LIMIT_S):
    """Run worker.py once and return its JSON result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed)]
    cmd += ["--trace"] * traced + ["--small"] * small
    cmd += ["--setup-only"] * setup_only + ["--unpinned"] * (not pinned)
    env = dict(os.environ, PYTHONPATH=SRC)
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RepetitionError(f"{workload} seed {seed}: repetition "
                              f"exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise RepetitionError(f"{workload} seed {seed}: worker exited "
                              f"{proc.returncode}\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def measure(args):
    """Repetitions until args.seconds have passed; returns (reps, setups)."""
    start = time.perf_counter()

    def remaining():
        return RUN_LIMIT_S - (time.perf_counter() - start)

    setups = [child(args.workload, args.seed, small=args.small,
                    setup_only=True, timeout=remaining())["setup"]
              for _ in range(0 if args.trace else SETUP_PROBES)]
    reps = []
    while (not reps or time.perf_counter() - start < args.seconds
           or (args.trace and len(reps) % 2)):  # a traced run ends on a pair
        traced = bool(args.trace) and len(reps) % 2 == 1
        reps.append(child(args.workload, args.seed, traced=traced,
                          small=args.small, timeout=remaining()))
    return reps, setups


def end_to_end(reps, setups):
    exec_ms = [x for r in reps for x in r["exec_ms"]]
    return {
        "wall_s": (statistics.median(r["wall"] for r in reps), "s"),
        "setup_s": (statistics.median(setups + [r["setup"] for r in reps]), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in reps), "MB"),
        "exec_p50_ms": (statistics.median(exec_ms), "ms"),
        "exec_p98_ms": (percentile(exec_ms, 0.98), "ms"),
    }


def per_layer(reps):
    units = {m["name"]: m["unit"] for m in load_spec()["per_layer"]}
    plain = [r for r in reps if "layers" not in r]
    traced = [r for r in reps if "layers" in r]
    out = {name: statistics.median(r["layers"][name] for r in traced)
           for name in traced[0]["layers"]}
    out["trace_overhead_frac"] = (
        statistics.median(r["wall"] for r in traced)
        / statistics.median(r["wall"] for r in plain) - 1)
    return {name: (out[name], units[name]) for name in units}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def pin(args):
    """Record the tokens of one repetition as the pins of this seed."""
    rep = child(args.workload, args.seed, pinned=False)
    for problem in rep["problems"]:
        print(problem, file=sys.stderr)
    if "-" in rep["tokens"]:
        raise SystemExit("refusing to pin: a lockstep or adversarial "
                         "execution failed")
    seed = str(args.seed)
    with open(os.path.join(HERE, "pins.json"), "r+") as fh:
        fcntl.flock(fh, fcntl.LOCK_EX)  # pinning several seeds at once
        pins = json.load(fh)
        pins["gated"].setdefault(args.workload, {})[seed] = " ".join(rep["tokens"])
        if rep["ungated"] != hashlib.sha256().hexdigest():  # some ran random
            pins["ungated"].setdefault(args.workload, {})[seed] = rep["ungated"]
        fh.seek(0)
        fh.truncate()
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"pinned {args.workload} seed {seed}: {len(rep['tokens'])} gated "
          f"executions")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--pin", action="store_true")
    parser.add_argument("--profile", action="store_true")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "consim", "engine.py")):
        print(f"consim sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.pin:
        pin(args)
        return 0
    if args.profile:
        import profile_split
        profile_split.main(args.workload, args.seed, args.small)
        return 0
    try:
        reps, setups = measure(args)
    except RepetitionError as exc:
        print(exc, file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for problem in sorted({p for r in reps for p in r["problems"]}):
        print(problem, file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"{attempted} executions, {failed} failed; digest gate "
          f"{'on' if reps[0]['pinned'] else 'off (held-out seed)'}",
          file=sys.stderr)
    metrics = per_layer(reps) if args.trace else end_to_end(reps, setups)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
