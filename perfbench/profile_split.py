"""cProfile self-time split of one repetition by source module (a diagnostic,
never gated).

    python3 perfbench/run.py --workload flood-async --seed 1 --profile

Self time of built-in and standard-library functions (heapq, random, json,
fractions, ...) is charged to the consim or benchmark module that called
them, in proportion to each caller's share of that time.  engine.py is split
into engine, validate (validate_trace) and export (to_jsonl, to_record) so
that the figures line up with the wrapper spans of a traced repetition,
which are printed alongside as the cross-check.  cProfile inflates Python
calls more than native work, so compare shares, not seconds.
"""

from __future__ import annotations

import cProfile
import inspect
import os
import pstats
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
PROTOCOL_MODULES = ("flooding", "averaging", "ghs", "hybrid", "messages",
                    "functions")


def _engine_line_groups():
    """Line ranges of engine.py that belong to validate and export, so that
    their nested generator expressions are charged to them too."""
    from consim import engine
    ranges = []
    for obj, group in ((engine.validate_trace, "engine:validate"),
                       (engine.ExecutionTrace.to_jsonl, "engine:export"),
                       (engine.Event.to_record, "engine:export")):
        lines, start = inspect.getsourcelines(obj)
        ranges.append((start, start + len(lines), group))
    return ranges


def _group(func, engine_ranges):
    """Module group of a profiled function, or None to charge its callers."""
    filename, lineno, _ = func
    path = os.path.abspath(filename) if filename.endswith(".py") else ""
    if os.path.basename(os.path.dirname(path)) == "consim":
        module = os.path.basename(path)[:-3]
        if module == "engine":
            for first, end, group in engine_ranges:
                if first <= lineno < end:
                    return group
        return module
    if os.path.dirname(path) == HERE:
        return "benchmark"
    return None


def split(stats):
    """Self seconds per module group."""
    memo = {}
    engine_ranges = _engine_line_groups()

    def shares(func, visiting):
        group = _group(func, engine_ranges)
        if group:
            return {group: 1.0}
        if func in memo:
            return memo[func]
        callers = stats.stats.get(func, (0, 0, 0, 0, {}))[4]
        out = Counter()
        if not callers or func in visiting:
            out["other"] = 1.0
        else:
            total = sum(edge[2] for edge in callers.values())
            for caller, edge in callers.items():
                weight = edge[2] / total if total else 1 / len(callers)
                for g, v in shares(caller, visiting | {func}).items():
                    out[g] += weight * v
        memo[func] = out
        return out

    totals = Counter()
    for func, (_, _, tt, _, _) in stats.stats.items():
        for g, v in shares(func, frozenset()).items():
            totals[g] += tt * v
    return totals


def layer_of(group):
    if group in PROTOCOL_MODULES:
        return "protocol"
    return {"engine:validate": "validate", "engine:export": "export"}.get(
        group, group)


def main(workload, seed, small=False):
    sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
    import bench
    import run

    profiler = cProfile.Profile()
    profiler.enable()
    rep = bench.repetition(workload, seed, t0=time.perf_counter(), small=small)
    profiler.disable()
    groups = split(pstats.Stats(profiler))
    layers = Counter()
    for group, secs in groups.items():
        layers[layer_of(group)] += secs
    total = sum(groups.values())
    print(f"{workload} seed {seed}: cProfile self time {total:.2f} s "
          f"({rep['attempted']} executions, {rep['failed']} failed)")
    print("  by module (builtins and stdlib charged to their callers):")
    for group, secs in groups.most_common():
        print(f"    {group:18s} {secs:8.3f} s  {secs / total:6.1%}")
    print("  by layer (benchmark = the paused checks, not user-paid):")
    for layer, secs in layers.most_common():
        print(f"    {layer:18s} {secs:8.3f} s  {secs / total:6.1%}")

    spans = run.child(workload, seed, traced=True, small=small)["layers"]
    engine_run = spans["engine.run_s"]
    print("  cross-check against the wrapper spans of a traced repetition:")
    print(f"    engine.self_s {spans['engine.self_s']:.3f} s, protocol.s "
          f"{spans['protocol.s']:.3f} s -> engine share of the run "
          f"{spans['engine.self_s'] / engine_run:.1%}" if engine_run else "")
    run_profile = layers["engine"] + layers["protocol"]
    if run_profile:
        print(f"    cProfile engine {layers['engine']:.3f} s, protocol "
              f"{layers['protocol']:.3f} s -> engine share "
              f"{layers['engine'] / run_profile:.1%}")
    for name in ("export.s", "validate.s", "metrics.report_s",
                 "metrics.phase_s", "topology.s"):
        print(f"    {name:18s} {spans[name]:8.3f} s")
