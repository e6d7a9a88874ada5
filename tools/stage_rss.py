"""Print the memory held after each stage of one benchmark execution.

    python3 tools/stage_rss.py WORKLOAD [--seed N] [--small]

Runs the first execution of a workload, as perfbench/bench.py's generators
build it, through the benchmark's stages: make_topology, Simulation, run,
report_from_trace, peak_bandwidth_by_phase, validate_trace and to_jsonl.
After each it prints `stage rss_mb maxrss_mb`: the resident set now, from
/proc/self/statm ("-" where that is absent), and the ru_maxrss high-water
(in KiB on Linux), both in MB.
"""

import argparse
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.dont_write_bytecode = True  # write nothing under perfbench/
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import bench  # noqa: E402
from consim import engine, functions, metrics, topology  # noqa: E402
from consim.messages import SizeModel  # noqa: E402


def stage(name, result):
    try:
        with open("/proc/self/statm") as f:
            rss = "%.1f" % (int(f.read().split()[1])
                            * os.sysconf("SC_PAGE_SIZE") / 2**20)
    except OSError:
        rss = "-"
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{name:<24}{rss:>10}{peak:>10.1f}", flush=True)
    return result


ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
ap.add_argument("workload", choices=sorted(bench.WORKLOADS))
ap.add_argument("--seed", type=int, default=3)
ap.add_argument("--small", action="store_true")
args = ap.parse_args()
ex = bench.WORKLOADS[args.workload](args.seed, args.small)[0]
print(f"{'stage':<24}{'rss_mb':>10}{'maxrss_mb':>10}")
graph = stage("make_topology", topology.make_topology(
    ex.topo, ex.n, ex.params,
    seed=ex.seed if ex.graph_seed is None else ex.graph_seed))
sm = SizeModel.for_network(ex.n, ex.bits, pool_size=graph.pool_size)
sim = stage("Simulation", engine.Simulation(
    bench._protocol(ex), graph, ex.values, fn=functions.get_function(
        ex.fn, ex.bits), timing=bench.TIMING, scheduler=ex.sched,
    seed=ex.seed, size_model=sm, record_events=ex.record))
trace = stage("run", sim.run())
stage("report_from_trace", metrics.report_from_trace(trace, m=ex.m))
stage("peak_bandwidth_by_phase", metrics.peak_bandwidth_by_phase(trace))
stage("validate_trace", engine.validate_trace(trace))
stage("to_jsonl", len(trace.to_jsonl()))
