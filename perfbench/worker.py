"""One repetition of one workload in a fresh interpreter.

Started by run.py, so that every repetition pays the consim import and owns
its peak resident memory.  Prints one JSON object on stdout.

    python3 perfbench/worker.py WORKLOAD SEED [--trace] [--small] [--setup-only]
                                [--unpinned]
"""

import argparse
import json
import os
import resource
import time

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins(workload, seed):
    """The pinned tokens of one workload seed, or None for a held-out seed."""
    with open(PINS_PATH) as fh:
        entry = json.load(fh)["gated"].get(workload, {}).get(str(seed))
    return None if entry is None else entry.split()


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("workload")
    parser.add_argument("seed", type=int)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--small", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--unpinned", action="store_true",
                        help="gate by the oracle and validate_trace only")
    args = parser.parse_args()
    pinned = not (args.small or args.unpinned)
    pins = load_pins(args.workload, args.seed) if pinned else None

    t0 = time.perf_counter()  # start of the repetition, before the consim import
    import bench

    result = bench.repetition(args.workload, args.seed, t0=t0,
                              traced=args.trace, small=args.small,
                              setup_only=args.setup_only, pins=pins)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
