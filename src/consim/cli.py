"""Experiment runner: single runs, parameter sweeps, bound tables and the
acceptance suites.

    consim run      --algo ghs-token --topo star --n 100 --bits 768 \\
                    --d 0.01 --fn max --sched lockstep --seed 1
    consim sweep    --axis m --values 1,2,5,10,20,50,100 --algo hybrid \\
                    --topo cycle --n 100
    consim bounds   --n 100 --bits 768 --d 0.01 --sweep-m 1:100
    consim validate all

Flags can come from a flat key=value config file (--config FILE); explicit
flags override file entries.  CONSIM_SEED supplies the default seed.  Exit
codes: 0 ok, 1 validation failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from typing import Callable, NamedTuple

from . import bounds as bnd
from .averaging import AverageProtocol
from .engine import SCHEDULERS, Simulation, TimingParams
from .errors import (ConfigError, ConsimError, InvalidParams, NotHierarchical,
                     WouldDisconnect)
from .flooding import FloodingProtocol
from .functions import get_function
from .ghs import GhsParallelProtocol, GhsTokenProtocol
from .hybrid import FailureExperiment, HybridProtocol
from .messages import SizeModel
from .metrics import (CSV_HEADER, ComplexityReport, byte_complexity,
                      message_complexity, peak_bandwidth, report_from_trace)
from .topology import TOPOLOGY_KINDS, make_topology
from .validation import SUITES, run_suites


class Algorithm(NamedTuple):
    protocol: Callable  # parsed flags -> Protocol
    bound: Callable  # (parsed flags, log mode) -> bandwidth ceiling, bits/s


def _token_bound(a, mode):
    return bnd.ghs_token_bandwidth(a.n, a.bits, a.d, mode)


ALGORITHMS = {
    "flooding": Algorithm(
        lambda a: FloodingProtocol(),
        lambda a, mode: bnd.flooding_bandwidth(a.n, a.bits, a.d, mode)),
    "average": Algorithm(
        lambda a: AverageProtocol(eps=a.eps),
        lambda a, mode: bnd.average_bandwidth(a.n, a.bits, a.d, mode)),
    "ghs-parallel": Algorithm(lambda a: GhsParallelProtocol(), _token_bound),
    "ghs-token": Algorithm(lambda a: GhsTokenProtocol(), _token_bound),
    "hybrid": Algorithm(
        lambda a: HybridProtocol(a.m),
        lambda a, mode: bnd.hybrid_bandwidth(a.n, a.bits, a.d, a.m, mode)),
}


def _algorithm(args):
    try:
        return ALGORITHMS[args.algo]
    except KeyError:
        raise ConfigError(f"unknown algorithm {args.algo!r}") from None


def _values(args, graph, fn):
    if args.init_values:
        vals = [int(v) for v in args.init_values.split(",")]
        if len(vals) != graph.n:
            raise ConfigError("--init-values must list exactly n integers")
        return vals
    rng = random.Random(args.seed ^ 0xA5A5)
    if fn.name == "vote":
        return [rng.randrange(fn.candidates) for _ in range(graph.n)]
    return [rng.randrange(1, 1 << min(fn.bits - 1, 16)) for _ in range(graph.n)]


def _build(args):
    params = {}
    if args.topo == "random_connected":
        params["p"] = args.p
    if args.topo == "balanced_tree":
        params["arity"] = args.arity
    graph = make_topology(args.topo, args.n, params, seed=args.seed)
    fn = get_function(args.fn, args.bits)
    timing = TimingParams(d=args.d, l=args.l if args.l else args.d / 10)
    sm = SizeModel.for_network(args.n, args.bits, pool_size=graph.pool_size)
    return graph, fn, timing, sm


def _single_report(args) -> tuple[list[ComplexityReport], object]:
    graph, fn, timing, sm = _build(args)
    values = _values(args, graph, fn)
    protocol = _algorithm(args).protocol(args)
    m = args.m if args.algo == "hybrid" else None
    if args.fail:
        if args.algo != "hybrid":
            raise ConfigError("--fail is only meaningful for the hybrid algorithm")
        try:
            u, v = (int(x) for x in args.fail.split(","))
        except ValueError:
            raise ConfigError(f"--fail expects U,V, got {args.fail!r}") from None
        exp = FailureExperiment(graph, values, fn, args.m, timing=timing,
                                seed=args.seed, scheduler=args.sched,
                                size_model=sm)
        exp.fail_link((u, v), at=args.fail_at)
        rerun = exp.reconsensus()
        rows = [report_from_trace(exp.initial_trace, algo="hybrid", m=m)]
        repair = exp.repair_trace
        start = repair.config.get("start_time", 0.0)
        rows.append(ComplexityReport(
            algo="hybrid-repair", topology=args.topo, n=args.n,
            b_bits=args.bits, d_s=args.d, m=m, seed=args.seed,
            time_s=(repair.events[-1].t - start) if repair.events else 0.0,
            messages=message_complexity(repair),
            bits=byte_complexity(repair),
            peak_bps=peak_bandwidth(repair)))
        rows.append(report_from_trace(rerun, algo="hybrid-rerun", m=m))
        return rows, exp.rerun_trace
    sim = Simulation(protocol, graph, values, fn=fn, timing=timing,
                     scheduler=args.sched, seed=args.seed, size_model=sm,
                     event_cap=args.event_cap)
    trace = sim.run()
    return [report_from_trace(trace, m=m)], trace


def _emit(text: str, path: str | None):
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_run(args) -> int:
    rows, trace = _single_report(args)
    _emit(CSV_HEADER + "\n" + "\n".join(r.csv_row() for r in rows) + "\n",
          args.out)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write(trace.to_jsonl())
    return 0


def _axis_values(spec: str) -> list[int]:
    if ":" in spec:
        lo, hi = (int(x) for x in spec.split(":"))
        return list(range(lo, hi + 1))
    return [int(v) for v in spec.split(",")]


def _sweep_one(payload):
    """Worker for sweeps; must stay picklable for the process pool."""
    args_dict, axis, value = payload
    args = argparse.Namespace(**args_dict)
    setattr(args, axis, value)
    rows, _trace = _single_report(args)
    bound = _algorithm(args).bound
    ceil, exact = (bound(args, mode) for mode in bnd.MODES)
    return rows[0].csv_row() + f",{ceil!r},{exact!r}"


def cmd_sweep(args) -> int:
    if args.axis not in ("m", "n", "b"):
        raise ConfigError("sweep axis must be one of m, n, b")
    values = _axis_values(args.values)
    axis = {"b": "bits"}.get(args.axis, args.axis)
    base = vars(args).copy()
    for k in ("func", "out", "values", "axis", "workers"):
        base.pop(k, None)
    payloads = [(base, axis, v) for v in values]
    if args.workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            lines = list(pool.map(_sweep_one, payloads))
    else:
        lines = [_sweep_one(p) for p in payloads]
    header = CSV_HEADER + ",bound_ceil_bps,bound_exact_bps"
    _emit(header + "\n" + "\n".join(lines) + "\n", args.out)
    return 0


def cmd_bounds(args) -> int:
    if args.sweep_m:
        m_values = _axis_values(args.sweep_m)
    else:
        m_values = [args.m] if args.m else []
    rows = bnd.curve_rows(args.n, args.bits, args.d, m_values)
    _emit(bnd.curve_csv(rows), args.out)
    return 0


def cmd_validate(args) -> int:
    results = run_suites(args.suite)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def _load_config_defaults(argv):
    """Pre-scan for --config and turn the file into parser defaults, so
    explicit flags keep overriding."""
    if "--config" not in argv:
        return {}
    path = argv[argv.index("--config") + 1]
    defaults = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, val = (part.strip() for part in line.split("=", 1))
            else:
                key, _, val = line.partition(" ")
                val = val.strip()
            defaults[key.replace("-", "_")] = val
    return defaults


def _add_experiment_flags(sub, default_seed):
    sub.add_argument("--algo", choices=ALGORITHMS, default="flooding")
    sub.add_argument("--topo", choices=TOPOLOGY_KINDS, default="random_connected")
    sub.add_argument("--n", type=int, default=16)
    sub.add_argument("--p", type=float, default=0.3,
                     help="edge probability for random_connected")
    sub.add_argument("--arity", type=int, default=2,
                     help="children per node for balanced_tree")
    sub.add_argument("--bits", type=int, default=768,
                     help="size b of one value, in bits")
    sub.add_argument("--d", type=float, default=0.01,
                     help="maximum delivery delay, seconds")
    sub.add_argument("--l", type=float, default=0.0,
                     help="maximum transition latency (default d/10)")
    sub.add_argument("--fn", default="max",
                     help="consensus function: max, min, mean, vote:k, median")
    sub.add_argument("--sched", choices=SCHEDULERS, default="lockstep")
    sub.add_argument("--seed", type=int, default=default_seed)
    sub.add_argument("--m", type=int, default=1,
                     help="cluster parameter of the hybrid algorithm")
    sub.add_argument("--eps", type=float, default=1e-3,
                     help="convergence tolerance of the averaging algorithm")
    sub.add_argument("--init-values", default="",
                     help="comma-separated initial values (default: seeded)")
    sub.add_argument("--event-cap", type=int, default=10_000_000)
    sub.add_argument("--config", default=None, help="flat key=value file")
    sub.add_argument("--out", default=None, help="write CSV here")


def build_parser(default_seed: int) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="consim",
        description="consensus protocol simulator and bandwidth harness")
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="one execution, one report row")
    _add_experiment_flags(p_run, default_seed)
    p_run.add_argument("--trace", default=None, help="write a JSONL trace here")
    p_run.add_argument("--fail", default=None, metavar="U,V",
                       help="fail link u,v after completion (hybrid only)")
    p_run.add_argument("--fail-at", type=float, default=None)
    p_run.set_defaults(func=cmd_run)

    p_sweep = subs.add_parser("sweep", help="one report row per axis point")
    _add_experiment_flags(p_sweep, default_seed)
    p_sweep.add_argument("--axis", required=True, choices=("m", "n", "b"))
    p_sweep.add_argument("--values", dest="values", required=True,
                         help="comma list or lo:hi range")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--fail", default=None, help=argparse.SUPPRESS)
    p_sweep.add_argument("--fail-at", type=float, default=None,
                         help=argparse.SUPPRESS)
    p_sweep.set_defaults(func=cmd_sweep)

    p_bounds = subs.add_parser("bounds", help="closed-form ceiling curves")
    p_bounds.add_argument("--n", type=int, required=True)
    p_bounds.add_argument("--bits", type=int, default=768)
    p_bounds.add_argument("--d", type=float, default=0.01)
    p_bounds.add_argument("--m", type=int, default=None)
    p_bounds.add_argument("--sweep-m", default=None, help="lo:hi or comma list")
    p_bounds.add_argument("--out", default=None)
    p_bounds.set_defaults(func=cmd_bounds)

    p_val = subs.add_parser("validate", help="run acceptance suites")
    p_val.add_argument("suite", choices=tuple(SUITES) + ("all",))
    p_val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    default_seed = int(os.environ.get("CONSIM_SEED", "0"))
    parser = build_parser(default_seed)
    try:
        file_defaults = _load_config_defaults(argv)
        args = parser.parse_args(argv)
        for key, val in file_defaults.items():
            flag = "--" + key.replace("_", "-")
            if hasattr(args, key) and flag not in argv:
                current = getattr(args, key)
                caster = type(current) if current is not None else str
                setattr(args, key, caster(val))
        return args.func(args)
    except (ConfigError, InvalidParams, NotHierarchical, WouldDisconnect,
            FileNotFoundError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ConsimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
