"""Experiment runner: single runs, parameter sweeps, bound tables, the
acceptance suites and trace-file checks.

    consim run      --algo ghs-token --topo star --n 100 --bits 768 \\
                    --d 0.01 --fn max --sched lockstep --seed 1
    consim sweep    --axis m --values 1,2,5,10,20,50,100 --algo hybrid \\
                    --topo cycle --n 100
    consim bounds   --n 100 --bits 768 --d 0.01 --sweep-m 1:100
    consim validate all
    consim analyze  trace.jsonl

Flags can come from a flat key=value config file (--config FILE); explicit
flags override file entries.  CONSIM_SEED supplies the default seed.  Exit
codes: 0 ok, 1 validation failure (for analyze, a failed check), 2
configuration error (for analyze, a file that is not a schema-3 trace).
"""

from __future__ import annotations

import argparse
import os
import random
import sys

from . import bounds as bnd
from .algorithms import ALGORITHMS
from .analyze import analyze
from .engine import SCHEDULERS, Simulation, TimingParams
from .errors import (ConfigError, ConsimError, DomainOverflow, InvalidParams,
                     NotHierarchical, WouldDisconnect)
from .functions import get_function
from .hybrid import FailureExperiment
from .metrics import (CSV_HEADER, ComplexityReport, byte_complexity,
                      message_complexity, peak_bandwidth, report_from_trace)
from .topology import TOPOLOGY_KINDS, make_topology
from .validation import SUITES, run_suites


def _algorithm(args):
    try:
        return ALGORITHMS[args.algo]
    except KeyError:
        raise ConfigError(f"unknown algorithm {args.algo!r}") from None


def _values(args, graph, fn):
    if args.init_values:
        try:
            vals = [int(v) for v in args.init_values.split(",")]
        except ValueError:
            raise ConfigError("--init-values expects comma-separated integers, "
                              f"got {args.init_values!r}") from None
        if len(vals) != graph.n:
            raise ConfigError("--init-values must list exactly n integers")
        for v in vals:
            try:
                fn.initial(v)
            except DomainOverflow as exc:
                raise ConfigError(f"--init-values: {exc}") from None
        return vals
    rng = random.Random(args.seed ^ 0xA5A5)
    if fn.name == "vote":
        return [rng.randrange(fn.candidates) for _ in range(graph.n)]
    if fn.bits < 2:
        raise ConfigError("seeded values need --bits >= 2; give --init-values")
    return [rng.randrange(1, 1 << min(fn.bits - 1, 16)) for _ in range(graph.n)]


def _build(args):
    # each topology family reads only its own parameter
    graph = make_topology(args.topo, args.n, {"p": args.p, "arity": args.arity},
                          seed=args.seed)
    fn = get_function(args.fn, args.bits)
    timing = TimingParams(d=args.d, l=args.l if args.l else args.d / 10)
    return graph, fn, timing


def _execution_report(args) -> tuple[list[ComplexityReport], object]:
    """One execution and its report row; a sweep runs one per point."""
    graph, fn, timing = _build(args)
    values = _values(args, graph, fn)
    protocol = _algorithm(args).protocol(args.m, args.eps)
    m = args.m if args.algo == "hybrid" else None
    sim = Simulation(protocol, graph, values, fn=fn, timing=timing,
                     scheduler=args.sched, seed=args.seed,
                     event_cap=args.event_cap)
    trace = sim.run()
    return [report_from_trace(trace, m=m)], trace


def _single_report(args) -> tuple[list[ComplexityReport], object]:
    """The rows and trace of `run`: one execution or, with --fail, the
    hybrid execution, the repair after the link failure and the renewed
    consensus, one row each."""
    if not args.fail:
        return _execution_report(args)
    if args.algo != "hybrid":
        raise ConfigError("--fail is only meaningful for the hybrid algorithm")
    graph, fn, timing = _build(args)
    values = _values(args, graph, fn)
    try:
        u, v = (int(x) for x in args.fail.split(","))
    except ValueError:
        raise ConfigError(f"--fail expects U,V, got {args.fail!r}") from None
    exp = FailureExperiment(graph, values, fn, args.m, timing=timing,
                            seed=args.seed, scheduler=args.sched)
    exp.fail_link((u, v), at=args.fail_at)
    rerun = exp.reconsensus()
    m = args.m
    rows = [report_from_trace(exp.initial_trace, algo="hybrid", m=m)]
    repair = exp.repair_trace
    start, end = repair.config.get("start_time", 0.0), repair.last_time()
    rows.append(ComplexityReport(
        algo="hybrid-repair", topology=args.topo, n=args.n,
        b_bits=args.bits, d_s=args.d, m=m, seed=args.seed,
        time_s=0.0 if end is None else end - start,
        messages=message_complexity(repair),
        bits=byte_complexity(repair),
        peak_bps=peak_bandwidth(repair)))
    rerun.config["algo"] = "hybrid-rerun"  # its row's label, in its file too
    rows.append(report_from_trace(rerun, m=m))
    return rows, exp.rerun_trace


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
            fh.writelines(trace.jsonl_chunks())
    return 0


def cmd_analyze(args) -> int:
    with open(args.file) as fh:
        report = analyze(fh)
    sys.stdout.write(CSV_HEADER + "\n" + report.csv_row() + "\n")
    return 0


def _axis_values(spec: str, flag: str) -> list[int]:
    try:
        if ":" in spec:
            lo, hi = (int(x) for x in spec.split(":"))
            return list(range(lo, hi + 1))
        return [int(v) for v in spec.split(",")]
    except ValueError:
        raise ConfigError(f"{flag} expects a comma list or lo:hi range of "
                          f"integers, got {spec!r}") from None


def _sweep_one(payload):
    """Worker for sweeps; must stay picklable for the process pool."""
    args_dict, axis, value = payload
    args = argparse.Namespace(**args_dict)
    setattr(args, axis, value)
    rows, _trace = _execution_report(args)
    bound = _algorithm(args).bound
    ceil, exact = (bound(args.n, args.bits, args.d, args.m, mode)
                   for mode in bnd.MODES)
    return rows[0].csv_row() + f",{ceil!r},{exact!r}"


def cmd_sweep(args) -> int:
    values = _axis_values(args.values, "--values")
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
        m_values = _axis_values(args.sweep_m, "--sweep-m")
    else:
        m_values = [] if args.m is None else [args.m]
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


def _config_entries(argv) -> dict:
    """The entries of the --config file, if one is given, keyed by option
    dest; a small pre-parser finds the flag in any of its spellings."""
    pre = argparse.ArgumentParser(prog="consim", add_help=False)
    pre.add_argument("--config")
    path = pre.parse_known_args(argv)[0].config
    if path is None:
        return {}
    entries = {}
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, sep, val = line.partition("=")
            if not sep:
                key, _, val = line.partition(" ")
            entries[key.strip().replace("-", "_")] = val.strip()
    return entries


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


def build_parser(default_seed: int, config=None) -> argparse.ArgumentParser:
    """The command-line parser.  `config` holds the --config file's entries;
    they become defaults of run and sweep, which argparse converts like
    flag values and explicit flags override.  An entry that names no option
    of either is a ConfigError; one that only the other subcommand has is
    ignored."""
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

    p_sweep = subs.add_parser("sweep", help="one report row per axis point")
    _add_experiment_flags(p_sweep, default_seed)
    p_sweep.add_argument("--axis", required=True, choices=("m", "n", "b"))
    p_sweep.add_argument("--values", dest="values", required=True,
                         help="comma list or lo:hi range")
    p_sweep.add_argument("--workers", type=int, default=1)
    options = {a.dest for sub in (p_run, p_sweep) for a in sub._actions}
    unknown = sorted(set(config or {}) - (options - {"help"}))
    if unknown:
        raise ConfigError(f"--config names no option of run or sweep: "
                          f"{', '.join(unknown)}")
    for sub, func in ((p_run, cmd_run), (p_sweep, cmd_sweep)):
        # after every add_argument, so that each entry reaches its flag
        sub.set_defaults(**(config or {}))
        sub.set_defaults(func=func)

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

    p_an = subs.add_parser(
        "analyze", help="check a schema-3 trace file, print its report row")
    p_an.add_argument("file")
    p_an.set_defaults(func=cmd_analyze)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    default_seed = int(os.environ.get("CONSIM_SEED", "0"))
    try:
        parser = build_parser(default_seed, _config_entries(argv))
        args = parser.parse_args(argv)
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
