"""Benchmark two commits in alternating pairs and compare their end-to-end
metrics.

    python3 tools/bench_pairs.py PARENT CHANGE [--pairs 10] [--seed 3] \\
        [--workloads W ...] [--json FILE]

Both commits are exported with `git archive` into one temporary directory,
so each side runs its own committed sources.  For each workload, pair k
runs the command of BENCHMARK.json once on each side, the parent first in
odd pairs.  The output, printed and with --json also written to FILE, has
one entry per workload:

  seed, pairs, all_correct, failed and attempted (summed per side),
  first_in_pair, and per end-to-end metric of BENCHMARK.json both sides'
  q1, median and q3 (inclusive quartiles of the per-run values),
  relative_change (change median / parent median - 1), within_bound (that
  change against the metric's bound, in its `better` direction),
  parent_iqr_frac (the parent's interquartile range over its median),
  pairs_change_lower (pairs whose change run read lower), the runs and a
  verdict: "worse" outside the bound; else "unresolved" when the parent's
  IQR fraction exceeds the bound and not every change run beats every
  parent run; else "better" when the change wins at least 9 in 10 pairs,
  ties counting for neither, and the medians differ by more than the
  parent's IQR in its favour; else "unchanged".

Only BENCHMARK.json is read from this checkout; nothing is written into
it.  A run that exits non-zero stops the tool with its stderr.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def quartiles(values) -> dict:
    if len(values) == 1:  # one pair
        return dict.fromkeys(("q1", "median", "q3"), values[0])
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def verdict(summary, bound, better="lower") -> str:
    """A metric summary's verdict, in the metric's `better` direction: see
    the module docstring."""
    parent, change = summary["parent"], summary["change"]
    parent_runs, change_runs = summary["parent_runs"], summary["change_runs"]
    sign = 1 if better == "lower" else -1

    def beats(c, p):
        return sign * (p - c) > 0

    iqr = parent["q3"] - parent["q1"]
    if not summary["within_bound"]:
        return "worse"
    if iqr / parent["median"] > bound and not all(
            beats(c, p) for c in change_runs for p in parent_runs):
        return "unresolved"
    wins = sum(map(beats, change_runs, parent_runs))
    if (10 * wins >= 9 * len(parent_runs)
            and sign * (parent["median"] - change["median"]) > iqr):
        return "better"
    return "unchanged"


def summarize_metric(parent_runs, change_runs, bound, better="lower") -> dict:
    """Both sides' quartiles, the comparison of their medians and its
    verdict; the runs are paired by index."""
    parent, change = quartiles(parent_runs), quartiles(change_runs)
    rel = change["median"] / parent["median"] - 1
    out = {
        "parent": parent, "change": change,
        "relative_change": round(rel, 5),
        "within_bound": rel <= bound if better == "lower" else rel >= -bound,
        "parent_iqr_frac": round((parent["q3"] - parent["q1"])
                                 / parent["median"], 5),
        "pairs_change_lower": sum(c < p for p, c in zip(parent_runs,
                                                        change_runs)),
        "parent_runs": list(parent_runs), "change_runs": list(change_runs),
    }
    out["verdict"] = verdict(out, bound, better)
    return out


def summarize(runs, spec, seed) -> dict:
    """One workload's entry; `runs` holds each pair's {side: run.py JSON}."""
    return {
        "seed": seed,
        "pairs": len(runs),
        "all_correct": all(r[s]["correct"] for r in runs for s in SIDES),
        "failed": {s: sum(r[s]["failed"] for r in runs) for s in SIDES},
        "attempted": {s: sum(r[s]["attempted"] for r in runs) for s in SIDES},
        "first_in_pair": {str(k): SIDES[(k - 1) % 2]
                          for k in range(1, len(runs) + 1)},
        "metrics": {
            m["name"]: summarize_metric(
                *([r[s]["metrics"][m["name"]]["value"] for r in runs]
                  for s in SIDES), m["bound"], m["better"])
            for m in spec["end_to_end"]},
    }


def export(commit, dest: Path):
    dest.mkdir()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def bench(cwd: Path, command, workload, seed) -> dict:
    proc = subprocess.run([*command, "--workload", workload,
                           "--seed", str(seed)], cwd=cwd,
                          capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} in {cwd.name} exited "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--json", metavar="FILE")
    args = parser.parse_args(argv)
    out = {}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        dirs = dict(zip(SIDES, (Path(tmp) / s for s in SIDES)))
        for side, commit in zip(SIDES, (args.parent, args.change)):
            export(commit, dirs[side])
        for workload in args.workloads:
            runs = []
            for k in range(1, args.pairs + 1):
                order = SIDES if k % 2 else SIDES[::-1]
                runs.append({s: bench(dirs[s], spec["command"], workload,
                                      args.seed) for s in order})
                print(f"{workload} pair {k}/{args.pairs} done",
                      file=sys.stderr)
            out[workload] = summarize(runs, spec, args.seed)
    text = json.dumps(out, indent=1)
    if args.json:
        Path(args.json).write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
