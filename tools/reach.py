"""List the lines of `src/consim` that no replay case reaches.

    PYTHONPATH=src python3 tools/reach.py [--limit N] [FAMILY ...]

Runs the case families of `tools/replay_digests.py` (all of them, or the
named ones, each cut to its first N cases) under a `sys.settrace` line
collector, and prints one line per module with the executable lines that
no case ran, as ranges:

    consim/averaging.py: 4 of 68 lines missed: 65, 70, 95-96

Reach is a map of what no replay pins, not a target.  With every family
run, each line it lists in `ghs.py`, `hybrid.py`, `flooding.py` and
`averaging.py` is one of these:

  - an error raise: `GhsAutomaton._on_unknown`, the unknown message of
    `ParallelConvergecastAutomaton` and the foreign one of `TokenPass`,
    hybrid's `_hop`, the overshoot in `_check_global`, the invariants of
    `_on_clusters` and `_on_routed_values`, `on_link_down` before output,
    `DuplicateUidConflict` in flooding, averaging's incomplete round, and
    the `ConfigError`s of `AverageProtocol`, `HybridProtocol` and
    `FailureExperiment` (`fail_link`'s time, and the order errors of
    `fail_link` and `reconsensus`);
  - a checker or helper that no replay case calls (tests, `consim
    validate` and the demos do): `root_tree`, `GhsAutomaton.is_root`, the
    two standalone convergecast protocols, `mst_edges`, `cluster_map`,
    `branch_sizes`, `check_cluster_discipline`,
    `FailureExperiment.automata` and `.breakable_tree_edges`;
  - a guard that only a scheduled hook (`schedule_kick`,
    `schedule_link_down`) reaches, which tests exercise:
    flooding's `on_flush` with nothing fresh (a kicked flush), and the
    live-set check of hybrid's `_discovery_gate` (a link that fails during
    discovery, in a run that then ends in `on_link_down`'s raise; without
    the check that run ends in a `KeyError`, which a test pins).
"""

from __future__ import annotations

import argparse
import importlib.util
import itertools
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "replay_digests.py"


def executable_lines(path: Path) -> set:
    """Every line that some code object of the module's source runs."""
    lines, codes = set(), [compile(path.read_text(), str(path), "exec")]
    for code in codes:  # grows as nested functions and classes turn up
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def _ranges(lines):
    runs = itertools.groupby(enumerate(sorted(lines)), lambda p: p[1] - p[0])
    spans = [[line for _, line in run] for _, run in runs]
    return ", ".join(str(s[0]) if len(s) == 1 else f"{s[0]}-{s[-1]}"
                     for s in spans)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("families", nargs="*", metavar="FAMILY")
    parser.add_argument("--limit", type=int, default=None)
    args = parser.parse_args(argv)
    package = Path(importlib.util.find_spec("consim").origin).parent
    files = {str(p): p for p in sorted(package.glob("*.py"))}
    hits = {name: set() for name in files}

    def tracer(frame, event, arg):
        seen = hits.get(frame.f_code.co_filename)
        if seen is None:
            return None  # not consim: trace none of this frame's lines
        seen.add(frame.f_lineno)
        return tracer

    sys.settrace(tracer)  # before the tool imports consim, so imports count
    try:
        spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        chosen = args.families or [f.__name__ for f in tool.FAMILIES]
        for family in chosen:
            for _line in itertools.islice(getattr(tool, family)(), args.limit):
                pass
    finally:
        sys.settrace(None)
    for name, path in files.items():
        lines = executable_lines(path)
        missed = lines - hits[name]
        print(f"consim/{path.name}: {len(missed)} of {len(lines)} lines "
              f"missed" + (f": {_ranges(missed)}" if missed else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
