"""`tools/replay_digests.py` is how a refactor shows that every execution
replays byte for byte, so the tool itself must keep running against the
package as it stands: one case of each family prints a digest, and the
SHA-256 of its whole output is pinned.  `tools/reach.py`, which lists the
lines that no replay case reaches, must keep running too."""

import contextlib
import hashlib
import importlib.util
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from consim.hybrid import HybridAutomaton, check_cluster_discipline

TOOLS = Path(__file__).resolve().parent.parent / "tools"
TOOL = TOOLS / "replay_digests.py"
LINE = re.compile(r"\S+ [0-9a-f]{64}")
# SHA-256 of everything `python tools/replay_digests.py` prints (887
# lines), and of its first 677, which the families before `hybrid_m_cases`
# print: a family appended at the end moves only the first.  A change that
# moves any execution re-pins them and says why.
REPLAY_SHA256 = \
    "d4b4b453bfee6801c24c12f269c6889a62aee60f12c350541cae32dc800f2669"
FIRST_677_SHA256 = \
    "b03eeead4f0249a2aba935196bc81787fd84c01c983909848e8541af04f312b4"
REACH_LINE = re.compile(r"consim/(\w+\.py): (\d+) of (\d+) lines missed"
                        r"(?:: ((?:\d+(?:-\d+)?)(?:, \d+(?:-\d+)?)*))?")


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family", ["single_cases", "start_cases",
                                    "mst_cases", "failure_cases",
                                    "hybrid_m_cases", "absorb_cases",
                                    "single_node_cases"])
def test_first_case_of_each_family_prints_a_digest(tool, family):
    cases = getattr(tool, family)()
    if family in ("single_cases", "single_node_cases"):
        # averaging comes first and runs only under lockstep; under the
        # other schedulers the tool prints its refusal instead of a digest
        line = next(ln for ln in cases if "/lockstep" in ln.split()[0])
    else:
        line = next(cases)
    assert LINE.fullmatch(line), line


def test_the_whole_replay_output_is_pinned(tool):
    assert [f.__name__ for f in tool.FAMILIES][4:] == [
        "hybrid_m_cases", "absorb_cases", "single_node_cases"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main() == 0
    text = out.getvalue()
    assert text.count("\n") == 887
    assert hashlib.sha256(text.encode()).hexdigest() == REPLAY_SHA256
    first = "".join(text.splitlines(keepends=True)[:677])
    assert hashlib.sha256(first.encode()).hexdigest() == FIRST_677_SHA256


def _line_of(function, text):
    """The number of the first line of `function` that contains `text`."""
    source, first = inspect.getsourcelines(function)
    return first + next(i for i, line in enumerate(source) if text in line)


def _lines_of(ranges):
    lines = set()
    for span in filter(None, (ranges or "").split(", ")):
        lo, _, hi = span.partition("-")
        lines.update(range(int(lo), int(hi or lo) + 1))
    return lines


def test_the_reach_report_lists_what_one_case_misses():
    # the collector runs in a fresh interpreter, so that it neither replaces
    # a tracer that runs the tests nor has its own replaced
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, str(TOOLS / "reach.py"),
                           "--limit", "1", "absorb_cases"], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    missed = {}
    for line in proc.stdout.splitlines():
        match = REACH_LINE.fullmatch(line)
        assert match, line
        name, count, total, ranges = match.groups()
        missed[name] = _lines_of(ranges)
        assert len(missed[name]) == int(count) <= int(total)
    # the absorb case adopts a node through _on_p1_absorb, and no case
    # checks cluster discipline
    assert _line_of(HybridAutomaton._on_p1_absorb, "self._finalize_p1(") \
        not in missed["hybrid.py"]
    assert _line_of(check_cluster_discipline, "problems = []") \
        in missed["hybrid.py"]
