"""`tools/replay_digests.py` is how a refactor shows that every execution
replays byte for byte, so the tool itself must keep running against the
package as it stands: one case of each family prints a digest, and the
SHA-256 of its whole output is pinned."""

import contextlib
import hashlib
import importlib.util
import io
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "replay_digests.py"
LINE = re.compile(r"\S+ [0-9a-f]{64}")
# SHA-256 of everything `python tools/replay_digests.py` prints (677
# lines); a change that moves any execution re-pins this and says why
REPLAY_SHA256 = \
    "b03eeead4f0249a2aba935196bc81787fd84c01c983909848e8541af04f312b4"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("replay_digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("family", ["single_cases", "start_cases",
                                    "mst_cases", "failure_cases"])
def test_first_case_of_each_family_prints_a_digest(tool, family):
    cases = getattr(tool, family)()
    if family == "single_cases":
        # averaging comes first and runs only under lockstep; under the
        # other schedulers the tool prints its refusal instead of a digest
        line = next(ln for ln in cases if ln.split()[0].split("/")[3]
                    == "lockstep")
    else:
        line = next(cases)
    assert LINE.fullmatch(line), line


def test_the_whole_replay_output_is_pinned(tool):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert tool.main() == 0
    text = out.getvalue()
    assert text.count("\n") == 677
    assert hashlib.sha256(text.encode()).hexdigest() == REPLAY_SHA256
