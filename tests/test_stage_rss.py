"""`tools/stage_rss.py` gives the memory after each stage of a benchmark
execution; it must keep running against the package and the benchmark's
generators as they stand."""

import subprocess
import sys
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "stage_rss.py"
STAGES = ["make_topology", "Simulation", "run", "report_from_trace",
          "peak_bandwidth_by_phase", "validate_trace", "to_jsonl"]


@pytest.mark.parametrize("workload", ["flood-async", "average-lean"])
def test_stage_rss_prints_every_stage(workload):
    proc = subprocess.run([sys.executable, str(TOOL), workload, "--small"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    head, *lines = proc.stdout.splitlines()
    assert head.split() == ["stage", "rss_mb", "maxrss_mb"]
    rows = [line.split() for line in lines]
    assert [name for name, _, _ in rows] == STAGES
    for _, rss, peak in rows:
        assert rss == "-" or 0 < float(rss)
        assert 0 < float(peak)
