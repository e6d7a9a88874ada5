import json
import os

import pytest

from consim.cli import main
from consim.metrics import CSV_HEADER


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_run_emits_report_row(capsys):
    code, out, _ = run_cli(capsys, "run", "--algo", "flooding", "--topo",
                           "complete", "--n", "4", "--fn", "max",
                           "--seed", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER
    cells = lines[1].split(",")
    assert cells[0] == "flooding"
    assert cells[1] == "complete"
    assert cells[2] == "4"


def test_run_writes_trace_jsonl(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "run", "--algo", "ghs-token", "--topo",
                           "star", "--n", "6", "--fn", "max",
                           "--trace", str(trace_file))
    assert code == 0
    records = [json.loads(ln) for ln in trace_file.read_text().splitlines()]
    kinds = {r["kind"] for r in records}
    assert kinds == {"send", "deliver", "transition", "output"}
    first = list(records[0])
    assert first[:6] == ["kind", "t", "node", "msg_type", "size_bits", "src"]


def test_identical_configs_identical_csv(tmp_path, capsys):
    args = ("run", "--algo", "hybrid", "--m", "2", "--topo", "cycle", "--n",
            "10", "--fn", "max", "--seed", "7")
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_sweep_over_m_appends_bound_columns(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--axis", "m", "--values", "1,2,4",
                           "--algo", "hybrid", "--topo", "cycle", "--n", "12",
                           "--fn", "max")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == CSV_HEADER + ",bound_ceil_bps,bound_exact_bps"
    assert len(lines) == 4
    ms = [ln.split(",")[5] for ln in lines[1:]]
    assert ms == ["1", "2", "4"]


def test_sweep_axis_b_scales_flooding_peak_linearly(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--axis", "b", "--values",
                           "64,768,4096", "--algo", "flooding", "--topo",
                           "complete", "--n", "8", "--fn", "max")
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    peaks = [float(r[10]) for r in rows]
    bits = [int(r[3]) for r in rows]
    # peak tracks b once the per-pair identifier overhead is subtracted
    for (b1, p1), (b2, p2) in zip(zip(bits, peaks), zip(bits[1:], peaks[1:])):
        assert p2 > p1
        ratio = p2 / p1
        assert ratio == pytest.approx(b2 / b1, rel=0.2)


def test_bounds_table(capsys):
    code, out, _ = run_cli(capsys, "bounds", "--n", "100", "--bits", "768",
                           "--d", "0.01", "--sweep-m", "1:5")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("mode,algo,")
    hybrid_rows = [ln for ln in lines if ",hybrid," in ln]
    assert len(hybrid_rows) == 10  # five m values, two modes


def test_failure_injection_rows(capsys):
    code, out, _ = run_cli(capsys, "run", "--algo", "hybrid", "--m", "2",
                           "--topo", "complete", "--n", "6", "--fn", "max",
                           "--seed", "1", "--fail", "auto")
    # "auto" is not a valid edge spec: configuration error
    assert code == 2


def test_failure_injection_happy_path(capsys):
    # pick an edge of K6 that is certainly present: any pair of UIDs
    from consim.topology import make_topology
    g = make_topology("complete", 6, seed=1)
    u, v = sorted(g.uids)[:2]
    code, out, _ = run_cli(capsys, "run", "--algo", "hybrid", "--m", "2",
                           "--topo", "complete", "--n", "6", "--fn", "max",
                           "--seed", "1", "--fail", f"{u},{v}")
    assert code == 0
    algos = [ln.split(",")[0] for ln in out.strip().splitlines()[1:]]
    assert algos == ["hybrid", "hybrid-repair", "hybrid-rerun"]


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("algo = flooding\ntopo = complete\nn = 5\nfn = max\n"
                   "# a comment\nseed = 9\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--n", "7")
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert cells[0] == "flooding"
    assert cells[2] == "7"   # flag beats file
    assert cells[6] == "9"   # file beats default


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("CONSIM_SEED", "41")
    code, out, _ = run_cli(capsys, "run", "--algo", "flooding", "--topo",
                           "path", "--n", "3", "--fn", "max")
    assert code == 0
    assert out.strip().splitlines()[1].split(",")[6] == "41"


def test_config_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "run", "--algo", "average", "--topo",
                           "path", "--n", "4", "--fn", "max")
    assert code == 2
    assert "configuration error" in err
    code, _, err = run_cli(capsys, "run", "--algo", "hybrid", "--m", "9",
                           "--topo", "path", "--n", "4", "--fn", "max")
    assert code == 2
    code, _, err = run_cli(capsys, "run", "--algo", "ghs-token", "--topo",
                           "path", "--n", "4", "--fn", "median")
    assert code == 2


def test_validate_single_suite(capsys):
    code, out, _ = run_cli(capsys, "validate", "invariants")
    assert code == 0
    assert "checks passed" in out
    assert all(ln.startswith(("PASS", "FAIL")) or "checks passed" in ln
               for ln in out.strip().splitlines())


def test_config_file_given_with_equals_sign(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("algo = ghs-token\ntopo = star\nn = 5\n")
    code, out, _ = run_cli(capsys, "run", f"--config={cfg}")
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert cells[:3] == ["ghs-token", "star", "5"]


def test_config_flag_without_a_value_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config"])
    assert exc.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_config_file_values_are_converted_like_flags(tmp_path, capsys):
    from consim.topology import make_topology
    u, v = sorted(make_topology("complete", 6, seed=1).uids)[:2]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"algo = hybrid\nm = 2\ntopo = complete\nn = 6\n"
                   f"seed = 1\nfail = {u},{v}\nfail-at = 0.5\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    rows = [ln.split(",") for ln in out.strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["hybrid", "hybrid-repair", "hybrid-rerun"]


@pytest.mark.parametrize("argv", [
    ("sweep", "--axis", "m", "--values", "1:x", "--algo", "hybrid",
     "--topo", "cycle", "--n", "6"),
    ("run", "--topo", "path", "--n", "3", "--init-values", "1,a,3"),
    ("run", "--topo", "path", "--n", "3", "--bits", "1"),
])
def test_malformed_input_is_a_configuration_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("configuration error:")
