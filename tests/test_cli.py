import json
import os
import random
import subprocess
import sys

import pytest

from consim.cli import _single_report, build_parser, main
from consim.functions import get_function, oracle
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


def test_run_out_writes_the_bytes_stdout_would_get(tmp_path, capsys):
    argv = ("run", "--algo", "ghs-token", "--topo", "star", "--n", "6",
            "--seed", "3")
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    path = tmp_path / "row.csv"
    assert run_cli(capsys, *argv, "--out", str(path)) == (0, "", "")
    assert path.read_bytes() == out.encode()


def test_init_values_reach_the_execution():
    args = build_parser(0).parse_args([
        "run", "--algo", "flooding", "--topo", "path", "--n", "3",
        "--fn", "max", "--bits", "16", "--init-values", "5,900,2"])
    _rows, trace = _single_report(args)
    assert set(trace.outputs.values()) == {900}


def test_seeded_vote_values_are_ballots():
    args = build_parser(0).parse_args([
        "run", "--algo", "ghs-parallel", "--topo", "complete", "--n", "7",
        "--fn", "vote:3", "--seed", "4"])
    _rows, trace = _single_report(args)
    rng = random.Random(4 ^ 0xA5A5)  # the CLI's seeded draw
    ballots = [rng.randrange(3) for _ in range(7)]
    want = oracle(get_function("vote:3", 768), ballots)
    assert set(trace.outputs.values()) == {want}


def test_run_writes_trace_jsonl(tmp_path, capsys):
    trace_file = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "run", "--algo", "ghs-token", "--topo",
                           "star", "--n", "6", "--fn", "max",
                           "--trace", str(trace_file))
    assert code == 0
    header, *records = [json.loads(ln)
                        for ln in trace_file.read_text().splitlines()]
    assert (header["kind"], header["schema"]) == ("header", 3)
    kinds = {r["kind"] for r in records}
    assert kinds == {"send", "deliver", "transition", "output"}
    first = list(next(r for r in records if r["kind"] == "send"))
    assert first[:6] == ["kind", "t", "node", "msg_type", "size_bits", "src"]


_WRITE_TRACES = """
import sys
from consim.cli import main
sys.exit(max(main(["run", "--algo", algo, "--m", "3", "--topo",
                   "random_connected", "--n", "12", "--sched", "random",
                   "--seed", "5", "--trace", f"{sys.argv[1]}/{algo}.jsonl"])
             for algo in ("hybrid", "ghs-token", "flooding")))
"""


def test_trace_files_replay_across_processes(tmp_path):
    # the bytes depend on nothing of the process: not the hash seed, and
    # not -O, which strips assert statements
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    files = []
    for flags, hashseed in (([], "0"), ([], "1"), (["-O"], "0")):
        out = tmp_path / f"{hashseed}{''.join(flags)}"
        out.mkdir()
        proc = subprocess.run(
            [sys.executable, *flags, "-c", _WRITE_TRACES, str(out)],
            env=dict(env, PYTHONHASHSEED=hashseed), capture_output=True,
            text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files.append({p.name: p.read_text() for p in sorted(out.iterdir())})
    assert len(files[0]) == 3
    assert all('"schema": 3' in text for text in files[0].values())
    assert files[0] == files[1] == files[2]


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


def test_sweep_worker_pool_gives_the_serial_csv(capsys):
    args = ("sweep", "--axis", "m", "--values", "1,2,3", "--algo", "hybrid",
            "--topo", "cycle", "--n", "9", "--fn", "max", "--sched", "random")
    _, serial, _ = run_cli(capsys, *args, "--workers", "1")
    code, pooled, _ = run_cli(capsys, *args, "--workers", "2")
    assert code == 0
    assert len(serial.splitlines()) == 4
    assert pooled == serial


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


@pytest.mark.parametrize("m_flags", [("--sweep-m", "0:12"), ("--m", "0"),
                                     ("--m", "11")])
def test_bounds_rejects_m_outside_one_to_n(capsys, m_flags):
    code, out, err = run_cli(capsys, "bounds", "--n", "10", *m_flags)
    assert code == 2
    assert "configuration error" in err and not out


@pytest.mark.parametrize("flags", [("--n", "0"), ("--n", "10", "--bits", "0"),
                                   ("--n", "10", "--d", "0"),
                                   ("--n", "10", "--d", "nan"),
                                   ("--n", "10", "--d", "inf")])
def test_bounds_rejects_n_b_d_out_of_range(capsys, flags):
    # also without --m: the fixed algorithms' rows are checked too
    code, out, err = run_cli(capsys, "bounds", *flags)
    assert code == 2
    assert err.startswith("configuration error:") and not out


def test_sweep_ghs_parallel_ceiling_is_the_convergecast_formula(capsys):
    # on a star the convergecast sends n-1 values inside one window, so its
    # ceiling is n (log n + b) / d, not the token traversal's
    code, out, _ = run_cli(capsys, "sweep", "--axis", "n", "--values", "20",
                           "--algo", "ghs-parallel", "--topo", "star",
                           "--fn", "max")
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    peak, ceil = float(row[10]), float(row[11])
    assert ceil == 20 * (5 + 768) / 0.01
    assert 0.5 <= peak / ceil <= 2.0


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


@pytest.mark.parametrize("at", ["0.001", "0.4099", "nan", "inf"])
def test_failure_before_the_consensus_ends_is_a_configuration_error(capsys,
                                                                    at):
    # the consensus of this run ends at 0.41000000000000003
    from consim.topology import make_topology
    u, v = sorted(make_topology("complete", 6, seed=2).uids)[:2]
    code, _, err = run_cli(capsys, "run", "--algo", "hybrid", "--m", "2",
                           "--topo", "complete", "--n", "6", "--seed", "2",
                           "--fail", f"{u},{v}", "--fail-at", at)
    assert code == 2
    assert "must be finite and not before" in err


def test_failure_at_the_printed_consensus_end_is_accepted(capsys):
    # the printed time_s is a float product k * d, which a time typed back
    # as --fail-at may round below
    from consim.topology import make_topology
    u, v = sorted(make_topology("complete", 6, seed=2).uids)[:2]
    argv = ["run", "--algo", "hybrid", "--m", "2", "--topo", "complete",
            "--n", "6", "--seed", "2"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    done = out.strip().splitlines()[1].split(",")[7]
    for at in (done, "%.2f" % float(done)):
        code, out, _ = run_cli(capsys, *argv, "--fail", f"{u},{v}",
                               "--fail-at", at)
        assert code == 0
        rows = [ln.split(",")[0] for ln in out.strip().splitlines()[1:]]
        assert rows == ["hybrid", "hybrid-repair", "hybrid-rerun"]


@pytest.mark.parametrize("at", [(), ("--fail-at", "0.41")])
def test_a_repair_that_takes_no_time_reports_zero(capsys, at):
    # the failure time (by default done + d) lies a rounding error off the
    # boundary, 0.42 or 0.41, at which the repair's transitions run
    code, out, _ = run_cli(capsys, "run", "--algo", "hybrid", "--m", "2",
                           "--topo", "complete", "--n", "6", "--seed", "2",
                           "--fail", "9,11", *at)
    assert code == 0
    assert out.strip().splitlines()[2] == \
        "hybrid-repair,complete,6,768,0.01,2,2,0.0,0,0.0,0.0"


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


def test_config_file_given_as_key_space_value(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("algo ghs-token\ntopo star\nn 5\nseed 8\n")
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    cells = out.strip().splitlines()[1].split(",")
    assert cells[:3] == ["ghs-token", "star", "5"] and cells[6] == "8"


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
    ("run", "--topo", "path", "--n", "3", "--fn", "vote:x"),
    ("run", "--topo", "path", "--n", "3", "--fn", "vote:"),
    ("run", "--topo", "path", "--n", "3", "--init-values", "1,2"),
    ("run", "--algo", "flooding", "--topo", "path", "--n", "3",
     "--fail", "1,2"),
    # a zero latency or worker count is refused, not replaced by a default
    ("run", "--topo", "path", "--n", "3", "--l", "0"),
    ("sweep", "--axis", "n", "--values", "3,4", "--topo", "path",
     "--workers", "0"),
    ("sweep", "--axis", "n", "--values", "3,4", "--topo", "path",
     "--workers", "-2"),
    # no floor on d keeps bits / d finite for every b
    ("run", "--algo", "flooding", "--topo", "path", "--n", "3",
     "--init-values", "5,9,2", "--bits", "8", "--d", "1e-320"),
])
def test_malformed_input_is_a_configuration_error(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("configuration error:")


@pytest.mark.parametrize("argv, text", [
    (("--bits", "0"), "bit budget must be positive"),
    (("--fn", "vote:1"), "vote needs at least two candidates"),
    (("--fn", "vote:3", "--bits", "2"),
     "bit budget too small for the candidate count"),
])
def test_a_function_refuses_its_parameters(capsys, argv, text):
    code, out, err = run_cli(capsys, "run", *argv)
    assert (code, out) == (2, "")
    assert err.strip() == f"configuration error: {text}"


def test_a_tally_that_outgrows_its_bits_fails_the_run(capsys):
    # a star's centre folds 7 ballots, more than a 1-bit tally holds
    code, out, err = run_cli(capsys, "run", "--fn", "vote:3", "--bits", "3",
                             "--algo", "ghs-parallel", "--topo", "star",
                             "--n", "8")
    assert (code, out) == (1, "")
    assert err.strip() == "error: tally overflow"


def test_zero_latency_in_a_config_file_is_a_configuration_error(tmp_path,
                                                                capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topo = path\nn = 3\nl = 0\n")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: timing parameters")
    # with no l at all, l is d/10
    cfg.write_text("topo = path\nn = 3\nd = 0.02\n")
    assert run_cli(capsys, "run", "--config", str(cfg),
                   "--trace", str(tmp_path / "t.jsonl"))[0] == 0
    head = json.loads((tmp_path / "t.jsonl").read_text().splitlines()[0])
    assert (head["d"], head["l"]) == (0.02, 0.002)


@pytest.mark.parametrize("argv", [
    ("run", "--topo", "path", "--n", "3", "--d", "nan"),
    ("run", "--topo", "path", "--n", "3", "--d", "inf"),
    ("run", "--topo", "path", "--n", "3", "--l", "nan"),
    ("run", "--topo", "path", "--n", "3", "--l", "inf"),
    # the cap keeps a run that would never converge short
    ("run", "--algo", "average", "--fn", "mean", "--topo", "path", "--n", "4",
     "--eps", "nan", "--event-cap", "2000"),
])
def test_non_finite_parameters_are_configuration_errors(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert err.startswith("configuration error:") and not out


@pytest.mark.parametrize("argv, text", [
    (("--fn", "vote:3", "--init-values", "0,1,5,1"), "ballot 5 out of range"),
    (("--bits", "4", "--init-values", "1,2,3,99"), "99 does not fit in 4 bits"),
])
def test_out_of_domain_init_values_are_configuration_errors(capsys, argv,
                                                           text):
    code, out, err = run_cli(capsys, "run", "--n", "4", "--topo", "path",
                             *argv)
    assert code == 2
    assert err.startswith("configuration error:") and text in err
    assert not out


@pytest.mark.parametrize("cap", ["0", "-5"])
def test_event_cap_below_one_is_a_configuration_error(capsys, cap):
    code, out, err = run_cli(capsys, "run", "--topo", "path", "--n", "3",
                             "--event-cap", cap)
    assert code == 2
    assert err.startswith("configuration error:") and "event cap" in err
    assert not out


SWEEP = ("sweep", "--axis", "m", "--values", "2,3", "--algo", "hybrid",
         "--topo", "cycle", "--n", "8", "--seed", "0")


@pytest.mark.parametrize("flag", [("--fail", "1,5"), ("--fail-at", "0.5")])
def test_sweep_has_no_failure_flags(capsys, flag):
    with pytest.raises(SystemExit) as exc:
        main([*SWEEP, *flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_sweep_ignores_a_config_fail_entry(tmp_path, capsys, monkeypatch):
    from consim import cli
    from consim.topology import make_topology
    u, v = sorted(make_topology("cycle", 8, seed=0).edges)[0]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"fail = {u},{v}\nfail-at = 0.5\n")
    _, plain, _ = run_cli(capsys, *SWEEP)

    def no_failure_experiment(*args, **kwargs):
        raise AssertionError("a sweep ran a failure experiment")

    monkeypatch.setattr(cli, "FailureExperiment", no_failure_experiment)
    code, out, _ = run_cli(capsys, *SWEEP, "--config", str(cfg))
    assert code == 0
    assert out == plain


@pytest.mark.parametrize("command", [("run",), SWEEP])
def test_misspelt_config_key_is_a_configuration_error(tmp_path, capsys,
                                                      command):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topo = path\nn = 4\nseeds = 4\n")
    code, out, err = run_cli(capsys, *command, "--config", str(cfg))
    assert code == 2
    assert err.startswith("configuration error:") and "seeds" in err
    assert not out


def test_unknown_algorithm_in_a_config_file_is_a_configuration_error(
        tmp_path, capsys):
    # argparse checks a flag against its choices, but not a file's default
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("algo = nosuch\ntopo = path\nn = 4\n")
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert err.startswith("configuration error: unknown algorithm 'nosuch'")
    assert not out


# -- consim analyze: a schema-3 trace file read back -------------------------

def _algorithm_scheduler_cases():
    from consim.algorithms import ALGORITHMS
    from consim.engine import SCHEDULERS
    for algo in sorted(ALGORITHMS):
        # averaging is round-driven and runs under lockstep only
        for sched in ["lockstep"] if algo == "average" else sorted(SCHEDULERS):
            yield algo, sched


@pytest.mark.parametrize("algo, sched", _algorithm_scheduler_cases())
def test_analyze_reproduces_the_run_row(tmp_path, capsys, algo, sched):
    path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "run", "--algo", algo, "--m", "3",
                           "--topo", "random_connected", "--n", "10",
                           "--fn", "mean" if algo == "average" else "max",
                           "--sched", sched, "--seed", "5",
                           "--trace", str(path))
    assert code == 0
    assert run_cli(capsys, "analyze", str(path)) == (0, out, "")


@pytest.mark.parametrize("sched", ["lockstep", "random", "adversarial"])
def test_analyze_reproduces_the_rerun_row_of_a_failure_run(tmp_path, capsys,
                                                           sched):
    from consim.topology import make_topology
    u, v = sorted(make_topology("complete", 7, seed=2).uids)[:2]
    path = tmp_path / "trace.jsonl"
    code, out, _ = run_cli(capsys, "run", "--algo", "hybrid", "--m", "2",
                           "--topo", "complete", "--n", "7", "--fn", "max",
                           "--sched", sched, "--seed", "2",
                           "--fail", f"{u},{v}", "--trace", str(path))
    assert code == 0
    header, *rows = out.splitlines()
    assert rows[-1].startswith("hybrid-rerun,")
    assert run_cli(capsys, "analyze", str(path)) == (
        0, f"{header}\n{rows[-1]}\n", "")


def _hybrid_records(tmp_path, capsys):
    """The header and records of a lockstep hybrid trace on K6, which holds
    tagged messages."""
    path = tmp_path / "trace.jsonl"
    assert run_cli(capsys, "run", "--algo", "hybrid", "--m", "2", "--topo",
                   "complete", "--n", "6", "--fn", "max", "--seed", "1",
                   "--trace", str(path))[0] == 0
    return [json.loads(ln) for ln in path.read_text().splitlines()]


def _first(records, **match):
    return next(i for i, r in enumerate(records)
                if all(r.get(k) == v for k, v in match.items()))


def _last(records, kind):
    return max(i for i, r in enumerate(records) if r["kind"] == kind)


def _sends(records):
    return [r for r in records if r["kind"] == "send"]


def _tagged_copy(records):
    sends = _sends(records)
    return next(i for i, r in enumerate(records) if r["kind"] == "deliver"
                and sends[r["ref"]].get("dst") is not None)


def _untagged_copy(records):
    sends = _sends(records)
    return next(i for i, r in enumerate(records) if r["kind"] == "deliver"
                and sends[r["ref"]].get("dst") is None)


def _mutate(records, how):
    r = [dict(rec) for rec in records]
    if how == "order":  # the last output first
        r.insert(1, r.pop(_last(r, "output")))
    elif how == "window":  # the last send again at once: no ref moves
        i = _last(r, "send")
        r.insert(i + 1, dict(r[i]))
    elif how == "missing copy":
        del r[_untagged_copy(r)]
    elif how == "copy twice":
        i = _untagged_copy(r)
        r.insert(i + 1, dict(r[i]))
    elif how == "copy swapped":  # one receiver twice, another not at all
        i = _untagged_copy(r)
        r[i]["node"] = r[i + 1]["node"]
    elif how == "other send":
        i = _untagged_copy(r)
        r[i]["ref"] = next(j for j, send in enumerate(_sends(r))
                           if send["t"] < r[i]["t"] and j != r[i]["ref"])
    elif how == "late reaction":
        rec = r.pop(_first(r, kind="transition",
                           ref=r[_untagged_copy(r)]["ref"]))
        rec["t"] += 0.0015  # l is 0.001
        r.insert(next(i for i in range(1, len(r)) if r[i]["t"] > rec["t"]),
                 rec)
    elif how == "foreign copy":
        i = _tagged_copy(r)
        dst = _sends(r)[r[i]["ref"]]["dst"]
        r[i]["node"] = next(n for n in range(64) if n != dst)
    elif how == "unknown ref":
        r[_untagged_copy(r)]["ref"] = len(_sends(r))
    elif how == "boolean ref":  # not the send of ordinal 1
        r[_first(r, kind="transition", ref=1)]["ref"] = True
    elif how == "fan-out":
        _sends(r)[r[_untagged_copy(r)]["ref"]]["fanout"] -= 1
    elif how == "output twice":
        r.append(dict(r[_first(r, kind="output")], t=r[-1]["t"]))
    elif how == "header count":
        r[0]["messages"] += 1
    elif how == "no output":
        del r[_first(r, kind="output")]
    elif how == "output off the graph":
        r[_first(r, kind="output")]["node"] = max(r[0]["uids"]) + 1
    elif how == "kick off the graph":  # a start transition names no send
        i = next(i for i, rec in enumerate(r)
                 if rec["kind"] == "transition" and "ref" not in rec)
        r[i]["node"] = max(r[0]["uids"]) + 1
    elif how == "send from another node":
        send = _sends(r)[0]
        send["src"] = next(u for u in r[0]["uids"] if u != send["node"])
    elif how == "record before the start":
        r[0]["start_time"] = 1e308
    return r


@pytest.mark.parametrize("how, text", [
    ("order", "out of chronological order"),
    ("window", "inside an earlier window"),
    ("missing copy", "it never got as a recipient"),
    ("copy twice", "twice"),
    ("copy swapped", "twice"),
    ("other send", "outside (0, d]"),
    ("late reaction", "exceeds l"),
    ("foreign copy", "recorded at node"),
    ("unknown ref", "deliver references an unknown send"),
    ("boolean ref", "transition references an unknown send"),
    ("fan-out", "delivered 5/4 times"),
    ("output twice", "output twice"),
    ("header count", "the totals count"),
    ("no output", "nodes produced an output"),
    ("output off the graph", "not in the graph"),
    ("kick off the graph", "transition at node"),
    ("send from another node", "a send at node"),
    ("record before the start", "out of chronological order"),
])
def test_analyze_fails_a_broken_check_with_exit_1(tmp_path, capsys, how,
                                                  text):
    records = _hybrid_records(tmp_path, capsys)
    path = tmp_path / "broken.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run_cli(capsys, "analyze", str(path))[0] == 0
    path.write_text("".join(json.dumps(r) + "\n"
                            for r in _mutate(records, how)))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error:") and text in err


@pytest.mark.parametrize("how", ["schema 1", "empty", "old schema",
                                 "not json", "no time", "unknown kind",
                                 "NaN time", "NaN start", "Infinity time",
                                 "string start", "null start", "boolean d",
                                 "list m", "string seed", "boolean seed",
                                 "integer topology", "object fn",
                                 "float messages", "boolean bits",
                                 "float uid_bits", "float value_bits",
                                 "integer msg_type", "float src",
                                 "boolean size_bits", "boolean t",
                                 "string fanout", "string dst"])
def test_analyze_refuses_other_files_with_exit_2(tmp_path, capsys, how):
    records = _hybrid_records(tmp_path, capsys)
    lines = [json.dumps(r) for r in records]
    if how == "schema 1":
        lines = lines[1:]
    elif how == "empty":
        lines = []
    elif how == "old schema":
        lines[0] = json.dumps(dict(records[0], schema=1))
    elif how == "not json":
        lines[3] = lines[3][:-1]
    elif how == "no time":
        lines[3] = json.dumps({k: v for k, v in records[3].items()
                               if k != "t"})
    elif how == "unknown kind":
        lines[3] = json.dumps(dict(records[3], kind="drop"))
    elif how == "NaN time":  # json.dumps writes NaN, which is not JSON
        lines[-1] = json.dumps(dict(records[-1], t=float("nan")))
    elif how == "NaN start":
        lines[0] = json.dumps(dict(records[0], start_time=float("nan")))
    elif how == "Infinity time":
        lines[-1] = json.dumps(dict(records[-1], t=float("inf")))
    elif how == "string start":
        lines[0] = json.dumps(dict(records[0], start_time="x"))
    elif how == "null start":
        lines[0] = json.dumps(dict(records[0], start_time=None))
    elif how == "boolean d":
        lines[0] = json.dumps(dict(records[0], d=True))
    elif how == "list m":
        lines[0] = json.dumps(dict(records[0], m=[1]))
    elif how == "string seed":
        lines[0] = json.dumps(dict(records[0], seed="abc"))
    elif how == "boolean seed":
        lines[0] = json.dumps(dict(records[0], seed=True))
    elif how == "integer topology":
        lines[0] = json.dumps(dict(records[0], topology=7))
    elif how == "object fn":
        lines[0] = json.dumps(dict(records[0], fn={"x": 1}))
    elif how == "float messages":
        lines[0] = json.dumps(dict(records[0],
                                   messages=float(records[0]["messages"])))
    elif how == "boolean bits":
        lines[0] = json.dumps(dict(records[0], bits=True))
    elif how in ("float uid_bits", "float value_bits"):
        # a float value_bits still equals b; only its type is wrong
        key = how.split()[1]
        sm = records[0]["size_model"]
        lines[0] = json.dumps(dict(records[0], size_model=dict(
            sm, **{key: sm[key] + (0.5 if key == "uid_bits" else 0.0)})))
    elif how == "boolean t":
        lines[3] = json.dumps(dict(records[3], t=True))
    else:  # a send's field
        i = _first(records, kind="send")
        if how == "string fanout":
            i = next(i for i, r in enumerate(records)
                     if r["kind"] == "send" and "dst" not in r)
        field, value = {"integer msg_type": ("msg_type", 3),
                        "float src": ("src", float(records[i]["src"])),
                        "boolean size_bits": ("size_bits", True),
                        "string fanout": ("fanout", "5"),
                        "string dst": ("dst", "1")}[how]
        lines[i] = json.dumps(dict(records[i], **{field: value}))
    path = tmp_path / "other.jsonl"
    path.write_text("".join(ln + "\n" for ln in lines))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: not a schema-3 trace")


@pytest.mark.parametrize("where", ["header", "record"])
def test_analyze_refuses_a_node_outside_32_bits(tmp_path, capsys, where):
    # the header's largest uid, and every record at it, or one record only
    records = _hybrid_records(tmp_path, capsys)
    head, wide = records[0], 1 << 31
    top = max(head["uids"])
    if where == "header":
        head["uids"] = [wide if u == top else u for u in head["uids"]]
        head["edges"] = [[wide if u == top else u for u in e]
                         for e in head["edges"]]
        for r in records[1:]:
            for k in ("node", "src", "dst"):
                if r.get(k) == top:
                    r[k] = wide
    else:
        records[_last(records, "output")]["node"] = wide
    path = tmp_path / "wide.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: not a schema-3 trace")
    assert f"{wide}, not a 32-bit int" in err


def test_analyze_refuses_a_header_whose_fields_are_invalid(tmp_path, capsys):
    records = _hybrid_records(tmp_path, capsys)
    records[0]["d"] = -1
    path = tmp_path / "bad-header.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("configuration error: not a schema-3 trace: "
                          "its header: timing parameters")


@pytest.mark.parametrize("how, text", [
    ("duplicate uid", "duplicate UIDs"),
    ("self loop", "self loop"),
    ("unknown uid", "edge references unknown UID"),
    ("reversed edge", "edges must be stored as (min, max)"),
    # fields that restate the graph and the size model
    ("node count", "n is 99, not 6"),
    ("value bits", "b is 1234, not 768"),
    ("flag bits", "flag_bits is 9, not 8"),
])
def test_analyze_refuses_a_header_whose_graph_is_invalid(tmp_path, capsys,
                                                         how, text):
    records = _hybrid_records(tmp_path, capsys)
    head = records[0]
    uids, (a, b), *rest = head["uids"], *head["edges"]
    if how == "node count":
        head["n"] = 99
    elif how == "value bits":
        head["b"] = 1234
    elif how == "flag bits":
        head["size_model"]["flag_bits"] = 9
    elif how == "duplicate uid":
        head["uids"] = uids[:-1] + [uids[0]]
    elif how == "self loop":
        head["edges"].append([a, a])
    elif how == "unknown uid":
        head["edges"].append([a, max(uids) + 1])
    else:
        head["edges"] = [[b, a], *rest]
    path = tmp_path / "bad-graph.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = run_cli(capsys, "analyze", str(path))
    assert (code, out) == (2, "")
    assert err.strip() == ("configuration error: not a schema-3 trace: "
                           f"its header: {text}")
