"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


def _fast(extra):
    """Common fast flags appended to a command line."""
    return extra + ["--n", "7", "--rate", "30", "--duration", "0.8",
                    "--warmup", "0.6", "--drain", "2.0", "--seed", "3"]


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_command(capsys):
    assert main(_fast(["run", "--setup", "semantic"])) == 0
    out = capsys.readouterr().out
    assert "semantic" in out
    assert "avg ms" in out


def test_run_census_prints_time_per_callback(capsys):
    assert main(_fast(["run", "--setup", "semantic", "--loss", "0.05",
                       "--census"])) == 0
    out = capsys.readouterr().out
    assert "run-loop census" in out
    assert "DirectedLink._arrive" in out
    assert "> DirectedLink._arrive -> loss hook" in out
    assert "(loop itself)" in out


def test_run_rejects_bad_setup():
    with pytest.raises(SystemExit):
        main(["run", "--setup", "bogus"])


def test_compare_command(capsys):
    assert main(_fast(["compare"])) == 0
    out = capsys.readouterr().out
    for setup in ("baseline", "gossip", "semantic"):
        assert setup in out


def test_sweep_command(capsys):
    assert main(_fast(["sweep", "--setup", "gossip",
                       "--rates", "20,40"])) == 0
    out = capsys.readouterr().out
    assert "(saturation)" in out


def test_overlays_command(capsys):
    assert main(_fast(["overlays", "--count", "4"])) == 0
    out = capsys.readouterr().out
    assert "(median)" in out
    assert "median RTT ms" in out


def test_reliability_command(capsys):
    assert main(_fast(["reliability", "--losses", "0.0,0.3",
                       "--rates", "30", "--runs", "1"])) == 0
    out = capsys.readouterr().out
    assert "gossip" in out
    assert "semantic" in out


def test_raft_protocol_flag(capsys):
    assert main(_fast(["run", "--setup", "gossip",
                       "--protocol", "raft"])) == 0
    assert "raft" in capsys.readouterr().out


def test_strategy_flag(capsys):
    assert main(_fast(["run", "--setup", "gossip",
                       "--strategy", "push-pull"])) == 0


def test_loss_and_retransmit_flags(capsys):
    assert main(_fast(["run", "--setup", "gossip", "--loss", "0.1",
                       "--retransmit", "0.4"])) == 0


def _chaos(extra):
    """Fast chaos flags: one small scenario run."""
    return ["chaos"] + extra + ["--n", "7", "--rate", "30",
                                "--duration", "1.0", "--warmup", "0.5",
                                "--drain", "2.5"]


def test_chaos_command_single_scenario(capsys):
    assert main(_chaos(["--scenario", "partition-heal",
                        "--setups", "gossip"])) == 0
    out = capsys.readouterr().out
    assert "partition-heal" in out
    assert "ok" in out
    assert "violations" in out


def test_chaos_command_skips_unsupported_pairs(capsys):
    assert main(_chaos(["--scenario", "coordinator-crash",
                        "--setups", "baseline"])) == 0
    assert "skipped" in capsys.readouterr().out


def test_chaos_command_multiple_seeds(capsys):
    assert main(_chaos(["--scenario", "gray-coordinator",
                        "--setups", "gossip", "--seeds", "1,2"])) == 0
    out = capsys.readouterr().out
    assert out.count("gray-coordinator") == 2


def test_chaos_command_rejects_unknown_scenario(capsys):
    code = main(_chaos(["--scenario", "nonexistent", "--setups", "gossip"]))
    assert code == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_chaos_command_accepts_comma_separated_scenarios(capsys):
    code = main(_chaos(["--scenario", "partition-heal,burst-loss",
                        "--setups", "gossip"]))
    assert code == 0
    out = capsys.readouterr().out
    assert "partition-heal" in out
    assert "burst-loss" in out
    assert "gray-coordinator" not in out


def test_compare_workers_flag_output_identical(capsys):
    """--workers must be invisible in the printed values."""
    assert main(_fast(["compare", "--workers", "1"])) == 0
    serial = capsys.readouterr().out
    assert main(_fast(["compare", "--workers", "2"])) == 0
    assert capsys.readouterr().out == serial


def test_reliability_workers_flag_output_identical(capsys):
    args = _fast(["reliability", "--losses", "0.0,0.3",
                  "--rates", "30", "--runs", "1"])
    assert main(args + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "4"]) == 0
    assert capsys.readouterr().out == serial


def test_chaos_workers_flag_output_identical(capsys):
    args = _chaos(["--scenario", "partition-heal", "--setups", "gossip",
                   "--seeds", "1,2"])
    assert main(args + ["--workers", "1"]) == 0
    serial = capsys.readouterr().out
    assert main(args + ["--workers", "2"]) == 0
    assert capsys.readouterr().out == serial


def test_trace_rejects_unknown_scenario_listing_known_names(capsys):
    assert main(["trace", "bogus"]) == 2
    err = capsys.readouterr().err
    assert "unknown scenario 'bogus'" in err
    for name in ("fig7_overlay", "churn_leader", "gossip_n1000"):
        assert name in err


def test_trace_check_inert_writes_a_valid_jsonl_trace(tmp_path, capsys):
    from repro.obs import validate_jsonl

    path = tmp_path / "trace.jsonl"
    assert main(["trace", "fig7_overlay", "--check-inert",
                 "--jsonl", str(path)]) == 0
    assert "check-inert: ok" in capsys.readouterr().out
    assert validate_jsonl(path.read_text())
