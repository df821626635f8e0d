"""End-to-end tests for the ``repro check`` CLI subcommand."""

import json
import os

import repro
from repro.cli import main


def package_dir():
    return os.path.dirname(os.path.abspath(repro.__file__))


def test_lint_on_shipped_tree_exits_zero(capsys):
    assert main(["check", "--lint", package_dir()]) == 0
    assert "lint: clean" in capsys.readouterr().out


def test_lint_flags_wall_clock_fixture(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("import time\nstart = time.time()\n")
    assert main(["check", "--lint", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "wall-clock" in out
    assert "fixture.py:2" in out


def test_lint_flags_stray_random_fixture(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "import random as _random\nrng = _random.Random(0)\n"
    )
    assert main(["check", "--lint", str(fixture)]) == 1
    out = capsys.readouterr().out
    assert "global-random" in out
    assert "Random" in out


def test_lint_json_report(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text("def f(xs=[]): return xs\n")
    assert main(["check", "--lint", "--json", str(fixture)]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["lint"]["count"] == 1
    assert payload["lint"]["findings"][0]["rule"] == "mutable-default"


def test_missing_path_is_a_clean_usage_error(tmp_path, capsys):
    code = main(["check", "--lint", str(tmp_path / "nope.py")])
    assert code == 2
    assert "no such path" in capsys.readouterr().err


def test_suppressed_fixture_is_clean(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "import time  # repro: allow-wall-clock\n"
        "t = time.time()  # repro: allow-wall-clock\n"
    )
    assert main(["check", "--lint", str(fixture)]) == 0
    assert "lint: clean (1 suppressed)" in capsys.readouterr().out


def test_suppressions_counted_in_json(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "import time\n"
        "t = time.time()  # repro: allow-wall-clock\n"
    )
    assert main(["check", "--lint", "--json", str(fixture)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True          # suppressions never fail a run
    assert payload["lint"]["count"] == 0
    assert payload["lint"]["suppressed"] == 1
    assert payload["lint"]["suppressions"][0]["rule"] == "wall-clock"
    assert payload["lint"]["suppressions"][0]["line"] == 2


def test_new_rules_reachable_from_cli(tmp_path, capsys):
    fixture = tmp_path / "fixture.py"
    fixture.write_text(
        "import heapq\n"
        "def f(h, x): heapq.heappush(h, (id(x), x))\n")
    assert main(["check", "--lint", str(fixture)]) == 1
    assert "identity-tie-break" in capsys.readouterr().out


def test_unknown_race_scenario_is_a_usage_error(capsys):
    assert main(["check", "--race", "nope"]) == 2
    err = capsys.readouterr().err
    assert "unknown race scenario" in err
    assert "synthetic-tiebreak" in err


def test_bad_hash_seeds_is_a_usage_error(capsys):
    assert main(["check", "--race", "synthetic-tiebreak",
                 "--hash-seeds", "7"]) == 2
    assert "at least two seeds" in capsys.readouterr().err


def test_race_divergence_exits_one_text_and_json(capsys):
    # Text reporter.
    assert main(["check", "--race", "synthetic-tiebreak"]) == 1
    out = capsys.readouterr().out
    assert "DIVERGED" in out
    assert "0/1 scenario clean" in out
    # JSON reporter: same exit code, machine-readable envelope.
    assert main(["check", "--race", "synthetic-tiebreak", "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert payload["race"]["diverged"] == 1
    assert payload["race"]["reports"][0]["scenario"] == "synthetic-tiebreak"
    assert len(payload["race"]["reports"][0]["divergence"]["tie_group"]
               ["members"]) >= 2


def test_race_clean_pair_exits_zero(capsys):
    code = main(["check", "--race", "synthetic-tiebreak",
                 "--hash-seeds", "0,0"])
    assert code == 0
    assert "clean across hash seeds 0,0" in capsys.readouterr().out


def test_invariants_pass_on_seeded_run(capsys):
    code = main([
        "check", "--invariants",
        "--n", "5", "--rate", "20", "--duration", "0.5", "--seed", "3",
    ])
    assert code == 0
    assert "invariants: clean" in capsys.readouterr().out


def test_combined_json_envelope(tmp_path, capsys):
    fixture = tmp_path / "clean.py"
    fixture.write_text("x = 1\n")
    code = main([
        "check", "--json",
        "--n", "5", "--rate", "20", "--duration", "0.5",
        str(fixture),
    ])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["lint"]["count"] == 0
    assert payload["invariants"]["count"] == 0
    assert set(payload["invariant_runs"]) == {"gossip", "semantic",
                                              "semantic_raft"}
    for summary in payload["invariant_runs"].values():
        assert summary["instances_decided"] > 0
        assert summary["violations"] == 0
