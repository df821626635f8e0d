"""Smoke tests for the example scripts (the fast ones).

The heavier examples (multi_domain_ledger, failure_injection) exercise the
same code paths as the integration tests and benchmarks; running them here
would only slow the suite down.
"""

import pathlib
import runpy
import sys

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


def _run_example(name, capsys):
    sys.argv = [name]
    runpy.run_path(str(EXAMPLES / name), run_name="__main__")
    return capsys.readouterr().out


def test_custom_semantics_example(capsys):
    out = _run_example("custom_semantics.py", capsys)
    assert "converged=True" in out
    assert "traffic saved" in out


def test_quickstart_example(capsys):
    out = _run_example("quickstart.py", capsys)
    for setup in ("baseline", "gossip", "semantic"):
        assert setup in out
    assert "avg lat (ms)" in out


def test_coordinator_failover_example(capsys):
    out = _run_example("coordinator_failover.py", capsys)
    assert "took over with round" in out
    assert "(Phase 1 complete: True)" in out
    assert "zero safety violations" in out


def test_all_examples_importable():
    """Every example at least parses and imports cleanly."""
    for path in sorted(EXAMPLES.glob("*.py")):
        source = path.read_text()
        compile(source, str(path), "exec")
