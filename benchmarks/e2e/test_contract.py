"""The benchmark's contract with ``BENCHMARK.json`` and with itself.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e -q``; not part of
the tier-1 ``testpaths``.
"""

import ast
import json
import pathlib
import re

import pytest

from benchmarks.e2e import cli, spec
from benchmarks.e2e.measure import Host, WorkloadRun
from benchmarks.e2e.workloads import OVERLAY_SEED, WORKLOADS, Workload

HERE = pathlib.Path(__file__).resolve().parent
MANIFEST = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture
def short_knee(monkeypatch):
    """semantic_knee_n13 cut to a sixth: same code paths, ~20k events."""
    full = WORKLOADS["semantic_knee_n13"]
    short = Workload(full.name, full.why, dict(full.fields, duration=0.1))
    monkeypatch.setitem(WORKLOADS, full.name, short)
    return short


def test_names_and_sizes():
    names = [w["name"] for w in MANIFEST["workloads"]]
    names += [m["name"] for m in MANIFEST["end_to_end"] + MANIFEST["per_layer"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert len(MANIFEST["workloads"]) == 5
    assert len(MANIFEST["end_to_end"]) <= 16
    assert len(MANIFEST["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in MANIFEST["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= (
        MANIFEST["end_to_end"][0].items())


def test_manifest_is_the_spec_tables():
    assert MANIFEST == spec.manifest(MANIFEST["run_seconds"],
                                     MANIFEST["command"])


def test_moves_name_real_metrics_and_workloads():
    end_to_end = {m["name"] for m in spec.END_TO_END}
    for metric in spec.PER_LAYER:
        moves = metric["moves"]
        assert moves["metrics"] and moves["workloads"], metric["name"]
        assert set(moves["metrics"]) <= end_to_end, metric["name"]
        assert set(moves["workloads"]) <= set(WORKLOADS), metric["name"]


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_output_names_are_the_manifest_names(short_knee, capsys, trace, group):
    code = cli.main(["--workload", short_knee.name, "--seed", "3",
                     "--seconds", "0.2", "--trace", str(trace)])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = {m["name"]: m["unit"] for m in MANIFEST[group]}
    printed = {name: entry["unit"]
               for name, entry in result["metrics"].items()}
    assert printed == declared


def test_two_runs_give_identical_counts_and_digest(short_knee):
    observed = []
    for _ in range(2):
        run = WorkloadRun(short_knee, 3, OVERLAY_SEED, Host())
        run.check()
        assert run.correct, run.problems
        observed.append((run.reference.digest, run.reference.counts))
    assert observed[0] == observed[1]
    other = WorkloadRun(short_knee, 4, OVERLAY_SEED, Host())
    other.check()
    assert other.reference.digest != observed[0][0]


def test_calibration_kernel_imports_nothing_from_repro():
    tree = ast.parse((HERE / "calib.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
    assert imported == {"gc", "time", "heapq"}
