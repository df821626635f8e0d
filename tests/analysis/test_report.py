"""Tests for the EXPERIMENTS.md generator."""

import json
import pathlib

import pytest

from repro.analysis.report import render


def _write(results_dir, name, payload):
    with open(results_dir / "{}.json".format(name), "w") as fh:
        json.dump(payload, fh)


@pytest.fixture
def results_dir(tmp_path):
    return tmp_path


def test_render_empty_results_dir(results_dir):
    text = render(results_dir)
    assert "EXPERIMENTS" in text
    assert "Known deviations" in text


def test_render_table1(results_dir):
    _write(results_dir, "table1_wan_latencies", {
        "paper_ms": {"canada": 7.0},
        "measured_ms": {"canada": 7.0},
    })
    text = render(results_dir)
    assert "Table 1" in text
    assert "| canada | 7 | 7 |" in text


def test_render_fig3_fig4(results_dir):
    point = {
        "rate": 50, "throughput": 50.0, "avg_latency_ms": 250.0,
        "p99_latency_ms": 300.0, "not_ordered_fraction": 0.0,
        "received_total": 1000, "received_regular_mean": 80.0,
        "received_coordinator": 100, "duplicate_fraction": 0.7,
        "filtered": 0, "aggregated_saved": 0, "delivered": 500,
    }
    baseline_point = dict(point, avg_latency_ms=200.0)
    _write(results_dir, "fig3_overall_performance", {
        "scale": "quick",
        "data": {
            "{}-13".format(setup): {
                "points": [dict(baseline_point if setup == "baseline"
                                else point)],
                "saturation_index": 0,
            }
            for setup in ("baseline", "gossip", "semantic")
        },
    })
    _write(results_dir, "fig4_saturation_throughput", {
        "scale": "quick",
        "data": {"13": {
            "throughputs": {"baseline": 100, "gossip": 60, "semantic": 70},
            "gossip_below_baseline": 0.4,
            "semantic_over_gossip": 1.17,
        }},
    })
    text = render(results_dir)
    assert "Figures 3 & 4" in text
    assert "+25%" in text       # gossip 250 vs baseline 200 at low load
    assert "1.17x" in text


def test_render_fig6_grid(results_dir):
    _write(results_dir, "fig6_reliability", {
        "scale": "quick", "n": 27, "runs_per_cell": 2,
        "data": {
            "gossip": {"0.1|26": 0.0, "0.3|26": 0.25},
            "semantic": {"0.1|26": 0.0, "0.3|26": 0.30},
        },
    })
    text = render(results_dir)
    assert "Figure 6" in text
    assert "25.0%" in text
    assert "| 10% | - |" in text  # zero cells render as dashes


def test_render_fig8_summary(results_dir):
    _write(results_dir, "fig8_overlay_comparison", {
        "scale": "quick", "average_improvement": 0.05,
        "points": [
            {"overlay": 0, "median_rtt_ms": 150.0,
             "gossip_latency_ms": 300.0, "semantic_latency_ms": 280.0,
             "improvement": 0.066},
            {"overlay": 1, "median_rtt_ms": 200.0,
             "gossip_latency_ms": 350.0, "semantic_latency_ms": 340.0,
             "improvement": 0.029},
        ],
    })
    text = render(results_dir)
    assert "Figure 8" in text
    assert "+5%" in text


def test_render_extension_tables(results_dir):
    _write(results_dir, "ext_strategies", {
        "scale": "quick",
        "data": {
            "push|0.0": {"avg_latency_ms": 275.0, "received_total": 46000,
                         "not_ordered_fraction": 0.0},
        },
    })
    text = render(results_dir)
    assert "dissemination strategies" in text
    assert "push|0.0" in text


def test_main_writes_file(results_dir, tmp_path):
    from repro.analysis.report import main

    output = tmp_path / "OUT.md"
    assert main([str(results_dir), str(output)]) == 0
    assert output.exists()
    assert "EXPERIMENTS" in output.read_text()


def test_committed_experiments_md_is_the_render_of_the_committed_results():
    """EXPERIMENTS.md is generated: it must equal, byte for byte, what
    ``render`` makes of ``benchmarks/results`` (regenerate it with
    ``python -m repro.analysis.report`` after changing either)."""
    root = pathlib.Path(__file__).resolve().parents[2]
    committed = (root / "EXPERIMENTS.md").read_bytes()
    assert render(root / "benchmarks" / "results").encode() == committed
