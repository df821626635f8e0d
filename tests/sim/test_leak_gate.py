"""Leak gate for the compiled kernel: whole runs give back every block.

The C types (``repro/sim/_kernel.c``) count their references by hand. A
reference kept by mistake on a per-message path leaks one object per hop,
which no digest shows. ``sys.getallocatedblocks()`` does: after a warm-up
run has filled the interpreter's own caches, repeated runs of the same
scenario must leave the count where it was. The scenarios cover the
fault engine (crash, loss, partition and degrade on gossip and on the
direct star), the pull strategy and the aggregating semantic hooks.
"""

import gc
import sys

import pytest

from repro.checks.scenarios import scenario_config
from repro.runtime.runner import run_experiment

SCENARIOS = ["link_faults", "baseline_faults", "push_pull_loss",
             "degrade_jitter", "fig7_overlay"]
RUNS = 4


@pytest.mark.parametrize("name", SCENARIOS)
def test_repeated_runs_do_not_grow_the_allocated_blocks(name):
    run_experiment(scenario_config(name))
    gc.collect()
    before = sys.getallocatedblocks()
    for _ in range(RUNS):
        run_experiment(scenario_config(name))
    gc.collect()
    grown = sys.getallocatedblocks() - before
    # Less than one block per run: a per-message leak is thousands.
    assert grown < RUNS, "{} blocks more after {} runs of {}".format(
        grown, RUNS, name)
