"""Leak gate for the compiled kernel: whole runs give back every block.

The C types (``repro/sim/_kernel.c``) count their references by hand. A
reference kept by mistake on a per-message path leaks one object per hop,
which no digest shows. ``sys.getallocatedblocks()`` does: after a warm-up
run has filled the interpreter's own caches, repeated runs of the same
scenario must leave the count where it was. The scenarios cover the
fault engine (crash, loss, partition and degrade on gossip and on the
direct star), the pull strategy and the aggregating semantic hooks.

A reference kept to a callback's *result* hides from whole runs: a
node's receive returns None and a loss hook a bool, and references to
those allocate nothing. One link whose callbacks return fresh objects
shows it.
"""

import gc
import sys

import pytest

from repro.checks.scenarios import scenario_config
from repro.net.channel import DirectedLink, LinkConfig
from repro.net.message import RawPayload
from repro.runtime.runner import run_experiment
from repro.sim.kernel import Simulator

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


def test_an_arrival_releases_what_its_callbacks_return():
    sim = Simulator(seed=1)
    link = DirectedLink(sim, 0, 1, 1e-3,
                        LinkConfig(per_message_s=1e-6, per_byte_s=0.0),
                        lambda src, payload: [payload],
                        loss_hook=lambda dst: [])
    payload = RawPayload("m", 10)

    def burst():
        for _ in range(1000):
            link.commit(payload, (payload,), None)
        sim.run()

    burst()
    gc.collect()
    before = sys.getallocatedblocks()
    burst()
    gc.collect()
    grown = sys.getallocatedblocks() - before
    assert link.stats.delivered == 2000
    assert grown < 100, "{} blocks more after 1000 arrivals".format(grown)
