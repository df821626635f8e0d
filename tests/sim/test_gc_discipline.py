"""The kernel loop pauses the cyclic collector; these tests keep that safe.

``Simulator.run`` disables ``gc`` for the duration of the loop and restores
the caller's setting on every exit path. That is only sound while a run
creates no reference cycles — reference counting then frees everything the
hot path allocates and a generation scan over the deployment finds nothing.
The scenario tests pin exactly that: a future cycle on the hot path (a
callback closing over its own event, a message pointing back at its sender)
fails here instead of silently growing the heap until the run ends.
"""

import gc

import pytest

from repro.checks.scenarios import REGRESSION_SCENARIOS, SCENARIOS
from repro.obs import ObsConfig
from repro.runtime.deployment import build_deployment
from repro.sim.kernel import Simulator

ALL_SCENARIOS = dict(SCENARIOS, **REGRESSION_SCENARIOS)


@pytest.fixture
def gc_state():
    """Put the interpreter's collector setting back however a test ends."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def _boom():
    raise RuntimeError("callback failed")


def _run_to_exhaustion(sim):
    sim.run()


def _run_until(sim):
    sim.run(until=1.5)
    assert sim.pending() == 2


def _run_max_events(sim):
    sim.run(max_events=2)
    assert sim.pending() == 2


def _run_raising(sim):
    sim.schedule(1.2, _boom)
    with pytest.raises(RuntimeError):
        sim.run()


EXITS = [_run_to_exhaustion, _run_until, _run_max_events, _run_raising]


@pytest.mark.parametrize("caller_enabled", [True, False],
                         ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("leave", EXITS, ids=lambda fn: fn.__name__[5:])
def test_run_pauses_collector_and_restores_callers_setting(
        gc_state, leave, caller_enabled):
    sim = Simulator(seed=1)
    inside = []
    for t in (0.5, 1.0, 2.0, 3.0):
        sim.schedule(t, lambda: inside.append(gc.isenabled()))
    if caller_enabled:
        gc.enable()
    else:
        gc.disable()
    leave(sim)
    assert gc.isenabled() is caller_enabled
    assert inside and not any(inside)


def _unreachable_after_run(config, obs=None):
    deployment = build_deployment(config, obs=obs)
    deployment.start()
    gc.collect()            # construction garbage is not the run's
    deployment.run()
    return gc.collect()


@pytest.mark.parametrize("name", sorted(ALL_SCENARIOS))
def test_run_leaves_no_unreachable_cycles(gc_state, name):
    assert _unreachable_after_run(ALL_SCENARIOS[name]()) == 0


def test_traced_run_leaves_no_unreachable_cycles(gc_state):
    config = SCENARIOS["fig5_latency"]()
    assert _unreachable_after_run(config, obs=ObsConfig()) == 0
