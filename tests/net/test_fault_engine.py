"""Tests for the FaultEngine mechanics, directly and over short runs."""

import pytest

from repro.net.faults.engine import _ChaosHook
from repro.net.faults.events import Crash, FaultPlan, Heal, Partition
from repro.runtime.deployment import _connect_pair, build_deployment
from repro.runtime.runner import run_deployment
from tests.conftest import fast_config


def _deployment(**overrides):
    """A built (not run) deployment with an inert plan arming the engine."""
    overrides.setdefault("faults", FaultPlan([(99.0, Heal())]))
    return build_deployment(fast_config(**overrides))


def test_partition_drops_cross_group_only():
    engine = _deployment().fault_engine
    engine.partition([[0, 1, 2]])
    assert engine.partitioned
    assert engine.examine(0, 3) is True          # cross-group: dropped
    assert engine.examine(0, 1) is False         # intra-group: delivered
    assert engine.examine(3, 4) is False         # both in remainder group
    assert engine.stats.partition_drops == 1


def test_partition_same_side_and_heal():
    engine = _deployment().fault_engine
    engine.partition([[0, 1], [2, 3]])
    assert engine.same_side(0, 1)
    assert not engine.same_side(0, 2)
    assert engine.same_side(4, 5)                # implicit remainder group
    assert not engine.same_side(0, 4)
    engine.heal()
    assert not engine.partitioned
    assert engine.examine(0, 2) is False
    assert engine.same_side(0, 2)


def test_heal_without_partition_is_noop():
    engine = _deployment().fault_engine
    engine.heal()
    assert engine.stats.partition_heals == []


def test_partition_timestamps_recorded():
    engine = _deployment().fault_engine
    engine.partition([[0]])
    engine.heal()
    assert engine.stats.partition_windows() == [(0.0, 0.0)]
    engine.partition([[1]])
    assert engine.stats.partition_windows() == [(0.0, 0.0), (0.0, None)]


def test_link_loss_is_asymmetric_and_clearable():
    engine = _deployment().fault_engine
    engine.set_link_loss(0, 1, 1.0)
    assert engine.examine(0, 1) is True
    assert engine.examine(1, 0) is False         # reverse direction untouched
    assert engine.stats.link_loss_drops == 1
    engine.set_link_loss(0, 1, 0.0)
    assert engine.examine(0, 1) is False


def test_burst_chains_are_per_link_and_clearable():
    engine = _deployment().fault_engine
    engine.set_burst(p_enter=1.0, p_exit=0.0, loss_bad=1.0)
    # Each link's chain starts in the good state, then goes bad forever.
    assert engine.examine(0, 1) is False
    assert engine.examine(0, 1) is True
    assert engine.examine(1, 0) is False         # fresh chain per direction
    assert engine.stats.burst_drops == 1
    engine.clear_burst()
    assert engine.examine(0, 1) is False


def _loss_hooks(deployment):
    return [link.loss_hook for node in deployment.nodes
            for link in node.links.values()]


def _connect_new_pair(deployment):
    """Connect the first unconnected pair, as overlay repair does."""
    nodes = deployment.nodes
    a, b = next((a, b) for a in range(len(nodes))
                for b in range(a + 1, len(nodes))
                if b not in nodes[a].links)
    _connect_pair(deployment.config, deployment.topology, nodes, a, b,
                  deployment.loss_injector)
    return a, b


@pytest.mark.parametrize("loss_rate", [0.0, 0.2])
def test_interposer_sits_on_links_only_while_a_link_fault_is_in_force(
        loss_rate):
    deployment = _deployment(loss_rate=loss_rate)
    engine = deployment.fault_engine
    inner = deployment.loss_injector            # None without loss_rate

    def bare():
        return all(hook is inner for hook in _loss_hooks(deployment))

    def interposed():
        return all(isinstance(hook, _ChaosHook) and hook.inner is inner
                   for hook in _loss_hooks(deployment))

    engine.install()
    assert bare()
    engine.adopt_pair(*_connect_new_pair(deployment))
    assert bare()
    faults = [
        (lambda: engine.partition([[0, 1]]), engine.heal),
        (lambda: engine.set_link_loss(0, 1, 0.5),
         lambda: engine.set_link_loss(0, 1, 0.0)),
        (lambda: engine.set_burst(0.1, 0.2, 0.3), engine.clear_burst),
    ]
    for start, clear in faults:
        start()
        assert interposed()
        clear()
        assert bare()
    # Overlapping faults: a second start or an adopted pair never wraps
    # a hook twice, and a clear leaves the interposer while another
    # fault is still in force.
    for start, _ in faults:
        start()
    engine.adopt_pair(*_connect_new_pair(deployment))
    assert interposed()
    for start, _ in faults:
        start()
        assert interposed()
    pending = engine.sim.pending()
    engine.install()
    assert interposed() and engine.sim.pending() == pending
    for _, clear in faults[:-1]:
        clear()
        assert interposed()
    faults[-1][1]()
    assert bare()
    engine.install()
    assert bare() and engine.sim.pending() == pending


def test_degrade_scales_latency_and_restores():
    deployment = _deployment()
    engine = deployment.fault_engine
    link = next(iter(deployment.nodes[0].links.values()))
    region = deployment.topology.region
    base = link.latency_s
    engine.degrade(region(link.src), region(link.dst), 3.0, 0.0)
    assert link.latency_s == pytest.approx(3.0 * base)
    engine.degrade(region(link.src), region(link.dst), 1.0, 0.0)
    assert link.latency_s == pytest.approx(base)


def test_degrade_adds_jitter_and_restores():
    deployment = _deployment()
    engine = deployment.fault_engine
    link = next(iter(deployment.nodes[0].links.values()))
    region = deployment.topology.region
    base_jitter = link.config.jitter_s
    engine.degrade(region(link.src), region(link.dst), 1.0, 0.004)
    assert link.config.jitter_s == pytest.approx(base_jitter + 0.004)
    engine.degrade(region(link.src), region(link.dst), 1.0, 0.0)
    assert link.config.jitter_s == pytest.approx(base_jitter)


def test_degrade_leaves_other_region_pairs_alone():
    deployment = _deployment()
    engine = deployment.fault_engine
    links = [link for node in deployment.nodes for link in node.links.values()]
    region = deployment.topology.region
    target = links[0]
    wanted = frozenset((region(target.src), region(target.dst)))
    before = {id(link): link.latency_s for link in links}
    engine.degrade(region(target.src), region(target.dst), 2.0, 0.0)
    for link in links:
        pair = frozenset((region(link.src), region(link.dst)))
        expected = before[id(link)] * (2.0 if pair == wanted else 1.0)
        assert link.latency_s == pytest.approx(expected)


def test_gray_failure_sets_and_clears_cpu_slowdown():
    deployment = _deployment()
    engine = deployment.fault_engine
    engine.set_gray(2, 8.0)
    assert deployment.nodes[2].cpu.slowdown == 8.0
    assert engine.gray == {2: 8.0}
    engine.set_gray(2, 1.0)
    assert deployment.nodes[2].cpu.slowdown == 1.0
    assert engine.gray == {}


def test_partition_run_end_to_end_attributes_drops():
    config = fast_config(faults=FaultPlan([
        (0.9, Partition([[1, 2]])),
        (1.2, Heal()),
    ]))
    deployment, report = run_deployment(config)
    stats = deployment.fault_engine.stats
    assert stats.injections == {"partition": 1, "heal": 1}
    assert stats.partition_drops > 0
    assert stats.partition_windows() == [(0.9, 1.2)]
    assert report.messages.fault_partition_drops == stats.partition_drops
    assert report.messages.partition_windows == [(0.9, 1.2)]


def test_crash_event_with_duration_recovers():
    config = fast_config(
        faults=FaultPlan([(0.8, Crash(3, duration=0.5))]),
        retransmit_timeout=0.3,
    )
    deployment, report = run_deployment(config)
    assert deployment.fault_engine.stats.injections == {"crash": 1}
    assert report.messages.fault_injections == {"crash": 1}
    assert report.decided > 0
