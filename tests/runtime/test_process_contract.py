"""The process contract: what the runtime may ask of any protocol process."""

import pathlib
import re

import pytest

import repro
from repro.paxos.process import ConsensusProcess, ProcessStats
from repro.runtime.deployment import build_deployment
from tests.conftest import fast_config

PROTOCOLS = {"paxos": {}, "paxos+spaxos": dict(spaxos=True),
             "raft": dict(protocol="raft")}
# The config rejects S-Paxos over the Baseline star (no dissemination).
BUILDS = [(protocol, setup) for protocol in PROTOCOLS
          for setup in ("baseline", "gossip")
          if (protocol, setup) != ("paxos+spaxos", "baseline")]


def _stack_observer(process, seen):
    def observe(instance, value):
        assert value.client_id is not None      # a body, never a ValueRef
        seen.append((instance, value.value_id))
        downstream(instance, value)

    downstream = process.deliver_to(observe)    # the callback it replaces
    assert downstream is not None


@pytest.mark.parametrize("protocol, setup", BUILDS)
def test_every_built_process_honours_the_contract(protocol, setup):
    deployment = build_deployment(
        fast_config(setup=setup, n=5, **PROTOCOLS[protocol]))
    leader, follower = deployment.processes[:2]
    inner, outer = [], []
    _stack_observer(follower, inner)
    _stack_observer(follower, outer)
    deployment.start()
    deployment.run()
    for process in deployment.processes:
        assert isinstance(process, ConsensusProcess)
        assert all(getattr(process.stats, field) >= 0
                   for field in ProcessStats.__slots__)
        assert sum(process.decision_modes()) >= len(
            process.decided_values()) > 0
    assert [p.leads for p in deployment.processes] == [True] + [False] * 4
    # Stacked observers see one resolved stream, gap-free, and the client
    # behind them still gets its notifications.
    assert outer == inner
    assert [i for i, _ in outer] == list(range(1, len(outer) + 1)) != []
    assert all(client.own_decided > 0 for client in deployment.clients)
    follower.crash()
    assert not follower.alive and follower.take_over() is False
    follower.recover()
    assert follower.alive and follower.take_over() is True and follower.leads
    leader.step_down()
    assert not leader.leads
    follower.enable_value_tracking()


def test_no_shape_probes_left_in_the_runtime():
    """Consumers read the contract's names; they never probe for them."""
    probe = re.compile(
        r"(get|has)attr\(\s*(self\.)?(deployment|process(es\[[^\]]*\])?"
        r"|node|node_stats|process_stats)\s*,")
    root = pathlib.Path(repro.__file__).parent
    offenders = [
        "{}:{}".format(path.relative_to(root), number)
        for path in sorted(root.rglob("*.py"))
        if path.name not in ("linter.py", "rules.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if probe.search(line)]
    assert offenders == []
