"""MembershipConfig validation and its ExperimentConfig integration."""

import pytest

from repro.membership import MembershipConfig
from tests.conftest import fast_config


def test_defaults_are_valid():
    config = MembershipConfig()
    assert config.heartbeat_interval < config.suspicion_timeout
    assert config.suspicion_timeout < config.dead_timeout


def test_timing_orderings_enforced():
    with pytest.raises(ValueError):
        MembershipConfig(heartbeat_interval=0.0)
    with pytest.raises(ValueError):
        MembershipConfig(heartbeat_interval=0.3, suspicion_timeout=0.2)
    with pytest.raises(ValueError):
        MembershipConfig(suspicion_timeout=0.25, dead_timeout=0.2)
    with pytest.raises(ValueError):
        MembershipConfig(election_backoff=0.5, election_backoff_max=0.25)
    with pytest.raises(ValueError):
        MembershipConfig(election_jitter=-0.1)


def test_initial_members_normalized_sorted():
    config = MembershipConfig(initial_members=(3, 0, 2))
    assert config.initial_members == (0, 2, 3)
    with pytest.raises(ValueError):
        MembershipConfig(initial_members=(0, 0, 1))
    with pytest.raises(ValueError):
        MembershipConfig(initial_members=())


def test_members_at_start():
    assert MembershipConfig().members_at_start(4) == (0, 1, 2, 3)
    assert MembershipConfig(
        initial_members=(2, 0)).members_at_start(4) == (0, 2)


def test_baseline_setup_rejected():
    with pytest.raises(ValueError, match="[Bb]aseline"):
        fast_config(setup="baseline", membership=MembershipConfig())


@pytest.mark.parametrize("field", [
    "heartbeat_interval", "suspicion_timeout", "dead_timeout",
    "election_backoff", "election_backoff_max",
    "election_jitter",
])
@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_timing_rejected_naming_the_field(field, value):
    with pytest.raises(ValueError, match=field):
        MembershipConfig(**{field: value})


def test_spaxos_rejected():
    with pytest.raises(ValueError, match="S-Paxos"):
        fast_config(setup="semantic", spaxos=True,
                    membership=MembershipConfig())


def test_initial_member_out_of_range():
    with pytest.raises(ValueError, match="out of range"):
        fast_config(membership=MembershipConfig(initial_members=(0, 1, 99)))


def test_coordinator_must_be_initial_member():
    with pytest.raises(ValueError, match="coordinator"):
        fast_config(membership=MembershipConfig(
            initial_members=(1, 2, 3, 4, 5)))


def test_initial_members_must_reach_quorum():
    # n=7 needs a majority of 4 present from the start.
    with pytest.raises(ValueError, match="quorum"):
        fast_config(membership=MembershipConfig(initial_members=(0, 1, 2)))


def test_valid_membership_config_accepted():
    config = fast_config(membership=MembershipConfig(
        initial_members=(0, 1, 2, 3, 4)))
    assert config.membership.initial_members == (0, 1, 2, 3, 4)


def test_non_numeric_timing_rejected_naming_the_field():
    with pytest.raises(TypeError, match="heartbeat_interval"):
        MembershipConfig(heartbeat_interval="x")


def test_non_int_initial_member_rejected_naming_the_field():
    with pytest.raises(TypeError, match="initial_members.*True"):
        MembershipConfig(initial_members=(True, 2))


def test_out_of_range_initial_member_names_the_field():
    with pytest.raises(ValueError, match="initial_members.*99"):
        fast_config(n=13, membership=MembershipConfig(
            initial_members=tuple(range(12)) + (99,)))
