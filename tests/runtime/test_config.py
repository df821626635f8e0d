"""Tests for ExperimentConfig validation and derived properties."""

import pytest

from repro.net.faults.events import Crash
from repro.runtime.config import SETUPS, ExperimentConfig


def test_three_setups():
    assert SETUPS == ("baseline", "gossip", "semantic")


def test_unknown_setup_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(setup="magic")


def test_too_small_system_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(n=2)


def test_nonpositive_rate_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(rate=0)


def test_invalid_loss_rate_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(loss_rate=1.2)


def test_effective_k_matches_paper():
    assert ExperimentConfig(n=13).effective_k == 2
    assert ExperimentConfig(n=53).effective_k == 3
    assert ExperimentConfig(n=105).effective_k == 3
    assert ExperimentConfig(n=13, k=5).effective_k == 5


def test_overlay_seed_defaults_to_seed():
    assert ExperimentConfig(seed=9).effective_overlay_seed == 9
    assert ExperimentConfig(seed=9, overlay_seed=2).effective_overlay_seed == 2


def test_num_clients_one_per_region():
    assert ExperimentConfig(n=13).effective_num_clients == 13
    assert ExperimentConfig(n=105).effective_num_clients == 13
    assert ExperimentConfig(n=5).effective_num_clients == 5
    assert ExperimentConfig(n=20, num_clients=4).effective_num_clients == 4


def test_time_horizon_properties():
    config = ExperimentConfig(warmup=1.0, duration=2.0, drain=3.0)
    assert config.end_of_workload == 3.0
    assert config.end_of_run == 6.0


def test_majority():
    assert ExperimentConfig(n=13).majority == 7
    assert ExperimentConfig(n=105).majority == 53


def test_replace_overrides_selected_fields():
    base = ExperimentConfig(setup="gossip", n=13, rate=50)
    other = base.replace(rate=100, setup="semantic")
    assert other.rate == 100
    assert other.setup == "semantic"
    assert other.n == 13
    assert base.rate == 50  # original untouched


def test_replace_validates():
    with pytest.raises(ValueError):
        ExperimentConfig().replace(setup="bogus")


@pytest.mark.parametrize("field, value", [
    ("rate", float("nan")),
    ("rate", float("inf")),
    ("rate", -1.0),
    ("retransmit_timeout", 0.0),
    ("retransmit_timeout", -1.0),
    ("retransmit_timeout", float("nan")),
    ("retransmit_timeout", float("inf")),
    ("pull_interval", 0.0),
    ("pull_interval", float("nan")),
    ("value_size", -5),
])
def test_bad_value_rejected_naming_the_field(field, value):
    """Values that would hang the run (an every(0) timer) or fail mid-run
    (scheduling in the past, negative wire sizes) fail at construction."""
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(gossip_strategy="pull", **{field: value})


def test_zero_value_size_and_disabled_retransmission_stay_legal():
    ExperimentConfig(value_size=0, retransmit_timeout=None)


# -- process outages (fault-plan crashes) -------------------------------------


def test_valid_crashes_accepted():
    faults = ((1.0, Crash(3)), (1.0, Crash(4, duration=1.0)))
    config = ExperimentConfig(n=7, faults=faults)
    assert [event.process_id for _, event in config.fault_plan] == [3, 4]


def test_crash_entry_shape_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(faults=(Crash(3),))       # not an (at, event) pair
    with pytest.raises(ValueError):
        ExperimentConfig(faults=((1.0,),))         # missing the event
    with pytest.raises(ValueError):
        ExperimentConfig(faults=((1.0, Crash(3), 2.0),))


def test_crash_unknown_process_rejected():
    for pid in (7, -1, True):
        with pytest.raises(ValueError):
            ExperimentConfig(n=7, faults=((1.0, Crash(pid)),))


def test_crash_bad_times_rejected():
    with pytest.raises(ValueError):
        ExperimentConfig(faults=((-1.0, Crash(3)),))
    with pytest.raises(ValueError):
        ExperimentConfig(faults=((1.0, Crash(3, duration=0.0)),))


# -- fault-plan validation -----------------------------------------------------


def test_faults_accept_plan_and_raw_entries():
    from repro.net.faults.events import FaultPlan, Heal, Partition

    entries = ((1.0, Partition([[0, 1]])), (2.0, Heal()))
    assert len(ExperimentConfig(faults=entries).fault_plan) == 2
    assert len(ExperimentConfig(faults=FaultPlan(entries)).fault_plan) == 2


def test_fault_plan_none_when_empty():
    assert ExperimentConfig().fault_plan is None


def test_faults_validated_against_system_size():
    ExperimentConfig(n=13, faults=((1.0, Crash(9)),))
    with pytest.raises(ValueError):
        ExperimentConfig(n=7, faults=((1.0, Crash(9)),))


def test_faults_reject_malformed_entries():
    with pytest.raises(ValueError):
        ExperimentConfig(faults=("partition",))
    with pytest.raises(ValueError):
        ExperimentConfig(faults=((1.0, "partition"),))
