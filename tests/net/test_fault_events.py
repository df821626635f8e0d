"""Tests for the declarative fault events and FaultPlan validation."""

import pytest

from repro.net.faults.events import (
    BurstLoss,
    ClearBurstLoss,
    Crash,
    Degrade,
    FaultPlan,
    GrayFailure,
    Heal,
    LinkLoss,
    Partition,
    RegionOutage,
)
from repro.net.regions import REGIONS


def test_plan_sorts_entries_by_time():
    plan = FaultPlan([(2.0, Heal()), (1.0, Partition([[0]]))])
    times = [at for at, _ in plan]
    assert times == [1.0, 2.0]
    assert isinstance(plan.entries[0][1], Partition)


def test_plan_ties_preserve_entry_order():
    heal = Heal()
    partition = Partition([[0]])
    plan = FaultPlan([(1.0, partition), (1.0, heal)])
    assert plan.entries[0][1] is partition
    assert plan.entries[1][1] is heal


def test_plan_accepts_another_plan():
    inner = FaultPlan([(1.0, Heal())])
    assert len(FaultPlan(inner)) == 1


def test_plan_len_bool_iter():
    assert not FaultPlan()
    plan = FaultPlan([(0.5, Heal())])
    assert plan
    assert len(plan) == 1
    assert list(plan) == [(0.5, plan.entries[0][1])]


def test_plan_rejects_bad_shapes():
    with pytest.raises(ValueError):
        FaultPlan([Heal()])                     # not an (at, event) pair
    with pytest.raises(ValueError):
        FaultPlan([(1.0, "partition")])         # not a FaultEvent
    with pytest.raises(ValueError):
        FaultPlan([(-0.1, Heal())])             # negative time


def test_plan_validate_checks_every_event():
    plan = FaultPlan([(1.0, Crash(9))])
    plan.validate(n=13)
    with pytest.raises(ValueError):
        plan.validate(n=7)


def test_partition_rejects_empty_and_overlapping_groups():
    with pytest.raises(ValueError):
        Partition([])
    Partition([[0, 1], [2]]).validate(7)
    with pytest.raises(ValueError):
        Partition([[0, 1], [1, 2]]).validate(7)


def test_partition_rejects_out_of_range_and_bool_members():
    with pytest.raises(ValueError):
        Partition([[7]]).validate(7)
    with pytest.raises(ValueError):
        Partition([[True]]).validate(7)


def test_link_loss_validation():
    LinkLoss(0, 1, 0.5).validate(7)
    with pytest.raises(ValueError):
        LinkLoss(0, 1, 1.5)
    with pytest.raises(ValueError):
        LinkLoss(0, 0, 0.5).validate(7)
    with pytest.raises(ValueError):
        LinkLoss(0, 9, 0.5).validate(7)


def test_burst_loss_validates_probabilities():
    BurstLoss()
    with pytest.raises(ValueError):
        BurstLoss(p_enter=1.2)
    with pytest.raises(ValueError):
        BurstLoss(loss_bad=-0.5)


def test_degrade_validation():
    Degrade(0, 1, latency_factor=3.0).validate(7)
    with pytest.raises(ValueError):
        Degrade(0, 1, latency_factor=0.0)
    with pytest.raises(ValueError):
        Degrade(0, 1, extra_jitter_s=-1.0)
    with pytest.raises(ValueError):
        Degrade(0, len(REGIONS)).validate(7)


def test_gray_failure_validation():
    GrayFailure(0, 5.0).validate(7)
    GrayFailure(0, 1.0).validate(7)          # factor 1 = recovery
    with pytest.raises(ValueError):
        GrayFailure(0, 0.5)
    with pytest.raises(ValueError):
        GrayFailure(9, 5.0).validate(7)


def test_crash_validation():
    Crash(3).validate(7)
    Crash(3, duration=1.0).validate(7)
    with pytest.raises(ValueError):
        Crash(3, duration=0.0)
    with pytest.raises(ValueError):
        Crash(9).validate(7)


def test_region_outage_validation():
    RegionOutage(0).validate(13)
    with pytest.raises(ValueError):
        RegionOutage(len(REGIONS)).validate(13)
    with pytest.raises(ValueError):
        RegionOutage(0, duration=-1.0)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
@pytest.mark.parametrize("field, build", [
    ("latency_factor", lambda v: Degrade(0, 1, latency_factor=v)),
    ("extra_jitter_s", lambda v: Degrade(0, 1, extra_jitter_s=v)),
    ("factor", lambda v: GrayFailure(0, v)),
    ("duration", lambda v: Crash(0, duration=v)),
    ("duration", lambda v: RegionOutage(0, duration=v)),
    ("at", lambda v: FaultPlan([(v, Heal())])),
])
def test_non_finite_parameter_rejected_naming_the_field(field, build, value):
    """NaN and infinities fail at construction, not inside the kernel."""
    with pytest.raises(ValueError, match=field):
        build(value)


def test_events_have_stable_kinds_and_repr():
    events = [Partition([[0]]), Heal(), LinkLoss(0, 1, 0.1), BurstLoss(),
              ClearBurstLoss(), Degrade(0, 1), GrayFailure(0, 2.0),
              Crash(0), RegionOutage(0)]
    kinds = [event.kind for event in events]
    assert len(set(kinds)) == len(kinds)      # distinct attribution keys
    for event in events:
        assert type(event).__name__ in repr(event)
