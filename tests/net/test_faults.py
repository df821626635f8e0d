"""Tests for the loss injectors (uniform and Gilbert-Elliott burst)."""

import pytest

from repro.net.faults import GilbertElliottLossInjector, ReceiverLossInjector
from repro.sim.kernel import Simulator


def test_zero_rate_never_drops(sim):
    injector = ReceiverLossInjector(sim, 0.0)
    assert not any(injector(1) for _ in range(1000))
    assert injector.dropped == 0
    assert injector.examined == 1000


def test_full_rate_always_drops(sim):
    injector = ReceiverLossInjector(sim, 1.0)
    assert all(injector(1) for _ in range(100))
    assert injector.dropped == 100


def test_rate_statistics(sim):
    injector = ReceiverLossInjector(sim, 0.2)
    drops = sum(1 for _ in range(20000) if injector(3))
    assert 0.18 <= drops / 20000 <= 0.22


def test_invalid_rate_rejected(sim):
    with pytest.raises(ValueError):
        ReceiverLossInjector(sim, 1.5)
    with pytest.raises(ValueError):
        ReceiverLossInjector(sim, -0.1)


def test_per_process_override(sim):
    injector = ReceiverLossInjector(sim, 0.0, per_process={7: 1.0})
    assert not injector(1)
    assert injector(7)


@pytest.mark.parametrize("rate", [1.5, -0.1, float("nan"), float("inf")])
def test_per_process_rate_outside_unit_interval_names_the_process(sim, rate):
    # 1.5 used to act as 1.0, and NaN or a negative rate never dropped.
    with pytest.raises(ValueError, match="process 7 must be within"):
        ReceiverLossInjector(sim, 0.1, per_process={3: 0.5, 7: rate})
    with pytest.raises(ValueError, match="loss rate must be within"):
        ReceiverLossInjector(sim, rate)


def test_per_process_rates_are_kept_as_floats(sim):
    injector = ReceiverLossInjector(sim, 0.25, per_process={7: 1, 8: 0})
    assert injector.per_process == {7: 1.0, 8: 0.0}
    assert injector.rate == 0.25
    assert injector(7) and not injector(8)
    assert ReceiverLossInjector(sim).per_process == {}


def test_deterministic_given_seed(sim):
    a = ReceiverLossInjector(Simulator(seed=3), 0.5)
    b = ReceiverLossInjector(Simulator(seed=3), 0.5)
    assert [a(1) for _ in range(50)] == [b(1) for _ in range(50)]


# -- Gilbert-Elliott burst loss ------------------------------------------------


def test_ge_never_entering_bad_state_never_drops(sim):
    injector = GilbertElliottLossInjector(sim, p_enter=0.0, p_exit=0.5,
                                          loss_bad=1.0)
    assert not any(injector(1) for _ in range(1000))
    assert injector.examined == 1000
    assert injector.bursts_entered == 0


def test_ge_good_state_loss_applies_outside_bursts(sim):
    injector = GilbertElliottLossInjector(sim, p_enter=0.0, p_exit=1.0,
                                          loss_bad=1.0, loss_good=1.0)
    assert all(injector(1) for _ in range(100))


def test_ge_permanent_bad_state_drops_at_bad_rate(sim):
    injector = GilbertElliottLossInjector(sim, p_enter=1.0, p_exit=0.0,
                                          loss_bad=1.0)
    results = [injector(1) for _ in range(100)]
    # First message is examined in the good state, then it's bad forever.
    assert results[0] is False
    assert all(results[1:])
    assert injector.bursts_entered == 1


def test_ge_losses_are_bursty(sim):
    """Same long-run loss rate, but clumped: consecutive-drop pairs are
    far more frequent than under independent uniform loss."""
    injector = GilbertElliottLossInjector(sim, p_enter=0.02, p_exit=0.2,
                                          loss_bad=0.9)
    outcomes = [injector(1) for _ in range(40000)]
    rate = sum(outcomes) / len(outcomes)
    pairs = sum(1 for a, b in zip(outcomes, outcomes[1:]) if a and b)
    pair_rate = pairs / (len(outcomes) - 1)
    assert 0.0 < rate < 0.35
    assert pair_rate > 2.0 * rate * rate  # independent loss: pair_rate ~ rate^2
    assert injector.bursts_entered > 10


def test_ge_deterministic_given_seed():
    def trace(seed):
        injector = GilbertElliottLossInjector(
            Simulator(seed=seed), p_enter=0.05, p_exit=0.3, loss_bad=0.8)
        return [injector(1) for _ in range(500)]

    assert trace(9) == trace(9)
    assert trace(9) != trace(10)


def test_ge_invalid_probabilities_rejected(sim):
    with pytest.raises(ValueError):
        GilbertElliottLossInjector(sim, p_enter=1.5, p_exit=0.5, loss_bad=0.5)
    with pytest.raises(ValueError):
        GilbertElliottLossInjector(sim, p_enter=0.5, p_exit=-0.1, loss_bad=0.5)
    with pytest.raises(ValueError):
        GilbertElliottLossInjector(sim, p_enter=0.5, p_exit=0.5, loss_bad=2.0)
    with pytest.raises(ValueError):
        GilbertElliottLossInjector(sim, p_enter=0.5, p_exit=0.5, loss_bad=0.5,
                                   loss_good=-0.2)
