"""Loss models implementing the ``loss_hook`` protocol.

The paper's reliability study (§4.5) "randomly discards messages received by
a process". :class:`ReceiverLossInjector` reproduces that: it is installed
as the ``loss_hook`` of every link and drops each arriving message with a
configured probability, using a dedicated RNG stream so that loss decisions
are independent of every other source of randomness in the run.

``ReceiverLossInjector(sim, rate=0.0, per_process=None, stream="faults")``
is compiled (``repro/sim/_kernel/link.c``, beside the link that calls
it directly on every arrival, without entering Python). ``rate`` and every
``per_process`` rate (a mapping receiver id -> rate overriding ``rate``)
must be within [0, 1]; anything else, NaN included, raises ``ValueError``
naming the process. A call ``hook(dst)`` draws one ``random()`` from
``sim.rng(stream)`` when the receiver's rate is positive and drops when
the draw is below it; ``examined`` and ``dropped`` count the calls and the
drops, and ``per_process`` returns a copy of the overrides. The Python it
replaced is the reference model in ``tests/reference/loss.py``.

:class:`GilbertElliottLossInjector` extends the model to *correlated* loss:
a two-state Markov chain (Gilbert–Elliott) alternates between a good state
with near-zero loss and a bad state where most messages are dropped,
producing the loss bursts real WANs exhibit. Both classes expose the same
``hook(dst) -> bool`` protocol plus ``examined``/``dropped`` counters, so
they are interchangeable at every ``loss_hook`` site.
"""

from repro.sim.events import compiled

ReceiverLossInjector = compiled.ReceiverLossInjector


def _check_probability(name, value):
    if not 0.0 <= value <= 1.0:
        raise ValueError("{} must be within [0, 1]".format(name))


class GilbertElliottLossInjector:
    """Bursty loss: a two-state Gilbert–Elliott chain per injector.

    The chain starts in the good state. Every examined message is first
    subjected to the current state's loss probability, then the chain
    transitions: good -> bad with ``p_enter`` and bad -> good with
    ``p_exit`` (both per message). The mean burst length is ``1/p_exit``
    messages and the stationary bad-state fraction is
    ``p_enter / (p_enter + p_exit)``.

    Parameters
    ----------
    p_enter:
        Per-message probability of entering the bad (bursty) state.
    p_exit:
        Per-message probability of leaving the bad state.
    loss_bad:
        Drop probability while in the bad state.
    loss_good:
        Drop probability while in the good state (usually 0).
    rng:
        Optional ``random.Random``; defaults to the simulator's named
        ``stream`` so chains sharing a stream stay deterministic.
    """

    __slots__ = ("p_enter", "p_exit", "loss_bad", "loss_good", "_rng",
                 "in_bad", "dropped", "examined", "bursts_entered")

    def __init__(self, sim, p_enter, p_exit, loss_bad, loss_good=0.0,
                 stream="faults-burst", rng=None):
        for name, value in (("p_enter", p_enter), ("p_exit", p_exit),
                            ("loss_bad", loss_bad), ("loss_good", loss_good)):
            _check_probability(name, value)
        self.p_enter = p_enter
        self.p_exit = p_exit
        self.loss_bad = loss_bad
        self.loss_good = loss_good
        self._rng = rng if rng is not None else sim.rng(stream)
        self.in_bad = False
        self.dropped = 0
        self.examined = 0
        self.bursts_entered = 0

    def __call__(self, dst):
        """Return True when the message arriving at ``dst`` must be lost."""
        self.examined += 1
        rng = self._rng
        rate = self.loss_bad if self.in_bad else self.loss_good
        lost = rate > 0.0 and rng.random() < rate
        if lost:
            self.dropped += 1
        if self.in_bad:
            if rng.random() < self.p_exit:
                self.in_bad = False
        elif rng.random() < self.p_enter:
            self.in_bad = True
            self.bursts_entered += 1
        return lost
