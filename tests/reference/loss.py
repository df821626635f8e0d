"""The receiver-side loss injector in Python: the executable reference model.

:class:`repro.net.faults.loss.ReceiverLossInjector` is compiled
(``repro/sim/_kernel/link.c``) and a link calls it directly on every
arrival.
This is the Python it replaced, kept verbatim (the compiled type also
rejects a ``per_process`` rate outside [0, 1], which this one accepts).
It lives with the tests because nothing else constructs it:
``tests/properties/test_receive_lockstep.py`` drives one stream of receivers
through this and the compiled injector and requires identical verdicts,
counters and generator state at every step.
"""


class ReceiverLossInjector:
    """Drops arriving messages with a fixed probability per receiver."""

    __slots__ = ("rate", "_rng", "dropped", "examined", "_per_process")

    def __init__(self, sim, rate=0.0, per_process=None, stream="faults"):
        """
        Parameters
        ----------
        rate:
            Default drop probability in [0, 1].
        per_process:
            Optional dict overriding the rate for specific receiver ids.
        """
        if not 0.0 <= rate <= 1.0:
            raise ValueError("loss rate must be within [0, 1]")
        self.rate = rate
        self._per_process = dict(per_process or {})
        self._rng = sim.rng(stream)
        self.dropped = 0
        self.examined = 0

    def __call__(self, dst):
        """Return True when the message arriving at ``dst`` must be lost."""
        self.examined += 1
        rate = self._per_process.get(dst, self.rate)
        if rate <= 0.0:
            return False
        if self._rng.random() < rate:
            self.dropped += 1
            return True
        return False
