"""Open-loop clients (paper §4.2).

One client per region submits values to a Paxos process hosted in the same
region at a fixed rate, without waiting for decisions (open loop). The
process hands the client every decided value in total order; only the
values the client submitted itself cross back to it, and it computes their
end-to-end latency. Client-process communication is reliable: a plain
scheduled delivery with LAN latency, not a lossy channel.
"""

from repro.sim.actors import Actor
from repro.paxos.messages import Value


class Client(Actor):
    """Open-loop value submitter attached to one Paxos process."""

    def __init__(self, sim, client_id, process, rate, value_size,
                 lan_delay_s, collector, start_at, stop_at, phase=0.0):
        """
        Parameters
        ----------
        rate:
            This client's submission rate (values/second).
        phase:
            Submission phase offset in seconds, used to desynchronise the
            per-region clients.
        """
        super().__init__(sim, "client-{}".format(client_id))
        self.client_id = client_id
        self.process = process
        self.rate = rate
        self.interval = 1.0 / rate
        self.value_size = value_size
        self.lan_delay_s = lan_delay_s
        self.collector = collector
        self.start_at = start_at
        self.stop_at = stop_at
        self.phase = phase
        self.submitted = 0
        self.own_decided = 0
        #: Tracer installed by ``obs=`` (repro.obs); None in untraced runs.
        self.obs = None

    def start(self):
        """Arm the first submission at start_at + phase."""
        self.sim.schedule_at(self.start_at + self.phase, self._submit)

    def _submit(self):
        value_id = (self.client_id, self.submitted)
        self.submitted += 1
        value = Value(value_id, self.client_id, self.value_size)
        self.collector.record_submit(value_id, self.client_id, self.now)
        if self.obs is not None:
            self.obs.value_submitted(value_id, self.client_id)
        # Reliable same-region delivery to the serving process. Neither
        # time precedes the clock, so the pushes skip schedule's check.
        sim = self.sim
        now = sim.now
        sim.push_event(now + self.lan_delay_s, self.process.submit_value,
                       (value,))
        next_at = now + self.interval
        if next_at <= self.stop_at:
            sim.push_event(next_at, self._submit, ())

    def notify(self, instance, value):
        """The serving process's delivery callback (``deliver_to``): an
        own value reaches this client one LAN hop later; any other value
        costs no event."""
        if value.client_id == self.client_id:
            sim = self.sim
            sim.push_event(sim.now + self.lan_delay_s, self.on_decision,
                           (instance, value))

    def on_decision(self, instance, value):
        """One of this client's values was decided (in order)."""
        self.own_decided += 1
        self.collector.record_decided(value.value_id, self.now)
        if self.obs is not None:
            self.obs.value_delivered(value.value_id, self.client_id)
