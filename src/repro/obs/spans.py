"""Value-lifecycle spans and the tracer that records them.

One :class:`ValueSpan` per submitted value tracks the virtual-time
instants of the consensus pipeline's phase transitions:

* ``submitted_at``  — the owning client handed the value to its process;
* ``proposed_at``   — a coordinator/leader assigned it an instance/index
  and broadcast Phase 2a / AppendEntries (re-proposals by takeover or
  elected coordinators are counted, not re-stamped);
* ``quorum_at``     — the first process anywhere observed a 2b/ack
  majority for the value's instance;
* ``decided_at``    — the first process anywhere decided/committed the
  instance (``decide_count``/``last_decided_at`` track how the decision
  then spread to the remaining processes via gossip);
* ``delivered_at``  — the owning client was notified in total order.

Spans are additionally annotated with gossip hops (fresh receives,
duplicates, semantic-filter drops, aggregation savings) when
:class:`~repro.obs.config.ObsConfig` enables them.

The :class:`Tracer` is fed by lightweight hooks guarded by
``if self.obs is not None`` at every hook point — components default to
``obs = None`` and untraced runs pay one attribute test on the affected
paths (measured within wall-clock noise). Hook methods read the virtual
clock themselves (the tracer holds the simulator), never draw RNG, never
schedule events and never mutate model state, so tracing cannot perturb
a run.
"""

from repro.runtime.metrics import mean, percentile


def payload_value_id(payload):
    """Extract the client value id a payload refers to, or ``None``.

    Covers Phase 2b / aggregated 2b (``value_id``), ClientValue / Phase 2a
    / Decision (``value``) and Raft AppendEntries (``entry.value``);
    payloads without value identity (Phase 1a/1b, heartbeats, votes,
    membership traffic) yield ``None`` and are not attached to spans.
    """
    value_id = getattr(payload, "value_id", None)
    if value_id is not None:
        return value_id
    value = getattr(payload, "value", None)
    if value is not None:
        return value.value_id
    entry = getattr(payload, "entry", None)
    if entry is not None:
        return entry.value.value_id
    return None


class ValueSpan:
    """Lifecycle record of one submitted value."""

    __slots__ = (
        "value_id", "client_id", "seq", "submitted_at",
        "proposed_at", "instance", "round", "proposer", "reproposals",
        "quorum_at", "quorum_process",
        "decided_at", "decide_process", "decide_count", "last_decided_at",
        "delivered_at",
        "hops", "hops_dropped",
        "hop_fresh", "hop_dup", "hop_filtered", "hop_agg_saved",
    )

    def __init__(self, value_id, client_id, seq, submitted_at):
        self.value_id = value_id
        self.client_id = client_id
        self.seq = seq              # global record sequence (export order)
        self.submitted_at = submitted_at
        self.proposed_at = None
        self.instance = None
        self.round = None
        self.proposer = None
        self.reproposals = 0        # takeover/election re-proposals
        self.quorum_at = None
        self.quorum_process = None
        self.decided_at = None
        self.decide_process = None
        self.decide_count = 0       # processes that decided the instance
        self.last_decided_at = None
        self.delivered_at = None
        #: (time, node, peer, kind) gossip hop annotations, kernel order;
        #: kind is "fresh" | "dup" | "filtered" | "agg".
        self.hops = []
        self.hops_dropped = 0
        self.hop_fresh = 0
        self.hop_dup = 0
        self.hop_filtered = 0
        self.hop_agg_saved = 0

    # -- derived phase durations (None while the phase is incomplete) ------

    @property
    def forward_s(self):
        """Client submit to coordinator propose (LAN + forwarding)."""
        if self.proposed_at is None:
            return None
        return self.proposed_at - self.submitted_at

    @property
    def quorum_s(self):
        """Propose to the first observed 2b/ack majority anywhere."""
        if self.quorum_at is None or self.proposed_at is None:
            return None
        return self.quorum_at - self.proposed_at

    @property
    def consensus_s(self):
        """Propose to the first decision anywhere."""
        if self.decided_at is None or self.proposed_at is None:
            return None
        return self.decided_at - self.proposed_at

    @property
    def dissemination_s(self):
        """First decision to the owning client's in-order delivery."""
        if self.delivered_at is None or self.decided_at is None:
            return None
        return self.delivered_at - self.decided_at

    @property
    def total_s(self):
        """Submit to delivery — the client-observed end-to-end latency."""
        if self.delivered_at is None:
            return None
        return self.delivered_at - self.submitted_at


#: (phase name, duration accessor) in pipeline order.
PHASES = (
    ("forward", "forward_s"),
    ("quorum", "quorum_s"),
    ("consensus", "consensus_s"),
    ("dissemination", "dissemination_s"),
    ("total", "total_s"),
)


class PhaseBreakdown:
    """Per-phase latency decomposition over a run's completed spans.

    Attached to the :class:`~repro.runtime.metrics.MetricsReport` of a
    traced run (``report.phases``); ``None`` on untraced runs. The
    fingerprint serialisation never reads it, so traced and untraced
    reports fingerprint identically.
    """

    def __init__(self, spans):
        self.samples = {}
        for name, attr in PHASES:
            durations = []
            for span in spans:
                duration = getattr(span, attr)
                if duration is not None:
                    durations.append(duration)
            durations.sort()
            self.samples[name] = durations

    def percentiles(self, phase):
        """count/mean/p50/p90/p99/max summary of one phase, in seconds."""
        xs = self.samples[phase]
        return {
            "count": len(xs),
            "mean_s": mean(xs),
            "p50_s": percentile(xs, 50.0),
            "p90_s": percentile(xs, 90.0),
            "p99_s": percentile(xs, 99.0),
            "max_s": xs[-1] if xs else 0.0,
        }

    def to_dict(self):
        return {name: self.percentiles(name) for name, _ in PHASES}

    def rows(self):
        """Table rows (ms) in pipeline order, for the text summary."""
        rows = []
        for name, _ in PHASES:
            summary = self.percentiles(name)
            rows.append([
                name,
                summary["count"],
                "{:.2f}".format(summary["mean_s"] * 1000.0),
                "{:.2f}".format(summary["p50_s"] * 1000.0),
                "{:.2f}".format(summary["p90_s"] * 1000.0),
                "{:.2f}".format(summary["p99_s"] * 1000.0),
                "{:.2f}".format(summary["max_s"] * 1000.0),
            ])
        return rows

    HEADERS = ["phase", "n", "mean ms", "p50 ms", "p90 ms", "p99 ms",
               "max ms"]


class Tracer:
    """Collects spans, round events and timeline samples for one run."""

    def __init__(self, sim, config, obs_config):
        """
        Parameters
        ----------
        sim:
            The deployment's :class:`~repro.sim.kernel.Simulator`; hooks
            read its clock directly so call sites pass ids only.
        config:
            The run's :class:`~repro.runtime.config.ExperimentConfig`
            (workload window and setup metadata for exporters).
        obs_config:
            The :class:`~repro.obs.config.ObsConfig` selecting what to
            record.
        """
        self.sim = sim
        self.config = config
        self.obs_config = obs_config
        #: value_id -> ValueSpan in submission order (kernel-deterministic).
        self.spans = {}
        #: (seq, time, kind, details) global round events, kernel order.
        self.events = []
        self.sampler = None
        self.submitted_total = 0
        self.decided_total = 0      # distinct values first-decided
        self.delivered_total = 0    # client deliveries of own values
        self._seq = 0
        #: First-decide dedup when spans are disabled (membership tests
        #: only — set iteration never happens, so hash order cannot leak).
        self._decided_ids = set()

    def _next_seq(self):
        seq = self._seq
        self._seq = seq + 1
        return seq

    # -- installation -------------------------------------------------------

    def install(self, deployment):
        """Arm the hooks on a built deployment (idempotent per run).

        Called from :meth:`repro.runtime.deployment.Deployment.start`,
        before any event executes: sets the ``obs`` attribute on clients
        and nodes, hands itself to every process's ``install_obs`` (which
        wires the roles the process hosts), and arms the timeline sampler.
        """
        for client in deployment.clients:
            client.obs = self
        for node in deployment.nodes:
            node.obs = self
        for process in deployment.processes:
            process.install_obs(self)
        if self.obs_config.timeseries:
            from repro.obs.timeseries import TimelineSampler

            self.sampler = TimelineSampler(deployment, self)
            self.sampler.start()

    # -- value lifecycle hooks ---------------------------------------------

    def value_submitted(self, value_id, client_id):
        self.submitted_total += 1
        if not self.obs_config.spans:
            return
        self.spans[value_id] = ValueSpan(
            value_id, client_id, self._next_seq(), self.sim.now)

    def value_proposed(self, value_id, instance, round_, proposer):
        span = self.spans.get(value_id)
        if span is None:
            return
        if span.proposed_at is not None:
            span.reproposals += 1
            return
        span.proposed_at = self.sim.now
        span.instance = instance
        span.round = round_
        span.proposer = proposer

    def value_quorum(self, process_id, instance, value_id):
        span = self.spans.get(value_id)
        if span is None or span.quorum_at is not None:
            return
        span.quorum_at = self.sim.now
        span.quorum_process = process_id

    def value_decided(self, process_id, instance, value_id):
        now = self.sim.now
        span = self.spans.get(value_id)
        if span is None:
            # Spans disabled (or a value the tracer never saw submitted):
            # still feed the timeline's first-decide counter.
            if value_id not in self._decided_ids:
                self._decided_ids.add(value_id)
                self.decided_total += 1
            return
        if span.decided_at is None:
            span.decided_at = now
            span.decide_process = process_id
            self.decided_total += 1
        span.decide_count += 1
        span.last_decided_at = now

    def value_delivered(self, value_id, client_id):
        self.delivered_total += 1
        span = self.spans.get(value_id)
        if span is None or span.delivered_at is not None:
            return
        span.delivered_at = self.sim.now

    # -- gossip hop hooks ---------------------------------------------------

    def gossip_receive(self, node_id, peer_id, payload, fresh):
        if not self.obs_config.hops:
            return
        span = self.spans.get(payload_value_id(payload))
        if span is None:
            return
        if fresh:
            span.hop_fresh += 1
        else:
            span.hop_dup += 1
        self._add_hop(span, node_id, peer_id, "fresh" if fresh else "dup")

    def gossip_filtered(self, node_id, peer_id, payload):
        if not self.obs_config.hops:
            return
        span = self.spans.get(payload_value_id(payload))
        if span is None:
            return
        span.hop_filtered += 1
        self._add_hop(span, node_id, peer_id, "filtered")

    def gossip_aggregated(self, node_id, peer_id, payload, saved):
        if not self.obs_config.hops:
            return
        span = self.spans.get(payload_value_id(payload))
        if span is None:
            return
        span.hop_agg_saved += saved
        self._add_hop(span, node_id, peer_id, "agg")

    def _add_hop(self, span, node_id, peer_id, kind):
        if len(span.hops) >= self.obs_config.max_hops_per_value:
            span.hops_dropped += 1
            return
        span.hops.append((self.sim.now, node_id, peer_id, kind))

    # -- global round events -----------------------------------------------

    def round_event(self, kind, **details):
        """Record a non-value event (Phase 1 quorum, election, takeover)."""
        self.events.append((self._next_seq(), self.sim.now, kind, details))

    # -- post-run views -----------------------------------------------------

    def phase_breakdown(self):
        """The per-phase latency decomposition over all recorded spans."""
        return PhaseBreakdown(self.spans.values())

    def timeseries(self):
        """The sampler's column-oriented buckets (``None`` when disabled)."""
        if self.sampler is None:
            return None
        return self.sampler.series
