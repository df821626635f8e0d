"""Measurement: latency, throughput, message counters, reliability.

Clients measure end-to-end latency (submission to in-order decision
delivery, paper §4.2) and throughput as the rate of decisions per time
unit. The collector records raw per-value events during the run; the
:class:`MetricsReport` computed afterwards aggregates them over the
measurement window plus the message-level counters the paper's §4.3
analysis relies on (receive counts, duplicate fractions, filtering and
aggregation savings).
"""

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add


class _ValueRecord:
    __slots__ = ("client_id", "submitted_at", "decided_at")

    def __init__(self, client_id, submitted_at):
        self.client_id = client_id
        self.submitted_at = submitted_at
        self.decided_at = None


class MetricsCollector:
    """Per-run event recorder, fed by clients.

    One :class:`_ValueRecord` per submitted value, kept for the whole
    run.
    """

    def __init__(self):
        self._records = {}
        #: Decisions reported for value ids never submitted — a monitor or
        #: harness bug if ever nonzero; counted instead of silently dropped.
        self.decisions_unknown = 0
        #: Repeat decision notifications for an already-decided value.
        self.decisions_duplicate = 0

    def record_submit(self, value_id, client_id, now):
        """A client submitted a value at simulated time ``now``."""
        self._records[value_id] = _ValueRecord(client_id, now)

    def record_decided(self, value_id, now):
        """The owning client was notified of its value's decision."""
        record = self._records.get(value_id)
        if record is None:
            self.decisions_unknown += 1
        elif record.decided_at is None:
            record.decided_at = now
        else:
            self.decisions_duplicate += 1

    def records(self):
        """All per-value records collected so far."""
        return self._records.values()

    def items(self):
        """(value_id, record) pairs — for checks that need the value ids
        (e.g. the chaos harness's liveness gate)."""
        return self._records.items()


def mean(xs):
    """Arithmetic mean; 0.0 for empty input.

    Both statistics sum left to right, as ``sum()`` did before Python
    3.12 began to compensate float rounding (gh-100425): a report's
    numbers must not depend on the interpreter's version.
    """
    return reduce(add, xs, 0) / len(xs) if xs else 0.0


def stddev(xs):
    """Sample standard deviation; 0.0 below two samples."""
    if len(xs) < 2:
        return 0.0
    mu = mean(xs)
    return math.sqrt(reduce(add, [(x - mu) ** 2 for x in xs], 0)
                     / (len(xs) - 1))


def percentile(sorted_xs, p):
    """Linear-interpolation percentile of pre-sorted data, p in [0, 100]."""
    if not sorted_xs:
        return 0.0
    if len(sorted_xs) == 1:
        return sorted_xs[0]
    rank = (p / 100.0) * (len(sorted_xs) - 1)
    low = int(math.floor(rank))
    high = min(low + 1, len(sorted_xs) - 1)
    frac = rank - low
    value = sorted_xs[low] * (1 - frac) + sorted_xs[high] * frac
    # Clamp against 1-ulp interpolation drift outside the bracket.
    return min(max(value, sorted_xs[low]), sorted_xs[high])


def cdf_points(samples, max_points=200):
    """Empirical CDF as (value, cumulative fraction) pairs.

    Subsampled to roughly ``max_points`` entries; the largest sample is
    always kept, so the curve reaches 1.0 at the maximum.
    """
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        return []
    step = max(1, n // max_points)
    points = [(xs[i], (i + 1) / n) for i in range(0, n, step)]
    if points[-1][1] != 1.0:
        points.append((xs[-1], 1.0))
    return points


@dataclass
class MessageStats:
    """Substrate-level counters aggregated across processes."""

    received_total: int = 0
    received_regular_mean: float = 0.0   # mean over non-coordinator processes
    received_coordinator: int = 0
    duplicates: int = 0
    delivered: int = 0
    filtered: int = 0
    aggregated_saved: int = 0
    disaggregated: int = 0
    send_queue_drops: int = 0
    loss_injected: int = 0
    loss_examined: int = 0               # arrivals the loss hook inspected
    retransmissions: int = 0             # coordinator timeout re-issues
    #: Subset of retransmissions issued by coordinators/leaders born
    #: from takeover or election (the rest are loss-triggered; see the
    #: retransmissions_loss property).
    retransmissions_election: int = 0
    #: In-flight values re-proposed by takeover/elected coordinators.
    reproposals_election: int = 0
    #: Membership-layer counters (empty without membership configured).
    membership: dict = field(default_factory=dict)
    cpu_utilization_mean: float = 0.0    # mean per-process CPU busy frac.
    cpu_utilization_max: float = 0.0     # the busiest process
    # -- link-level aggregates (sum over every directed link) ---------------
    link_sent: int = 0
    link_delivered: int = 0
    link_dropped_queue: int = 0
    link_dropped_loss: int = 0
    link_bytes_sent: int = 0
    # -- fault engine attribution (zero / empty without a fault plan) -------
    fault_injections: dict = field(default_factory=dict)  # kind -> applied
    fault_partition_drops: int = 0
    fault_link_loss_drops: int = 0
    fault_burst_drops: int = 0
    #: [(started_at, healed_at|None)]
    partition_windows: list = field(default_factory=list)
    #: Decision notifications for unknown / already-decided value ids (see
    #: MetricsCollector). Zero on every clean run; a nonzero count is a
    #: harness bug.
    decisions_unknown: int = 0
    decisions_duplicate: int = 0

    @property
    def retransmissions_loss(self):
        """Retransmissions not attributable to takeover/election churn."""
        return self.retransmissions - self.retransmissions_election

    @property
    def duplicate_fraction(self):
        """Fraction of received messages discarded as duplicates."""
        if self.received_total == 0:
            return 0.0
        return self.duplicates / self.received_total

    @property
    def delivery_ratio(self):
        """Fraction of wire transmissions that survived to delivery."""
        if self.link_sent == 0:
            return 1.0
        return self.link_delivered / self.link_sent


class MetricsReport:
    """Everything a bench needs from one experiment run."""

    #: Set on traced runs only (repro.obs): the per-phase latency
    #: decomposition and the timeline sampler's buckets. Class-level
    #: defaults so untraced reports expose them as None; the fingerprint
    #: serialisation reads explicit keys and never sees either, keeping
    #: traced and untraced reports fingerprint-identical.
    phases = None
    timeline = None

    def __init__(self, config, latencies_s, per_client_latencies_s,
                 submitted, decided, decided_in_window, message_stats,
                 decided_by_majority, decided_by_message):
        self.config = config
        self.latencies_s = sorted(latencies_s)
        self.per_client_latencies_s = per_client_latencies_s
        self.submitted = submitted
        self.decided = decided
        self.decided_in_window = decided_in_window
        self.messages = message_stats
        self.decided_by_majority = decided_by_majority
        self.decided_by_message = decided_by_message

    # -- latency -------------------------------------------------------------

    @property
    def avg_latency_s(self):
        """Mean end-to-end latency over the measurement window."""
        return mean(self.latencies_s)

    @property
    def latency_stddev_s(self):
        """Latency standard deviation (the paper's Fig. 5 statistic)."""
        return stddev(self.latencies_s)

    def latency_percentile_s(self, p):
        """Latency percentile, p in [0, 100]."""
        return percentile(self.latencies_s, p)

    @property
    def median_latency_s(self):
        """Median end-to-end latency."""
        return self.latency_percentile_s(50.0)

    @property
    def p99_latency_s(self):
        """99th-percentile end-to-end latency (tail behaviour)."""
        return self.latency_percentile_s(99.0)

    @property
    def p999_latency_s(self):
        """99.9th-percentile end-to-end latency (extreme tail)."""
        return self.latency_percentile_s(99.9)

    def latency_cdf(self, points=100):
        """(latency_s, cumulative_fraction) pairs for CDF plotting, about
        ``points`` of them (:func:`cdf_points`)."""
        return cdf_points(self.latencies_s, points)

    # -- throughput & reliability ----------------------------------------------

    @property
    def throughput(self):
        """Decisions per second observed by clients in the window."""
        return self.decided_in_window / self.config.duration

    @property
    def not_ordered(self):
        """Values submitted but never ordered (paper Fig. 6 quantity)."""
        return self.submitted - self.decided

    @property
    def not_ordered_fraction(self):
        """Fraction of submitted values never ordered (Fig. 6 cell)."""
        if self.submitted == 0:
            return 0.0
        return self.not_ordered / self.submitted

    def __repr__(self):
        return (
            "MetricsReport(setup={}, n={}, rate={:.0f}/s: "
            "avg_latency={:.1f}ms, p99={:.1f}ms, p999={:.1f}ms, "
            "throughput={:.1f}/s, not_ordered={:.1%})"
        ).format(
            self.config.setup, self.config.n, self.config.rate,
            self.avg_latency_s * 1000.0, self.p99_latency_s * 1000.0,
            self.p999_latency_s * 1000.0, self.throughput,
            self.not_ordered_fraction,
        )


def _collect_message_stats(deployment):
    """Substrate counters of a finished deployment."""
    config = deployment.config
    stats = MessageStats()
    collector = deployment.collector
    stats.decisions_unknown = collector.decisions_unknown
    stats.decisions_duplicate = collector.decisions_duplicate
    regular_received = []
    for node in deployment.nodes:
        node_stats = node.stats
        stats.received_total += node_stats.received
        stats.delivered += node_stats.delivered
        if node.process_id == config.coordinator_id:
            stats.received_coordinator = node_stats.received
        else:
            regular_received.append(node_stats.received)
        stats.duplicates += node_stats.duplicates
        stats.filtered += node_stats.filtered
        stats.aggregated_saved += node_stats.aggregated_saved
        stats.disaggregated += node_stats.disaggregated
        stats.send_queue_drops += node_stats.send_queue_drops
    stats.received_regular_mean = mean(regular_received)
    elapsed = deployment.sim.now
    utilizations = [node.cpu.utilization(elapsed)
                    for node in deployment.nodes]
    if utilizations:
        stats.cpu_utilization_mean = mean(utilizations)
        stats.cpu_utilization_max = max(utilizations)
    if deployment.loss_injector is not None:
        stats.loss_injected = deployment.loss_injector.dropped
        stats.loss_examined = deployment.loss_injector.examined

    # Link-level aggregates: every directed link appears in exactly one
    # node's links (its sender's), so summing over nodes counts each once.
    for node in deployment.nodes:
        for link in node.links.values():
            link_stats = link.stats
            stats.link_sent += link_stats.sent
            stats.link_delivered += link_stats.delivered
            stats.link_dropped_queue += link_stats.dropped_queue
            stats.link_dropped_loss += link_stats.dropped_loss
            stats.link_bytes_sent += link_stats.bytes_sent

    for process in deployment.processes:
        process_stats = process.stats
        stats.retransmissions += process_stats.retransmissions
        stats.retransmissions_election += process_stats.election_retransmissions
        stats.reproposals_election += process_stats.election_reproposals

    membership = deployment.membership
    if membership is not None:
        stats.membership = membership.stats.to_dict()

    engine = deployment.fault_engine
    if engine is not None:
        fault = engine.stats
        stats.fault_injections = dict(fault.injections)
        stats.fault_partition_drops = fault.partition_drops
        stats.fault_link_loss_drops = fault.link_loss_drops
        stats.fault_burst_drops = fault.burst_drops
        stats.partition_windows = fault.partition_windows()

    return stats


def _decision_mode_counts(deployment):
    decided_by_majority = 0
    decided_by_message = 0
    for process in deployment.processes:
        by_majority, by_message = process.decision_modes()
        decided_by_majority += by_majority
        decided_by_message += by_message
    return decided_by_majority, decided_by_message


def build_report(deployment):
    """Aggregate a finished deployment's raw data into a
    :class:`MetricsReport` with exact sorted-sample latency statistics."""
    config = deployment.config
    collector = deployment.collector
    stats = _collect_message_stats(deployment)
    decided_by_majority, decided_by_message = _decision_mode_counts(deployment)

    window_start = config.warmup
    window_end = config.warmup + config.duration
    latencies = []
    per_client = {client.client_id: [] for client in deployment.clients}
    submitted = 0
    decided = 0
    decided_in_window = 0
    for record in collector.records():
        submitted += 1
        if record.decided_at is None:
            continue
        decided += 1
        latency = record.decided_at - record.submitted_at
        if window_start <= record.submitted_at <= window_end:
            latencies.append(latency)
            per_client[record.client_id].append(latency)
        if window_start <= record.decided_at <= window_end:
            decided_in_window += 1

    return MetricsReport(
        config=config,
        latencies_s=latencies,
        per_client_latencies_s=per_client,
        submitted=submitted,
        decided=decided,
        decided_in_window=decided_in_window,
        message_stats=stats,
        decided_by_majority=decided_by_majority,
        decided_by_message=decided_by_message,
    )
