"""Windowed time series sampled by a virtual-time ticker.

The :class:`TimelineSampler` schedules one tick at every multiple of
``ObsConfig.tick_interval`` up to the run horizon and records, per
bucket, the *deltas* of cumulative counters it reads from the live
deployment — throughput curves, in-flight count, per-region link
utilization, retransmissions, CPU utilization and membership/fault
state. Partition windows and election storms thereby become curves
instead of one end-of-run number.

Inertness: tick instants are ``k * tick_interval`` (multiplication, not
accumulated addition, so float error cannot drift the grid), each tick
is a fresh kernel event appended *after* any same-instant model events
already in the heap, and the callbacks only read. The counter reads go
through the same lazily-draining ``stats`` properties the end-of-run
report uses — draining is pure bookkeeping, so observing mid-run changes
nothing the model can see.
"""

from repro.runtime.metrics import mean


class TimelineSampler:
    """Fixed-width virtual-time buckets over a running deployment.

    ``series`` is column-oriented: ``{"t": [...], "submitted": [...], ...}``
    with one entry per completed bucket; bucket ``i`` covers the interval
    ``(t[i] - tick_interval, t[i]]``. Per-region link columns are keyed
    ``"link_util:<region>"`` in sorted region order (fixed at install, so
    every run of a config emits identical columns).
    """

    def __init__(self, deployment, tracer):
        self.deployment = deployment
        self.tracer = tracer
        self.interval = tracer.obs_config.tick_interval
        self.horizon = deployment.config.end_of_run
        self._tick_index = 0
        # src-region name per directed link, grouped once at install; the
        # link set is fixed at build time except for membership's lazily
        # connected join edges, which we re-scan for on each tick.
        self._regions = sorted(
            {deployment.topology.region_name(i)
             for i in range(deployment.config.n)})
        self._links_by_region = {region: [] for region in self._regions}
        self._known_links = 0
        self._scan_links()
        self.series = {"t": [], "submitted": [], "decided": [],
                       "delivered": [], "in_flight": [],
                       "retransmissions": [], "cpu_utilization_mean": [],
                       "link_util_total": [], "alive": [],
                       "partition_active": []}
        for region in self._regions:
            self.series["link_util:" + region] = []
        # Previous-tick cumulative readings, for per-bucket deltas.
        self._prev = {
            "submitted": 0, "decided": 0, "delivered": 0,
            "retransmissions": 0, "cpu_busy": 0.0,
            "link_busy": {region: 0.0 for region in self._regions},
        }

    def _scan_links(self):
        """Group any not-yet-seen directed links by their source region."""
        nodes = self.deployment.nodes
        total = sum(len(node.links) for node in nodes)
        if total == self._known_links:
            return
        topology = self.deployment.topology
        by_region = {region: [] for region in self._regions}
        for node in nodes:
            for link in node.links.values():
                by_region[topology.region_name(link.src)].append(link)
        self._links_by_region = by_region
        self._known_links = total

    def start(self):
        """Arm the ticker; called by Tracer.install before the run."""
        self._schedule_next()

    def _schedule_next(self):
        self._tick_index += 1
        t = self._tick_index * self.interval
        if t > self.horizon:
            return
        # A fresh event gets the next tie-break seq, so a tick landing on
        # a model-event instant runs after everything already scheduled
        # there — it observes, never preempts.
        self.deployment.sim.schedule_at(t, self._tick)

    def _tick(self):
        self._sample(self._tick_index * self.interval)
        self._schedule_next()

    def _sample(self, t):
        deployment = self.deployment
        tracer = self.tracer
        interval = self.interval
        prev = self._prev
        series = self.series

        series["t"].append(t)
        for key, cumulative in (
            ("submitted", tracer.submitted_total),
            ("decided", tracer.decided_total),
            ("delivered", tracer.delivered_total),
        ):
            series[key].append(cumulative - prev[key])
            prev[key] = cumulative
        series["in_flight"].append(
            tracer.submitted_total - tracer.delivered_total)

        retrans = sum(process.stats.retransmissions
                      for process in deployment.processes)
        series["retransmissions"].append(retrans - prev["retransmissions"])
        prev["retransmissions"] = retrans

        cpu_busy = sum(node.cpu.busy_time for node in deployment.nodes)
        busy_delta = cpu_busy - prev["cpu_busy"]
        prev["cpu_busy"] = cpu_busy
        n = len(deployment.nodes)
        series["cpu_utilization_mean"].append(
            busy_delta / (interval * n) if n else 0.0)

        # Per-region link utilization: serialisation-time deltas estimated
        # from the links' cost model — sum of per-link busy fractions by
        # source region (can exceed 1.0: a region has many links).
        self._scan_links()
        total_util = 0.0
        for region in self._regions:
            busy = 0.0
            for link in self._links_by_region[region]:
                link_stats = link.stats
                config = link.config
                busy += (link_stats.sent * config.per_message_s
                         + link_stats.bytes_sent * config.per_byte_s)
            util = (busy - prev["link_busy"][region]) / interval
            prev["link_busy"][region] = busy
            series["link_util:" + region].append(util)
            total_util += util
        series["link_util_total"].append(total_util)

        membership = deployment.membership
        if membership is not None:
            alive = len(membership.view.alive_members())
        else:
            alive = deployment.config.n
        series["alive"].append(alive)

        engine = deployment.fault_engine
        active = 0
        if engine is not None:
            for start, heal in engine.stats.partition_windows():
                if start <= t and (heal is None or heal > t):
                    active += 1
        series["partition_active"].append(active)

    # -- post-run views -----------------------------------------------------

    def rows(self):
        """Per-bucket dicts (one per tick), for exporters."""
        series = self.series
        keys = sorted(series.keys())
        count = len(series["t"])
        return [{key: series[key][i] for key in keys} for i in range(count)]

    def summary(self):
        """Headline aggregates over the whole timeline."""
        series = self.series
        if not series["t"]:
            return {}
        interval = self.interval
        throughput = [d / interval for d in series["delivered"]]
        return {
            "ticks": len(series["t"]),
            "tick_interval_s": interval,
            "peak_throughput": max(throughput),
            "mean_throughput": mean(throughput),
            "peak_in_flight": max(series["in_flight"]),
            "retransmissions": sum(series["retransmissions"]),
            "min_alive": min(series["alive"]),
            "partition_ticks": sum(
                1 for active in series["partition_active"] if active),
        }
