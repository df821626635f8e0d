"""One workload on one seed: the passes and what they yield.

Two kinds of number come out of a deterministic simulator. **Simulated**
statistics and event/message **counts** repeat exactly for a fixed seed and
are taken from any pass (all passes must agree, see
:meth:`WorkloadRun._record`).
**Host** time does not repeat, and is measured as follows.

Host-time method: a timed repeat is cut into :data:`SLICES` equal slices of
simulated time by repeated ``sim.run(until=...)`` (back-to-back ``run``
calls compose); the frozen calibration kernel runs after every slice that
did real work; each slice's ``process_time`` is scaled by ``CU_REF_S /
mean(adjacent calibrations)``, i.e. converted to seconds on a reference
host where the kernel takes exactly 10 ms. Slices are summed per repeat
and the median over repeats is reported.
"""

import cProfile
import collections
import gc
import hashlib
import pstats
import statistics
import time
import tracemalloc

from repro.checks.monitor import InvariantViolation, SafetyMonitor
from repro.runtime.deployment import build_deployment
from repro.runtime.metrics import build_report

from benchmarks.e2e.calib import CU_REF_S, Calibrator
from benchmarks.e2e.layers import fold, layer_metrics

#: Slices of simulated time per timed repeat.
SLICES = 64

#: A slice cheaper than this (an idle stretch of the drain) reuses the
#: previous calibration instead of paying 6-10 ms for a new one.
MIN_SLICE_S = 0.002

#: One set-up batch loops ``build_deployment`` until it has used this much
#: CPU: long enough that the timer's resolution does not matter, short
#: enough that the calibrations either side see the same host state.
SETUP_BATCH_S = 0.025
SETUP_BATCHES = 25


def normalised(seconds, before, after):
    """``seconds`` of CPU here, as seconds on the reference host, given
    the calibrations measured before and after it."""
    return seconds * CU_REF_S / ((before + after) / 2.0)


class Host:
    """The calibrator and every calibration of this process."""

    def __init__(self):
        self._calibrator = Calibrator()
        self.calibrations = []

    def calibrate(self):
        seconds = self._calibrator.run()
        self.calibrations.append(seconds)
        return seconds

    def summary(self):
        cal = self.calibrations
        return {
            "calib_ms": {"min": min(cal) * 1e3,
                         "median": statistics.median(cal) * 1e3,
                         "max": max(cal) * 1e3},
            "calibrations": len(cal),
            "noisy_host": max(cal) / min(cal) > 1.5,
        }


def quartiles(values):
    """(q1, median, q3); a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def percentile(sorted_xs, p):
    """Linear-interpolation percentile of sorted data, p in [0, 100].

    The benchmark's own, so that an edit to ``repro``'s statistics helpers
    cannot redefine a metric.
    """
    rank = (p / 100.0) * (len(sorted_xs) - 1)
    low = int(rank)
    high = min(low + 1, len(sorted_xs) - 1)
    return sorted_xs[low] + (sorted_xs[high] - sorted_xs[low]) * (rank - low)


def latency_tail(sorted_xs):
    """(label, value): the highest of p99.9/p99/p90 with at least ten
    samples beyond it; under 100 samples none has, and the maximum stands
    in (labelled so) because every run must print the metric."""
    count = len(sorted_xs)
    for label, p in (("p99.9", 99.9), ("p99", 99.0), ("p90", 90.0)):
        if count * (1.0 - p / 100.0) >= 10.0:
            return label, percentile(sorted_xs, p)
    return "max", sorted_xs[-1]


class Observation:
    """Exact results of one finished simulation, and their digest."""

    def __init__(self, deployment, report):
        config = deployment.config
        sim = deployment.sim
        records = list(deployment.collector.records())
        window = (config.warmup, config.end_of_workload)
        decided = [r for r in records if r.decided_at is not None]
        self.latencies = sorted(
            r.decided_at - r.submitted_at for r in decided
            if window[0] <= r.submitted_at <= window[1])
        self.decision_times = sorted(r.decided_at for r in decided)
        self.first_submit = min(
            (r.submitted_at for r in records), default=0.0)
        self.submitted = len(records)
        self.decided = len(decided)
        messages = report.messages
        membership = messages.membership
        #: Exact counters: part of the digest, source of the count metrics.
        self.counts = {
            "events_executed": sim.events_executed,
            "events_scheduled": sim.events_scheduled,
            "submitted": self.submitted,
            "decided": self.decided,
            "decided_in_window": report.decided_in_window,
            "decided_by_message": report.decided_by_message,
            "decided_by_majority": report.decided_by_majority,
            "link_sent": messages.link_sent,
            "link_delivered": messages.link_delivered,
            "link_bytes_sent": messages.link_bytes_sent,
            "link_dropped_queue": messages.link_dropped_queue,
            "link_dropped_loss": messages.link_dropped_loss,
            "received_total": messages.received_total,
            "duplicates": messages.duplicates,
            "filtered": messages.filtered,
            "aggregated_saved": messages.aggregated_saved,
            "send_queue_drops": messages.send_queue_drops,
            "retransmissions": messages.retransmissions,
            "heartbeats_sent": membership.get("heartbeats_sent", 0),
            "elections": membership.get("elections", 0),
        }
        self.cpu_util_max = messages.cpu_utilization_max
        self.cpu_util_mean = messages.cpu_utilization_mean
        self.digest = self._digest()

    def _digest(self):
        """sha256 over the latencies (``float.hex``) and exact counters.

        Owned by the benchmark: independent of
        ``repro.analysis.fingerprint``, whose schema is due to change.
        """
        h = hashlib.sha256()
        for latency in self.latencies:
            h.update(latency.hex().encode())
        for key in sorted(self.counts):
            h.update("{}={};".format(key, self.counts[key]).encode())
        for value in (self.cpu_util_max, self.cpu_util_mean):
            h.update(value.hex().encode())
        return h.hexdigest()

    @property
    def failed(self):
        """Values submitted but never decided by the end of the run."""
        return self.submitted - self.decided

    def simulated(self):
        """The simulated end-to-end statistics (exact for a seed)."""
        times = self.decision_times
        gaps = [b - a for a, b in zip([self.first_submit] + times, times)]
        return {
            "sim_latency_p50_ms": percentile(self.latencies, 50.0) * 1e3,
            "sim_latency_tail_ms": latency_tail(self.latencies)[1] * 1e3,
            "sim_throughput_vps":
                self.decided / (times[-1] - self.first_submit),
            "sim_unavailable_s": max(gaps),
            "events_per_decided":
                self.counts["events_executed"] / self.decided,
        }


#: Host time of one timed repeat: ``cpu_s`` (start + run + report) and
#: ``report_s`` (build_report alone) are normalised, the raw ones are not.
Repeat = collections.namedtuple(
    "Repeat", "cpu_s report_s raw_cpu_s raw_wall_s")


class WorkloadRun:
    """All passes of one workload on one seed, and the metrics from them."""

    def __init__(self, workload, seed, overlay_seed, host):
        self.workload = workload
        self.seed = seed
        self.overlay_seed = overlay_seed
        self.host = host
        self.reference = None       # Observation of the first pass
        self.problems = []          # correctness failures, human-readable
        self.repeats = []
        self.setup_batches = []     # normalised seconds per build
        self.peak_mem_bytes = None
        self.profile_stats = None   # pstats.Stats of the profiled pass
        self.profile_cpu_s = None   # normalised

    def config(self):
        return self.workload.config(self.seed, self.overlay_seed)

    # -- passes --------------------------------------------------------------

    def _simulate(self, monitor=None):
        deployment = build_deployment(self.config())
        if monitor is not None:
            monitor.attach(deployment)
        deployment.start()
        deployment.run()
        if monitor is not None:
            monitor.finalize()
        return deployment, build_report(deployment)

    def _record(self, deployment, report, what):
        """Every pass must reproduce the first one bit for bit."""
        observed = Observation(deployment, report)
        if self.reference is None:
            self.reference = observed
        elif (observed.digest, observed.counts) != (
                self.reference.digest, self.reference.counts):
            self.problems.append(
                "{}: digest/counts differ from the first pass "
                "({} vs {})".format(what, observed.digest[:12],
                                    self.reference.digest[:12]))
        return observed

    def check(self):
        """One run under a strict SafetyMonitor, outside all timing."""
        try:
            deployment, report = self._simulate(SafetyMonitor(strict=True))
        except InvariantViolation as violation:
            self.problems.append("safety violation: {}".format(violation))
            return
        observed = self._record(deployment, report, "check pass")
        if observed.decided == 0:
            self.problems.append("no value decided")
            return
        rejoin_at = self.workload.rejoin_at
        if rejoin_at is not None and observed.decision_times[-1] <= rejoin_at:
            self.problems.append(
                "no decision after the Rejoin at t={}".format(rejoin_at))

    def measure_setup(self):
        """Normalised seconds per ``build_deployment``: median of batches."""
        config = self.config()
        host = self.host
        for _ in range(SETUP_BATCHES):
            gc.collect()
            before = host.calibrate()
            builds = 0
            start = time.process_time()
            while True:
                build_deployment(config)
                builds += 1
                elapsed = time.process_time() - start
                if elapsed >= SETUP_BATCH_S:
                    break
            after = host.calibrate()
            self.setup_batches.append(
                normalised(elapsed / builds, before, after))

    def timed_repeat(self):
        """One untraced repeat, sliced and normalised (module docstring)."""
        config = self.config()
        host = self.host
        gc.collect()
        deployment = build_deployment(config)
        sim = deployment.sim
        end = config.end_of_run
        process_time = time.process_time
        perf_counter = time.perf_counter
        before = host.calibrate()
        wall_start = perf_counter()
        start = process_time()
        deployment.start()
        carried = process_time() - start    # joins the first slice
        wall = perf_counter() - wall_start
        total = raw = 0.0
        for index in range(1, SLICES + 1):
            until = end if index == SLICES else end * index / SLICES
            wall_start = perf_counter()
            start = process_time()
            sim.run(until=until)
            carried += process_time() - start
            wall += perf_counter() - wall_start
            if carried >= MIN_SLICE_S or index == SLICES:
                after = host.calibrate()
                total += normalised(carried, before, after)
                raw += carried
                before = after
                carried = 0.0
        wall_start = perf_counter()
        start = process_time()
        report = build_report(deployment)
        report_raw = process_time() - start
        wall += perf_counter() - wall_start
        after = host.calibrate()
        report_s = normalised(report_raw, before, after)
        self.repeats.append(Repeat(
            total + report_s, report_s, raw + report_raw, wall))
        self._record(deployment, report, "timed repeat")

    def measure_memory(self):
        """tracemalloc peak over build + run + report, in its own pass."""
        gc.collect()
        tracemalloc.start()
        try:
            deployment, report = self._simulate()
            self.peak_mem_bytes = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        self._record(deployment, report, "memory pass")

    def profile(self):
        """The traced run: same inputs under cProfile, from out here."""
        host = self.host
        gc.collect()
        profiler = cProfile.Profile()
        before = host.calibrate()
        start = time.process_time()
        profiler.enable()
        try:
            deployment, report = self._simulate()
        finally:
            profiler.disable()
        elapsed = time.process_time() - start
        self.profile_cpu_s = normalised(
            elapsed, before, host.calibrate())
        self.profile_stats = pstats.Stats(profiler)
        self._record(deployment, report, "profiled pass")

    # -- results -------------------------------------------------------------

    @property
    def correct(self):
        return not self.problems and self.reference is not None

    def attempted_failed(self):
        """(attempted, failed): a safety or determinism failure fails
        every value of the workload."""
        if self.reference is None:
            return 1, 1
        attempted = max(1, self.reference.submitted)
        return attempted, (self.reference.failed if self.correct
                           else attempted)

    def cpu_s(self):
        """Normalised seconds of one repeat: (q1, median, q3)."""
        return quartiles([r.cpu_s for r in self.repeats])

    def end_to_end(self):
        """name -> (value, q1, q3). Exact metrics have q1 == q3 == value."""
        reference = self.reference
        metrics = {name: (value, value, value)
                   for name, value in reference.simulated().items()}
        decided = reference.decided
        q1, median, q3 = self.cpu_s()
        metrics["cpu_ms_per_decided"] = tuple(
            x * 1e3 / decided for x in (median, q1, q3))
        q1, median, q3 = quartiles(self.setup_batches)
        metrics["setup_s"] = (median, q1, q3)
        peak = self.peak_mem_bytes / 1e6
        metrics["peak_mem_mb"] = (peak, peak, peak)
        return metrics

    def diagnostics(self):
        """Raw medians and labels printed beside the metrics."""
        reference = self.reference
        return dict(
            tail_percentile=latency_tail(reference.latencies)[0],
            latency_samples=len(reference.latencies),
            digest=reference.digest,
            repeats=len(self.repeats),
            run_wall_s=statistics.median(r.raw_wall_s for r in self.repeats),
            run_cpu_s=statistics.median(r.raw_cpu_s for r in self.repeats),
            counts=reference.counts,
        )

    def per_layer(self, driver_metrics):
        """(name -> value, folded profile). Needs the profiled pass and at
        least one timed repeat."""
        counts = self.reference.counts
        decided = self.reference.decided
        executed = counts["events_executed"]
        scheduled = counts["events_scheduled"]
        received = counts["received_total"]
        learned = counts["decided_by_message"] + counts["decided_by_majority"]
        cpu_s = self.cpu_s()[1]
        folded = fold(self.profile_stats)
        metrics = layer_metrics(folded, executed)
        metrics.update({
            "sim.events.scheduled_per_decided": scheduled / decided,
            "sim.events.never_run_share": (scheduled - executed) / scheduled,
            "sim.kernel.events_per_cpu_s": executed / cpu_s,
            "sim.server.cpu_util_max": self.reference.cpu_util_max,
            "sim.server.cpu_util_mean": self.reference.cpu_util_mean,
            "net.channel.msgs_per_decided": counts["link_sent"] / decided,
            "net.channel.bytes_per_decided":
                counts["link_bytes_sent"] / decided,
            "net.channel.delivery_ratio":
                counts["link_delivered"] / counts["link_sent"],
            "net.channel.queue_drops": counts["link_dropped_queue"],
            "net.faults.loss_drops": counts["link_dropped_loss"],
            "gossip.node.received_per_decided": received / decided,
            "gossip.node.send_queue_drops": counts["send_queue_drops"],
            "gossip.cache.duplicate_share": counts["duplicates"] / received,
            "core.filtered_per_decided": counts["filtered"] / decided,
            "core.aggregated_saved_per_decided":
                counts["aggregated_saved"] / decided,
            "paxos.retransmissions": counts["retransmissions"],
            "paxos.decided_by_message_share":
                counts["decided_by_message"] / learned,
            "membership.heartbeats_sent": counts["heartbeats_sent"],
            "membership.elections": counts["elections"],
            "runtime.report_ms": 1e3 * statistics.median(
                r.report_s for r in self.repeats),
            "bench.trace_overhead_ratio": self.profile_cpu_s / cpu_s,
        })
        metrics.update(driver_metrics)
        return metrics, folded
