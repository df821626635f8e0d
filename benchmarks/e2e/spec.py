"""The metric tables: names, units, kinds, bounds, and what moves what.

``BENCHMARK.json`` at the repo root lists the same names, units, directions
and bounds; ``test_contract.py`` holds the two together.

Kinds: ``host`` is normalised CPU time of this machine (does not repeat
exactly), ``memory`` is a tracemalloc peak (repeats to a few bytes),
``simulated`` and ``count`` repeat exactly for a fixed seed.
"""

from benchmarks.e2e.workloads import WORKLOADS

#: End-to-end metrics: what a user of the simulator waits for or reads off
#: a run. ``bound`` is the share of the parent's median by which the metric
#: may worsen. For the exact kinds the bound only has to exceed the spread
#: *across seeds* (the driver's measure); on one seed they are compared
#: exactly by ``--compare``.
END_TO_END = (
    dict(name="setup_s", unit="s", better="lower", bound=0.25, kind="host",
         what="normalised seconds per build_deployment(config)"),
    dict(name="cpu_ms_per_decided", unit="ms", better="lower", bound=0.20,
         kind="host",
         what="normalised CPU ms of start+run+build_report per decided "
              "value = events_per_decided * 1000 / "
              "sim.kernel.events_per_cpu_s"),
    dict(name="peak_mem_mb", unit="MB", better="lower", bound=0.10,
         kind="memory",
         what="tracemalloc peak over build+run+report, own pass"),
    dict(name="events_per_decided", unit="count", better="lower",
         bound=0.02, kind="count",
         what="executed kernel events / decided values"),
    dict(name="sim_latency_p50_ms", unit="ms", better="lower", bound=0.05,
         kind="simulated",
         what="submit->decide latency of values submitted in the window"),
    dict(name="sim_latency_tail_ms", unit="ms", better="lower", bound=0.10,
         kind="simulated",
         what="highest of p90/p99/p99.9 with >=10 samples beyond it; the "
              "maximum under 100 samples"),
    dict(name="sim_throughput_vps", unit="1/s", better="higher", bound=0.05,
         kind="simulated",
         what="decided values / (last decision - first submission)"),
    dict(name="sim_unavailable_s", unit="s", better="lower", bound=0.15,
         kind="simulated",
         what="longest stretch from the first submission on without a "
              "decision (time without service)"),
)

#: Layer -> the path fragments under ``repro/`` that belong to it. A layer
#: is a module (or a few small ones that only make sense together).
LAYERS = {
    "sim.events": ("sim/events.py",),
    "sim.kernel": ("sim/kernel.py", "sim/actors.py", "sim/random.py"),
    "sim.server": ("sim/server.py",),
    "net.channel": ("net/channel.py", "net/transport.py", "net/message.py"),
    "net.faults": ("net/faults/", "runtime/crashes.py"),
    "gossip.node": ("gossip/node.py", "gossip/strategies.py",
                    "gossip/hooks.py"),
    "gossip.cache": ("gossip/cache.py", "gossip/bloom.py"),
    "core": ("core/",),
    "paxos": ("paxos/", "raft/"),
    "membership": ("membership/",),
    "runtime": ("runtime/",),
}

_ALL = tuple(WORKLOADS)
_SEMANTIC = ("semantic_knee_n13", "semantic_n100")
_GOSSIP = ("semantic_n100", "gossip_overload_n13")
_KERNEL = ("gossip_overload_n13", "baseline_star_n13")
_FAILOVER = ("lossy_failover_n13",)
_COST = ("cpu_ms_per_decided",)

#: Which end-to-end metric a layer's numbers should move, on which
#: workloads (README "How the metrics interact" is this table in prose).
_LAYER_MOVES = {
    "sim.events": (_COST, _KERNEL),
    "sim.kernel": (_COST, _KERNEL),
    "sim.server": (_COST, _KERNEL),
    "net.channel": (_COST, _ALL),
    "net.faults": (("sim_unavailable_s", "sim_latency_tail_ms"), _FAILOVER),
    "gossip.node": (("cpu_ms_per_decided", "events_per_decided"), _GOSSIP),
    "gossip.cache": (("cpu_ms_per_decided", "peak_mem_mb"), _GOSSIP),
    "core": (("cpu_ms_per_decided", "events_per_decided"), _SEMANTIC),
    "paxos": (_COST, ("baseline_star_n13",)),
    "membership": (("sim_unavailable_s", "cpu_ms_per_decided"), _FAILOVER),
    "runtime": (("cpu_ms_per_decided", "setup_s"),
                ("baseline_star_n13", "semantic_n100")),
}


def _metric(name, unit, better, kind, source, moves, what):
    metrics, workloads = moves
    return dict(name=name, unit=unit, better=better, kind=kind,
                source=source, what=what,
                moves=dict(metrics=list(metrics), workloads=list(workloads)))


def _per_layer():
    out = []
    for layer in LAYERS:
        out.append(_metric(
            layer + ".self_share", "share", "lower", "host", "profile",
            _LAYER_MOVES[layer],
            "fraction of profiled self time spent in the layer"))
        out.append(_metric(
            layer + ".calls_per_event", "count", "lower", "count", "profile",
            _LAYER_MOVES[layer],
            "Python calls into the layer per executed kernel event"))
    out.append(_metric(
        "other.self_share", "share", "lower", "host", "profile",
        (_COST, _ALL), "profiled self time outside every named layer"))

    def counter(name, unit, better, kind, moves, what):
        out.append(_metric(name, unit, better, kind, "counters", moves, what))

    def driver(name, unit, better, moves, what):
        out.append(_metric(name, unit, better, "host", "driver", moves, what))

    counter("sim.events.scheduled_per_decided", "count", "lower", "count",
            (_COST, _ALL), "kernel events scheduled / decided values")
    counter("sim.events.never_run_share", "share", "lower", "count",
            (_COST, _FAILOVER), "(scheduled - executed) / scheduled")
    counter("sim.kernel.events_per_cpu_s", "1/s", "higher", "host",
            (_COST, _ALL), "executed events per normalised CPU second")
    counter("sim.server.cpu_util_max", "share", "lower", "simulated",
            (("sim_throughput_vps", "sim_latency_p50_ms"),
             ("gossip_overload_n13",)),
            "simulated CPU utilisation of the busiest process")
    counter("sim.server.cpu_util_mean", "share", "lower", "simulated",
            (("sim_throughput_vps",), ("gossip_overload_n13",)),
            "mean simulated CPU utilisation over processes")
    counter("net.channel.msgs_per_decided", "count", "lower", "count",
            (("events_per_decided", "cpu_ms_per_decided"), _SEMANTIC),
            "link transmissions / decided values")
    counter("net.channel.bytes_per_decided", "B", "lower", "count",
            (("sim_latency_p50_ms",), _ALL),
            "bytes put on links / decided values")
    counter("net.channel.delivery_ratio", "share", "higher", "count",
            (("sim_throughput_vps",), ("gossip_overload_n13",)),
            "link deliveries / link transmissions")
    counter("net.channel.queue_drops", "count", "lower", "count",
            (("sim_throughput_vps",), ("gossip_overload_n13",)),
            "messages dropped at a full link queue")
    counter("net.faults.loss_drops", "count", "lower", "count",
            (("sim_latency_tail_ms", "sim_unavailable_s"), _FAILOVER),
            "messages dropped by the receiver-side loss hook")
    counter("gossip.node.received_per_decided", "count", "lower", "count",
            (("events_per_decided", "cpu_ms_per_decided"), _GOSSIP),
            "gossip receives / decided values")
    counter("gossip.node.send_queue_drops", "count", "lower", "count",
            (("sim_throughput_vps",), ("gossip_overload_n13",)),
            "messages dropped at a full per-peer send queue")
    counter("gossip.cache.duplicate_share", "share", "lower", "count",
            (("events_per_decided",), _GOSSIP),
            "receives discarded as duplicates / receives")
    counter("core.filtered_per_decided", "count", "higher", "count",
            (("events_per_decided",), _SEMANTIC),
            "sends dropped by semantic filtering / decided values")
    counter("core.aggregated_saved_per_decided", "count", "higher", "count",
            (("events_per_decided",), _SEMANTIC),
            "sends saved by semantic aggregation / decided values")
    counter("paxos.retransmissions", "count", "lower", "count",
            (("sim_latency_tail_ms", "sim_unavailable_s"), _FAILOVER),
            "coordinator timeout re-issues")
    counter("paxos.decided_by_message_share", "share", "lower", "count",
            (("sim_latency_p50_ms",), _ALL),
            "decisions learned from a Decision message rather than votes")
    counter("membership.heartbeats_sent", "count", "lower", "count",
            (("cpu_ms_per_decided",), _FAILOVER), "liveness beacons sent")
    counter("membership.elections", "count", "lower", "count",
            (("sim_unavailable_s",), _FAILOVER), "election attempts")
    counter("runtime.report_ms", "ms", "lower", "host",
            (_COST, ("baseline_star_n13",)),
            "normalised CPU ms of build_report")

    driver("sim.events.steady_ops_s", "1/s", "higher", (_COST, _KERNEL),
           "queue push+pop ops/s at a held population, 50 ms horizon")
    driver("sim.events.cancel_ops_s", "1/s", "higher", (_COST, _FAILOVER),
           "queue ops/s with two thirds cancelled before firing")
    driver("sim.server.submit_ops_s", "1/s", "higher", (_COST, _KERNEL),
           "FifoServer.submit_timed jobs/s, submitted and drained")
    driver("net.channel.transmit_ops_s", "1/s", "higher", (_COST, _ALL),
           "DirectedLink.transmit messages/s, sent and delivered")
    driver("gossip.cache.probe_ops_s", "1/s", "higher", (_COST, _GOSSIP),
           "InternedSeenCache probes/s at 70 % duplicates")
    driver("core.validate_ops_s", "1/s", "higher", (_COST, _SEMANTIC),
           "PaxosSemantics.validate calls/s on a seeded 2b stream")
    driver("core.aggregate_ops_s", "1/s", "higher", (_COST, _SEMANTIC),
           "votes/s through PaxosSemantics.aggregate")
    driver("runtime.build_n100_ms", "ms", "lower",
           (("setup_s",), ("semantic_n100",)),
           "normalised ms to build the semantic_n100 deployment")
    driver("obs.overhead_ratio", "ratio", "lower", (_COST, _SEMANTIC),
           "semantic_knee_n13 cost with obs=ObsConfig() over without")
    driver("bench.trace_overhead_ratio", "ratio", "lower", (_COST, _ALL),
           "profiled pass cost over untraced cost, this workload")
    return tuple(out)


PER_LAYER = _per_layer()


def manifest(run_seconds, command):
    """The ``BENCHMARK.json`` object these tables imply."""
    return {
        "command": list(command),
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{key: m[key] for key in
                        ("name", "unit", "better", "bound")}
                       for m in END_TO_END],
        "per_layer": [{key: m[key] for key in ("name", "unit", "better")}
                      for m in PER_LAYER],
    }
