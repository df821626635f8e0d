#!/usr/bin/env python
"""Coordinator failover over gossip (extension).

The paper keeps a fixed coordinator — "for the sake of progress a single
process is expected to act as the coordinator at a time" (§2.3) — and its
reliability study disables all timeout-triggered machinery. This example
exercises the other half of Paxos: the coordinator crashes mid-workload,
a backup detects the silence (missed heartbeats), elects itself with a
fresh round, re-runs Phase 1 over gossip, re-proposes in-flight values,
and the system resumes — with an attached safety monitor proving that no
process ever delivers conflicting values across the round change.

Run:  python examples/coordinator_failover.py
"""

from repro import ExperimentConfig
from repro.checks.monitor import SafetyMonitor
from repro.runtime.deployment import build_deployment


def main():
    config = ExperimentConfig(
        setup="semantic",
        n=13,
        rate=60.0,
        warmup=1.0,
        duration=2.0,
        drain=4.0,
        seed=4,
        crashes=((0, 1.8, None),),   # the coordinator dies at t=1.8s
        failover_timeout=0.5,        # backups act after rank x 0.5s silence
        retransmit_timeout=0.5,
    )
    deployment = build_deployment(config)
    monitor = SafetyMonitor().attach(deployment)
    deployment.start()
    deployment.run()

    new_coordinators = [p for p in deployment.processes if p.takeovers > 0]
    print("t=1.8s: coordinator (process 0, North Virginia) crashed.")
    for process in new_coordinators:
        print("process {} ({}) took over with round {} "
              "(Phase 1 complete: {})".format(
                  process.process_id,
                  deployment.topology.region_name(process.process_id),
                  process.coordinator.round,
                  process.coordinator.phase1_complete))

    live_clients = [c for c in deployment.clients if c.client_id != 0]
    ordered = sum(c.own_decided for c in live_clients)
    submitted = sum(c.submitted for c in live_clients)
    print("live clients ordered {}/{} of their values "
          "({} deliveries observed, zero safety violations)".format(
              ordered, submitted, monitor.deliveries))
    laggards = monitor.laggards()
    if laggards:
        print("processes still catching up at cutoff: {}".format(laggards))


if __name__ == "__main__":
    main()
