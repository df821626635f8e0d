"""The fixed-seed microbenchmark scenarios.

Each scenario is a small experiment shaped like one of the paper's
figures (workload sweep cell, lossy grid cell, overlay run, run at
saturation). Because the simulator is deterministic, a scenario always
executes exactly the same events and produces a bit-identical report;
only the wall-clock varies with the machine and the hot-path
implementation. These five are also the committed-fingerprint corpus:
tier-1 re-runs them and demands the report fingerprints recorded in
``benchmarks/perf/BENCH_perf.json``.
"""

from repro.membership import MembershipConfig
from repro.net.channel import LinkConfig
from repro.net.faults.events import (Crash, Degrade, FaultPlan, Join, Leave,
                                     RegionOutage, Rejoin)
from repro.runtime.config import ExperimentConfig

#: Overlay used by every scenario: fixed so the harness is self-contained
#: (no median-of-100 selection) and the event count never drifts.
OVERLAY_SEED = 11


def _config(setup, rate, **overrides):
    defaults = dict(
        setup=setup,
        n=13,
        rate=float(rate),
        warmup=0.4,
        duration=1.0,
        drain=2.0,
        seed=1,
        overlay_seed=OVERLAY_SEED,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


#: name -> zero-argument config factory; one scenario per figure family.
SCENARIOS = {
    # Fig. 3: one workload-sweep cell near the knee of the n=13 curve.
    "fig3_workload": lambda: _config("semantic", 200, duration=0.6),
    # Fig. 5: the latency-distribution workload (steady moderate rate).
    "fig5_latency": lambda: _config("semantic", 104),
    # Fig. 6: one lossy grid cell, retransmissions disabled as in §4.5.
    "fig6_loss": lambda: _config("gossip", 52, loss_rate=0.2,
                                 retransmit_timeout=None, drain=3.0),
    # Fig. 7: a low-rate run over one random overlay.
    "fig7_overlay": lambda: _config("gossip", 26),
    # Fig. 8: classic gossip pushed past saturation.
    "fig8_saturation": lambda: _config("gossip", 800, duration=0.4),
}

def _fig3_n100():
    """A Fig. 3-shaped cell at n=100: the k-out family past the paper's
    largest published size, on the standard 13-region matrix."""
    return _config("semantic", 60, n=100, warmup=0.3, duration=0.2,
                   drain=1.0)


def _gossip_n1000():
    """Planet-scale dissemination smoke: n=1000 over 30 synthetic regions
    on a sparse power-law overlay.

    One value, horizon cut at 0.4 simulated seconds — this is a gossip
    *flood* benchmark, not a consensus-liveness run. Even with semantic
    aggregation, every process observing a quorum of 501 votes costs
    millions of events (receives scale ~ n * quorum / parts-per-
    aggregate), so a decided value at n=1000 needs minutes of wall clock;
    cutting before quorum keeps the scenario at ~3M events while still
    exercising the interner, array-backed dedup and flat forward path on
    a thousand-node overlay. ``decided`` is 0 by design.
    """
    return _config("semantic", 4, n=1000, k=2, warmup=0.3, duration=0.05,
                   drain=0.05, num_clients=1, num_regions=30, region_seed=5,
                   overlay_family="powerlaw")


#: Large-N scenarios benchmarked (and baselined in BENCH_perf.json) like
#: the figure scenarios, but kept out of :data:`SCENARIOS` so the tier-1
#: fingerprint test does not re-run n=1000 deployments on every CI job.
#: The race audit accepts them by name (CI audits gossip_n1000).
PERF_SCENARIOS = {
    "fig3_n100": _fig3_n100,
    "gossip_n1000": _gossip_n1000,
}


def _membership(n_initial, **overrides):
    timings = dict(
        heartbeat_interval=0.04,
        suspicion_timeout=0.15,
        dead_timeout=0.3,
        initial_members=tuple(range(n_initial)),
        election_backoff=0.15,
        election_backoff_max=0.6,
        election_jitter=0.03,
    )
    timings.update(overrides)
    return MembershipConfig(**timings)


def _churn_smoke():
    """Join + graceful leave + rejoin with the membership layer live.

    Fixed fault times (no chaos stream): regression factories must be
    zero-argument and fully determined, like every other entry here.
    """
    plan = FaultPlan([(0.55, Join(8)), (0.80, Leave(5)), (1.10, Rejoin(5))])
    return _config("semantic", 60, n=9, warmup=0.3, drain=2.5,
                   retransmit_timeout=0.25, faults=plan,
                   membership=_membership(8))


def _churn_leader():
    """Leader crash detected by heartbeats; elected successor; rejoin."""
    plan = FaultPlan([(0.50, Crash(0)), (1.20, Rejoin(0))])
    return _config("gossip", 40, n=7, warmup=0.3, drain=2.5,
                   retransmit_timeout=0.25, faults=plan,
                   membership=_membership(7))


def _degrade_jitter():
    """Saturated gossip over jittered links with one region pair degraded.

    Every hop draws ``link-jitter`` when its arrival is committed; between
    the two fault instants the links between regions 0 (the coordinator)
    and 1 run three times slower and draw the wider window from
    ``chaos-jitter`` instead. The rate keeps send queues backed up, so
    all four ``degrade()`` calls land on a link holding committed but
    unserialised messages and re-time them.
    """
    plan = FaultPlan([
        (0.45, Degrade(0, 1, latency_factor=3.0, extra_jitter_s=0.002)),
        (0.65, Degrade(0, 1)),
    ])
    return _config("gossip", 1600, n=7, warmup=0.3, duration=0.4, drain=1.0,
                   link=LinkConfig(jitter_s=0.0005), faults=plan)


def _crash_recover():
    """Timed outages at the Fig. 3 knee: crash, region outage, recovery.

    Both faults carry a duration, so the fault engine schedules each
    recovery itself, and each crash withdraws what the victim's links had
    committed but not yet serialised.
    """
    plan = FaultPlan([(0.55, Crash(3, duration=0.3)),
                      (0.65, RegionOutage(5, duration=0.2))])
    return _config("semantic", 200, duration=0.6, faults=plan)


#: Regression configurations that are *not* perf-benchmarked but share the
#: fixed-seed discipline: the fingerprint test and the race audit run
#: them alongside the figure scenarios. ``agg_heavy`` is the configuration
#: on which PR 4's tie-break hazard surfaced (filtering off, send queues
#: backed up, so pump-batch grouping is sensitive to same-instant ties).
#: The churn entries put the membership layer (heartbeats, dead reports,
#: overlay repair, heartbeat-driven election) under the same race audit;
#: ``degrade_jitter`` does the same for the link-jitter and chaos-jitter
#: draws and for ``Degrade`` re-timing in-flight rounds; ``raft_semantic``
#: is the one committed run of the Raft protocol and its semantic rules;
#: ``crash_recover`` the one of the fault engine's timed recoveries.
REGRESSION_SCENARIOS = {
    "agg_heavy": lambda: _config("semantic", 300, n=27,
                                 enable_filtering=False,
                                 duration=0.15, drain=1.0),
    "crash_recover": _crash_recover,
    "churn_smoke": _churn_smoke,
    "churn_leader": _churn_leader,
    "degrade_jitter": _degrade_jitter,
    "raft_semantic": lambda: _config("semantic", 200, protocol="raft",
                                     duration=0.4, drain=1.5),
}
