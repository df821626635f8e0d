"""Single-experiment runner."""

from repro.runtime.deployment import build_deployment
from repro.runtime.metrics import build_report


def _execute(config, monitor, auditor=None, obs=None):
    deployment = build_deployment(config, auditor=auditor, obs=obs)
    if monitor is not None:
        # Armed before start so the monitor observes every message of the
        # run, including the coordinator's t=0 Phase 1a.
        monitor.attach(deployment)
    deployment.start()
    deployment.run()
    if monitor is not None:
        monitor.finalize()
    return deployment


def _finish_report(deployment):
    report = build_report(deployment)
    tracer = deployment.obs
    if tracer is not None:
        # Plain attributes the fingerprint serialisation never reads:
        # a traced run's report fingerprints identically to the untraced
        # run (the `repro trace --check-inert` gate relies on this).
        report.phases = tracer.phase_breakdown()
        report.timeline = tracer.timeseries()
    return report


def run_experiment(config, monitor=None, auditor=None, obs=None):
    """Build, run and measure one experiment; returns a MetricsReport.

    Parameters
    ----------
    monitor:
        Optional :class:`repro.checks.monitor.SafetyMonitor` (or any object
        with ``attach(deployment)``/``finalize()``) armed for the run.
        Invariants are checked online; in the monitor's strict mode the
        first violation raises from inside the offending simulated event.
    auditor:
        Optional :class:`repro.checks.auditor.RaceAuditor` wired into the
        simulator at construction; records tie groups, RNG draw counts and
        the execution trace without perturbing the run.
    obs:
        Optional :class:`repro.obs.ObsConfig` arming the deterministic
        tracer (value-lifecycle spans, timeline sampling); the report then
        carries ``phases`` (per-phase latency decomposition) and
        ``timeline`` (the sampler's buckets). Never changes what the run
        computes or reports.
    """
    return _finish_report(_execute(config, monitor, auditor, obs))


def run_deployment(config, monitor=None, auditor=None, obs=None):
    """Like :func:`run_experiment` but returns the finished deployment too.

    Useful for tests and analyses that need to inspect internal state
    (per-node caches, learner counters, link statistics, the ``obs``
    tracer of a traced run).
    """
    deployment = _execute(config, monitor, auditor, obs)
    return deployment, _finish_report(deployment)
