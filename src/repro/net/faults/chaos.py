"""Seeded chaos scenarios: fault plans + the safety/liveness harness.

The paper's reliability study (§4.5) injects only uniform receiver-side
loss and explicitly disables every timeout-triggered procedure. The chaos
harness extends that study to the correlated WAN failure modes the gossip
substrate is meant to mask — and, because recovering from them *requires*
the timeout-triggered procedures, scenarios run with retransmission (and,
where a scenario kills the coordinator, the membership layer's election)
enabled.

Every scenario is **randomized but seeded**: parameters (partition
membership, window boundaries, burst intensities, gray factors) are drawn
from the dedicated ``make_stream(seed, "chaos")`` stream, so a (scenario,
setup, seed) triple fully determines the run, including the failure trace.

The harness asserts the contract **safety always, liveness after heal**:

* safety — a :class:`repro.checks.SafetyMonitor` is armed for the whole
  run; any agreement/monotonicity/quorum/aggregation violation fails the
  scenario;
* liveness — every value submitted before the fault window opens, and
  every value submitted after it heals, must decide by the end of the
  drain. A value counts as decided when its submitting client was
  notified *or* some learner chose it (a client colocated with a crashed
  process never hears back even though the system decided its value).
  Values submitted *during* the window are deliberately not asserted:
  with the paper's unreliable client forwarding they can be legitimately
  lost, which the reliability metrics (not the liveness gate) report.
"""

from repro.checks.monitor import SafetyMonitor
from repro.membership import MembershipConfig
from repro.net.faults.events import (
    BurstLoss,
    ClearBurstLoss,
    Crash,
    FaultPlan,
    GrayFailure,
    Heal,
    Join,
    Leave,
    Partition,
    Rejoin,
)
from repro.runtime.config import SETUPS, ExperimentConfig
from repro.runtime.runner import run_deployment
from repro.sim.random import make_stream

#: Values submitted within this many seconds of the fault window opening
#: may still be in flight (one WAN delay) when the fault hits; the
#: liveness gate does not assert them.
IN_FLIGHT_GUARD_S = 0.2


def chaos_config(setup="gossip", **overrides):
    """A small, chaos-ready configuration: retransmission enabled.

    The paper's §4.5 study disables timeout-triggered procedures; chaos
    scenarios enable them because liveness after a heal depends on them.
    """
    defaults = dict(
        setup=setup,
        n=7,
        rate=40.0,
        warmup=0.5,
        duration=1.5,
        drain=3.0,
        seed=1,
        retransmit_timeout=0.25,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


class ScenarioRun:
    """One built scenario: the config to run plus the liveness window."""

    __slots__ = ("config", "fault_start", "heal_at", "excluded_clients")

    def __init__(self, config, fault_start, heal_at, excluded_clients=()):
        self.config = config
        self.fault_start = fault_start
        self.heal_at = heal_at
        self.excluded_clients = frozenset(excluded_clients)


class Scenario:
    """A named chaos scenario: a seeded builder plus its applicability."""

    __slots__ = ("name", "build", "setups", "summary")

    def __init__(self, name, build, setups=SETUPS, summary=""):
        self.name = name
        self.build = build
        self.setups = tuple(setups)
        self.summary = summary

    def supports(self, setup):
        return setup in self.setups


def _window(config, rng, open_frac=(0.2, 0.4), close_frac=(0.6, 0.8)):
    """A fault window inside the measured workload, jittered by ``rng``."""
    start = config.warmup + rng.uniform(*open_frac) * config.duration
    heal = config.warmup + rng.uniform(*close_frac) * config.duration
    return start, heal


def _build_partition_heal(config, rng):
    """Partition the coordinator into a minority; heal mid-workload."""
    n = config.n
    coordinator = config.coordinator_id
    start, heal = _window(config, rng)
    minority = (n - 1) // 2
    others = [pid for pid in range(n) if pid != coordinator]
    isolated = [coordinator] + sorted(rng.sample(others, minority - 1))
    plan = FaultPlan([(start, Partition([isolated])), (heal, Heal())])
    return ScenarioRun(
        config.replace(faults=plan),
        fault_start=start - IN_FLIGHT_GUARD_S,
        heal_at=heal,
    )


def _build_coordinator_crash(config, rng):
    """Kill the coordinator mid-Phase-1; the election promotes a backup."""
    membership = _churn_membership(tuple(range(config.n)))
    crash_at = rng.uniform(0.02, 0.08)  # Phase 1 needs a WAN round trip
    plan = FaultPlan([(crash_at, Crash(config.coordinator_id))])
    return ScenarioRun(
        config.replace(faults=plan, membership=membership),
        fault_start=crash_at - IN_FLIGHT_GUARD_S,
        heal_at=_elected_by(crash_at, membership),
        excluded_clients=(config.coordinator_id,),
    )


def _build_burst_loss(config, rng):
    """Gilbert–Elliott loss bursts at the paper's Fig. 6 intensities."""
    start, stop = _window(config, rng, open_frac=(0.1, 0.25))
    event = BurstLoss(
        p_enter=rng.uniform(0.01, 0.03),
        p_exit=rng.uniform(0.15, 0.30),
        loss_bad=rng.uniform(0.20, 0.30),
    )
    plan = FaultPlan([(start, event), (stop, ClearBurstLoss())])
    return ScenarioRun(
        config.replace(faults=plan),
        fault_start=start - IN_FLIGHT_GUARD_S,
        heal_at=stop,
    )


def _build_gray_coordinator(config, rng):
    """Slow the coordinator's CPU 10-25x: alive, but late everywhere."""
    start, stop = _window(config, rng)
    factor = rng.uniform(10.0, 25.0)
    plan = FaultPlan([
        (start, GrayFailure(config.coordinator_id, factor)),
        (stop, GrayFailure(config.coordinator_id, 1.0)),
    ])
    return ScenarioRun(
        config.replace(faults=plan),
        fault_start=start - IN_FLIGHT_GUARD_S,
        heal_at=stop,
    )


def _churn_membership(initial_members):
    """Membership timings fast enough for the chaos workload window.

    Detection plus re-election must complete well inside the measured
    workload so the liveness gate has a post-heal population to assert.
    """
    return MembershipConfig(
        heartbeat_interval=0.04,
        suspicion_timeout=0.15,
        dead_timeout=0.3,
        initial_members=initial_members,
        election_backoff=0.15,
        election_backoff_max=0.6,
        election_jitter=0.03,
    )


def _elected_by(crash_at, membership):
    """When a successor of a leader dead at ``crash_at`` is making progress.

    Silence -> dead report -> election backoff (+ jitter) -> the
    successor's Phase 1; one WAN round trip on top before the liveness
    gate expects progress.
    """
    return (crash_at + membership.dead_timeout + membership.election_backoff
            + membership.election_jitter + 0.45)


def _build_membership_churn(config, rng):
    """Join, graceful leave and rejoin on the fault timeline.

    The cluster starts with processes ``0..n-2``; ``n-1`` joins mid
    workload, a random non-coordinator member leaves gracefully (overlay
    repaired, quorum shrinks by an epoch), then the leaver rejoins with a
    bumped incarnation. The leader never dies, so this exercises the view
    and overlay machinery without an election.
    """
    n = config.n
    joiner = n - 1
    initial = tuple(range(n - 1))
    leaver = rng.choice(
        [pid for pid in initial if pid != config.coordinator_id])
    t_join = config.warmup + rng.uniform(0.20, 0.30) * config.duration
    t_leave = config.warmup + rng.uniform(0.40, 0.50) * config.duration
    t_rejoin = config.warmup + rng.uniform(0.65, 0.75) * config.duration
    plan = FaultPlan([
        (t_join, Join(joiner)),
        (t_leave, Leave(leaver)),
        (t_rejoin, Rejoin(leaver)),
    ])
    return ScenarioRun(
        config.replace(faults=plan, membership=_churn_membership(initial)),
        fault_start=t_join - IN_FLIGHT_GUARD_S,
        heal_at=t_rejoin + 0.3,
        # The joiner's process is down until t_join, so its colocated
        # client's pre-fault submissions are legitimately lost.
        excluded_clients=(joiner,),
    )


def _build_leader_churn_rejoin(config, rng):
    """Crash the leader; heartbeats detect it and elect a successor.

    Unlike ``coordinator-crash`` (a crash mid-Phase-1, never healed), the
    crash lands mid-workload and the dead leader later rejoins with a
    bumped incarnation; the view readmits it under the elected successor.
    """
    membership = _churn_membership(tuple(range(config.n)))
    t_crash = config.warmup + rng.uniform(0.10, 0.20) * config.duration
    t_rejoin = config.warmup + rng.uniform(0.70, 0.80) * config.duration
    plan = FaultPlan([
        (t_crash, Crash(config.coordinator_id)),
        (t_rejoin, Rejoin(config.coordinator_id)),
    ])
    return ScenarioRun(
        config.replace(faults=plan, membership=membership),
        fault_start=t_crash - IN_FLIGHT_GUARD_S,
        heal_at=max(t_rejoin + IN_FLIGHT_GUARD_S,
                    _elected_by(t_crash, membership)),
        excluded_clients=(config.coordinator_id,),
    )


#: The canonical seeded scenarios, in reporting order.
SCENARIOS = {
    scenario.name: scenario
    for scenario in (
        Scenario("partition-heal", _build_partition_heal,
                 summary="coordinator isolated in a minority, then healed"),
        Scenario("coordinator-crash", _build_coordinator_crash,
                 setups=("gossip", "semantic"),
                 summary="coordinator dies mid-Phase-1; heartbeat election "
                         "promotes a backup"),
        Scenario("burst-loss", _build_burst_loss,
                 summary="Gilbert-Elliott loss bursts at Fig. 6 rates"),
        Scenario("gray-coordinator", _build_gray_coordinator,
                 summary="coordinator CPU slows 10-25x but stays alive"),
        Scenario("membership-churn", _build_membership_churn,
                 setups=("gossip", "semantic"),
                 summary="join, graceful leave with overlay repair, rejoin"),
        Scenario("leader-churn-rejoin", _build_leader_churn_rejoin,
                 setups=("gossip", "semantic"),
                 summary="leader dies; heartbeat election; dead leader "
                         "rejoins"),
    )
}


class ChaosResult:
    """Outcome of one chaos scenario run.

    Holds only picklable state — the report, the recorded violations and
    the liveness gaps — so a process-pool worker can ship it back whole.
    Compare runs by ``report_fingerprint(result.report)``.
    """

    __slots__ = ("scenario", "setup", "seed", "config", "report",
                 "violations", "missing", "fault_start", "heal_at")

    def __init__(self, scenario, setup, seed, config, report, violations,
                 missing, fault_start, heal_at):
        self.scenario = scenario
        self.setup = setup
        self.seed = seed
        self.config = config
        self.report = report
        self.violations = violations    # the safety monitor's findings
        self.missing = missing          # value ids failing the liveness gate
        self.fault_start = fault_start
        self.heal_at = heal_at

    @property
    def liveness_ok(self):
        return not self.missing

    @property
    def ok(self):
        return not self.violations and self.liveness_ok


def liveness_gaps(deployment, monitor, fault_start, heal_at,
                  excluded_clients=()):
    """Value ids violating "liveness after heal"; empty means it held.

    Asserted population: values submitted before ``fault_start`` or after
    ``heal_at`` by clients not in ``excluded_clients``. A value counts as
    decided when its client saw the decision or any learner chose it.
    """
    chosen_ids = set(monitor.chosen.values())
    missing = []
    for value_id, record in deployment.collector.items():
        if record.client_id in excluded_clients:
            continue
        if fault_start <= record.submitted_at < heal_at:
            continue
        if record.decided_at is None and value_id not in chosen_ids:
            missing.append(value_id)
    return missing


def run_chaos_scenario(name, base_config=None, seed=1, strict=False):
    """Run one seeded scenario with the safety monitor armed.

    Parameters
    ----------
    name:
        A key of :data:`SCENARIOS`.
    base_config:
        Starting :class:`ExperimentConfig`; defaults to
        :func:`chaos_config`. The scenario overrides ``seed`` and installs
        its fault plan (plus membership where it needs an election).
    strict:
        Raise at the first safety violation instead of recording it.
    """
    scenario = SCENARIOS[name]
    config = base_config if base_config is not None else chaos_config()
    if not scenario.supports(config.setup):
        raise ValueError("scenario {!r} does not support the {!r} setup "
                         "(supported: {})".format(
                             name, config.setup, ", ".join(scenario.setups)))
    rng = make_stream(seed, "chaos")
    run = scenario.build(config.replace(seed=seed), rng)
    monitor = SafetyMonitor(strict=strict)
    deployment, report = run_deployment(run.config, monitor=monitor)
    missing = liveness_gaps(deployment, monitor, run.fault_start,
                            run.heal_at, run.excluded_clients)
    return ChaosResult(
        scenario=name, setup=config.setup, seed=seed, config=run.config,
        report=report, violations=list(monitor.violations), missing=missing,
        fault_start=run.fault_start, heal_at=run.heal_at,
    )


def run_scenario_task(task):
    """Run one ``(name, config, seed)`` task of :func:`chaos_tasks`.

    The worker body of the chaos suite and the CLI: top-level so the
    spawn start method can import it.
    """
    name, config, seed = task
    return run_chaos_scenario(name, config, seed=seed)


def chaos_tasks(configs, names=None, seeds=(1,)):
    """The ``(name, config, seed)`` runs of scenarios x seeds per config.

    Returns ``(tasks, skipped)``. ``skipped`` holds ``(index, name,
    setup)`` for each scenario that does not support a config's setup;
    ``index`` is where that pair falls in ``tasks``, so a report can show
    it in place.
    """
    names = list(SCENARIOS) if names is None else names
    tasks = []
    skipped = []
    for config in configs:
        for name in names:
            if not SCENARIOS[name].supports(config.setup):
                skipped.append((len(tasks), name, config.setup))
                continue
            tasks.extend((name, config, seed) for seed in seeds)
    return tasks, skipped


def run_chaos_suite(base_config=None, names=None, seeds=(1,), workers=1):
    """Run scenarios x seeds against one setup; skips unsupported pairs.

    Returns the :class:`ChaosResult` list in task order (unsupported
    combinations are omitted — the CLI reports them as skipped). The runs
    go through :func:`repro.runtime.parallel.parallel_map`, so the list
    is the same at any ``workers``.
    """
    from repro.runtime.parallel import parallel_map

    config = base_config if base_config is not None else chaos_config()
    tasks, _ = chaos_tasks([config], names, seeds)
    return parallel_map(run_scenario_task, tasks, workers=workers)
