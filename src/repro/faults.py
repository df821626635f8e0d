"""Top-level alias for the fault-scenario engine.

The implementation lives under :mod:`repro.net.faults` (it is network
infrastructure); this module re-exports the declarative surface plus the
chaos harness under the shorter ``repro.faults`` name::

    from repro.faults import FaultPlan, Partition, Heal, run_chaos_scenario
"""

from repro.net.faults import (
    BurstLoss,
    ClearBurstLoss,
    Crash,
    Degrade,
    FaultEngine,
    FaultEvent,
    FaultPlan,
    FaultStats,
    GilbertElliottLossInjector,
    GrayFailure,
    Heal,
    Join,
    Leave,
    LinkLoss,
    Partition,
    ReceiverLossInjector,
    RegionOutage,
    Rejoin,
)
from repro.net.faults.chaos import (
    SCENARIOS,
    ChaosResult,
    ChaosSummary,
    Scenario,
    chaos_config,
    liveness_gaps,
    run_chaos_scenario,
    run_chaos_suite,
    run_scenario_task,
)

__all__ = [
    "BurstLoss",
    "ChaosResult",
    "ChaosSummary",
    "ClearBurstLoss",
    "Crash",
    "Degrade",
    "FaultEngine",
    "FaultEvent",
    "FaultPlan",
    "FaultStats",
    "GilbertElliottLossInjector",
    "GrayFailure",
    "Heal",
    "Join",
    "Leave",
    "LinkLoss",
    "Partition",
    "ReceiverLossInjector",
    "RegionOutage",
    "Rejoin",
    "SCENARIOS",
    "Scenario",
    "chaos_config",
    "liveness_gaps",
    "run_chaos_scenario",
    "run_chaos_suite",
    "run_scenario_task",
]
