"""Static and dynamic determinism/correctness checks for the reproduction.

Three legs (see docs/static-analysis.md):

* :mod:`repro.checks.linter` — an AST-based determinism linter (nine
  rules: ambient state, tie-break hygiene, executor safety) that flags
  nondeterminism hazards before they can break the simulator's
  same-seed/same-run guarantee;
* :mod:`repro.checks.monitor` — an online :class:`SafetyMonitor` that
  checks Paxos safety invariants (agreement, ballot monotonicity,
  quorum-backed decisions, aggregation reversibility) while a deployment
  runs;
* :mod:`repro.checks.auditor` / :mod:`repro.checks.race` — a dynamic
  :class:`RaceAuditor` recording same-timestamp tie groups (with the
  event that scheduled each member) and per-stream RNG draw counts, plus
  the double-run ``repro check --race`` harness that executes committed
  scenarios under different ``PYTHONHASHSEED`` values and localizes the
  first divergent event.

All are exposed through ``python -m repro check`` (``--lint`` for the
linter alone).
"""

from repro.checks.auditor import RaceAuditor
from repro.checks.linter import (
    Finding,
    lint_file,
    lint_paths,
    lint_paths_detailed,
    lint_source,
    lint_source_detailed,
)
from repro.checks.monitor import (
    CheckedHooks,
    InvariantViolation,
    SafetyMonitor,
    Violation,
)
from repro.checks.race import race_check, race_scenarios
from repro.checks.rules import RULES, Rule, get_rule

__all__ = [
    "CheckedHooks",
    "Finding",
    "InvariantViolation",
    "RULES",
    "RaceAuditor",
    "Rule",
    "SafetyMonitor",
    "Violation",
    "get_rule",
    "lint_file",
    "lint_paths",
    "lint_paths_detailed",
    "lint_source",
    "lint_source_detailed",
    "race_check",
    "race_scenarios",
]
