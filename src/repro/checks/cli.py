"""The ``repro check`` subcommand: static lint, invariants, race audit.

* ``repro check --lint [paths...]`` — run the determinism linter.
* ``repro check --invariants`` — run short seeded simulations of the
  gossip and semantic setups (and semantic Raft) with a
  :class:`SafetyMonitor` armed and report every invariant violation.
* ``repro check --race SCENARIO`` — double-run determinism race audit:
  execute a committed scenario under different ``PYTHONHASHSEED`` values
  and report the first divergent event with tie-break and RNG-stream
  provenance (repeatable; ``--race all`` covers every committed
  scenario). See docs/static-analysis.md.
* ``repro check`` — lint + invariants.
* ``--json`` — machine-readable report on stdout instead of text.

Exit codes (identical for the text and JSON reporters):

* **0** — clean: no lint findings, no invariant violations, no race
  divergence. Suppressed findings (``# repro: allow-*``) are counted in
  the report but never affect the exit code.
* **1** — at least one finding, violation or divergent race scenario.
* **2** — usage error (nonexistent lint path, unknown race scenario).

The lint pass imports nothing outside the stdlib-backed checks package,
so it stays usable even when simulation dependencies are unavailable.
"""

import os
import sys

from repro.checks.linter import lint_paths_detailed
from repro.checks.report import (
    format_findings_text,
    format_race_text,
    format_violations_text,
    report_to_json,
)

#: Documented exit codes; both reporters return exactly these.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Runs of the invariant pass, ``name -> (setup, protocol)``: classic
#: gossip stresses reordering/duplication, semantic adds filtering +
#: aggregation, and semantic Raft runs the same rules over acks.
_INVARIANT_RUNS = {
    "gossip": ("gossip", "paxos"),
    "semantic": ("semantic", "paxos"),
    "semantic_raft": ("semantic", "raft"),
}


def _default_lint_paths():
    """Lint target when none is given: the installed repro package."""
    import repro

    return [os.path.dirname(os.path.abspath(repro.__file__))]


def _run_lint(args):
    paths = args.paths or _default_lint_paths()
    return lint_paths_detailed(paths)


def _run_invariants(args):
    # Imported lazily: the lint-only path must not pull in the runtime.
    from repro.checks.monitor import SafetyMonitor
    from repro.runtime.config import ExperimentConfig
    from repro.runtime.runner import run_experiment

    violations = []
    summaries = {}
    for name, (setup, protocol) in _INVARIANT_RUNS.items():
        config = ExperimentConfig(
            setup=setup,
            protocol=protocol,
            n=args.n,
            rate=args.rate,
            warmup=0.5,
            duration=args.duration,
            drain=2.0,
            seed=args.seed,
        )
        monitor = SafetyMonitor(strict=False)
        run_experiment(config, monitor=monitor)
        violations.extend(monitor.violations)
        summaries[name] = monitor.summary()
    return violations, summaries


def _resolve_race_names(requested):
    """Expand/validate ``--race`` values; (names, error message).

    A ``NAME:obs`` suffix audits the scenario with the deterministic
    tracer armed (the compared digest then includes the obs trace).
    """
    from repro.checks.race import SYNTHETIC, race_scenarios

    known = race_scenarios()
    names = []
    for name in requested:
        base_name, _, variant = name.partition(":")
        if name == "all":
            # The synthetic planted-hazard fixture exists to fail; "all"
            # means "everything that must audit clean".
            names.extend(n for n in known
                         if n != SYNTHETIC and n not in names)
        elif (base_name not in known or variant not in ("", "obs")
              or base_name == SYNTHETIC and variant):
            return None, ("unknown race scenario {!r}; known: {} "
                          "(an ':obs' suffix runs with tracing armed)"
                          .format(name, ", ".join(known)))
        elif name not in names:
            names.append(name)
    return names, None


def _run_race(args):
    from repro.checks.race import race_check_many

    hash_seeds = None
    if args.hash_seeds:
        hash_seeds = [int(s) for s in args.hash_seeds.split(",")]
        if len(hash_seeds) < 2:
            raise ValueError("--hash-seeds needs at least two seeds")
    return race_check_many(args.race, hash_seeds=hash_seeds)


def cmd_check(args):
    """Entry point for ``repro check``; returns the process exit code."""
    do_race = bool(args.race)
    do_lint = args.lint or not (args.invariants or do_race)
    do_invariants = args.invariants or not (args.lint or do_race)

    missing = sorted(path for path in args.paths if not os.path.exists(path))
    if missing:
        print("repro check: no such path: {}".format(", ".join(missing)),
              file=sys.stderr)
        return EXIT_USAGE

    race_reports = None
    if do_race:
        names, error = _resolve_race_names(args.race)
        if error:
            print("repro check: {}".format(error), file=sys.stderr)
            return EXIT_USAGE
        args.race = names

    findings, suppressed = (None, None)
    if do_lint:
        findings, suppressed = _run_lint(args)
    violations, summaries = (None, None)
    if do_invariants:
        violations, summaries = _run_invariants(args)
    if do_race:
        try:
            race_reports = _run_race(args)
        except ValueError as exc:
            print("repro check: {}".format(exc), file=sys.stderr)
            return EXIT_USAGE

    race_diverged = race_reports is not None and any(
        not report["ok"] for report in race_reports)

    if args.json:
        extra = {"invariant_runs": summaries} if summaries else None
        print(report_to_json(findings, violations, suppressed=suppressed,
                             race=race_reports, extra=extra))
    else:
        if findings:
            print(format_findings_text(findings, suppressed))
        elif findings is not None:
            note = (" ({} suppressed)".format(len(suppressed))
                    if suppressed else "")
            print("lint: clean{}".format(note))
        if violations:
            print(format_violations_text(violations))
        elif violations is not None:
            decided = sum(s["instances_decided"] for s in summaries.values())
            print("invariants: clean ({} runs, {} instances decided)".format(
                len(summaries), decided))
        if race_reports is not None:
            print(format_race_text(race_reports))
    if findings or violations or race_diverged:
        return EXIT_FINDINGS
    return EXIT_CLEAN


def add_check_parser(sub):
    """Register the ``check`` subcommand on an argparse subparsers object."""
    p = sub.add_parser(
        "check",
        help="determinism lint + safety invariants + race audit",
        description="Static determinism lint over Python sources, dynamic "
                    "safety invariants over seeded Paxos and Raft runs, "
                    "and/or a double-run determinism race audit of committed "
                    "scenarios. Exit codes: 0 clean, 1 findings/violations/"
                    "divergence, 2 usage error.",
    )
    p.add_argument("paths", nargs="*",
                   help="files/directories to lint (default: the repro "
                        "package)")
    p.add_argument("--lint", action="store_true",
                   help="run only the static determinism linter")
    p.add_argument("--invariants", action="store_true",
                   help="run only the dynamic safety invariant pass")
    p.add_argument("--race", action="append", metavar="SCENARIO",
                   help="double-run race audit of a committed scenario "
                        "(repeatable; 'all' = every scenario that must "
                        "audit clean)")
    p.add_argument("--hash-seeds", default=None,
                   help="comma-separated PYTHONHASHSEED values for --race "
                        "(default 0,1,2; first is the base run)")
    p.add_argument("--json", action="store_true",
                   help="emit a machine-readable JSON report")
    p.add_argument("--seed", type=int, default=1,
                   help="root seed for the invariant runs")
    p.add_argument("--n", type=int, default=7,
                   help="system size for the invariant runs")
    p.add_argument("--rate", type=float, default=40.0,
                   help="submission rate for the invariant runs")
    p.add_argument("--duration", type=float, default=1.0,
                   help="measured duration of the invariant runs (s)")
    p.set_defaults(func=cmd_check)
    return p
