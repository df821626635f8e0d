"""Command-line interface: ``python -m repro <command> ...``.

Exposes the experiment harness without writing Python:

* ``run``         — one experiment, one setup; prints the report.
* ``compare``     — the same workload across all three setups.
* ``sweep``       — a workload sweep with the saturation point marked.
* ``overlays``    — the Fig. 7 overlay-ranking methodology.
* ``reliability`` — the Fig. 6 loss x workload grid.
* ``chaos``       — seeded fault scenarios with the safety monitor armed
                    (see docs/faults.md); exits non-zero on a safety or
                    liveness-after-heal failure.
* ``check``       — determinism lint, Paxos safety invariant monitor,
                    and the double-run determinism race audit
                    (``check --race SCENARIO``); see
                    docs/static-analysis.md.
* ``trace``       — run a committed scenario with the deterministic
                    tracer armed: per-phase latency decomposition,
                    timeline summary, JSONL / Chrome-trace (Perfetto)
                    export, and the ``--check-inert`` fingerprint gate
                    (see docs/observability.md).

All commands accept ``--seed`` and print deterministic results. Commands
that execute several independent runs (``compare``, ``sweep``,
``overlays``, ``reliability``, ``chaos``) accept ``--workers N`` and fan
the runs out to a process pool (0, the default, means one worker per CPU;
1 forces the serial path) — the printed values are identical at any
worker count.
"""

import argparse
import sys

from repro.analysis.tables import format_heatmap, format_table
from repro.checks.cli import add_check_parser
from repro.runtime.config import SETUPS, ExperimentConfig
from repro.runtime.parallel import parallel_map, run_experiments
from repro.runtime.runner import run_experiment
from repro.runtime.sweep import (
    find_saturation_point,
    loss_grid,
    overlay_sweep,
    select_median_overlay,
    workload_sweep,
)


def _add_common(parser):
    parser.add_argument("--n", type=int, default=13,
                        help="system size (default 13: one per region)")
    parser.add_argument("--rate", type=float, default=100.0,
                        help="total client submissions/s")
    parser.add_argument("--value-size", type=int, default=1024)
    parser.add_argument("--duration", type=float, default=2.0)
    parser.add_argument("--warmup", type=float, default=1.0)
    parser.add_argument("--drain", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--loss", type=float, default=0.0,
                        help="injected receiver-side message loss rate")
    parser.add_argument("--protocol", choices=("paxos", "raft"),
                        default="paxos")
    parser.add_argument("--strategy", choices=("push", "pull", "push-pull"),
                        default="push", help="gossip dissemination strategy")
    parser.add_argument("--retransmit", type=float, default=None,
                        help="retransmission timeout (default: disabled)")
    _add_workers(parser)


def _add_workers(parser):
    parser.add_argument("--workers", type=int, default=0,
                        help="worker processes for independent runs "
                             "(0 = one per CPU; 1 = serial)")


def _config(args, setup, **overrides):
    params = dict(
        setup=setup,
        protocol=args.protocol,
        n=args.n,
        rate=args.rate,
        value_size=args.value_size,
        duration=args.duration,
        warmup=args.warmup,
        drain=args.drain,
        seed=args.seed,
        loss_rate=args.loss,
        gossip_strategy=args.strategy,
        retransmit_timeout=args.retransmit,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def _report_row(setup, report):
    messages = report.messages
    return [
        setup,
        "{:.1f}".format(report.avg_latency_s * 1000),
        "{:.1f}".format(report.p99_latency_s * 1000),
        "{:.1f}".format(report.p999_latency_s * 1000),
        "{:.1f}".format(report.throughput),
        "{:.1%}".format(report.not_ordered_fraction),
        messages.received_total,
        "{:.0%}".format(messages.duplicate_fraction),
        messages.filtered,
        messages.aggregated_saved,
    ]


_REPORT_HEADERS = ["setup", "avg ms", "p99 ms", "p999 ms", "thr /s",
                   "not ordered", "msgs recv", "dup", "filtered",
                   "agg saved"]


def cmd_run(args):
    """Run one experiment with one setup and print its report."""
    report = run_experiment(_config(args, args.setup))
    print(format_table(_REPORT_HEADERS, [_report_row(args.setup, report)],
                       title="{} / {} / n={} @ {}/s".format(
                           args.protocol, args.setup, args.n, args.rate)))
    return 0


def cmd_compare(args):
    """Run the same workload across the three setups (in parallel)."""
    reports = run_experiments([_config(args, setup) for setup in SETUPS],
                              workers=args.workers)
    rows = [_report_row(setup, report)
            for setup, report in zip(SETUPS, reports)]
    print(format_table(_REPORT_HEADERS, rows,
                       title="{} / n={} @ {}/s".format(
                           args.protocol, args.n, args.rate)))
    return 0


def cmd_sweep(args):
    """Workload sweep with the saturation point marked."""
    rates = [float(r) for r in args.rates.split(",")]
    points = workload_sweep(_config(args, args.setup), rates,
                            workers=args.workers)
    knee = find_saturation_point(points)
    rows = []
    for index, point in enumerate(points):
        marker = "  (saturation)" if index == knee else ""
        rows.append([
            "{:.0f}".format(point.rate),
            "{:.1f}".format(point.throughput),
            "{:.1f}{}".format(point.avg_latency_s * 1000, marker),
        ])
    print(format_table(["offered /s", "throughput /s", "avg latency ms"],
                       rows, title="{} / n={}".format(args.setup, args.n)))
    return 0


def cmd_overlays(args):
    """Rank random overlays by median coordinator RTT (Fig. 7)."""
    base = _config(args, "gossip")
    points = overlay_sweep(base, overlay_seeds=range(args.count),
                           workers=args.workers)
    chosen = select_median_overlay(points)
    rows = []
    for point in sorted(points, key=lambda p: (p.median_rtt_ms,
                                               p.report.avg_latency_s)):
        marker = "  (median)" if point is chosen else ""
        rows.append([point.overlay_seed,
                     "{:.0f}".format(point.median_rtt_ms),
                     "{:.0f}{}".format(point.report.avg_latency_s * 1000,
                                       marker)])
    print(format_table(["overlay seed", "median RTT ms", "avg latency ms"],
                       rows, title="{} overlays, n={}".format(args.count,
                                                              args.n)))
    return 0


def cmd_reliability(args):
    """Loss x workload reliability grids for both gossip setups (Fig. 6)."""
    loss_rates = [float(x) for x in args.losses.split(",")]
    rates = [float(x) for x in args.rates.split(",")]
    for setup in ("gossip", "semantic"):
        grid = loss_grid(_config(args, setup), loss_rates, rates,
                         runs_per_cell=args.runs, workers=args.workers)
        print(format_heatmap(grid, row_keys=loss_rates, col_keys=rates,
                             row_label="loss", col_label="values/s"))
        print("^ {}: fraction of values not ordered\n".format(setup))
    return 0


def cmd_chaos(args):
    """Run seeded chaos scenarios; fail on any safety/liveness violation."""
    from repro.net.faults.chaos import (
        SCENARIOS,
        chaos_config,
        chaos_tasks,
        run_scenario_task,
    )

    names = (list(SCENARIOS) if args.scenario == "all"
             else args.scenario.split(","))
    unknown = [name for name in names if name not in SCENARIOS]
    if unknown:
        print("unknown scenario(s) {}; known: {}".format(
            ", ".join(repr(name) for name in unknown),
            ", ".join(SCENARIOS)), file=sys.stderr)
        return 2
    setups = SETUPS if args.setups == "all" else tuple(args.setups.split(","))
    seeds = [int(s) for s in args.seeds.split(",")]
    configs = [
        chaos_config(setup=setup, n=args.n, rate=args.rate,
                     warmup=args.warmup, duration=args.duration,
                     drain=args.drain)
        for setup in setups
    ]
    tasks, skipped = chaos_tasks(configs, names, seeds)
    results = parallel_map(run_scenario_task, tasks, workers=args.workers)
    failed = sum(1 for result in results if not result.ok)
    rows = [
        [result.scenario, result.setup, result.seed,
         "ok" if result.ok else "FAIL",
         len(result.violations),
         len(result.missing),
         "{}/{}".format(result.report.decided, result.report.submitted),
         "{}+{}".format(result.report.messages.retransmissions_loss,
                        result.report.messages.retransmissions_election)]
        for result in results
    ]
    # Latest first, so each index still counts only the runs before it.
    for index, name, setup in reversed(skipped):
        rows.insert(index, [name, setup, "-", "skipped", "-", "-", "-", "-"])
    print(format_table(
        ["scenario", "setup", "seed", "status", "violations",
         "missing", "decided", "retransmits loss+elec"],
        rows, title="chaos: safety always, liveness after heal"))
    if failed:
        print("{} scenario run(s) FAILED".format(failed), file=sys.stderr)
        return 1
    return 0


def cmd_trace(args):
    """Trace one committed scenario; print the decomposition, export."""
    import json

    from repro.analysis.fingerprint import report_fingerprint
    from repro.obs import (
        ObsConfig,
        text_summary,
        to_chrome_trace,
        to_jsonl,
        trace_digest,
    )
    from repro.checks.scenarios import scenario_config
    from repro.runtime.runner import run_deployment, run_experiment

    try:
        config = scenario_config(args.scenario)
    except KeyError as exc:
        print("repro trace: {}".format(exc.args[0]), file=sys.stderr)
        return 2
    params = {"hops": not args.no_hops}
    if args.tick is not None:
        params["tick_interval"] = args.tick
    deployment, report = run_deployment(config, obs=ObsConfig(**params))
    tracer = deployment.obs

    print(text_summary(tracer, report))
    print("trace digest: {}".format(trace_digest(tracer)))
    if args.jsonl:
        with open(args.jsonl, "w") as fh:
            fh.write(to_jsonl(tracer))
        print("jsonl trace -> {}".format(args.jsonl))
    if args.chrome:
        with open(args.chrome, "w") as fh:
            json.dump(to_chrome_trace(tracer), fh, sort_keys=True)
        print("chrome trace -> {} (open in Perfetto)".format(args.chrome))
    if args.check_inert:
        traced = report_fingerprint(report)
        untraced = report_fingerprint(run_experiment(config))
        if traced != untraced:
            print("check-inert: FAIL — traced fingerprint {} != untraced "
                  "{}".format(traced, untraced), file=sys.stderr)
            return 1
        print("check-inert: ok ({})".format(traced))
    return 0


def build_parser():
    """Construct the argparse parser with all subcommands."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gossip Consensus (Middleware '21) experiment harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment")
    p.add_argument("--setup", choices=SETUPS, default="semantic")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="same workload, all three setups")
    _add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="workload sweep with saturation point")
    p.add_argument("--setup", choices=SETUPS, default="gossip")
    p.add_argument("--rates", default="50,100,200,400,800",
                   help="comma-separated total submission rates")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("overlays", help="rank random overlays (Fig. 7)")
    p.add_argument("--count", type=int, default=12)
    _add_common(p)
    p.set_defaults(func=cmd_overlays)

    p = sub.add_parser("reliability", help="loss x workload grid (Fig. 6)")
    p.add_argument("--losses", default="0.05,0.1,0.2,0.3")
    p.add_argument("--rates", default="40,80")
    p.add_argument("--runs", type=int, default=2)
    _add_common(p)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("chaos", help="seeded fault scenarios + safety monitor")
    p.add_argument("--scenario", default="all",
                   help='scenario name, comma-separated list, or "all" '
                        '(see docs/faults.md)')
    p.add_argument("--setups", default="all",
                   help='comma-separated setups or "all"')
    p.add_argument("--seeds", default="1", help="comma-separated seeds")
    p.add_argument("--n", type=int, default=7)
    p.add_argument("--rate", type=float, default=40.0)
    p.add_argument("--warmup", type=float, default=0.5)
    p.add_argument("--duration", type=float, default=1.5)
    p.add_argument("--drain", type=float, default=3.0)
    _add_workers(p)
    p.set_defaults(func=cmd_chaos)

    p = sub.add_parser(
        "trace",
        help="deterministic trace of a committed scenario",
        description="Run one committed scenario with the "
                    "deterministic tracer armed and print the per-phase "
                    "latency decomposition, gossip hop totals, timeline "
                    "summary and round events. Optionally export the "
                    "trace as schema-checked JSONL or Chrome trace-event "
                    "JSON (loadable in Perfetto / chrome://tracing). "
                    "See docs/observability.md.",
    )
    p.add_argument("scenario",
                   help="a repro.checks.scenarios name (figure, regression "
                        "or large-N, e.g. fig7_overlay, churn_leader)")
    p.add_argument("--jsonl", metavar="PATH", default=None,
                   help="write the deterministic JSONL trace to PATH")
    p.add_argument("--chrome", metavar="PATH", default=None,
                   help="write Chrome trace-event JSON to PATH "
                        "(open in Perfetto)")
    p.add_argument("--tick", type=float, default=None,
                   help="timeline bucket width in simulated seconds "
                        "(default 0.05)")
    p.add_argument("--no-hops", action="store_true",
                   help="skip per-message gossip hop annotations")
    p.add_argument("--check-inert", action="store_true",
                   help="also run the scenario untraced and fail unless "
                        "both report fingerprints are identical")
    p.set_defaults(func=cmd_trace)

    add_check_parser(sub)

    return parser


def main(argv=None):
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
