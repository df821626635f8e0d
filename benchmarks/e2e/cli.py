"""Command line of the benchmark: driver runs, the full suite, --compare.

* ``--workload NAME --seed N --seconds S --trace 0|1`` — one workload, the
  form ``BENCHMARK.json`` declares: the last stdout line is one JSON object
  with ``correct``/``attempted``/``failed``/``metrics`` (end-to-end metrics
  with ``--trace 0``, layer metrics with ``--trace 1``).
* no ``--workload`` — the suite: all five workloads with their timed
  repeats interleaved round-robin (one slow spell of the host cannot own a
  workload), then check, memory and profiled passes and the isolated
  drivers; ``--out`` takes everything as JSON for ``--compare``.
* ``--compare A.json B.json`` — two suite outputs side by side.
"""

import argparse
import json
import sys
import time

from benchmarks.e2e import drivers
from benchmarks.e2e.compare import compare_files
from benchmarks.e2e.measure import Host, WorkloadRun
from benchmarks.e2e.spec import END_TO_END, PER_LAYER
from benchmarks.e2e.workloads import OVERLAY_SEED, WORKLOADS

#: Timed repeats per workload in suite mode.
SUITE_REPEATS = 5
#: A driver run times at least this many repeats however slow the host.
MIN_REPEATS = 3


def _parser():
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument(
        "--seed", type=int, default=1,
        help="sets ExperimentConfig.seed, the seeded skew of the offered "
             "rate and the drivers' op streams")
    parser.add_argument(
        "--overlay-seed", type=int, default=OVERLAY_SEED,
        help="overlay wiring seed; fixed by default because another "
             "overlay is another system, not another input")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="wall seconds of timed repeats (driver run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="suite: write all results as JSON")
    parser.add_argument(
        "--trace-out",
        help="write the layer table and top 20 functions per layer")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    return parser


def _timed_repeats(run, seconds, at_least):
    deadline = time.perf_counter() + seconds
    while len(run.repeats) < at_least or time.perf_counter() < deadline:
        run.timed_repeat()


def _print_metrics(title, specs, values):
    print(title)
    for spec in specs:
        entry = values[spec["name"]]
        spread = ""
        if entry.get("q1") is not None and entry["q1"] != entry["q3"]:
            spread = "  [q1 {:.6g}, q3 {:.6g}]".format(
                entry["q1"], entry["q3"])
        print("  {:<36} {:>14.6g} {:<6} {:<9}{}".format(
            spec["name"], entry["value"], spec["unit"], spec["kind"],
            spread))


def _end_to_end_entries(run):
    units = {m["name"]: m for m in END_TO_END}
    return {name: {"value": value, "q1": q1, "q3": q3,
                   "unit": units[name]["unit"], "kind": units[name]["kind"]}
            for name, (value, q1, q3) in run.end_to_end().items()}


def _per_layer_entries(run, driver_metrics):
    metrics, folded = run.per_layer(driver_metrics)
    specs = {m["name"]: m for m in PER_LAYER}
    entries = {name: {"value": value, "unit": specs[name]["unit"],
                      "kind": specs[name]["kind"]}
               for name, value in metrics.items()}
    table = {layer: {"self_s": entry["self_s"], "calls": entry["calls"],
                     "top": entry["top"]}
             for layer, entry in folded.items()}
    return entries, table


def _print_diagnostics(run, host):
    details = run.diagnostics()
    print("  digest {}".format(details["digest"]))
    print("  repeats {}  run_wall_s {:.4f}  run_cpu_s {:.4f}  (raw medians, "
          "diagnostics)".format(details["repeats"], details["run_wall_s"],
                                details["run_cpu_s"]))
    print("  latency tail is {} over {} samples".format(
        details["tail_percentile"], details["latency_samples"]))
    summary = host.summary()
    print("  host calib_ms min {min:.3f} median {median:.3f} max {max:.3f}"
          .format(**summary["calib_ms"])
          + "  noisy_host {}".format(str(summary["noisy_host"]).lower()))
    for problem in run.problems:
        print("  PROBLEM: {}".format(problem))


def _write_json(path, payload):
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")


def driver_run(args):
    """One workload, one JSON result line; returns the exit code."""
    host = Host()
    run = WorkloadRun(WORKLOADS[args.workload], args.seed,
                      args.overlay_seed, host)
    run.check()
    if run.reference is not None and run.reference.decided:
        if args.trace:
            _timed_repeats(run, args.seconds / 4.0, 2)
            run.profile()
            entries, table = _per_layer_entries(
                run, drivers.run_all(host, args.seed, args.overlay_seed))
            specs = PER_LAYER
            if args.trace_out:
                _write_json(args.trace_out, {args.workload: table})
        else:
            run.measure_setup()
            run.measure_memory()
            _timed_repeats(run, args.seconds, MIN_REPEATS)
            entries, specs = _end_to_end_entries(run), END_TO_END
        _print_metrics("{} seed {}".format(args.workload, args.seed),
                       specs, entries)
        _print_diagnostics(run, host)
        metrics = {name: {"value": entry["value"], "unit": entry["unit"]}
                   for name, entry in entries.items()}
    else:
        for problem in run.problems:
            print("PROBLEM: {}".format(problem))
        metrics = {}
    attempted, failed = run.attempted_failed()
    print(json.dumps({"correct": run.correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if run.correct else 1


def suite_run(args):
    """All workloads; returns the exit code."""
    host = Host()
    runs = [WorkloadRun(workload, args.seed, args.overlay_seed, host)
            for workload in WORKLOADS.values()]
    for run in runs:
        run.check()
    runs_ok = [run for run in runs
               if run.reference is not None and run.reference.decided]
    for run in runs_ok:
        run.measure_setup()
    for _ in range(SUITE_REPEATS):
        for run in runs_ok:
            run.timed_repeat()
    for run in runs_ok:
        run.measure_memory()
        run.profile()
    driver_metrics = drivers.run_all(host, args.seed, args.overlay_seed)

    payload = {"seed": args.seed, "overlay_seed": args.overlay_seed,
               "workloads": {}}
    trace = {}
    for run in runs:
        name = run.workload.name
        attempted, failed = run.attempted_failed()
        result = {"correct": run.correct, "problems": run.problems,
                  "attempted": attempted, "failed": failed}
        if run in runs_ok:
            end_to_end = _end_to_end_entries(run)
            per_layer, trace[name] = _per_layer_entries(run, driver_metrics)
            _print_metrics("{} seed {}: end to end".format(name, args.seed),
                           END_TO_END, end_to_end)
            _print_metrics("{}: layers".format(name), PER_LAYER, per_layer)
            _print_diagnostics(run, host)
            print("  failed_share {}/{}".format(failed, attempted))
            result.update(end_to_end=end_to_end, per_layer=per_layer,
                          diagnostics=run.diagnostics())
        else:
            for problem in run.problems:
                print("{}: PROBLEM: {}".format(name, problem))
        payload["workloads"][name] = result
    payload["host"] = host.summary()
    if args.out:
        _write_json(args.out, payload)
    if args.trace_out:
        _write_json(args.trace_out, trace)
    return 0 if all(run.correct for run in runs) else 1


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.compare:
        return compare_files(*args.compare, out=sys.stdout)
    if args.workload:
        return driver_run(args)
    return suite_run(args)
