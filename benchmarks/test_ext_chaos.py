"""Extension bench — the chaos harness (robustness beyond §4.5).

The paper's reliability study (Fig. 6) injects uniform receiver-side loss
with every timeout-triggered procedure disabled. This bench runs the
seeded chaos scenarios (docs/faults.md) — partition-and-heal around the
coordinator, a coordinator crash with a heartbeat-elected successor,
Gilbert-Elliott loss bursts at Fig. 6 intensities, a gray (slow-but-alive)
coordinator, and membership churn — against every applicable setup with
the safety monitor armed.

Shape assertions: **safety always, liveness after heal** — zero invariant
violations anywhere, every pre-fault and post-heal value decided, and
identical fingerprints on repeated same-seed runs (determinism extends to
the failure traces).
"""

from benchmarks.conftest import SCALE, save_results
from repro.analysis.fingerprint import report_fingerprint
from repro.analysis.tables import format_table
from repro.net.faults.chaos import SCENARIOS, chaos_config, run_chaos_suite
from repro.runtime.config import SETUPS

PLAN = {
    "quick": dict(n=7, rate=40, seeds=(1, 2)),
    "paper": dict(n=13, rate=60, seeds=(1, 2, 3, 4, 5)),
}


def run_chaos_matrix():
    plan = PLAN[SCALE]
    results = {}
    for setup in SETUPS:
        config = chaos_config(setup=setup, n=plan["n"], rate=plan["rate"])
        results[setup] = run_chaos_suite(config, seeds=plan["seeds"])
    return results


def test_ext_chaos_scenarios(benchmark):
    results = benchmark.pedantic(run_chaos_matrix, rounds=1, iterations=1)
    plan = PLAN[SCALE]

    rows = []
    data = {}
    for setup, runs in results.items():
        for result in runs:
            messages = result.report.messages
            rows.append([
                result.scenario, setup, result.seed,
                "ok" if result.ok else "FAIL",
                len(result.violations), len(result.missing),
                "{}/{}".format(result.report.decided,
                               result.report.submitted),
                messages.fault_partition_drops + messages.fault_burst_drops,
                messages.retransmissions,
            ])
            data["{}-{}-s{}".format(result.scenario, setup, result.seed)] = {
                "ok": result.ok,
                "violations": len(result.violations),
                "missing": len(result.missing),
                "submitted": result.report.submitted,
                "decided": result.report.decided,
                "fault_drops": messages.fault_partition_drops
                + messages.fault_link_loss_drops + messages.fault_burst_drops,
                "retransmissions": messages.retransmissions,
                "fault_injections": messages.fault_injections,
            }

    print()
    print(format_table(
        ["scenario", "setup", "seed", "status", "violations", "missing",
         "decided", "fault drops", "retransmits"],
        rows,
        title="Extension: chaos scenarios (n={}, {}/s, {} seeds)".format(
            plan["n"], plan["rate"], len(plan["seeds"])),
    ))

    save_results("ext_chaos", {"scale": SCALE, "data": data})

    all_runs = [result for runs in results.values() for result in runs]
    # Every scenario ran somewhere; unsupported pairs were skipped.
    assert {result.scenario for result in all_runs} == set(SCENARIOS)
    assert all(result.scenario != "coordinator-crash"
               for result in results["baseline"])
    # Safety always, liveness after heal — across every setup and seed.
    assert all(result.violations == [] for result in all_runs)
    assert all(result.missing == [] for result in all_runs)
    # The faults actually bit: injections landed in every run.
    assert all(result.report.messages.fault_injections for result in all_runs)
    # Determinism: re-running one scenario reproduces its fingerprint.
    from repro.net.faults.chaos import run_chaos_scenario

    sample = results["gossip"][0]
    config = chaos_config(setup="gossip", n=plan["n"], rate=plan["rate"])
    rerun = run_chaos_scenario(sample.scenario, config, seed=sample.seed)
    assert (report_fingerprint(rerun.report)
            == report_fingerprint(sample.report))
