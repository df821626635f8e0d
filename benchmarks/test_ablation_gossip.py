"""Ablation — aggregation vs network-level batching.

A study of a mechanism the paper mentions but does not evaluate (§3.2):
batching also coalesces pending messages, but a batch's size grows with
its contents while a semantically aggregated vote does not — so batching
saves per-message overhead, not bytes.
"""

from benchmarks.conftest import SCALE, bench_config, save_results
from repro.analysis.tables import format_table
from repro.core.batching import BatchingHooks
from repro.runtime.deployment import build_deployment
from repro.runtime.metrics import build_report
from repro.runtime.runner import run_deployment

PLAN = {
    "quick": dict(n=27, rate=300, values=45),
    "paper": dict(n=53, rate=300, values=100),
}


def _wire_bytes(deployment):
    return sum(
        link.stats.bytes_sent
        for node in deployment.nodes
        for link in node.links.values()
    )


def run_batching_study():
    plan = PLAN[SCALE]
    results = {}

    # Semantic aggregation (no filtering, to isolate the coalescing).
    config = bench_config("semantic", plan["n"], plan["rate"],
                          plan["values"], enable_filtering=False)
    deployment, report = run_deployment(config)
    results["semantic-aggregation"] = {
        "received_total": report.messages.received_total,
        "bytes_sent": _wire_bytes(deployment),
        "avg_latency_ms": report.avg_latency_s * 1000,
        "not_ordered": report.not_ordered,
    }

    # Network-level batching: same gossip layer, batching hooks instead.
    config = bench_config("gossip", plan["n"], plan["rate"], plan["values"])
    deployment = build_deployment(config)
    for node in deployment.nodes:
        node.hooks = BatchingHooks()
    deployment.start()
    deployment.run()
    report = build_report(deployment)
    results["network-batching"] = {
        "received_total": report.messages.received_total,
        "bytes_sent": _wire_bytes(deployment),
        "avg_latency_ms": report.avg_latency_s * 1000,
        "not_ordered": report.not_ordered,
    }

    # Classic gossip reference.
    config = bench_config("gossip", plan["n"], plan["rate"], plan["values"])
    deployment, report = run_deployment(config)
    results["classic"] = {
        "received_total": report.messages.received_total,
        "bytes_sent": _wire_bytes(deployment),
        "avg_latency_ms": report.avg_latency_s * 1000,
        "not_ordered": report.not_ordered,
    }
    return results


def test_ablation_aggregation_vs_batching(benchmark):
    results = benchmark.pedantic(run_batching_study, rounds=1, iterations=1)

    print()
    print(format_table(
        ["variant", "msgs received", "MB sent", "avg latency ms"],
        [[name,
          entry["received_total"],
          "{:.1f}".format(entry["bytes_sent"] / 1e6),
          "{:.0f}".format(entry["avg_latency_ms"])]
         for name, entry in results.items()],
        title="Ablation: semantic aggregation vs network batching "
              "(paper §3.2 contrast)",
    ))
    save_results("ablation_batching", {"scale": SCALE, "data": results})

    classic = results["classic"]
    aggregation = results["semantic-aggregation"]
    batching = results["network-batching"]
    # Both coalescing techniques reduce message counts.
    assert aggregation["received_total"] < classic["received_total"]
    assert batching["received_total"] < classic["received_total"]
    # Semantic aggregation sheds the bytes of the votes it absorbs, while
    # a batch's size grows with its contents — so batching never sends
    # fewer bytes than aggregation does. (Totals are dominated by the 1KB
    # proposals, hence the comparison between the two techniques rather
    # than against classic.)
    assert batching["bytes_sent"] >= aggregation["bytes_sent"]
    assert aggregation["bytes_sent"] <= 1.001 * classic["bytes_sent"]
    assert all(entry["not_ordered"] == 0 for entry in results.values())
