"""Ablation — attributing Semantic Gossip's gains to its two techniques.

The paper evaluates filtering and aggregation only in combination; this
bench separates them (DESIGN.md §7): classic gossip, filtering-only,
aggregation-only, and both, under the same saturating workload and
overlay. Reported per variant: received messages, bytes on the wire,
average latency and throughput.

Shape assertions: each technique alone reduces received traffic versus
classic gossip; the combination reduces it at least as much as the best
single technique.
"""

from benchmarks.conftest import SCALE, bench_config, save_results
from repro.analysis.tables import format_table
from repro.runtime.runner import run_deployment

VARIANTS = (
    ("gossip", {}),
    ("filtering-only", {"enable_filtering": True,
                        "enable_aggregation": False}),
    ("aggregation-only", {"enable_filtering": False,
                          "enable_aggregation": True}),
    ("both", {"enable_filtering": True, "enable_aggregation": True}),
)

PLAN = {
    "quick": dict(n=53, rate=150, values=45),
    "paper": dict(n=105, rate=100, values=80),
}


def run_ablation():
    plan = PLAN[SCALE]
    results = {}
    for name, flags in VARIANTS:
        setup = "gossip" if name == "gossip" else "semantic"
        config = bench_config(setup, plan["n"], plan["rate"],
                              plan["values"], **flags)
        deployment, report = run_deployment(config)
        bytes_sent = sum(
            link.stats.bytes_sent
            for node in deployment.nodes
            for link in node.links.values()
        )
        results[name] = (report, bytes_sent)
    return results


def test_ablation_semantics(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    rows = []
    data = {}
    for name, _ in VARIANTS:
        report, bytes_sent = results[name]
        messages = report.messages
        rows.append([
            name,
            messages.received_total,
            "{:.1f}".format(bytes_sent / 1e6),
            messages.filtered,
            messages.aggregated_saved,
            "{:.0f}".format(report.avg_latency_s * 1000),
            "{:.0f}".format(report.throughput),
        ])
        data[name] = {
            "received_total": messages.received_total,
            "bytes_sent": bytes_sent,
            "filtered": messages.filtered,
            "aggregated_saved": messages.aggregated_saved,
            "avg_latency_ms": report.avg_latency_s * 1000,
            "throughput": report.throughput,
            "not_ordered": report.not_ordered,
        }

    print()
    print(format_table(
        ["variant", "msgs received", "MB sent", "filtered", "agg saved",
         "avg latency ms", "throughput /s"],
        rows,
        title="Ablation: semantic filtering vs aggregation (n={}, {}/s)"
        .format(PLAN[SCALE]["n"], PLAN[SCALE]["rate"]),
    ))

    save_results("ablation_semantics", {"scale": SCALE, "data": data})

    base = data["gossip"]["received_total"]
    filtering = data["filtering-only"]["received_total"]
    aggregation = data["aggregation-only"]["received_total"]
    both = data["both"]["received_total"]
    assert filtering < base
    assert aggregation < base
    assert both <= 1.05 * min(filtering, aggregation)
    # No variant loses values.
    assert all(entry["not_ordered"] == 0 for entry in data.values())
