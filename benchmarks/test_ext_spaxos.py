"""Extension bench — S-Paxos-style id-only ordering over gossip (§5.1).

The paper's related work singles out S-Paxos as a natural fit for gossip:
values are disseminated to everyone anyway, so the ordering layer can
carry ids only. This bench measures what that buys on the wire: bytes
drop (bodies travel once instead of riding on Phase 2a and Decision),
while message counts and latency stay comparable — and the semantic
techniques compose with it.
"""

from benchmarks.conftest import SCALE, bench_config, save_results
from repro.analysis.tables import format_table
from repro.runtime.runner import run_deployment

PLAN = {
    "quick": dict(n=13, rate=100, values=80),
    "paper": dict(n=53, rate=100, values=120),
}

VARIANTS = (
    ("gossip", dict()),
    ("gossip+spaxos", dict(spaxos=True)),
    ("semantic", dict()),
    ("semantic+spaxos", dict(spaxos=True)),
)


def _wire_bytes(deployment):
    return sum(
        link.stats.bytes_sent
        for node in deployment.nodes
        for link in node.links.values()
    )


def run_spaxos_matrix():
    plan = PLAN[SCALE]
    results = {}
    for name, overrides in VARIANTS:
        setup = name.split("+")[0]
        config = bench_config(setup, plan["n"], plan["rate"],
                              plan["values"], **overrides)
        deployment, report = run_deployment(config)
        results[name] = (report, _wire_bytes(deployment))
    return results


def test_ext_spaxos(benchmark):
    results = benchmark.pedantic(run_spaxos_matrix, rounds=1, iterations=1)
    plan = PLAN[SCALE]

    rows = []
    data = {}
    for name, _ in VARIANTS:
        report, wire_bytes = results[name]
        rows.append([
            name,
            "{:.0f}".format(report.avg_latency_s * 1000),
            "{:.0f}".format(report.throughput),
            report.messages.received_total,
            "{:.1f}".format(wire_bytes / 1e6),
            report.not_ordered,
        ])
        data[name] = {
            "avg_latency_ms": report.avg_latency_s * 1000,
            "received_total": report.messages.received_total,
            "wire_mb": wire_bytes / 1e6,
            "not_ordered": report.not_ordered,
        }

    print()
    print(format_table(
        ["variant", "avg ms", "thr /s", "msgs recv", "MB on wire",
         "not ordered"],
        rows,
        title="Extension: S-Paxos id-only ordering (n={}, {}/s)".format(
            plan["n"], plan["rate"]),
    ))

    save_results("ext_spaxos", {"scale": SCALE, "data": data})

    assert data["gossip+spaxos"]["wire_mb"] < 0.7 * data["gossip"]["wire_mb"]
    assert (data["semantic+spaxos"]["wire_mb"]
            < 0.7 * data["semantic"]["wire_mb"])
    # Composition keeps all orderings intact.
    assert all(entry["not_ordered"] == 0 for entry in data.values())
