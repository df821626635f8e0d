"""``--compare A.json B.json``: two suite outputs, row by row.

One row per (workload, end-to-end metric) with both values, the ratio B/A
(base A) and a verdict against the metric's bound: ``worse`` when B is
worse than A by more than the bound, ``unresolved`` when the quartile
spread of either side is itself wider than the bound (the data cannot
tell), else ``same``. Values that must repeat exactly — counts, simulated
statistics, digests, failures — are listed whenever they differ at all.
"""

import json

from benchmarks.e2e.spec import END_TO_END

EXACT_KINDS = ("count", "simulated")


def _verdict(spec, a, b):
    bound = spec["bound"]
    for side in (a, b):
        if side["value"] and (side["q3"] - side["q1"]) / side["value"] > bound:
            return "unresolved"
    if spec["better"] == "lower":
        worse = b["value"] > a["value"] * (1.0 + bound)
    else:
        worse = b["value"] < a["value"] * (1.0 - bound)
    return "worse" if worse else "same"


def compare(a, b):
    """(rows, exact_differences) for two suite payloads."""
    rows = []
    differences = []
    for name, run_a in sorted(a["workloads"].items()):
        run_b = b["workloads"].get(name)
        if run_b is None:
            differences.append("{}: missing from B".format(name))
            continue
        for key in ("correct", "attempted", "failed"):
            if run_a[key] != run_b[key]:
                differences.append("{} {}: {} vs {}".format(
                    name, key, run_a[key], run_b[key]))
        if "end_to_end" not in run_a or "end_to_end" not in run_b:
            continue
        digests = [run["diagnostics"]["digest"] for run in (run_a, run_b)]
        if digests[0] != digests[1]:
            differences.append("{} digest: {} vs {}".format(
                name, digests[0][:16], digests[1][:16]))
        for spec in END_TO_END:
            metric = spec["name"]
            ea, eb = run_a["end_to_end"][metric], run_b["end_to_end"][metric]
            rows.append({
                "workload": name, "metric": metric, "unit": spec["unit"],
                "a": ea["value"], "b": eb["value"],
                "ratio": eb["value"] / ea["value"] if ea["value"] else None,
                "bound": spec["bound"], "verdict": _verdict(spec, ea, eb),
            })
        for group in ("end_to_end", "per_layer"):
            for metric, ea in sorted(run_a[group].items()):
                eb = run_b[group].get(metric)
                if ea["kind"] in EXACT_KINDS and (
                        eb is None or eb["value"] != ea["value"]):
                    differences.append("{} {}: {!r} vs {!r}".format(
                        name, metric, ea["value"], eb and eb["value"]))
    return rows, differences


def compare_files(path_a, path_b, out):
    """Print the comparison; 0 when nothing is worse, unresolved or
    different, else 1."""
    with open(path_a) as handle:
        a = json.load(handle)
    with open(path_b) as handle:
        b = json.load(handle)
    rows, differences = compare(a, b)
    out.write("{:<22} {:<22} {:>12} {:>12} {:>8} {:>6}  {}\n".format(
        "workload", "metric", "A", "B", "B/A", "bound", "verdict"))
    for row in rows:
        ratio = "-" if row["ratio"] is None else "{:.4f}".format(row["ratio"])
        out.write("{:<22} {:<22} {:>12.6g} {:>12.6g} {:>8} {:>6.2f}  {}\n"
                  .format(row["workload"], row["metric"], row["a"], row["b"],
                          ratio, row["bound"], row["verdict"]))
    out.write("ratios are B/A; base is A ({})\n".format(path_a))
    if differences:
        out.write("exact values that differ:\n")
        for line in differences:
            out.write("  {}\n".format(line))
    else:
        out.write("every count, simulated value, digest and failure count "
                  "is identical\n")
    bad = differences or any(r["verdict"] != "same" for r in rows)
    return 1 if bad else 0
