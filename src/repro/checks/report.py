"""Text and JSON reporters for lint findings, invariant violations and
race-audit reports.

The text form is the classic one-diagnostic-per-line compiler format
(``path:line:col: rule-id message``) so editors and CI annotators can parse
it; the JSON form is a stable machine-readable envelope used by
``repro check --json``.

Both reporters feed the same exit-code contract (see
:mod:`repro.checks.cli`): 0 when clean, 1 when any finding, violation or
race divergence survives, 2 on usage errors. Suppressed findings
(``# repro: allow-*``) never affect the exit code but are *counted* in
both forms, so accepted hazards stay visible in dashboards.
"""

import json


def format_findings_text(findings, suppressed=None):
    """Human-readable lint report; empty string when clean.

    ``suppressed`` (a list of suppressed findings, when provided) only
    affects the summary line — accepted hazards are counted, not listed.
    """
    suppressed_note = (
        ", {} suppressed".format(len(suppressed)) if suppressed else "")
    if not findings:
        return ""
    lines = [
        "{}:{}:{}: {} {}".format(
            finding.path, finding.line, finding.col + 1,
            finding.rule_id, finding.message,
        )
        for finding in findings
    ]
    lines.append("{} finding{} ({} rule{}{})".format(
        len(findings), "s" if len(findings) != 1 else "",
        len({f.rule_id for f in findings}),
        "s" if len({f.rule_id for f in findings}) != 1 else "",
        suppressed_note,
    ))
    return "\n".join(lines)


def format_violations_text(violations):
    """Human-readable invariant report; empty string when clean."""
    if not violations:
        return ""
    lines = [
        "[{}] {}".format(violation.invariant, violation.message)
        for violation in violations
    ]
    lines.append("{} violation{}".format(
        len(violations), "s" if len(violations) != 1 else ""))
    return "\n".join(lines)


def _format_race_entry(side, entry):
    if entry is None:
        return "  {:<5}: (run ended — shorter trace)".format(side)
    return "  {:<5}: seq {} {}({})".format(
        side, entry["seq"], entry["label"], entry["args"])


def format_race_text(reports):
    """Human-readable race-audit report, one block per scenario."""
    lines = []
    for report in reports:
        runs = report["runs"]
        seeds = ",".join(str(s) for s in report["hash_seeds"])
        if report["ok"]:
            base = next(iter(runs.values()))
            lines.append(
                "race: {!r} clean across hash seeds {} "
                "({} events, {} tie groups)".format(
                    report["scenario"], seeds,
                    base["events_executed"], base["tie_groups"]))
            continue
        divergence = report["divergence"]
        pair = divergence.get("hash_seeds", [])
        lines.append("race: {!r} DIVERGED (hash seeds {} vs {})".format(
            report["scenario"], *pair))
        if divergence.get("index", -1) < 0:
            lines.append("  {}".format(divergence.get("note", "")))
            continue
        lines.append(
            "  first divergent event: #{} at t={:.6f}s ({})".format(
                divergence["index"],
                divergence.get("time_s") or 0.0,
                divergence["time"]))
        lines.append(_format_race_entry("left", divergence["left"]))
        lines.append(_format_race_entry("right", divergence["right"]))
        group = divergence.get("tie_group")
        if group:
            members = group["members"]
            lines.append(
                "  tie group at that instant: {} push-ordered "
                "members".format(len(members)))
            for member in members[:8]:
                lines.append(
                    "    seq {:<6} {}({}) scheduled by event #{}".format(
                        member["seq"], member["label"], member["args"],
                        member["origin"]))
            if len(members) > 8:
                lines.append("    ... {} more members".format(
                    len(members) - 8))
        streams = divergence.get("rng_streams_diverged", [])
        lines.append(
            "  rng streams diverged by then: {}".format(
                ", ".join(streams) if streams else "none"))
    diverged = sum(1 for report in reports if not report["ok"])
    lines.append("race audit: {}/{} scenario{} clean".format(
        len(reports) - diverged, len(reports),
        "s" if len(reports) != 1 else ""))
    return "\n".join(lines)


def report_to_json(findings=None, violations=None, suppressed=None,
                   race=None, extra=None):
    """The ``repro check --json`` envelope as a serialized string."""
    race_clean = race is None or all(r["ok"] for r in race)
    payload = {
        "clean": not findings and not violations and race_clean,
    }
    if findings is not None:
        payload["lint"] = {
            "findings": [finding.to_dict() for finding in findings],
            "count": len(findings),
            "suppressed": len(suppressed) if suppressed is not None else 0,
        }
        if suppressed:
            payload["lint"]["suppressions"] = [
                finding.to_dict() for finding in suppressed]
    if violations is not None:
        payload["invariants"] = {
            "violations": [violation.to_dict() for violation in violations],
            "count": len(violations),
        }
    if race is not None:
        payload["race"] = {
            "reports": race,
            "count": len(race),
            "diverged": sum(1 for r in race if not r["ok"]),
        }
    if extra:
        payload.update(extra)
    return json.dumps(payload, indent=2, sort_keys=True)
