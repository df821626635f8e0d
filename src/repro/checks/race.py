"""Double-run determinism race harness (``repro check --race``).

The simulator promises *same seed → same run*. The one thing that promise
cannot see from inside a single interpreter is sensitivity to *push
order*: a run that iterates a hash-ordered container while scheduling
same-timestamp events is perfectly deterministic under one
``PYTHONHASHSEED`` and silently different under another — the PR 4
tie-break hazard class.

This harness makes that sensitivity a testable property. A committed
scenario is executed twice (or more) in fresh ``spawn`` subprocesses,
each under a different ``PYTHONHASHSEED``, with a
:class:`~repro.checks.auditor.RaceAuditor` armed. Each run reports its
exact result fingerprint, a rolling digest of its execution trace, and
per-stream RNG draw counts. If any alternate run diverges from the base
run, the pair is re-executed with full trace capture and the harness
localizes the **first divergent event**, reporting:

* the event's virtual time, sequence number, callback label and argument
  signature on both sides;
* the same-timestamp **tie group** the event belongs to, each member
  tagged with its slot provenance (reserved vs push-ordered, and the
  event that scheduled it);
* which named RNG **streams** had already diverged in cumulative draw
  count by that point — localizing stream-discipline leaks separately
  from tie-break leaks.

Scenario names are the committed corpus of :mod:`repro.checks.scenarios`
(figure, regression and large-N runs) — see :func:`race_scenarios` — and
``synthetic-tiebreak``, a toy run with a deliberately planted set-ordered
scheduling loop. The synthetic scenario exists to prove the detector
works (its audit MUST fail); it is excluded from ``--race all``.
"""

import hashlib
import multiprocessing
import os
import traceback

from repro.checks.auditor import RaceAuditor

#: Hash seed of the base run; 0 disables str-hash randomization, making
#: the base run the canonical ordering.
BASE_HASH_SEED = 0

#: Hash seeds the base run is compared against. Two alternates keep the
#: probability of a real hazard hiding behind a coincidentally identical
#: set order negligible without tripling CI cost on the clean path.
ALTERNATE_HASH_SEEDS = (1, 2)

#: Name of the deliberately racy toy scenario (never part of "all").
SYNTHETIC = "synthetic-tiebreak"


def race_scenarios():
    """Names accepted by :func:`race_check`.

    The committed scenarios audit clean;
    ``synthetic-tiebreak`` is the planted-hazard fixture and is excluded
    from ``--race all`` (it exists to *fail*).
    """
    from repro.checks.scenarios import scenario_names

    return scenario_names() + [SYNTHETIC]


def _auditor_payload(auditor, fingerprint):
    """What one traced run sends back to the comparing parent."""
    payload = {
        "fingerprint": fingerprint,
        "summary": auditor.summary(),
        "hash_seed_env": os.environ.get("PYTHONHASHSEED"),
    }
    if auditor.capture:
        payload["trace"] = auditor.trace()
        # Index tie groups by the hex time of their instant so the parent
        # can attach slot provenance to whichever event diverged first.
        payload["tie_index"] = {
            g.time.hex(): g.to_dict() for g in auditor.tie_groups()}
    return payload


def _run_synthetic(capture):
    """The planted PR 4-class hazard, in miniature.

    A pump event iterates a *set of string node ids* and schedules one
    same-timestamp delivery per id; each delivery draws once from a named
    stream and logs ``(id, draw)``. The per-id draw therefore depends on
    set iteration order — under a different ``PYTHONHASHSEED`` the same
    seed yields a different log, which is exactly the class of silent
    divergence the harness must catch.
    """
    from repro.sim.kernel import Simulator

    auditor = RaceAuditor(capture=capture)
    sim = Simulator(seed=1, auditor=auditor)
    members = {"node-{:02d}".format(i) for i in range(12)}
    log = []

    def deliver(node_id):
        log.append((node_id, sim.rng("toy-payload").random()))

    def pump():
        # The hazard: push order of these same-timestamp events is
        # whatever order the set yields under this interpreter's hash
        # seed. (Deliberate; this scenario exists to be caught.)
        for node_id in members:
            sim.schedule(0.05, deliver, node_id)

    # Single event at t=0: no tie to break (and this fixture is the
    # planted hazard the race harness must catch anyway).
    sim.schedule(0.0, pump)  # repro: allow-unreserved-tie
    sim.run()
    digest = hashlib.sha256(repr(log).encode("utf-8")).hexdigest()
    return _auditor_payload(auditor, digest)


def _traced_run(name, capture):
    """Execute one scenario under the auditor; returns the payload.

    A ``NAME:obs`` suffix runs the scenario with the deterministic tracer
    armed (default :class:`~repro.obs.ObsConfig`) and extends the compared
    fingerprint with the obs trace digest, so a hash-seed-sensitive
    iteration *inside the tracer or exporters* diverges the race check
    even when the model run itself stays clean.
    """
    if name == SYNTHETIC:
        return _run_synthetic(capture)
    from repro.analysis.fingerprint import report_fingerprint
    from repro.checks.scenarios import scenario_config

    base_name, _, variant = name.partition(":")
    auditor = RaceAuditor(capture=capture)
    if variant == "obs":
        from repro.obs import ObsConfig, trace_digest
        from repro.runtime.runner import run_deployment

        deployment, report = run_deployment(
            scenario_config(base_name), auditor=auditor, obs=ObsConfig())
        fingerprint = "{}+obs:{}".format(report_fingerprint(report),
                                         trace_digest(deployment.obs))
    elif variant:
        raise KeyError("unknown scenario variant {!r} (only :obs)".format(
            variant))
    else:
        from repro.runtime.runner import run_experiment

        report = run_experiment(scenario_config(base_name), auditor=auditor)
        fingerprint = report_fingerprint(report)
    return _auditor_payload(auditor, fingerprint)


def _child_main(conn, name, capture):
    """Subprocess body; ships the payload (or a traceback) to the parent.

    Top-level so the ``spawn`` start method can import it by name.
    """
    try:
        conn.send(("ok", _traced_run(name, capture)))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
    finally:
        conn.close()


def _run_with_hash_seed(name, hash_seed, capture=False):
    """One traced run in a fresh interpreter under ``hash_seed``.

    ``PYTHONHASHSEED`` only takes effect at interpreter startup, so the
    run happens in a ``spawn`` child that inherits the env var; the
    parent's value is restored immediately after the child launches.
    """
    context = multiprocessing.get_context("spawn")
    receiver, sender = context.Pipe(duplex=False)
    saved = os.environ.get("PYTHONHASHSEED")
    os.environ["PYTHONHASHSEED"] = str(hash_seed)
    try:
        worker = context.Process(target=_child_main,
                                 args=(sender, name, capture))
        worker.start()
    finally:
        if saved is None:
            del os.environ["PYTHONHASHSEED"]
        else:
            os.environ["PYTHONHASHSEED"] = saved
    sender.close()
    try:
        status, payload = receiver.recv()
    except EOFError:
        worker.join()
        raise RuntimeError(
            "race worker for {!r} (PYTHONHASHSEED={}) died with exit code "
            "{}".format(name, hash_seed, worker.exitcode))
    finally:
        receiver.close()
    worker.join()
    if status == "error":
        raise RuntimeError(
            "race worker for {!r} (PYTHONHASHSEED={}) failed:\n{}".format(
                name, hash_seed, payload))
    return payload


def _entry_dict(entry):
    time_hex, seq, label, args_sig, reserved, deltas = entry
    return {
        "time": time_hex,
        "seq": seq,
        "label": label,
        "args": args_sig,
        "reserved": reserved,
        # Deltas are snapshotted when an event is popped, so they count
        # the draws made since the previous pop — i.e. by the *previous*
        # event's callback (and by setup code for the first entry).
        "rng_draws_since_prev": {name: delta for name, delta in deltas},
    }


def _cumulative_draws(trace, upto):
    """Per-stream cumulative draw counts over ``trace[:upto + 1]``."""
    totals = {}
    for entry in trace[:upto + 1]:
        for name, delta in entry[5]:
            totals[name] = totals.get(name, 0) + delta
    return totals


def _localize(name, base_seed, other_seed):
    """Re-run a divergent pair with capture and diff for the first event."""
    left = _run_with_hash_seed(name, base_seed, capture=True)
    right = _run_with_hash_seed(name, other_seed, capture=True)
    left_trace, right_trace = left["trace"], right["trace"]
    shared = min(len(left_trace), len(right_trace))
    index = next(
        (i for i in range(shared) if left_trace[i] != right_trace[i]),
        None)
    if index is None:
        if len(left_trace) == len(right_trace):
            # Digests differed but traces agree: the divergence is outside
            # the event order (e.g. fingerprint-only). Report index -1.
            return {"index": -1, "note": "traces equal; result "
                    "fingerprints differ — divergence is in report "
                    "content, not event order"}
        index = shared
    left_entry = left_trace[index] if index < len(left_trace) else None
    right_entry = right_trace[index] if index < len(right_trace) else None
    anchor = left_entry or right_entry
    time_hex = anchor[0]
    left_draws = _cumulative_draws(left_trace, index)
    right_draws = _cumulative_draws(right_trace, index)
    streams = sorted(
        set(left_draws) | set(right_draws))
    diverged_streams = [
        s for s in streams if left_draws.get(s, 0) != right_draws.get(s, 0)]
    return {
        "index": index,
        "time": time_hex,
        "time_s": float.fromhex(time_hex),
        "left": _entry_dict(left_entry) if left_entry else None,
        "right": _entry_dict(right_entry) if right_entry else None,
        "tie_group": left.get("tie_index", {}).get(time_hex)
        or right.get("tie_index", {}).get(time_hex),
        "rng_streams_diverged": diverged_streams,
        "rng_draws_at_divergence": {"left": left_draws,
                                    "right": right_draws},
    }


def race_check(name, hash_seeds=None):
    """Audit one scenario for hash-seed/push-order sensitivity.

    Runs the scenario under :data:`BASE_HASH_SEED` and each alternate
    seed (stopping at the first divergence), in fresh interpreters.
    Returns a JSON-ready report dict; ``report["ok"]`` is False when any
    paired run diverged, in which case ``report["divergence"]`` holds the
    first divergent event with tie-group and RNG-stream provenance.
    """
    seeds = list(hash_seeds) if hash_seeds else (
        [BASE_HASH_SEED] + list(ALTERNATE_HASH_SEEDS))
    base_seed, alternates = seeds[0], seeds[1:]
    base = _run_with_hash_seed(name, base_seed)
    runs = {str(base_seed): _run_summary(base)}
    seeds_run = [base_seed]
    divergent_seed = None
    for seed in alternates:
        other = _run_with_hash_seed(name, seed)
        seeds_run.append(seed)
        runs[str(seed)] = _run_summary(other)
        if (other["fingerprint"] != base["fingerprint"]
                or other["summary"]["trace_digest"]
                != base["summary"]["trace_digest"]):
            divergent_seed = seed
            break
    report = {
        "scenario": name,
        "ok": divergent_seed is None,
        "hash_seeds": seeds_run,
        "runs": runs,
        "divergence": None,
    }
    if divergent_seed is not None:
        report["divergence"] = _localize(name, base_seed, divergent_seed)
        report["divergence"]["hash_seeds"] = [base_seed, divergent_seed]
    return report


def _run_summary(payload):
    summary = payload["summary"]
    return {
        "fingerprint": payload["fingerprint"],
        "trace_digest": summary["trace_digest"],
        "events_executed": summary["events_executed"],
        "rng_draws": summary["rng_draws"],
        "tie_groups": summary["tie_groups"],
        "hazard_groups": summary["hazard_groups"],
        "reserved_slots": summary["reserved_slots"],
        "hash_seed_env": payload["hash_seed_env"],
    }


def race_check_many(names, hash_seeds=None):
    """Run :func:`race_check` over several scenarios; list of reports."""
    return [race_check(name, hash_seeds=hash_seeds) for name in names]
