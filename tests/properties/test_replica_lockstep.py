"""Lockstep property: the compiled Paxos replica against its Python model.

:class:`repro.paxos.process.PaxosProcess` keeps its acceptor, learner and
decision log in C and runs ``handle`` there (``PaxosCore``); the Python
they replaced is :class:`tests.paxos.reference_replica.ReferenceProcess`.
The property builds one process of each, drives one random op stream
through both (the same payload objects, as a broadcast would) and
requires at every step:

* the same outcome of the op (its return value, or its exception class);
* the same ``comm`` calls, ``on_deliver`` calls and tracer calls, each
  payload described by its class, uid, size and fields;
* every ``ProcessStats`` counter, ``_max_seen_round``, the tracked
  values, and the coordinator's round, phase and open proposals;
* the learner's decisions (by value id), decision modes, watermark and
  number of undecided instances; the acceptor's promise, accepted
  (round, value id) pairs and watermark; the log's next instance,
  delivered count and gap.

A second property holds the bare learner to the reference learner over
instances spread wide enough, and forgotten in jumps, to grow the
learner's instance table, collide in it and delete across collisions.

The stream has Phase 2a, 2b, Decision, client-value, Phase 1a and 1b
messages over a few instances, rounds and values, so votes arrive
duplicated, late, out of order and split across competing rounds and
values; bursts of votes from consecutive senders that reach a majority
at n = 100 and n = 1000 too; a client submission; crash and recover;
``take_over`` and ``step_down``; value tracking switched on; and a
tracer installed part-way through a run or not at all.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.paxos.messages import (
    ClientValue,
    Decision,
    Phase1a,
    Phase1b,
    Phase2a,
    Phase2b,
    Value,
)
from repro.paxos.learner import Learner
from repro.paxos.process import Communicator, PaxosProcess, ProcessStats
from repro.sim.kernel import Simulator
from tests.paxos import reference_replica
from tests.paxos.reference_replica import ReferenceProcess

SIZES = (1, 4, 13, 100, 1000)
INSTANCES = st.integers(1, 5)
ROUNDS = st.integers(0, 3)
VALUES = [Value(("c", k), client_id=k % 3, size_bytes=10 + k)
          for k in range(3)]
VALUE = st.sampled_from(VALUES)


def describe(payload):
    """A payload as comparable data: class, uid, size and fields."""
    fields = [type(payload).__name__, payload.uid, payload.size_bytes,
              payload.iid]
    for name in ("instance", "round", "value_id", "sender", "from_instance",
                 "coordinator", "origin"):
        if hasattr(payload, name):
            fields.append((name, getattr(payload, name)))
    if hasattr(payload, "value"):
        fields.append(("value", payload.value.value_id))
    if hasattr(payload, "accepted"):
        fields.append(("accepted", [(i, r, v.value_id)
                                    for i, r, v in payload.accepted]))
    return tuple(fields)


class RecordingComm(Communicator):
    def __init__(self, log):
        self.log = log

    def broadcast(self, payload):
        self.log.append(("broadcast", describe(payload)))

    def to_coordinator(self, payload):
        self.log.append(("to_coordinator", describe(payload)))

    def phase2b(self, payload):
        self.log.append(("phase2b", describe(payload)))


class RecordingTracer:
    def __init__(self, log):
        self.log = log

    def __getattr__(self, name):
        def record(*args, **kwargs):
            self.log.append((name, args, sorted(kwargs.items())))
        return record


def build(cls, n, leads):
    log = []
    process = cls(Simulator(seed=1), n - 1, n, RecordingComm(log),
                  coordinator_id=n - 1 if leads else 0,
                  on_deliver=lambda i, v: log.append(("deliver", i,
                                                      v.value_id)))
    process.start()
    return process, log


def state(process):
    learner, acceptor, log = process.learner, process.acceptor, process.log
    coordinator = process.coordinator
    undecided = getattr(learner, "_undecided", None)
    if undecided is None:
        undecided = len(learner._instances)
    return {
        "stats": [getattr(process.stats, f) for f in ProcessStats.__slots__],
        "max_seen_round": process._max_seen_round,
        "seen": sorted(process._seen_values),
        "decided_ids": sorted(process._decided_value_ids),
        "coordinator": None if coordinator is None else (
            coordinator.round, coordinator.phase1_complete,
            coordinator.next_instance, sorted(coordinator.proposals)),
        "decided": {i: v.value_id for i, v in learner.decided.items()},
        "modes": process.decision_modes(),
        "learner_forgotten": learner._forgotten,
        "undecided": undecided,
        "promised": acceptor.promised_round,
        "accepted": {i: (r, v.value_id)
                     for i, (r, v) in acceptor.accepted.items()},
        "acceptor_forgotten": acceptor._forgotten,
        "log": (log.next_instance, log.delivered_count, log.gap_blocked),
    }


def payloads(op):
    """The messages an op delivers, built once for both processes."""
    kind = op[0]
    if kind == "2a":
        _, instance, round_, value, attempt = op
        return [Phase2a(instance, round_, value, attempt=attempt)]
    if kind == "2b":
        _, instance, round_, value, sender, attempt = op
        return [Phase2b(instance, round_, value.value_id, sender, attempt)]
    if kind == "votes":
        _, instance, round_, value, first, count, n = op
        return [Phase2b(instance, round_, value.value_id, (first + k) % n)
                for k in range(count)]
    if kind == "decision":
        _, instance, round_, value = op
        return [Decision(instance, round_, value)]
    if kind == "client":
        return [ClientValue(op[1], origin=0)]
    if kind == "1a":
        _, round_, first = op
        return [Phase1a(round_, first, coordinator=0)]
    if kind == "1b":
        _, round_, sender, accepted = op
        return [Phase1b(round_, sender, accepted)]
    return []


def apply(process, op, messages, tracer):
    kind = op[0]
    if messages:
        return [process.handle(message) for message in messages]
    if kind == "submit":
        return process.submit_value(op[1])
    if kind == "obs":
        return process.install_obs(tracer)
    if kind == "take_over":
        return process.take_over()
    method = {"crash": "crash", "recover": "recover",
              "step_down": "step_down", "track": "enable_value_tracking"}
    return getattr(process, method[kind])()


@st.composite
def scenarios(draw):
    n = draw(st.sampled_from(SIZES))
    sender = st.integers(0, n - 1)
    ops = st.one_of(
        st.tuples(st.just("2a"), INSTANCES, ROUNDS, VALUE,
                  st.integers(0, 2)),
        st.tuples(st.just("2b"), INSTANCES, ROUNDS, VALUE, sender,
                  st.integers(0, 2)),
        st.tuples(st.just("votes"), INSTANCES, ROUNDS, VALUE, sender,
                  st.sampled_from(sorted({1, 2, n // 2, n // 2 + 1})),
                  st.just(n)),
        st.tuples(st.just("decision"), INSTANCES, ROUNDS, VALUE),
        st.tuples(st.just("client"), VALUE),
        st.tuples(st.just("1a"), ROUNDS, INSTANCES),
        st.tuples(st.just("1b"), ROUNDS, sender,
                  st.lists(st.tuples(INSTANCES, ROUNDS, VALUE),
                           max_size=3)),
        st.tuples(st.just("submit"), VALUE),
        st.sampled_from([("crash",), ("recover",), ("take_over",),
                         ("step_down",), ("track",), ("obs",)]),
    )
    leads = n == 1 or draw(st.booleans())
    return n, leads, draw(st.lists(ops, min_size=10, max_size=80))


def outcome(call):
    try:
        return ("ok", call())
    except Exception as exc:     # the two sides must raise alike
        return ("raised", type(exc).__name__)


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_replica_matches_its_reference_in_lockstep(scenario):
    n, leads, ops = scenario
    compiled, compiled_log = build(PaxosProcess, n, leads)
    reference, reference_log = build(ReferenceProcess, n, leads)
    compiled_tracer = RecordingTracer(compiled_log)
    reference_tracer = RecordingTracer(reference_log)
    assert compiled_log == reference_log
    for op in ops:
        messages = payloads(op)
        got = outcome(lambda: apply(compiled, op, messages, compiled_tracer))
        want = outcome(
            lambda: apply(reference, op, messages, reference_tracer))
        assert got == want, op
        assert compiled_log == reference_log, op
        assert state(compiled) == state(reference), op


LEARNER_OPS = st.lists(st.one_of(
    st.tuples(st.just("2a"), st.integers(1, 400), VALUE),
    st.tuples(st.just("2b"), st.integers(1, 400), st.integers(0, 1), VALUE,
              st.integers(0, 4)),
    st.tuples(st.just("decision"), st.integers(1, 400), VALUE),
    st.tuples(st.just("forget"), st.integers(0, 400)),
), max_size=300)


@settings(max_examples=200, deadline=None)
@given(LEARNER_OPS)
def test_learner_table_matches_the_reference_learner(ops):
    learner, reference = Learner(5), reference_replica.Learner(5)
    for op in ops:
        kind = op[0]
        if kind == "forget":
            learner.forget_up_to(op[1])
            reference.forget_up_to(op[1])
            continue
        if kind == "2a":
            message, method = Phase2a(op[1], 1, op[2]), "on_phase2a"
        elif kind == "2b":
            _, instance, round_, value, sender = op
            message = Phase2b(instance, round_, value.value_id, sender)
            method = "on_phase2b"
        else:
            message, method = Decision(op[1], 1, op[2]), "on_decision"
        assert (getattr(learner, method)(message)
                == getattr(reference, method)(message)), op
        assert learner._undecided == len(reference._instances), op
    assert learner.decided == reference.decided
    assert learner._forgotten == reference._forgotten
    assert ((learner.decided_by_majority, learner.decided_by_message)
            == (reference.decided_by_majority, reference.decided_by_message))
