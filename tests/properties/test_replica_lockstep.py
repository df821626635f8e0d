"""Lockstep property: the compiled Paxos replica against its Python model.

:class:`repro.paxos.process.PaxosProcess` keeps its acceptor, learner and
decision log in C and runs ``handle`` there (``PaxosCore``); the Python
they replaced is :class:`tests.reference.replica.ReferenceProcess`.
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
from repro.paxos.process import PaxosProcess, ProcessStats
from repro.sim.kernel import Simulator
from tests.reference import replica
from tests.reference.lockstep import Recorder, lockstep
from tests.reference.replica import ReferenceProcess

SIZES = (1, 4, 13, 100, 1000)
INSTANCES = st.integers(1, 5)
ROUNDS = st.integers(0, 3)
VALUES = [Value(("c", k), client_id=k % 3, size_bytes=10 + k)
          for k in range(3)]
VALUE = st.sampled_from(VALUES)
#: The process method a bare op calls, where it is not the op's name.
METHODS = {"track": "enable_value_tracking"}


def _undecided(learner):
    """The compiled learner's count, or the reference's instance dict's."""
    undecided = getattr(learner, "_undecided", None)
    return len(learner._instances) if undecided is None else undecided


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


class _Side:
    """A process, and the log its comm calls, its deliveries and its
    tracer (installed by an op) fill: one recorder is comm and tracer."""

    def __init__(self, cls, n, leads):
        self.recorder = Recorder()
        log = self.log = self.recorder.log
        self.process = cls(Simulator(seed=1), n - 1, n, self.recorder,
                           coordinator_id=n - 1 if leads else 0,
                           on_deliver=lambda i, v: log.append(
                               ("deliver", i, v.value_id)))
        self.process.start()

    def step(self, op_messages):
        """One op's outcome: its result, or the class of its exception."""
        (kind, *args), messages = op_messages
        process = self.process
        try:
            if messages:
                result = [process.handle(message) for message in messages]
            elif kind == "submit":
                result = process.submit_value(args[0])
            elif kind == "obs":
                result = process.install_obs(self.recorder)
            else:
                result = getattr(process, METHODS.get(kind, kind))()
        except Exception as exc:     # the two sides must raise alike
            return ("raised", type(exc).__name__)
        return ("ok", result)

    def state(self):
        process = self.process
        learner, acceptor, log = process.learner, process.acceptor, process.log
        coordinator = process.coordinator
        return self.log, {
            "stats": [getattr(process.stats, f)
                      for f in ProcessStats.__slots__],
            "max_seen_round": process._max_seen_round,
            "seen": sorted(process._seen_values),
            "decided_ids": sorted(process._decided_value_ids),
            "coordinator": None if coordinator is None else (
                coordinator.round, coordinator.phase1_complete,
                coordinator.next_instance, sorted(coordinator.proposals)),
            "decided": {i: v.value_id for i, v in learner.decided.items()},
            "modes": process.decision_modes(),
            "learner_forgotten": learner._forgotten,
            "undecided": _undecided(learner),
            "promised": acceptor.promised_round,
            "accepted": {i: (r, v.value_id)
                         for i, (r, v) in acceptor.accepted.items()},
            "acceptor_forgotten": acceptor._forgotten,
            "log": (log.next_instance, log.delivered_count, log.gap_blocked),
        }


@settings(max_examples=300, deadline=None)
@given(scenarios())
def test_replica_matches_its_reference_in_lockstep(scenario):
    n, leads, ops = scenario
    # Each op's messages are built once, for both processes.
    sides = [_Side(PaxosProcess, n, leads), _Side(ReferenceProcess, n, leads)]
    lockstep(sides, ((op, payloads(op)) for op in ops), _Side.step,
             _Side.state)


LEARNER_METHODS = {"2a": "on_phase2a", "2b": "on_phase2b",
                   "decision": "on_decision"}
LEARNER_OPS = st.lists(st.one_of(
    st.tuples(st.just("2a"), st.integers(1, 400), VALUE),
    st.tuples(st.just("2b"), st.integers(1, 400), st.integers(0, 1), VALUE,
              st.integers(0, 4)),
    st.tuples(st.just("decision"), st.integers(1, 400), VALUE),
    st.tuples(st.just("forget"), st.integers(0, 400)),
), max_size=300)


def _learner_message(op):
    """The message an op hands both learners, or None for a forget."""
    kind = op[0]
    if kind == "2a":
        return Phase2a(op[1], 1, op[2])
    if kind == "2b":
        _, instance, round_, value, sender = op
        return Phase2b(instance, round_, value.value_id, sender)
    if kind == "decision":
        return Decision(op[1], 1, op[2])
    return None


def _learner_step(learner, op_message):
    (kind, arg, *_), message = op_message
    if message is None:
        return learner.forget_up_to(arg)
    return getattr(learner, LEARNER_METHODS[kind])(message)


@settings(max_examples=200, deadline=None)
@given(LEARNER_OPS)
def test_learner_table_matches_the_reference_learner(ops):
    learner, reference = Learner(5), replica.Learner(5)
    lockstep([learner, reference],
             ((op, _learner_message(op)) for op in ops), _learner_step,
             _undecided)
    assert learner.decided == reference.decided
    assert learner._forgotten == reference._forgotten
    assert ((learner.decided_by_majority, learner.decided_by_message)
            == (reference.decided_by_majority, reference.decided_by_message))
