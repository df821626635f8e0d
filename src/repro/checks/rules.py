"""Rule registry for the determinism linter.

Every lint rule has a stable identifier used in three places: the reported
diagnostics, the per-line suppression syntax (``# repro: allow-<rule-id>``)
and the per-path exemption table below. Keeping them in one registry means
reporters and the suppression parser never disagree about what exists.

Rationale (DESIGN.md §2): the simulator promises *same seed → same run*.
Any read of ambient state — the global ``random`` module, the wall clock,
the iteration order of a hash-randomized ``set`` — silently breaks that
promise without failing a single functional test, so it must be caught
statically.
"""


class Rule:
    """One lint rule: identifier, summary, and path scoping.

    ``exempt_fragments`` are path fragments (posix-style) for which the rule
    does not apply — e.g. the named-stream module is the one legitimate home
    of ``random.Random``. ``only_fragments``, when non-empty, *restricts*
    the rule to paths containing one of the fragments — used by the
    hot-path rules that would be noise in analysis or tooling code.
    """

    __slots__ = ("id", "summary", "exempt_fragments", "only_fragments")

    def __init__(self, id_, summary, exempt_fragments=(), only_fragments=()):
        self.id = id_
        self.summary = summary
        self.exempt_fragments = tuple(exempt_fragments)
        self.only_fragments = tuple(only_fragments)

    def applies_to(self, path):
        """Whether the rule is armed for ``path`` (posix-normalized)."""
        normalized = str(path).replace("\\", "/")
        if self.only_fragments and not any(
                fragment in normalized for fragment in self.only_fragments):
            return False
        return not any(fragment in normalized for fragment in self.exempt_fragments)

    def __repr__(self):
        return "Rule({!r})".format(self.id)


GLOBAL_RANDOM = Rule(
    "global-random",
    "use of the global `random` module outside the named-stream system",
    exempt_fragments=("repro/sim/random.py",),
)

WALL_CLOCK = Rule(
    "wall-clock",
    "wall-clock read inside simulation code (use sim.now instead)",
    # Analysis and the benchmarks measure the simulator from the outside;
    # wall-clock is their subject, not a hazard.
    exempt_fragments=("repro/analysis/", "benchmarks/"),
)

SET_ITERATION = Rule(
    "set-iteration",
    "iteration over a set literal/comprehension; order is hash-dependent",
)

UNSTABLE_SORT_KEY = Rule(
    "unstable-sort-key",
    "id()/hash() used as a sort key; value varies across runs",
)

MUTABLE_DEFAULT = Rule(
    "mutable-default",
    "mutable default argument; shared state leaks across calls",
)

#: Path fragments of the event-scheduling hot paths: the packages whose
#: iteration order can reach the simulator's heap within one event.
HOT_PATH_FRAGMENTS = (
    "repro/sim/", "repro/gossip/", "repro/paxos/", "repro/raft/",
    "repro/net/",
)

HOT_SET_ITERATION = Rule(
    "hot-set-iteration",
    "iteration over a set-typed variable in a simulation hot path; "
    "order is hash-dependent",
    only_fragments=HOT_PATH_FRAGMENTS,
)

IDENTITY_TIE_BREAK = Rule(
    "identity-tie-break",
    "id()/hash() inside a heap or insort entry or sort key; object "
    "identity is not stable across runs",
)

UNRESERVED_TIE = Rule(
    "unreserved-tie",
    "zero-delay/at-now schedule() creates a same-timestamp event "
    "tie-broken by push order; reserve a slot or use a real delay",
)

MODULE_MUTABLE_STATE = Rule(
    "module-mutable-state",
    "mutable module-level state; spawn workers each mutate their own "
    "copy, so results silently diverge from the parent's",
)

UNPICKLABLE_TASK = Rule(
    "unpicklable-task",
    "lambda passed to the process-pool executor; it cannot pickle, so "
    "the run silently degrades to the serial path",
)

#: All rules, in reporting order. dict preserves insertion order and gives
#: O(1) lookup by id for the suppression parser.
RULES = {
    rule.id: rule
    for rule in (
        GLOBAL_RANDOM,
        WALL_CLOCK,
        SET_ITERATION,
        UNSTABLE_SORT_KEY,
        MUTABLE_DEFAULT,
        HOT_SET_ITERATION,
        IDENTITY_TIE_BREAK,
        UNRESERVED_TIE,
        MODULE_MUTABLE_STATE,
        UNPICKLABLE_TASK,
    )
}


def get_rule(rule_id):
    """Look up a rule by id; raises KeyError with the known ids listed."""
    try:
        return RULES[rule_id]
    except KeyError:
        raise KeyError(
            "unknown rule {!r}; known rules: {}".format(
                rule_id, ", ".join(sorted(RULES))
            )
        )
