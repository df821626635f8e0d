"""AST-based determinism linter (stdlib only).

Walks Python sources and flags constructs that can make a run depend on
anything other than the experiment seed:

* ``global-random`` — importing or calling the global ``random`` module
  (including aliased imports such as ``import random as _r`` and
  ``from random import Random``) anywhere but ``repro/sim/random.py``,
  the named-stream system every simulation RNG must derive from;
* ``wall-clock`` — ``time.time``/``monotonic``/``perf_counter``/
  ``process_time`` (and their ``_ns`` variants) or ``datetime.now`` /
  ``utcnow`` / ``today`` outside ``repro/analysis/`` and ``benchmarks/``,
  the only places real time is meaningful;
* ``set-iteration`` — ``for`` loops and comprehensions iterating a set
  literal, set comprehension or direct ``set(...)``/``frozenset(...)``
  call, whose order is hash-randomized for strings;
* ``unstable-sort-key`` — ``id``/``hash`` passed (directly or via a
  trivial lambda) as the ``key`` of ``sorted``/``list.sort``/``min``/``max``;
* ``mutable-default`` — mutable default argument values;
* ``hot-set-iteration`` — iteration over a *variable* known to hold a
  set, armed only inside the event-scheduling hot paths
  (``repro/sim|gossip|paxos|raft|net``) where hash order can reach the
  simulator's heap;
* ``identity-tie-break`` — ``id()``/``hash()`` buried inside a
  ``heapq.heappush``/``heappushpop``/``heapreplace`` or
  ``bisect.insort``/``insort_left``/``insort_right`` entry, or deep in a
  sort-key lambda (the trivial direct case stays ``unstable-sort-key``);
* ``unreserved-tie`` — ``schedule(0, ...)``/``schedule(0.0, ...)`` or
  ``schedule_at(<x>.now, ...)``: a same-timestamp event tie-broken by
  push order instead of a reserved slot;
* ``module-mutable-state`` — a mutable literal/factory bound at module
  level to a non-constant (non-UPPERCASE, non-dunder) name, which spawn
  workers mutate independently of the parent;
* ``unpicklable-task`` — a lambda handed to ``parallel_map`` or as the
  ``monitor_factory`` of ``run_experiments``; it cannot pickle into the
  process pool.

A finding on line *L* is suppressed by a ``# repro: allow-<rule-id>``
comment on that line (several ids may be comma-separated).
"""

import ast
import os
import re

from repro.checks.rules import (
    GLOBAL_RANDOM,
    HOT_SET_ITERATION,
    IDENTITY_TIE_BREAK,
    MODULE_MUTABLE_STATE,
    MUTABLE_DEFAULT,
    RULES,
    SET_ITERATION,
    UNPICKLABLE_TASK,
    UNRESERVED_TIE,
    UNSTABLE_SORT_KEY,
    WALL_CLOCK,
)

#: ``time`` module attributes that read the wall clock.
_WALL_CLOCK_TIME_ATTRS = frozenset((
    "time", "time_ns", "monotonic", "monotonic_ns",
    "perf_counter", "perf_counter_ns", "process_time", "process_time_ns",
))

#: ``datetime``/``date`` constructors that read the wall clock.
_WALL_CLOCK_DATETIME_ATTRS = frozenset(("now", "utcnow", "today"))

_SUPPRESS_RE = re.compile(r"#\s*repro:\s*allow-([a-z][a-z0-9,\s-]*)")

_MUTABLE_LITERALS = (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp,
                     ast.SetComp)
_MUTABLE_FACTORIES = frozenset(("list", "dict", "set", "bytearray", "deque",
                                "defaultdict", "Counter", "OrderedDict"))

#: heapq and bisect entry points whose inserted entries become the
#: comparison keys of an ordered queue.
_HEAP_FUNCS = frozenset(("heappush", "heappushpop", "heapreplace",
                         "insort", "insort_left", "insort_right"))


class Finding:
    """One diagnostic: where, which rule, and a pointed message."""

    __slots__ = ("path", "line", "col", "rule_id", "message")

    def __init__(self, path, line, col, rule_id, message):
        self.path = path
        self.line = line
        self.col = col
        self.rule_id = rule_id
        self.message = message

    def sort_key(self):
        return (self.path, self.line, self.col, self.rule_id)

    def to_dict(self):
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule_id,
            "message": self.message,
        }

    def __repr__(self):
        return "Finding({}:{}:{} {})".format(
            self.path, self.line, self.col, self.rule_id
        )


def _suppressions(source):
    """Map line number -> set of rule ids allowed on that line."""
    allowed = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        ids = {part.strip() for part in match.group(1).split(",")}
        allowed[lineno] = {part for part in ids if part in RULES}
    return allowed


class _DeterminismVisitor(ast.NodeVisitor):
    """Single-pass visitor accumulating findings for one module."""

    def __init__(self, path, armed):
        self.path = path
        self.armed = armed          # set of rule ids active for this path
        self.findings = []
        #: local names bound to the random module (``import random as X``).
        self._random_modules = set()
        #: local names imported *from* random (``from random import Random``).
        self._random_names = set()
        #: local names bound to the time module.
        self._time_modules = set()
        #: wall-clock functions imported from time by local name.
        self._time_names = set()
        #: names / self-attributes last assigned a set-producing expression.
        self._set_vars = set()
        self._set_attrs = set()
        #: generator expressions consumed directly by sorted(); their
        #: source order cannot matter, so iteration rules skip them.
        self._order_safe = set()
        #: function/class nesting depth; 0 means module level.
        self._depth = 0

    # -- bookkeeping -------------------------------------------------------

    def _report(self, rule, node, message):
        if rule.id in self.armed:
            self.findings.append(Finding(
                self.path, node.lineno, node.col_offset, rule.id, message
            ))

    # -- imports -----------------------------------------------------------

    def visit_Import(self, node):
        for alias in node.names:
            local = alias.asname or alias.name.split(".")[0]
            if alias.name == "random":
                self._random_modules.add(local)
                self._report(
                    GLOBAL_RANDOM, node,
                    "import of the global `random` module; derive a stream "
                    "with repro.sim.random.make_stream(seed, name) instead",
                )
            elif alias.name == "time":
                self._time_modules.add(local)
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "random":
            for alias in node.names:
                self._random_names.add(alias.asname or alias.name)
            self._report(
                GLOBAL_RANDOM, node,
                "import from the global `random` module; derive a stream "
                "with repro.sim.random.make_stream(seed, name) instead",
            )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _WALL_CLOCK_TIME_ATTRS:
                    self._time_names.add(alias.asname or alias.name)
                    self._report(
                        WALL_CLOCK, node,
                        "import of wall-clock `time.{}`; simulation code "
                        "must use sim.now".format(alias.name),
                    )
        self.generic_visit(node)

    # -- calls -------------------------------------------------------------

    def visit_Call(self, node):
        self._check_random_call(node)
        self._check_wall_clock_call(node)
        self._check_sort_key(node)
        self._check_heap_entry(node)
        self._check_schedule_tie(node)
        self._check_executor_task(node)
        if isinstance(node.func, ast.Name) and node.func.id == "sorted":
            self._order_safe.update(
                id(arg) for arg in node.args
                if isinstance(arg, ast.GeneratorExp))
        self.generic_visit(node)

    def _check_random_call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            if func.value.id in self._random_modules:
                self._report(
                    GLOBAL_RANDOM, node,
                    "call to `{}.{}` uses the global random module; take an "
                    "rng from a named stream instead".format(
                        func.value.id, func.attr
                    ),
                )
        elif isinstance(func, ast.Name) and func.id in self._random_names:
            self._report(
                GLOBAL_RANDOM, node,
                "call to `{}` imported from the global random module; take "
                "an rng from a named stream instead".format(func.id),
            )

    def _check_wall_clock_call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            base = func.value
            if (isinstance(base, ast.Name) and base.id in self._time_modules
                    and func.attr in _WALL_CLOCK_TIME_ATTRS):
                self._report(
                    WALL_CLOCK, node,
                    "wall-clock read `{}.{}()`; simulation code must use "
                    "sim.now".format(base.id, func.attr),
                )
            elif func.attr in _WALL_CLOCK_DATETIME_ATTRS:
                if self._mentions_datetime(base):
                    self._report(
                        WALL_CLOCK, node,
                        "wall-clock read `{}()`; simulation code must use "
                        "sim.now".format(self._dotted(base, func.attr)),
                    )
        elif isinstance(func, ast.Name) and func.id in self._time_names:
            self._report(
                WALL_CLOCK, node,
                "wall-clock read `{}()`; simulation code must use "
                "sim.now".format(func.id),
            )

    @staticmethod
    def _mentions_datetime(node):
        """True when an attribute chain is rooted in datetime/date."""
        while isinstance(node, ast.Attribute):
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("datetime", "date")

    @staticmethod
    def _dotted(base, attr):
        parts = [attr]
        node = base
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name):
            parts.append(node.id)
        return ".".join(reversed(parts))

    def _check_sort_key(self, node):
        func = node.func
        is_sorter = (
            (isinstance(func, ast.Name) and func.id in ("sorted", "min", "max"))
            or (isinstance(func, ast.Attribute) and func.attr == "sort")
        )
        if not is_sorter:
            return
        for keyword in node.keywords:
            if keyword.arg != "key":
                continue
            value = keyword.value
            target = value
            if isinstance(value, ast.Lambda) and isinstance(value.body, ast.Call):
                target = value.body.func
            if isinstance(target, ast.Name) and target.id in ("id", "hash"):
                self._report(
                    UNSTABLE_SORT_KEY, node,
                    "`{}` used as a sort key; its value is not stable across "
                    "runs — sort by a logical identifier instead".format(target.id),
                )
            elif isinstance(value, ast.Lambda):
                identity = self._find_identity_call(value.body)
                if identity is not None:
                    self._report(
                        IDENTITY_TIE_BREAK, identity,
                        "`{}()` inside a sort key; object identity is not "
                        "stable across runs — tie-break on a logical "
                        "identifier instead".format(identity.func.id),
                    )

    @staticmethod
    def _find_identity_call(node):
        """First ``id(...)``/``hash(...)`` call anywhere under ``node``."""
        for sub in ast.walk(node):
            if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                    and sub.func.id in ("id", "hash")):
                return sub
        return None

    def _check_heap_entry(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return
        if name not in _HEAP_FUNCS:
            return
        # args[0] is the heap or sorted list itself; everything after is
        # inserted entries whose components become comparison keys.
        for arg in node.args[1:]:
            identity = self._find_identity_call(arg)
            if identity is not None:
                self._report(
                    IDENTITY_TIE_BREAK, identity,
                    "`{}()` inside a `{}` entry; queue order would depend on "
                    "memory layout — use a monotonic sequence number "
                    "instead".format(identity.func.id, name),
                )

    def _check_schedule_tie(self, node):
        func = node.func
        if not isinstance(func, ast.Attribute) or not node.args:
            return
        if func.attr == "schedule":
            delay = node.args[0]
            if (isinstance(delay, ast.Constant)
                    and not isinstance(delay.value, bool)
                    and isinstance(delay.value, (int, float))
                    and delay.value == 0):
                self._report(
                    UNRESERVED_TIE, node,
                    "`schedule(0, ...)` lands at the current instant and is "
                    "tie-broken by push order; use reserve_slot() + "
                    "schedule_at_reserved() to pin its position",
                )
        elif func.attr == "schedule_at":
            at = node.args[0]
            if isinstance(at, ast.Attribute) and at.attr == "now":
                self._report(
                    UNRESERVED_TIE, node,
                    "`schedule_at(<sim>.now, ...)` lands at the current "
                    "instant and is tie-broken by push order; use "
                    "reserve_slot() + schedule_at_reserved() to pin its "
                    "position",
                )

    def _check_executor_task(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            name = func.attr
        elif isinstance(func, ast.Name):
            name = func.id
        else:
            return
        if name == "parallel_map":
            for arg in node.args:
                if isinstance(arg, ast.Lambda):
                    self._report(
                        UNPICKLABLE_TASK, arg,
                        "lambda passed to `parallel_map`; it cannot pickle "
                        "into spawn workers — use a module-level function",
                    )
        elif name == "run_experiments":
            for keyword in node.keywords:
                if keyword.arg == "monitor_factory" and isinstance(
                        keyword.value, ast.Lambda):
                    self._report(
                        UNPICKLABLE_TASK, keyword.value,
                        "lambda as `monitor_factory`; it cannot pickle into "
                        "spawn workers — use a module-level function",
                    )

    # -- iteration order ---------------------------------------------------

    def _check_iterable(self, iterable):
        if isinstance(iterable, (ast.Set, ast.SetComp)):
            self._report(
                SET_ITERATION, iterable,
                "iterating a set {}; iteration order is hash-dependent — "
                "sort it or use a tuple/list".format(
                    "comprehension" if isinstance(iterable, ast.SetComp)
                    else "literal"
                ),
            )
        elif (isinstance(iterable, ast.Call)
                and isinstance(iterable.func, ast.Name)
                and iterable.func.id in ("set", "frozenset")):
            self._report(
                SET_ITERATION, iterable,
                "iterating a `{}(...)` call; iteration order is "
                "hash-dependent — sort it first".format(iterable.func.id),
            )
        elif isinstance(iterable, ast.Name) and iterable.id in self._set_vars:
            self._report(
                HOT_SET_ITERATION, iterable,
                "iterating `{0}`, which holds a set, in a scheduling hot "
                "path; order is hash-dependent — iterate "
                "sorted({0})".format(iterable.id),
            )
        elif (isinstance(iterable, ast.Attribute)
                and isinstance(iterable.value, ast.Name)
                and iterable.value.id == "self"
                and iterable.attr in self._set_attrs):
            self._report(
                HOT_SET_ITERATION, iterable,
                "iterating `self.{0}`, which holds a set, in a scheduling "
                "hot path; order is hash-dependent — iterate "
                "sorted(self.{0})".format(iterable.attr),
            )

    def visit_For(self, node):
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def visit_AsyncFor(self, node):
        self._check_iterable(node.iter)
        self.generic_visit(node)

    def _visit_comprehension_node(self, node):
        if id(node) not in self._order_safe:
            for generator in node.generators:
                self._check_iterable(generator.iter)
        self.generic_visit(node)

    visit_ListComp = _visit_comprehension_node
    visit_DictComp = _visit_comprehension_node
    visit_GeneratorExp = _visit_comprehension_node

    def visit_SetComp(self, node):
        # The comprehension *builds* a set (fine); only its sources matter.
        self._visit_comprehension_node(node)

    # -- assignments -------------------------------------------------------

    @staticmethod
    def _is_set_expr(value):
        """Whether ``value`` statically evaluates to a set/frozenset."""
        if isinstance(value, (ast.Set, ast.SetComp)):
            return True
        return (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in ("set", "frozenset"))

    @staticmethod
    def _is_mutable_expr(value):
        return isinstance(value, _MUTABLE_LITERALS) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in _MUTABLE_FACTORIES
        )

    def _track_set_binding(self, targets, value):
        """Remember which names/self-attrs currently hold sets.

        Tracking is module-wide and last-write-wins — crude, but the rule
        it feeds (``hot-set-iteration``) is scoped to the handful of
        scheduling hot-path packages where the noise floor is near zero.
        """
        is_set = self._is_set_expr(value)
        for target in targets:
            if isinstance(target, ast.Name):
                if is_set:
                    self._set_vars.add(target.id)
                else:
                    self._set_vars.discard(target.id)
            elif (isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"):
                if is_set:
                    self._set_attrs.add(target.attr)
                else:
                    self._set_attrs.discard(target.attr)

    def _check_module_state(self, targets, value):
        if self._depth != 0 or not self._is_mutable_expr(value):
            return
        for target in targets:
            if not isinstance(target, ast.Name):
                continue
            name = target.id
            # UPPERCASE names are constants by convention; dunders
            # (__all__ and friends) are interpreter metadata.
            if name.isupper() or (name.startswith("__")
                                  and name.endswith("__")):
                continue
            self._report(
                MODULE_MUTABLE_STATE, target,
                "mutable module-level binding `{}`; spawn workers each "
                "mutate a private copy, silently diverging from the "
                "parent — pass state explicitly or make it a "
                "constant".format(name),
            )

    def visit_Assign(self, node):
        self._track_set_binding(node.targets, node.value)
        self._check_module_state(node.targets, node.value)
        self.generic_visit(node)

    def visit_AnnAssign(self, node):
        if node.value is not None:
            self._track_set_binding([node.target], node.value)
            self._check_module_state([node.target], node.value)
        self.generic_visit(node)

    # -- defaults ----------------------------------------------------------

    def _check_defaults(self, node):
        defaults = list(node.args.defaults)
        defaults.extend(d for d in node.args.kw_defaults if d is not None)
        for default in defaults:
            if isinstance(default, _MUTABLE_LITERALS) or (
                isinstance(default, ast.Call)
                and isinstance(default.func, ast.Name)
                and default.func.id in _MUTABLE_FACTORIES
            ):
                self._report(
                    MUTABLE_DEFAULT, default,
                    "mutable default argument; use None and create the "
                    "object inside the function",
                )

    def _visit_scope(self, node):
        self._depth += 1
        try:
            self.generic_visit(node)
        finally:
            self._depth -= 1

    def visit_FunctionDef(self, node):
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_AsyncFunctionDef(self, node):
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_Lambda(self, node):
        self._check_defaults(node)
        self._visit_scope(node)

    def visit_ClassDef(self, node):
        self._visit_scope(node)


def lint_source_detailed(source, path="<string>"):
    """Lint one module's source text.

    Returns ``(findings, suppressed)``: the findings that survive the
    ``# repro: allow-*`` comments and, separately, the findings those
    comments silenced — both sorted. Suppressions are kept visible so
    reporters can count every accepted hazard instead of pretending it
    does not exist.
    """
    armed = {rule.id for rule in RULES.values() if rule.applies_to(path)}
    if not armed:
        return [], []
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        # A file the linter cannot parse is itself a finding: silent skips
        # would let a broken file hide real hazards.
        return [Finding(path, exc.lineno or 1, (exc.offset or 1) - 1,
                        "syntax-error",
                        "could not parse: {}".format(exc.msg))], []
    visitor = _DeterminismVisitor(path, armed)
    visitor.visit(tree)
    allowed = _suppressions(source)
    findings, suppressed = [], []
    for finding in visitor.findings:
        if finding.rule_id in allowed.get(finding.line, ()):
            suppressed.append(finding)
        else:
            findings.append(finding)
    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return findings, suppressed


def lint_source(source, path="<string>"):
    """Lint one module's source text; returns a sorted list of findings."""
    return lint_source_detailed(source, path)[0]


def lint_file_detailed(path):
    """Lint one file on disk; returns ``(findings, suppressed)``."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return lint_source_detailed(source, str(path))


def lint_file(path):
    """Lint one file on disk."""
    return lint_file_detailed(path)[0]


def iter_python_files(paths):
    """Yield Python files under ``paths`` in sorted, deterministic order."""
    for path in sorted(str(p) for p in paths):
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    d for d in dirnames
                    if not d.startswith(".") and d != "__pycache__"
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        yield os.path.join(dirpath, filename)
        else:
            yield path


def lint_paths_detailed(paths):
    """Lint every Python file under ``paths``.

    Returns ``(findings, suppressed)``, both sorted deterministically.
    """
    findings, suppressed = [], []
    for filename in iter_python_files(paths):
        file_findings, file_suppressed = lint_file_detailed(filename)
        findings.extend(file_findings)
        suppressed.extend(file_suppressed)
    findings.sort(key=Finding.sort_key)
    suppressed.sort(key=Finding.sort_key)
    return findings, suppressed


def lint_paths(paths):
    """Lint every Python file under ``paths``; returns sorted findings."""
    return lint_paths_detailed(paths)[0]
