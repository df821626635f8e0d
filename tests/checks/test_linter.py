"""Unit tests for the AST determinism linter."""

import os
import textwrap

import repro
from repro.checks.linter import lint_paths, lint_source, lint_source_detailed
from repro.checks.rules import RULES, get_rule


def lint(source, path="src/repro/example.py"):
    return lint_source(textwrap.dedent(source), path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# -- global-random ---------------------------------------------------------

def test_plain_import_random_flagged():
    findings = lint("import random\n")
    assert rule_ids(findings) == ["global-random"]
    assert findings[0].line == 1


def test_aliased_import_and_call_flagged():
    findings = lint(
        """
        import random as _random
        rng = _random.Random(0)
        """
    )
    assert rule_ids(findings) == ["global-random", "global-random"]
    assert "_random.Random" in findings[1].message


def test_from_random_import_flagged():
    findings = lint(
        """
        from random import Random
        rng = Random(3)
        """
    )
    assert rule_ids(findings) == ["global-random", "global-random"]


def test_named_stream_module_is_exempt():
    findings = lint(
        """
        import random
        random.Random(7)
        """,
        path="src/repro/sim/random.py",
    )
    assert findings == []


def test_other_module_named_random_not_flagged():
    findings = lint(
        """
        from repro.sim.random import make_stream
        rng = make_stream(1, "overlay")
        """
    )
    assert findings == []


# -- wall-clock ------------------------------------------------------------

def test_time_time_flagged():
    findings = lint(
        """
        import time
        t = time.time()
        """
    )
    assert rule_ids(findings) == ["wall-clock"]


def test_perf_counter_and_monotonic_flagged():
    findings = lint(
        """
        import time
        a = time.perf_counter()
        b = time.monotonic()
        """
    )
    assert rule_ids(findings) == ["wall-clock", "wall-clock"]


def test_from_time_import_time_flagged_at_import_and_call():
    findings = lint(
        """
        from time import time
        t = time()
        """
    )
    assert rule_ids(findings) == ["wall-clock", "wall-clock"]


def test_datetime_now_flagged():
    findings = lint(
        """
        import datetime
        t = datetime.datetime.now()
        """
    )
    assert rule_ids(findings) == ["wall-clock"]


def test_wall_clock_allowed_in_analysis_and_benchmarks():
    source = """
        import time
        t = time.time()
        """
    assert lint(source, path="src/repro/analysis/timing.py") == []
    assert lint(source, path="benchmarks/conftest.py") == []


def test_time_sleep_not_flagged():
    findings = lint(
        """
        import time
        time.sleep(1)
        """
    )
    assert findings == []


# -- set-iteration ---------------------------------------------------------

def test_for_over_set_literal_flagged():
    findings = lint(
        """
        for x in {1, 2, 3}:
            print(x)
        """
    )
    assert rule_ids(findings) == ["set-iteration"]


def test_comprehension_over_set_call_flagged():
    findings = lint("def f(items): return [x for x in set(items)]\n")
    assert rule_ids(findings) == ["set-iteration"]


def test_set_comprehension_source_flagged_but_not_target():
    # Building a set is fine; iterating one inside the generators is not.
    assert lint("def f(items): return {x for x in items}\n") == []
    findings = lint("def f(items): return [y for y in {x for x in items}]\n")
    assert rule_ids(findings) == ["set-iteration"]


def test_sorted_set_not_flagged():
    assert lint("for x in sorted({1, 2, 3}): pass\n") == []


# -- unstable-sort-key -----------------------------------------------------

def test_sorted_key_id_flagged():
    findings = lint("xs = sorted(items, key=id)\n")
    assert rule_ids(findings) == ["unstable-sort-key"]


def test_list_sort_key_hash_flagged():
    findings = lint("items.sort(key=hash)\n")
    assert rule_ids(findings) == ["unstable-sort-key"]


def test_lambda_hash_key_flagged():
    findings = lint("m = min(items, key=lambda x: hash(x))\n")
    assert rule_ids(findings) == ["unstable-sort-key"]


def test_normal_sort_key_not_flagged():
    assert lint("xs = sorted(items, key=lambda x: x.uid)\n") == []


# -- mutable-default -------------------------------------------------------

def test_mutable_default_list_flagged():
    findings = lint("def f(xs=[]): return xs\n")
    assert rule_ids(findings) == ["mutable-default"]


def test_mutable_default_factory_flagged():
    findings = lint("def f(xs=dict()): return xs\n")
    assert rule_ids(findings) == ["mutable-default"]


def test_none_default_not_flagged():
    assert lint("def f(xs=None, k=3, name='x'): return xs\n") == []


# -- hot-set-iteration -----------------------------------------------------

HOT_PATH = "src/repro/sim/example.py"


def test_set_variable_iteration_flagged_in_hot_path():
    source = """
        def f(items):
            pending = set(items)
            for x in pending:
                print(x)
        """
    findings = lint(source, path=HOT_PATH)
    assert rule_ids(findings) == ["hot-set-iteration"]
    assert "sorted(pending)" in findings[0].message


def test_self_set_attribute_iteration_flagged_in_hot_path():
    source = """
        class Node:
            def __init__(self):
                self.peers = set()

            def fanout(self):
                return [p for p in self.peers]
        """
    findings = lint(source, path=HOT_PATH)
    assert rule_ids(findings) == ["hot-set-iteration"]
    assert "self.peers" in findings[0].message


def test_set_variable_iteration_not_flagged_outside_hot_path():
    source = """
        def f(items):
            pending = set(items)
            for x in pending:
                print(x)
        """
    assert lint(source, path="src/repro/analysis/example.py") == []


def test_rebound_variable_not_flagged():
    source = """
        def f(items):
            pending = set(items)
            pending = sorted(pending)
            for x in pending:
                print(x)
        """
    assert lint(source, path=HOT_PATH) == []


def test_sorted_generator_over_set_is_order_safe():
    source = """
        def f(edges):
            s = set(edges)
            return sorted(tuple(sorted(e)) for e in s)
        """
    assert lint(source, path=HOT_PATH) == []


# -- identity-tie-break ----------------------------------------------------

def test_id_inside_heappush_entry_flagged():
    source = """
        import heapq

        def push(heap, t, item):
            heapq.heappush(heap, (t, id(item), item))
        """
    findings = lint(source)
    assert rule_ids(findings) == ["identity-tie-break"]
    assert "heappush" in findings[0].message


def test_id_inside_insort_entry_flagged():
    source = """
        import bisect

        def push(xs, t, x):
            bisect.insort(xs, (t, id(x), x))
        """
    findings = lint(source)
    assert rule_ids(findings) == ["identity-tie-break"]
    assert "insort" in findings[0].message


def test_hash_deep_in_sort_key_lambda_flagged():
    findings = lint(
        "def f(xs): return sorted(xs, key=lambda x: (x.t, hash(x)))\n")
    assert rule_ids(findings) == ["identity-tie-break"]


def test_plain_heappush_entry_not_flagged():
    source = """
        import heapq

        def push(heap, t, seq, item):
            heapq.heappush(heap, (t, seq, item))
        """
    assert lint(source) == []


def test_plain_insort_entry_not_flagged():
    source = """
        from bisect import insort_right

        def push(xs, t, seq, x, lo):
            insort_right(xs, (t, seq, x), lo)
        """
    assert lint(source) == []


# -- unreserved-tie --------------------------------------------------------

def test_schedule_zero_delay_flagged():
    assert rule_ids(lint(
        "def f(sim, cb): sim.schedule(0, cb)\n")) == ["unreserved-tie"]
    assert rule_ids(lint(
        "def f(sim, cb): sim.schedule(0.0, cb)\n")) == ["unreserved-tie"]


def test_schedule_at_now_flagged():
    findings = lint("def f(sim, cb): sim.schedule_at(sim.now, cb)\n")
    assert rule_ids(findings) == ["unreserved-tie"]


def test_positive_delay_and_reserved_not_flagged():
    assert lint("def f(sim, cb): sim.schedule(0.1, cb)\n") == []
    assert lint(
        "def f(sim, cb, slot): sim.schedule_at_reserved(slot, cb)\n") == []


# -- module-mutable-state --------------------------------------------------

def test_module_level_mutable_flagged():
    assert rule_ids(lint("_cache = {}\n")) == ["module-mutable-state"]
    assert rule_ids(lint("pending = []\n")) == ["module-mutable-state"]


def test_module_level_constants_and_dunders_exempt():
    assert lint("SCENARIOS = {}\n") == []
    assert lint("__all__ = ['f']\n") == []


def test_function_and_class_level_mutables_not_flagged():
    assert lint("def f():\n    cache = {}\n    return cache\n") == []
    assert lint("class C:\n    registry = {}\n") == []


# -- unpicklable-task ------------------------------------------------------

def test_lambda_to_parallel_map_flagged():
    findings = lint(
        "def f(xs): return parallel_map(lambda x: x + 1, xs)\n")
    assert rule_ids(findings) == ["unpicklable-task"]


def test_lambda_monitor_factory_flagged():
    findings = lint(
        "def f(cfgs): return run_experiments("
        "cfgs, monitor_factory=lambda: None)\n")
    assert rule_ids(findings) == ["unpicklable-task"]


def test_named_function_task_not_flagged():
    assert lint("def f(xs): return parallel_map(double, xs)\n") == []


# -- suppression -----------------------------------------------------------

def test_allow_comment_suppresses_rule_on_that_line():
    findings = lint(
        """
        import time
        t = time.time()  # repro: allow-wall-clock
        """
    )
    assert findings == []


def test_allow_comment_with_multiple_rules():
    findings = lint(
        "import random  # repro: allow-global-random, wall-clock\n"
    )
    assert findings == []


def test_allow_comment_for_other_rule_does_not_suppress():
    findings = lint(
        """
        import time
        t = time.time()  # repro: allow-global-random
        """
    )
    assert rule_ids(findings) == ["wall-clock"]


def test_allow_comment_on_other_line_does_not_suppress():
    findings = lint(
        """
        # repro: allow-wall-clock
        import time
        t = time.time()
        """
    )
    assert rule_ids(findings) == ["wall-clock"]


def test_detailed_lint_reports_suppressed_findings():
    findings, suppressed = lint_source_detailed(
        "import time\nt = time.time()  # repro: allow-wall-clock\n",
        path="src/repro/example.py",
    )
    assert findings == []                             # nothing survives
    assert rule_ids(suppressed) == ["wall-clock"]     # the silenced call
    assert suppressed[0].line == 2


# -- file/tree walking -----------------------------------------------------

def test_syntax_error_is_reported_not_swallowed():
    findings = lint("def broken(:\n")
    assert rule_ids(findings) == ["syntax-error"]


def test_findings_sorted_and_deterministic():
    source = """
        import time
        import random
        t = time.time()
        """
    first = lint(source)
    second = lint(source)
    assert [f.to_dict() for f in first] == [f.to_dict() for f in second]
    assert first[0].line <= first[-1].line


def test_repro_tree_is_clean():
    """Acceptance: the shipped package has zero determinism findings."""
    package_dir = os.path.dirname(os.path.abspath(repro.__file__))
    assert lint_paths([package_dir]) == []


def test_rule_registry_lookup():
    assert get_rule("wall-clock").id == "wall-clock"
    assert set(RULES) == {
        "global-random", "wall-clock", "set-iteration",
        "unstable-sort-key", "mutable-default",
        "hot-set-iteration", "identity-tie-break", "unreserved-tie",
        "module-mutable-state", "unpicklable-task",
    }
    try:
        get_rule("nope")
    except KeyError as exc:
        assert "known rules" in str(exc)
    else:
        raise AssertionError("expected KeyError")
