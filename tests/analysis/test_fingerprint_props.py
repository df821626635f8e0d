"""Property tests for the exact report fingerprint.

Two laws make the fingerprint trustworthy as an A/B oracle:

* structural invariance — dict insertion order must not matter, or a
  refactor that rebuilds a report dict in a different order would ring
  the alarm for nothing;
* float exactness — a single-ulp change in any sample must change the
  fingerprint, or a perf "optimisation" could silently bend results
  inside a tolerance nobody agreed to.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.fingerprint import (
    _canonical,
    report_fingerprint,
    report_to_dict,
)
from repro.runtime.metrics import MessageStats

#: Finite floats only: NaN breaks equality-based properties, and the
#: report pipeline never produces NaN/inf samples.
finite_floats = st.floats(allow_nan=False, allow_infinity=False)

#: JSON-ish scalar leaves a report can contain.
scalars = st.one_of(st.none(), st.booleans(), st.integers(),
                    finite_floats, st.text(max_size=12))

#: Nested JSON-ish documents (dicts/lists over the scalars above).
documents = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=20,
)


def _reorder(value, reverse):
    """Deep-copy ``value`` rebuilding every dict in reversed key order."""
    if isinstance(value, dict):
        items = list(value.items())
        if reverse:
            items.reverse()
        return {k: _reorder(v, reverse) for k, v in items}
    if isinstance(value, list):
        return [_reorder(v, reverse) for v in value]
    return value


class FakeReport:
    """Minimal stand-in carrying exactly the attributes the dict uses."""

    def __init__(self, latencies, per_client):
        self.latencies_s = latencies
        self.per_client_latencies_s = per_client
        self.submitted = len(latencies)
        self.decided = len(latencies)
        self.decided_in_window = len(latencies)
        self.decided_by_majority = 0
        self.decided_by_message = len(latencies)
        self.messages = MessageStats(link_sent=3 * len(latencies),
                                     link_delivered=2)


@given(doc=documents)
@settings(max_examples=60)
def test_canonical_is_insertion_order_invariant(doc):
    assert _canonical(_reorder(doc, True)) == _canonical(doc)


@given(x=finite_floats)
def test_canonical_float_is_exact_hex(x):
    assert _canonical(x) == x.hex()
    assert float.fromhex(_canonical(x)) == x


@given(x=finite_floats.filter(lambda v: abs(v) < 1e300))
@settings(max_examples=60)
def test_fingerprint_changes_on_single_ulp(x):
    bumped = math.nextafter(x, math.inf)
    assert bumped != x
    base = FakeReport([x], {"c0": [x]})
    moved = FakeReport([bumped], {"c0": [bumped]})
    assert report_fingerprint(base) != report_fingerprint(moved)


@given(latencies=st.lists(finite_floats, max_size=5),
       keys=st.lists(st.text(min_size=1, max_size=6), min_size=2,
                     max_size=4, unique=True))
@settings(max_examples=60)
def test_fingerprint_ignores_dict_insertion_order(latencies, keys):
    per_client = {k: latencies for k in keys}
    reordered = dict(reversed(list(per_client.items())))
    left = FakeReport(latencies, per_client)
    right = FakeReport(list(latencies), reordered)
    assert report_to_dict(left) == report_to_dict(right)
    assert report_fingerprint(left) == report_fingerprint(right)


def test_point_one_plus_point_two_is_not_point_three():
    """The motivating example: exactness below repr precision."""
    left = FakeReport([0.1 + 0.2], {})
    right = FakeReport([0.3], {})
    assert report_fingerprint(left) != report_fingerprint(right)


def test_canonical_rejects_what_an_outcome_cannot_hold():
    with pytest.raises(TypeError):
        _canonical({1, 2})
