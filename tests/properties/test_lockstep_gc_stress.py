"""The lockstep properties again, with a collection at every allocation.

``gc.set_threshold(1)`` makes nearly every container allocation run a
young-generation collection, so the C types' ``tp_traverse`` and
``tp_clear`` run in the middle of pushes, commits, receives and fan-outs
(outside ``Simulator.run``, which pauses the collector). A reference the
collector cannot see, or a pointer kept across a call-out that frees it,
then shows as a wrong result or, on the sanitizer build
(``tests/sanitize.py``), as a use after free. Fewer examples than the
properties' own runs: each is much slower.
"""

import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.properties import test_hop_lockstep as hop
from tests.properties import test_node_lockstep as node

#: Each property with the strategies its ``@given`` draws from.
PROPERTIES = [
    (hop.test_server_matches_its_reference_in_lockstep, (hop.SERVER_OPS,)),
    (hop.test_link_matches_its_reference_in_lockstep,
     (st.sampled_from([None, 0, 1, 3]), st.sampled_from([0.0, 3e-4]),
      hop.LINK_OPS)),
    (hop.test_cache_matches_its_reference_in_lockstep,
     (st.integers(1, 8), hop.CACHE_OPS)),
    (node.test_node_matches_its_reference_in_lockstep, (node.NODE_OPS,)),
]


@pytest.mark.parametrize("prop, strategies", PROPERTIES,
                         ids=[prop.__name__ for prop, _ in PROPERTIES])
def test_lockstep_with_a_collection_at_every_allocation(prop, strategies):
    check = settings(max_examples=40, deadline=None)(
        given(*strategies)(prop.hypothesis.inner_test))
    threshold = gc.get_threshold()
    gc.set_threshold(1)
    try:
        check()
    finally:
        gc.set_threshold(*threshold)
