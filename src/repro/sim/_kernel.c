/* The simulator's compiled kernel: the pending-event queue and run loop,
 * the three objects every message hop goes through -- the FIFO
 * server (repro.sim.server.FifoServer), the directed link
 * (repro.net.channel.DirectedLink, with its LinkStats) and the seen-cache
 * (repro.gossip.cache.InternedSeenCache) -- and the gossip node's half of
 * the hop (repro.gossip.node: the NodeCore base of GossipNode, the
 * SenderCore base of its per-peer senders, and GossipStats) -- the Paxos
 * replica (repro.paxos: Acceptor, Learner, DecisionLog and the PaxosCore
 * base of PaxosProcess) -- and the semantic rules the senders call
 * (repro.core: SemanticFilter and SemanticAggregator). Their executable
 * reference models, in Python, are in tests/reference/.
 *
 * The source is one translation unit in parts, one per layer, included
 * below in this order: _kernel/kernel.h (what the parts share), then
 * census.c, queue.c, server.c, link.c, cache.c, node.c, replica.c,
 * semantics.c, core.c and module.c. The census comes first because it
 * uses nothing of the others and the run loop calls it. Each part's head
 * comment names the Python module it backs, its reference model, its
 * lockstep property and its leak-gate cases.
 *
 * A binary min-heap of 32-byte entries {time, seq, fn, args} ordered by
 * (time, seq). seq is unique, so the order is total and no two entries
 * ever compare equal: the pop order is fully determined by the pushes.
 *
 * An entry comes in two kinds. A bare entry (push_bare) is the event:
 * fn and its args tuple sit in the entry and the handle is the seq. A
 * handle entry (push) has args == NULL and fn pointing at the Event the
 * push returned, which callers may keep and cancel at any time.
 *
 * Cancellation is lazy for both kinds: Event.cancel() marks the handle,
 * a cancelled bare seq goes into a tombstone set, and a pop discards
 * either kind of shell it meets. Once the shells outnumber the live
 * entries (and the heap holds at least COMPACT_MIN_SIZE) the heap is
 * compacted: shells dropped, tombstones cleared, heap rebuilt.
 *
 * An optional observer (the race auditor) is told about every push and
 * execution; it is NULL when off, so the hot paths pay one pointer test.
 *
 * Every Python call-out (a callback, a decref that may run a finaliser,
 * an observer method) happens while the heap is consistent, so a
 * re-entrant push or cancel is safe.
 *
 * A server completion or a link arrival is pushed straight into the heap
 * (heap_push_bare), observer included, without push_bare's checks: its
 * time is finite and no earlier than the clock by construction, because
 * every input it is computed from is checked where it enters (service
 * times, slowdown, a link's latency, costs and degrade arguments).
 * Floats are computed in the order and association of the reference
 * models, and the build passes -ffp-contract=off so that no multiply and
 * add is fused into one rounding.
 */

#include "_kernel/kernel.h"
#include "_kernel/census.c"
#include "_kernel/queue.c"
#include "_kernel/server.c"
#include "_kernel/link.c"
#include "_kernel/cache.c"
#include "_kernel/node.c"
#include "_kernel/replica.c"
#include "_kernel/semantics.c"
#include "_kernel/core.c"
#include "_kernel/module.c"
