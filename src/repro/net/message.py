"""Message payload base type and the per-deployment uid interner.

Everything that travels through a channel implements the tiny
:class:`Payload` contract: a hashable unique id (``uid``) used by the gossip
duplicate-suppression cache — the paper notes the identifiers are "defined
by the consensus protocol to prevent hash collisions" — and a size in bytes
used to charge transmission time. Paxos messages subclass this directly so
the hot path carries no extra envelope allocation per hop.

Structured uids (tuples with instance/round/sender fields and sender
bitmasks) are expensive to hash on every dedup probe. :class:`UidInterner`
maps each uid to a dense integer *once*, caching the result on the payload
(``payload.iid``), so every subsequent membership test along the gossip
path is an array index instead of a tuple hash.
"""


class Payload:
    """Base class for anything sent through the network.

    Subclasses must set ``uid`` (hashable, globally unique per logical
    message) and ``size_bytes``. ``iid`` is the interned dense id, filled
    lazily by the deployment's :class:`UidInterner` on first dedup probe;
    ``None`` until then (and forever in the Baseline star, which has no
    gossip layer and so nothing to deduplicate).
    """

    __slots__ = ("uid", "size_bytes", "iid")

    #: True for semantically aggregated messages; the gossip layer calls
    #: the hooks' ``disaggregate`` on receipt when set.
    aggregated = False

    def __init__(self, uid, size_bytes):
        self.uid = uid
        self.size_bytes = size_bytes
        self.iid = None

    def __repr__(self):
        return "{}(uid={!r}, {}B)".format(
            type(self).__name__, self.uid, self.size_bytes)


class UidInterner:
    """Deployment-scoped bijection from payload uids to dense ints.

    Ids are assigned in first-seen order starting at 0, so any structure
    indexed by iid can be a flat array that grows monotonically. The
    mapping is deterministic: it depends only on the order ``intern`` is
    called, which under the simulator's total event order is itself
    deterministic.
    """

    __slots__ = ("_ids", "_uids")

    def __init__(self):
        self._ids = {}
        self._uids = []

    def __len__(self):
        return len(self._uids)

    def __contains__(self, uid):
        return uid in self._ids

    def intern(self, uid):
        """Return the dense id for ``uid``, assigning the next one if new."""
        iid = self._ids.get(uid)
        if iid is None:
            iid = len(self._uids)
            self._ids[uid] = iid
            self._uids.append(uid)
        return iid

    def intern_payload(self, payload):
        """Intern ``payload.uid`` and cache the dense id on the payload."""
        iid = payload.iid
        if iid is None:
            payload.iid = iid = self.intern(payload.uid)
        return iid

    def lookup(self, uid):
        """Dense id for ``uid`` if already interned, else ``None``."""
        return self._ids.get(uid)

    def uid_of(self, iid):
        """Inverse mapping: the uid assigned dense id ``iid``."""
        return self._uids[iid]


class RawPayload(Payload):
    """Opaque payload carrying arbitrary data; used by tests and examples."""

    __slots__ = ("data",)

    def __init__(self, uid, size_bytes, data=None):
        super().__init__(uid, size_bytes)
        self.data = data
