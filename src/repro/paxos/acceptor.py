"""The acceptor role.

Classic Paxos acceptor over a multi-instance log with ranged Phase 1
(a coordinator starts a round for all instances at once, paper §2.3). The
acceptor keeps a single promised round that applies to every instance — the
standard Multi-Paxos arrangement — plus the per-instance accepted
(round, value) pairs.

The type is compiled (``repro/sim/_kernel/replica.c``; the
:class:`repro.paxos.process.PaxosProcess` base that drives it is
``core.c``, in the same extension); its Python
reference model is tests/reference/replica.py.
"""

from repro.sim.events import compiled

Acceptor = compiled.Acceptor
