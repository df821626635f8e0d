"""The learner role.

A value is learned for an instance either when a Decision message arrives
or when identical Phase 2b votes from a majority of processes are observed
(paper §2.3/§3.1 — with gossip, Phase 2b messages reach everyone, so
processes need not wait for the coordinator's Decision).

The learner tracks votes per (instance, round, value_id). Because Phase 2b
carries only the value id, a majority may complete before the value content
is known (the Phase 2a may still be in flight); such decisions are held
*pending* until the value arrives via Phase 2a or Decision. Each voter
set is a bitset of ``n`` bits, so a vote from a sender outside ``[0, n)``
raises :class:`ValueError` naming the sender.

The type is compiled (``repro/sim/_kernel/replica.c``; the
:class:`repro.paxos.process.PaxosProcess` base that drives it is
``core.c``, in the same extension); its Python
reference model is tests/reference/replica.py.
"""

from repro.sim.events import compiled

Learner = compiled.Learner
