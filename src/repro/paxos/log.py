"""Gap-free decided-value log.

Paxos outputs the values decided in consecutive instances, in instance
order, with no gaps (paper §2.3). The log buffers out-of-order decisions
and releases the longest ready prefix; a missing instance blocks everything
after it — the effect the paper's reliability study leans on ("a single
unsuccessful instance renders all subsequent instances unsuccessful").

The type is compiled (``repro/sim/_kernel/replica.c``; the
:class:`repro.paxos.process.PaxosProcess` base that drives it is
``core.c``, in the same extension); its Python
reference model is tests/reference/replica.py.
"""

from repro.sim.events import compiled

DecisionLog = compiled.DecisionLog
