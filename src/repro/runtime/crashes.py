"""Crash-recovery fault injection (paper §2.1 failure model).

The paper's model is crash-recovery: a process "ceases to participate in
the distributed algorithm without prior notice, and may later recover";
before crashing and after recovering it follows the algorithm. The paper's
evaluation only injects message loss — this module completes the model so
the library can also exercise process failures:

* while crashed, a process neither handles inbound messages (they are
  dropped at its door) nor initiates sends; its queued outbound messages
  are discarded (volatile state is lost);
* acceptor/log state survives the crash, as classic Paxos requires state
  to be kept on stable storage;
* the same-region client keeps submitting (open loop); values submitted to
  a crashed process are simply lost.
"""


class CrashSchedule:
    """One process's planned outage: [crash_at, recover_at)."""

    __slots__ = ("process_id", "crash_at", "recover_at")

    def __init__(self, process_id, crash_at, recover_at=None):
        if recover_at is not None and recover_at <= crash_at:
            raise ValueError("recovery must follow the crash")
        self.process_id = process_id
        self.crash_at = crash_at
        self.recover_at = recover_at


class CrashController:
    """Schedules and applies crash/recovery events on a deployment."""

    def __init__(self, sim, nodes, processes, schedules):
        self.sim = sim
        self.nodes = nodes
        self.processes = processes
        self.schedules = list(schedules)
        self.crashed = set()
        self.crash_events = 0
        self.recovery_events = 0

    def install(self):
        for schedule in self.schedules:
            self.sim.schedule_at(schedule.crash_at, self.crash,
                                 schedule.process_id)
            if schedule.recover_at is not None:
                self.sim.schedule_at(schedule.recover_at, self.recover,
                                     schedule.process_id)

    def is_crashed(self, process_id):
        return process_id in self.crashed

    def crash(self, process_id):
        """Crash a process now (idempotent): the scheduled outages and the
        fault engine's unscheduled ones (Crash / RegionOutage events)."""
        if process_id in self.crashed:
            return
        self.crashed.add(process_id)
        self.crash_events += 1
        self.nodes[process_id].crash()
        self.processes[process_id].crash()

    def recover(self, process_id):
        """Recover a crashed process now (no-op when it is not crashed)."""
        if process_id not in self.crashed:
            return
        self.crashed.discard(process_id)
        self.recovery_events += 1
        self.nodes[process_id].recover()
        self.processes[process_id].recover()
