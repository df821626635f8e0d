/* The module: its functions, the interned-name table and PyInit__kernel.
 *
 * Backs the import in repro.sim.events (repro.sim.native builds
 * ../_kernel.c on first import). No reference model or lockstep property
 * of its own; every leak-gate case imports it once and then must hold
 * the interned names steady (a name made per call is what the gate
 * caught before the table existed).
 */

static PyMethodDef kernel_methods[] = {
    {"register_replica", register_replica, METH_VARARGS,
     "register_replica(ProcessStats, Value, ClientValue, Phase1a, Phase1b,\n"
     "                 Phase2a, Phase2b, Decision, header_bytes)\n\n"
     "The classes PaxosCore.handle dispatches on and whose slots the\n"
     "replica reads directly, and a Phase 2b's size in bytes."},
    {"register_semantics", register_semantics, METH_VARARGS,
     "register_semantics(Phase2b, Aggregated2b, Decision, AppendAck,\n"
     "                   AggregatedAck, CommitNotice, AppendEntries)\n\n"
     "The vote and decision classes SemanticFilter and SemanticAggregator\n"
     "switch on and whose slots they read directly."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The simulator's event heap and run loop, the FIFO server, "
             "directed link and seen-cache a message hop goes through, the "
             "gossip node's per-hop half and senders, the Paxos replica "
             "and the semantic filter and aggregator.",
    .m_size = -1,
    .m_methods = kernel_methods,
};

static int
intern_strings(void)
{
    struct { PyObject **slot; const char *text; } names[] = {
        {&str_queue, "_queue"}, {&str_rng, "rng"},
        {&str_link_jitter, "link-jitter"}, {&str_arrive, "_arrive"},
        {&str_uniform, "uniform"}, {&str_size_bytes, "size_bytes"},
        {&str_iid, "iid"}, {&str_uid, "uid"}, {&str_intern, "intern"},
        {&str_lookup, "lookup"}, {&str_per_message_s, "per_message_s"},
        {&str_per_byte_s, "per_byte_s"},
        {&str_queue_capacity, "queue_capacity"},
        {&str_jitter_s, "jitter_s"},
        {&str_recv_fresh_s, "recv_fresh_s"}, {&str_recv_dup_s, "recv_dup_s"},
        {&str_send_per_peer_s, "send_per_peer_s"},
        {&str_complete, "_complete"}, {&str_aggregated, "aggregated"},
        {&str_complete_parts, "_complete_parts"},
        {&str_gossip_receive, "gossip_receive"},
        {&str_gossip_filtered, "gossip_filtered"},
        {&str_commit, "commit"},
        {&str_2b, "2B"}, {&str_phase2b, "phase2b"},
        {&str_broadcast, "broadcast"},
        {&str_to_coordinator, "to_coordinator"},
        {&str_on_client_value, "on_client_value"},
        {&str_on_phase1b, "on_phase1b"}, {&str_on_decided, "on_decided"},
        {&str_value_decided, "value_decided"},
        {&str_disaggregate, "disaggregate"}, {&str_senders, "senders"},
        {&str_bit_count, "bit_count"},
        {&str_gossip_aggregated, "gossip_aggregated"},
        {&str_wakeup, "_wakeup"}, {&str_random, "random"},
        {&str_ack, "ACK"}, {&str_a2b, "A2B"}, {&str_aack, "AACK"},
    };
    for (size_t i = 0; i < sizeof names / sizeof names[0]; i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].text);
        if (*names[i].slot == NULL) {
            return -1;
        }
    }
    for (int f = 0; f < NFIELDS; f++) {
        field_name[f] = PyUnicode_InternFromString(field_text[f]);
        if (field_name[f] == NULL) {
            return -1;
        }
    }
    float_zero = PyFloat_FromDouble(0.0);
    long_zero = PyLong_FromLong(0);
    long_one = PyLong_FromLong(1);
    long_64 = PyLong_FromLong(64);
    empty_tuple = PyTuple_New(0);
    return float_zero == NULL || long_zero == NULL || long_one == NULL
        || long_64 == NULL || empty_tuple == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__kernel(void)
{
    struct { const char *name; PyTypeObject *type; } types[] = {
        {"Event", &EventType}, {"EventQueue", &QueueType},
        {"FifoServer", &ServerType}, {"LinkStats", &StatsType},
        {"DirectedLink", &LinkType}, {"InternedSeenCache", &CacheType},
        {"GossipStats", &GossipStatsType}, {"SenderCore", &SenderType},
        {"NodeCore", &NodeType}, {"DecisionLog", &LogType},
        {"Acceptor", &AcceptorType}, {"Learner", &LearnerType},
        {"PaxosCore", &CoreType}, {"SemanticFilter", &FilterType},
        {"SemanticAggregator", &AggregatorType},
        {"ReceiverLossInjector", &LossType},
    };
    size_t count = sizeof types / sizeof types[0];
    for (size_t i = 0; i < count; i++) {
        if (PyType_Ready(types[i].type) < 0) {
            return NULL;
        }
    }
    if (intern_strings() < 0) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&kernel_module);
    if (module == NULL) {
        return NULL;
    }
    for (size_t i = 0; i < count; i++) {
        Py_INCREF(types[i].type);
        if (PyModule_AddObject(module, types[i].name,
                               (PyObject *)types[i].type) < 0) {
            Py_DECREF(types[i].type);
            Py_DECREF(module);
            return NULL;
        }
    }
    return module;
}
