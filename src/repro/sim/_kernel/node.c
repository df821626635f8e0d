/* The gossip node's half of a hop: GossipStats, NodeCore and SenderCore.
 *
 * Backs repro.gossip.node (NodeCore is GossipNode's base, SenderCore
 * _PeerSender's). Reference model: tests/reference/node.py. Lockstep:
 * tests/properties/test_node_lockstep.py and
 * tests/properties/test_receive_lockstep.py. Leak gate: fig7_overlay,
 * agg_heavy, raft_semantic and churn_smoke, and
 * test_a_send_round_releases_what_its_hooks_return.
 */

/* -- GossipStats --------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long long broadcasts;
    long long received;
    long long duplicates;
    long long delivered;
    long long forwarded;
    long long filtered;
    long long aggregated_in;
    long long aggregated_saved;
    long long disaggregated;
    long long send_queue_drops;
} GossipStatsObject;

static PyObject *
gstats_duplicate_fraction(GossipStatsObject *s, PyObject *Py_UNUSED(ignored))
{
    if (s->received == 0) {
        return PyFloat_FromDouble(0.0);
    }
    return PyFloat_FromDouble((double)s->duplicates / (double)s->received);
}

static PyMethodDef gstats_methods[] = {
    {"duplicate_fraction", (PyCFunction)gstats_duplicate_fraction,
     METH_NOARGS, "Fraction of received messages discarded as duplicates."},
    {NULL, NULL, 0, NULL},
};

#define GSTAT(name, doc) \
    {#name, T_LONGLONG, offsetof(GossipStatsObject, name), 0, doc}

static PyMemberDef gstats_members[] = {
    GSTAT(broadcasts, "Locally broadcast messages."),
    GSTAT(received, "Messages arriving over links (pre-dedup)."),
    GSTAT(duplicates, "Discarded by the duplication check."),
    GSTAT(delivered, "Handed to the application."),
    GSTAT(forwarded, "Enqueued towards peers (pre-filter)."),
    GSTAT(filtered, "Dropped by semantic validate()."),
    GSTAT(aggregated_in, "Originals consumed by aggregation."),
    GSTAT(aggregated_saved, "Transmissions avoided by aggregation."),
    GSTAT(disaggregated, "Originals reconstructed on receipt."),
    GSTAT(send_queue_drops, "Pending sends dropped (queue full)."),
    {NULL, 0, 0, 0, NULL},
};

#undef GSTAT

/* It holds no references, so like LinkStats it is not a GC type. */
static PyTypeObject GossipStatsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.gossip.node.GossipStats",
    .tp_doc = "Counters matching the quantities reported in the paper's "
              "section 4.3.",
    .tp_basicsize = sizeof(GossipStatsObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_methods = gstats_methods,
    .tp_members = gstats_members,
};

/* -- NodeCore: a gossip node's receive, completion and fan-out ----------- */

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    QueueObject *queue;
    PyObject *process_id;
    ServerObject *cpu;
    CacheObject *cache;
    PyObject *deliver;      /* NULL or None: none */
    PyObject *obs;          /* NULL or None: untraced */
    PyObject *validate;     /* NULL or None: the default, admit all */
    PyObject *aggregate;    /* NULL or None: the default, the identity */
    GossipStatsObject *stats;
    PyObject *fwd_pairs;    /* tuple of (peer_id, sender) */
    PyObject *complete_cb;  /* bound _complete: the fresh receive's job */
    double recv_fresh_s, recv_dup_s, send_per_peer_s;
    double hook_s;          /* charged per validate; 0.0: not charged */
    double svc_broadcast, svc_receive;
    Py_ssize_t fanout;
    char alive;
    /* Last, so that the per-hop fields above keep their cache lines. */
    PyObject *disaggregate; /* NULL or None: the default, [payload] */
    PyObject *routes;       /* NULL or tuple (cls, handler, cls, ...) */
} NodeObject;

static inline PyObject *
set_or_null(PyObject *obj)
{
    return obj == Py_None ? NULL : obj;
}

static int
node_set_cache(NodeObject *self, PyObject *cache, void *Py_UNUSED(closure))
{
    if (cache == NULL) {
        PyErr_SetString(PyExc_TypeError, "cannot delete cache");
        return -1;
    }
    if (!Py_IS_TYPE(cache, &CacheType)) {
        PyErr_Format(PyExc_TypeError,
                     "cache must be an InternedSeenCache, not %.200s",
                     Py_TYPE(cache)->tp_name);
        return -1;
    }
    Py_INCREF(cache);
    Py_XSETREF(self->cache, (CacheObject *)cache);
    return 0;
}

static PyObject *
node_get_cache(NodeObject *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->cache != NULL ? (PyObject *)self->cache : Py_None);
}

static int
node_init(NodeObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *process_id, *cpu, *cache, *deliver, *costs;
    double hook_s, fresh, dup, per_peer;
    static char *kwlist[] = {"sim", "process_id", "cpu", "cache", "deliver",
                             "costs", "hook_s", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOO!OOOd:NodeCore", kwlist,
                                     &sim, &process_id, &ServerType, &cpu,
                                     &cache, &deliver, &costs, &hook_s)) {
        return -1;
    }
    if (attr_double(costs, str_recv_fresh_s, &fresh) < 0
            || check_time("GossipCosts.recv_fresh_s", fresh) < 0
            || attr_double(costs, str_recv_dup_s, &dup) < 0
            || check_time("GossipCosts.recv_dup_s", dup) < 0
            || attr_double(costs, str_send_per_peer_s, &per_peer) < 0
            || check_time("GossipCosts.send_per_peer_s", per_peer) < 0
            || check_time("GossipCosts.hook_s", hook_s) < 0
            || node_set_cache(self, cache, NULL) < 0) {
        return -1;
    }
    QueueObject *queue = sim_queue(sim, "GossipNode");
    if (queue == NULL) {
        return -1;
    }
    PyObject *stats = PyType_GenericNew(&GossipStatsType, NULL, NULL);
    if (stats == NULL) {
        Py_DECREF(queue);
        return -1;
    }
    Py_INCREF(sim);
    Py_XSETREF(self->sim, sim);
    Py_XSETREF(self->queue, queue);
    Py_INCREF(process_id);
    Py_XSETREF(self->process_id, process_id);
    Py_INCREF(cpu);
    Py_XSETREF(self->cpu, (ServerObject *)cpu);
    Py_INCREF(deliver);
    Py_XSETREF(self->deliver, deliver);
    Py_XSETREF(self->stats, (GossipStatsObject *)stats);
    Py_INCREF(empty_tuple);
    Py_XSETREF(self->fwd_pairs, empty_tuple);
    Py_CLEAR(self->obs);
    self->recv_fresh_s = fresh;
    self->recv_dup_s = dup;
    self->send_per_peer_s = per_peer;
    self->hook_s = hook_s;
    self->svc_broadcast = self->svc_receive = fresh;
    self->fanout = 0;
    self->alive = 1;
    /* A subclass's _complete, if it defines one, is the job's callback. */
    PyObject *complete_cb = PyObject_GetAttr((PyObject *)self, str_complete);
    if (complete_cb == NULL) {
        return -1;
    }
    Py_XSETREF(self->complete_cb, complete_cb);
    return 0;
}

/* 1 if payload is fresh (now registered), 0 if seen, -1 on error. */
static HOT_PATH int
node_register(NodeObject *self, PyObject *payload)
{
    if (self->cache == NULL) {
        return cleared();
    }
    PyObject *res = cache_register_payload(self->cache, payload);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return res == Py_True;
}

/* obs.<method>(process_id, peer_id, payload[, fresh]) when traced. */
static int
node_observe(NodeObject *self, PyObject *method, PyObject *peer_id,
             PyObject *payload, PyObject *fresh)
{
    PyObject *obs = set_or_null(self->obs);
    if (obs == NULL) {
        return 0;
    }
    Py_INCREF(obs);
    PyObject *argv[5] = {obs, self->process_id, peer_id, payload, fresh};
    PyObject *res = PyObject_VectorcallMethod(method, argv,
                                              fresh == NULL ? 4 : 5, NULL);
    Py_DECREF(obs);
    return observed(res);
}

/* A CPU charge that occupies the server and calls nothing back. */
static inline int
node_charge(NodeObject *self, double service)
{
    if (self->cpu == NULL) {
        return cleared();
    }
    double completion = server_accept(self->cpu, service);
    return completion == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The parts of an aggregated payload: the compiled aggregator's own
 * disaggregate when the hook is a SemanticAggregator's bound
 * disaggregate, [payload] for the default hook (None), else a call. */
static PyObject *
node_disaggregate(NodeObject *self, PyObject *payload)
{
    PyObject *hook = set_or_null(self->disaggregate);
    if (hook == NULL || (PyCFunction_Check(hook)
            && PyCFunction_GET_FUNCTION(hook) == aggregator_disaggregate)) {
        if (hook != NULL) {
            return disaggregate_parts(payload);
        }
        PyObject *parts = PyList_New(1);
        if (parts != NULL) {
            PyList_SET_ITEM(parts, 0, Py_NewRef(payload));
        }
        return parts;
    }
    Py_INCREF(hook);
    PyObject *parts = PyObject_CallOneArg(hook, payload);
    Py_DECREF(hook);
    return parts;
}

/* An aggregated arrival, already checked alive and counted received:
 * dedup each part, counted disaggregated, and charge recv_fresh_s per
 * fresh part and recv_dup_s per duplicate, summed in part order. The
 * fresh parts are one CPU job, with the forward charge of each, whose
 * completion is _complete_parts(fresh, src); with none fresh the charge
 * calls nothing back. 0, or -1 with an exception set. */
static RARE_PATH int
node_receive_aggregated(NodeObject *self, PyObject *src, PyObject *payload)
{
    PyObject *parts = node_disaggregate(self, payload);
    if (parts == NULL) {
        return -1;
    }
    PyObject *seq = PySequence_Fast(parts, "disaggregate() must return a "
                                    "sequence");
    Py_DECREF(parts);
    if (seq == NULL) {
        return -1;
    }
    PyObject *fresh = PyList_New(0);
    if (fresh == NULL || self->stats == NULL) {
        Py_DECREF(seq);
        Py_XDECREF(fresh);
        return fresh == NULL ? -1 : cleared();
    }
    self->stats->disaggregated += PySequence_Fast_GET_SIZE(seq);
    double service = 0.0;
    long long duplicates = 0;
    int failed = 0;
    /* The size is read per part: a tracer may change a list's. */
    for (Py_ssize_t i = 0; !failed && i < PySequence_Fast_GET_SIZE(seq);
            i++) {
        PyObject *part = Py_NewRef(PySequence_Fast_GET_ITEM(seq, i));
        int is_fresh = node_register(self, part);
        if (is_fresh > 0) {
            service += self->recv_fresh_s;
            failed = PyList_Append(fresh, part) < 0
                || node_observe(self, str_gossip_receive, src, part,
                                Py_True) < 0;
        }
        else if (is_fresh == 0) {
            duplicates++;
            service += self->recv_dup_s;
            failed = node_observe(self, str_gossip_receive, src, part,
                                  Py_False) < 0;
        }
        else {
            failed = 1;
        }
        Py_DECREF(part);
    }
    Py_DECREF(seq);
    if (failed) {
        Py_DECREF(fresh);
        return -1;
    }
    /* Per part, matching disaggregated: a bundle of k already-seen
     * messages is k duplicates, the paper's section 4.3 semantics. */
    self->stats->duplicates += duplicates;
    Py_ssize_t nfresh = PyList_GET_SIZE(fresh);
    if (nfresh == 0) {
        Py_DECREF(fresh);
        return node_charge(self, service);
    }
    Py_ssize_t fanout = self->fanout - 1 < 0 ? 0 : self->fanout - 1;
    service += (double)(nfresh * fanout) * self->send_per_peer_s;
    ServerObject *cpu = self->cpu;
    if (cpu == NULL) {
        Py_DECREF(fresh);
        return cleared();
    }
    /* Bound per job, as rare as aggregates: a subclass's is honoured. */
    PyObject *callback = PyObject_GetAttr((PyObject *)self,
                                          str_complete_parts);
    double completion = callback == NULL ? -1.0 : server_accept(cpu, service);
    PyObject *job = completion == -1.0 && PyErr_Occurred() ? NULL
        : PyTuple_Pack(2, fresh, src);
    Py_DECREF(fresh);
    long long seq_no = job == NULL ? -1
        : heap_push_bare(cpu->queue, completion, callback, job);
    Py_XDECREF(callback);
    Py_XDECREF(job);
    return seq_no < 0 ? -1 : 0;
}

static PyObject *
node_receive(NodeObject *self, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "_on_link_receive() takes 2 "
                     "arguments (%zd given)", nargs);
        return NULL;
    }
    if (!self->alive) {
        Py_RETURN_NONE;
    }
    if (self->stats == NULL) {
        cleared();
        return NULL;
    }
    PyObject *src = argv[0], *payload = argv[1];
    self->stats->received++;
    PyObject *flag = PyObject_GetAttr(payload, str_aggregated);
    if (flag == NULL) {
        return NULL;
    }
    int aggregated = PyObject_IsTrue(flag);
    Py_DECREF(flag);
    if (aggregated < 0) {
        return NULL;
    }
    if (aggregated) {
        long long start = span_begin();
        int failed = node_receive_aggregated(self, src, payload);
        span_end(SPAN_AGGREGATED, start);
        if (failed < 0) {
            return NULL;
        }
        Py_RETURN_NONE;
    }
    int fresh = node_register(self, payload);
    if (fresh < 0) {
        return NULL;
    }
    if (!fresh) {
        self->stats->duplicates++;
        if (node_observe(self, str_gossip_receive, src, payload,
                         Py_False) < 0
                || node_charge(self, self->recv_dup_s) < 0) {
            return NULL;
        }
        Py_RETURN_NONE;
    }
    if (node_observe(self, str_gossip_receive, src, payload, Py_True) < 0) {
        return NULL;
    }
    ServerObject *cpu = self->cpu;
    if (cpu == NULL || self->complete_cb == NULL) {
        cleared();
        return NULL;
    }
    double completion = server_accept(cpu, self->svc_receive);
    if (completion == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    PyObject *job = PyTuple_Pack(2, payload, src);
    if (job == NULL) {
        return NULL;
    }
    long long seq = heap_push_bare(cpu->queue, completion, self->complete_cb,
                                   job);
    Py_DECREF(job);
    if (seq < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* Commit payload onto a sender's link at now: a compiled link directly,
 * any other through its commit method. The completion, or -1.0 with an
 * exception set. */
static double
node_commit(PyObject *link, PyObject *payload, PyObject *args, double now)
{
    if (Py_IS_TYPE(link, &LinkType)) {
        LinkObject *l = (LinkObject *)link;
        if (l->stats == NULL) {
            cleared();
            return -1.0;
        }
        return link_commit_at(l, payload, args, now, now);
    }
    PyObject *at = PyFloat_FromDouble(now);
    if (at == NULL) {
        return -1.0;
    }
    PyObject *argv[4] = {link, payload, args, at};
    PyObject *res = PyObject_VectorcallMethod(str_commit, argv, 4, NULL);
    Py_DECREF(at);
    if (res == NULL) {
        return -1.0;
    }
    double completion;
    int failed = as_double(res, &completion);
    Py_DECREF(res);
    return failed ? -1.0 : completion;
}

/* validate(payload, peer_id) as a truth value: the compiled filter's own
 * check when validate is a SemanticFilter's bound validate, else a call.
 * 1, 0, or -1 with an exception set. */
static int
hook_admits(PyObject *validate, PyObject *payload, PyObject *peer_id)
{
    long long start = span_begin();
    int admit;
    if (PyCFunction_Check(validate) && PyCFunction_GET_FUNCTION(validate)
            == (PyCFunction)(void (*)(void))filter_validate) {
        admit = filter_admits(PyCFunction_GET_SELF(validate), payload,
                              peer_id);
    }
    else {
        PyObject *argv[2] = {payload, peer_id};
        PyObject *res = PyObject_Vectorcall(validate, argv, 2, NULL);
        if (res == NULL) {
            return -1;
        }
        admit = PyObject_IsTrue(res);
        Py_DECREF(res);
    }
    span_end(SPAN_VALIDATE, start);
    return admit;
}

/* aggregate(kept, peer_id): the compiled aggregator's own merge when
 * aggregate is a SemanticAggregator's bound aggregate, else a call. */
static PyObject *
hook_aggregate(PyObject *aggregate, PyObject *kept, PyObject *peer_id)
{
    long long start = span_begin();
    PyObject *merged;
    if (PyCFunction_Check(aggregate) && PyCFunction_GET_FUNCTION(aggregate)
            == (PyCFunction)(void (*)(void))aggregator_aggregate) {
        merged = aggregator_merge(PyCFunction_GET_SELF(aggregate), kept);
    }
    else {
        PyObject *argv[2] = {kept, peer_id};
        merged = PyObject_Vectorcall(aggregate, argv, 2, NULL);
    }
    span_end(SPAN_AGGREGATE, start);
    return merged;
}

/* The decision for an idle peer: validate, charge hook_s, and either
 * commit or count the filtered message. *args is the fan-out's shared
 * arrival tuple, built at the first commit. 0, or -1 with an exception
 * set. */
static int
node_send_idle(NodeObject *self, SenderObject *sender, PyObject *peer_id,
               PyObject *payload, PyObject *validate, PyObject **args,
               double now)
{
    int admit = validate == NULL ? 1 : hook_admits(validate, payload,
                                                   peer_id);
    if (admit < 0) {
        return -1;
    }
    if (!admit) {
        self->stats->filtered++;
        if (node_observe(self, str_gossip_filtered, peer_id, payload,
                         NULL) < 0) {
            return -1;
        }
        return self->hook_s > 0.0 ? node_charge(self, self->hook_s) : 0;
    }
    if (self->hook_s > 0.0 && node_charge(self, self->hook_s) < 0) {
        return -1;
    }
    if (*args == NULL && (*args = PyTuple_Pack(1, payload)) == NULL) {
        return -1;
    }
    if (sender->link == NULL) {
        PyErr_SetString(PyExc_AttributeError, "sender has no link");
        return -1;
    }
    PyObject *link = Py_NewRef(sender->link);
    double completion = node_commit(link, payload, *args, now);
    Py_DECREF(link);
    if (completion == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    sender->free_at = completion;
    return 0;
}

/* Hand payload to each (peer_id, sender) of the tuple pairs but
 * exclude's: a busy sender queues it (enqueue), an idle one has it
 * decided here. How many, or -1 with an exception set. */
static Py_ssize_t
node_fan_out(NodeObject *self, PyObject *payload, PyObject *pairs,
             PyObject *exclude)
{
    if (self->stats == NULL || self->queue == NULL) {
        return cleared();
    }
    double now = self->queue->now;
    PyObject *validate = Py_XNewRef(set_or_null(self->validate));
    PyObject *args = NULL;
    Py_ssize_t count = 0;
    for (Py_ssize_t i = 0; i < PyTuple_GET_SIZE(pairs); i++) {
        PyObject *pair = PyTuple_GET_ITEM(pairs, i);
        if (!PyTuple_Check(pair) || PyTuple_GET_SIZE(pair) != 2) {
            PyErr_SetString(PyExc_TypeError,
                            "fan-out pairs must be (peer_id, sender) tuples");
            goto error;
        }
        PyObject *peer_id = PyTuple_GET_ITEM(pair, 0);
        PyObject *sender = PyTuple_GET_ITEM(pair, 1);
        /* By ==, not identity: large int ids are distinct objects. An
         * int never equals None. */
        if (exclude != Py_None || !PyLong_CheckExact(peer_id)) {
            int same = PyObject_RichCompareBool(peer_id, exclude, Py_EQ);
            if (same < 0) {
                goto error;
            }
            if (same) {
                continue;
            }
        }
        count++;
        if (!PyObject_TypeCheck(sender, &SenderType)) {
            PyErr_Format(PyExc_TypeError, "a fan-out sender must be a "
                         "SenderCore, not %.100s", Py_TYPE(sender)->tp_name);
            goto error;
        }
        SenderObject *s = (SenderObject *)sender;
        if (s->wakeup_armed || now < s->free_at) {
            if (sender_push(s, payload) < 0) {
                goto error;
            }
        }
        else if (node_send_idle(self, s, peer_id, payload, validate, &args,
                                now) < 0) {
            goto error;
        }
    }
    Py_XDECREF(validate);
    Py_XDECREF(args);
    return count;
error:
    Py_XDECREF(validate);
    Py_XDECREF(args);
    return -1;
}

static PyObject *
node_send(NodeObject *self, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs < 2 || nargs > 3) {
        PyErr_Format(PyExc_TypeError,
                     "_send() takes 2 or 3 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *pairs = PySequence_Tuple(argv[1]);
    if (pairs == NULL) {
        return NULL;
    }
    Py_ssize_t count = node_fan_out(self, argv[0], pairs,
                                    nargs == 3 ? argv[2] : Py_None);
    Py_DECREF(pairs);
    return count < 0 ? NULL : PyLong_FromSsize_t(count);
}

/* Hand a fresh payload to the handler its exact class is routed to, or
 * else to deliver: a Paxos replica's handle directly, anything else
 * through a call. 0, or -1 with an exception set. */
static HOT_PATH int
node_deliver(NodeObject *self, PyObject *payload)
{
    PyObject *routes = self->routes;
    Py_ssize_t size = routes == NULL ? 0 : PyTuple_GET_SIZE(routes);
    for (Py_ssize_t i = 0; i + 1 < size; i += 2) {
        if (PyTuple_GET_ITEM(routes, i) == (PyObject *)Py_TYPE(payload)) {
            long long start = span_begin();
            PyObject *handler = Py_NewRef(PyTuple_GET_ITEM(routes, i + 1));
            PyObject *res = PyObject_CallOneArg(handler, payload);
            Py_DECREF(handler);
            span_end(SPAN_ROUTE, start);
            return observed(res);
        }
    }
    PyObject *deliver = set_or_null(self->deliver);
    if (deliver == NULL) {
        return 0;
    }
    long long start = span_begin();
    PyObject *res;
    Py_INCREF(deliver);
    if (PyCFunction_Check(deliver)
            && PyCFunction_GET_FUNCTION(deliver) == core_handle) {
        res = core_handle(PyCFunction_GET_SELF(deliver), payload);
    }
    else {
        res = PyObject_CallOneArg(deliver, payload);
    }
    Py_DECREF(deliver);
    span_end(SPAN_DELIVER, start);
    return observed(res);
}

static PyObject *
node_deliver_method(NodeObject *self, PyObject *payload)
{
    if (node_deliver(self, payload) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
node_route(NodeObject *self, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "route() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (!PyType_Check(argv[0])) {
        PyErr_Format(PyExc_TypeError, "route() takes a payload class, not "
                     "%.100s", Py_TYPE(argv[0])->tp_name);
        return NULL;
    }
    /* A flat tuple: a few classes are scanned faster than a dict is
     * probed, and it is smaller. */
    PyObject *old = self->routes;
    Py_ssize_t size = old == NULL ? 0 : PyTuple_GET_SIZE(old), at = size;
    for (Py_ssize_t i = 0; i + 1 < size; i += 2) {
        if (PyTuple_GET_ITEM(old, i) == argv[0]) {
            at = i;
        }
    }
    PyObject *routes = PyTuple_New(at < size ? size : size + 2);
    if (routes == NULL) {
        return NULL;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        PyTuple_SET_ITEM(routes, i, Py_NewRef(PyTuple_GET_ITEM(old, i)));
    }
    if (at == size) {
        PyTuple_SET_ITEM(routes, at, Py_NewRef(argv[0]));
        PyTuple_SET_ITEM(routes, at + 1, Py_NewRef(argv[1]));
    }
    else {
        Py_SETREF(((PyTupleObject *)routes)->ob_item[at + 1],
                  Py_NewRef(argv[1]));
    }
    Py_XSETREF(self->routes, routes);
    Py_RETURN_NONE;
}

/* _complete's body. 0, or -1 with an exception set. */
static HOT_PATH int
node_complete_one(NodeObject *self, PyObject *payload, PyObject *src)
{
    if (self->stats == NULL) {
        return cleared();
    }
    self->stats->delivered++;
    if (node_deliver(self, payload) < 0) {
        return -1;
    }
    /* Read after deliver: it may have changed the peer set. */
    PyObject *pairs = Py_XNewRef(self->fwd_pairs);
    if (pairs == NULL) {
        return cleared();
    }
    Py_ssize_t count = node_fan_out(self, payload, pairs, src);
    Py_DECREF(pairs);
    if (count < 0) {
        return -1;
    }
    self->stats->forwarded += count;
    return 0;
}

static PyObject *
node_complete(NodeObject *self, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "_complete() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (node_complete_one(self, argv[0], argv[1]) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* _complete_parts(fresh, src): _complete each part in turn, the compiled
 * one directly and a subclass's through a call. */
static PyObject *
node_complete_parts(NodeObject *self, PyObject *const *argv,
                    Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "_complete_parts() takes 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    PyObject *src = argv[1];
    PyObject *iter = PyObject_GetIter(argv[0]);
    if (iter == NULL) {
        return NULL;
    }
    PyObject *part;
    int failed = 0;
    while (!failed && (part = PyIter_Next(iter)) != NULL) {
        PyObject *complete = self->complete_cb;
        if (complete == NULL) {
            failed = cleared();
        }
        else if (PyCFunction_Check(complete)
                 && PyCFunction_GET_FUNCTION(complete)
                    == (PyCFunction)(void (*)(void))node_complete
                 && PyCFunction_GET_SELF(complete) == (PyObject *)self) {
            failed = node_complete_one(self, part, src);
        }
        else {
            Py_INCREF(complete);
            PyObject *call[2] = {part, src};
            failed = observed(PyObject_Vectorcall(complete, call, 2, NULL));
            Py_DECREF(complete);
        }
        Py_DECREF(part);
    }
    Py_DECREF(iter);
    if (failed || PyErr_Occurred()) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
node_set_forward(NodeObject *self, PyObject *pairs)
{
    if (!PyTuple_CheckExact(pairs)) {
        PyErr_Format(PyExc_TypeError, "_set_forward() takes a tuple, not "
                     "%.100s", Py_TYPE(pairs)->tp_name);
        return NULL;
    }
    Py_ssize_t fanout = PyTuple_GET_SIZE(pairs);
    Py_ssize_t recv_fanout = fanout - 1 < 0 ? 0 : fanout - 1;
    Py_INCREF(pairs);
    Py_XSETREF(self->fwd_pairs, pairs);
    self->fanout = fanout;
    self->svc_broadcast = self->recv_fresh_s
        + (double)fanout * self->send_per_peer_s;
    self->svc_receive = self->recv_fresh_s
        + (double)recv_fanout * self->send_per_peer_s;
    Py_RETURN_NONE;
}

static int
node_traverse(NodeObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->queue);
    Py_VISIT(self->process_id);
    Py_VISIT(self->cpu);
    Py_VISIT(self->cache);
    Py_VISIT(self->deliver);
    Py_VISIT(self->obs);
    Py_VISIT(self->validate);
    Py_VISIT(self->aggregate);
    Py_VISIT(self->stats);
    Py_VISIT(self->fwd_pairs);
    Py_VISIT(self->complete_cb);
    Py_VISIT(self->disaggregate);
    Py_VISIT(self->routes);
    return 0;
}

static int
node_clear(NodeObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->queue);
    Py_CLEAR(self->process_id);
    Py_CLEAR(self->cpu);
    Py_CLEAR(self->cache);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->obs);
    Py_CLEAR(self->validate);
    Py_CLEAR(self->aggregate);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->fwd_pairs);
    Py_CLEAR(self->complete_cb);
    Py_CLEAR(self->disaggregate);
    Py_CLEAR(self->routes);
    return 0;
}

static void
node_dealloc(NodeObject *self)
{
    PyObject_GC_UnTrack(self);
    node_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef node_methods[] = {
    {"_on_link_receive", (PyCFunction)(void (*)(void))node_receive,
     METH_FASTCALL,
     "_on_link_receive(src, payload): a link arrival. Nothing while dead;\n"
     "else counted received. A duplicate is counted and charged\n"
     "recv_dup_s; a fresh one becomes a CPU job of _svc_receive whose\n"
     "completion is _complete(payload, src). An aggregated payload is\n"
     "disaggregated (_disaggregate) and each part deduplicated; the\n"
     "fresh ones become one CPU job whose completion is\n"
     "_complete_parts(fresh, src)."},
    {"_complete", (PyCFunction)(void (*)(void))node_complete, METH_FASTCALL,
     "_complete(payload, src): deliver a fresh payload (_deliver) and\n"
     "forward it to every peer but src (None for a local broadcast)."},
    {"_complete_parts", (PyCFunction)(void (*)(void))node_complete_parts,
     METH_FASTCALL,
     "_complete_parts(fresh, src): _complete(part, src) for each of the\n"
     "fresh parts of one aggregate, in its one CPU job."},
    {"_deliver", (PyCFunction)node_deliver_method, METH_O,
     "_deliver(payload): hand a fresh payload to the handler route()\n"
     "registered for its exact class, else to deliver (if set)."},
    {"route", (PyCFunction)(void (*)(void))node_route, METH_FASTCALL,
     "route(cls, handler): deliver payloads of exactly class cls to\n"
     "handler(payload) instead of deliver (membership traffic)."},
    {"_send", (PyCFunction)(void (*)(void))node_send, METH_FASTCALL,
     "_send(payload, pairs, exclude=None) -> count\n\n"
     "Hand payload to each (peer_id, sender) of pairs but exclude's. A\n"
     "busy sender (wake-up armed, or its link serialising) queues it. For\n"
     "an idle one it is decided here: validated (when the hooks override\n"
     "validate) and charged hook_s; if admitted, it is committed onto the\n"
     "link with the arrival tuple the fan-out shares."},
    {"_set_forward", (PyCFunction)node_set_forward, METH_O,
     "_set_forward(pairs): the fan-out tuple of (peer_id, sender), and\n"
     "the broadcast and receive service times it implies."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef node_members[] = {
    {"process_id", T_OBJECT, offsetof(NodeObject, process_id), READONLY, NULL},
    {"alive", T_BOOL, offsetof(NodeObject, alive), 0,
     "False while crashed: inbound traffic is dropped."},
    {"deliver", T_OBJECT, offsetof(NodeObject, deliver), 0,
     "deliver(payload) callback into the application, or None."},
    {"obs", T_OBJECT, offsetof(NodeObject, obs), 0,
     "Tracer (repro.obs); None in untraced runs."},
    {"stats", T_OBJECT, offsetof(NodeObject, stats), READONLY, NULL},
    {"cpu", T_OBJECT, offsetof(NodeObject, cpu), READONLY,
     "The FifoServer all application-visible work is charged to."},
    {"_validate", T_OBJECT, offsetof(NodeObject, validate), 0,
     "hooks.validate, or None for the default (admit everything)."},
    {"_aggregate", T_OBJECT, offsetof(NodeObject, aggregate), 0,
     "hooks.aggregate, or None for the default (the identity)."},
    {"_disaggregate", T_OBJECT, offsetof(NodeObject, disaggregate), 0,
     "hooks.disaggregate, or None for the default ([payload])."},
    {"_fwd_pairs", T_OBJECT, offsetof(NodeObject, fwd_pairs), READONLY, NULL},
    {"_routes", T_OBJECT, offsetof(NodeObject, routes), READONLY,
     "The route() table, (cls, handler, cls, handler, ...), or None."},
    {"_fanout", T_PYSSIZET, offsetof(NodeObject, fanout), READONLY, NULL},
    {"_svc_broadcast", T_DOUBLE, offsetof(NodeObject, svc_broadcast),
     READONLY, NULL},
    {"_svc_receive", T_DOUBLE, offsetof(NodeObject, svc_receive), READONLY,
     NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef node_getset[] = {
    {"cache", (getter)node_get_cache, (setter)node_set_cache,
     "Duplicate detector: an InternedSeenCache, probed directly.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject NodeType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.gossip.node.NodeCore",
    .tp_doc = "NodeCore(sim, process_id, cpu, cache, deliver, costs, "
              "hook_s)\n\n"
              "The per-hop half of a gossip node: the single-part receive,\n"
              "the deliver-and-forward completion and the fan-out loop.",
    .tp_basicsize = sizeof(NodeObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)node_init,
    .tp_dealloc = (destructor)node_dealloc,
    .tp_traverse = (traverseproc)node_traverse,
    .tp_clear = (inquiry)node_clear,
    .tp_methods = node_methods,
    .tp_members = node_members,
    .tp_getset = node_getset,
};

/* -- SenderCore's methods ------------------------------------------------ */

/* Queue payload behind the busy link; the first one queued arms the
 * wake-up at _free_at. A full queue drops it and counts the drop. 0, or
 * -1 with an exception set. */
static int
sender_push(SenderObject *self, PyObject *payload)
{
    NodeObject *node = (NodeObject *)self->node;
    if (node == NULL || self->queue == NULL || node->stats == NULL
            || node->queue == NULL) {
        return cleared();
    }
    if (self->bounded && PyList_GET_SIZE(self->queue) >= self->limit) {
        node->stats->send_queue_drops++;
        return 0;
    }
    if (PyList_Append(self->queue, payload) < 0) {
        return -1;
    }
    if (self->wakeup_armed) {
        return 0;
    }
    /* A bound method per arming, held by the heap entry only: a sender
     * that leaves the fan-out (remove_peer) is in no reference cycle. */
    PyObject *wakeup = PyObject_GetAttr((PyObject *)self, str_wakeup);
    if (wakeup == NULL) {
        return -1;
    }
    self->wakeup_armed = 1;
    long long seq = heap_push_bare(node->queue, self->free_at, wakeup,
                                   empty_tuple);
    Py_DECREF(wakeup);
    if (seq < 0) {
        return -1;
    }
    self->wakeup_seq = seq;
    return 0;
}

/* After aggregation saved transmissions: count the originals consumed
 * and trace each aggregate with the votes it saved. */
static int
sender_note_aggregates(NodeObject *node, PyObject *peer_id, PyObject *kept,
                       Py_ssize_t saved)
{
    PyObject *items = PySequence_Fast(kept, "aggregate() must return a "
                                      "sequence");
    if (items == NULL) {
        return -1;
    }
    Py_ssize_t size = PySequence_Fast_GET_SIZE(items);
    char *flags = PyMem_Malloc(size > 0 ? (size_t)size : 1);
    Py_ssize_t aggregates = 0;
    int failed = flags == NULL ? (PyErr_NoMemory(), -1) : 0;
    for (Py_ssize_t i = 0; !failed && i < size; i++) {
        PyObject *flag = PyObject_GetAttr(PySequence_Fast_GET_ITEM(items, i),
                                          str_aggregated);
        int truth = flag == NULL ? -1 : PyObject_IsTrue(flag);
        Py_XDECREF(flag);
        failed = truth < 0;
        flags[i] = truth > 0;
        aggregates += truth > 0;
    }
    if (!failed) {
        node->stats->aggregated_in += saved + aggregates;
        node->stats->aggregated_saved += saved;
    }
    for (Py_ssize_t i = 0; !failed && i < size
            && set_or_null(node->obs) != NULL; i++) {
        if (!flags[i]) {
            continue;
        }
        /* Votes in the sender bitmask; a Batch has none. */
        PyObject *p = PySequence_Fast_GET_ITEM(items, i), *count = NULL;
        PyObject *senders = PyObject_GetAttr(p, str_senders);
        if (senders == NULL && PyErr_ExceptionMatches(PyExc_AttributeError)) {
            PyErr_Clear();
            senders = Py_NewRef(long_zero);
        }
        long long votes = -1;
        if (senders != NULL
                && (count = PyObject_CallMethodNoArgs(senders,
                                                      str_bit_count))
                   != NULL) {
            votes = PyLong_AsLongLong(count);
        }
        Py_XDECREF(count);
        Py_XDECREF(senders);
        PyObject *extra = votes == -1 && PyErr_Occurred() ? NULL
            : PyLong_FromLongLong(votes - 1 > 0 ? votes - 1 : 0);
        failed = extra == NULL
            || node_observe(node, str_gossip_aggregated, peer_id, p,
                            extra) < 0;
        Py_XDECREF(extra);
    }
    PyMem_Free(flags);
    Py_DECREF(items);
    return failed ? -1 : 0;
}

/* Commit the whole validated batch onto the link at now, as one chain:
 * each message starts when its predecessor finishes. */
static int
sender_send_round(SenderObject *self, PyObject *batch, double now)
{
    PyObject *items = PySequence_Fast(batch, "aggregate() must return a "
                                      "sequence");
    if (items == NULL) {
        return -1;
    }
    double completion = self->free_at;
    int failed = 0;
    for (Py_ssize_t i = 0; !failed && i < PySequence_Fast_GET_SIZE(items);
            i++) {
        PyObject *payload = PySequence_Fast_GET_ITEM(items, i);
        PyObject *args = PyTuple_Pack(1, payload);
        PyObject *link = Py_XNewRef(self->link);
        if (args == NULL || link == NULL) {
            if (link == NULL && args != NULL) {
                PyErr_SetString(PyExc_AttributeError, "sender has no link");
            }
            failed = 1;
        }
        else {
            completion = node_commit(link, payload, args, now);
            failed = completion == -1.0 && PyErr_Occurred();
        }
        Py_XDECREF(link);
        Py_XDECREF(args);
    }
    Py_DECREF(items);
    if (failed) {
        return -1;
    }
    self->free_at = completion;
    return 0;
}

/* Validate and aggregate what has queued, charge the hooks' CPU, and
 * commit the survivors as one chained round. */
static int
sender_pump(SenderObject *self)
{
    NodeObject *node = (NodeObject *)self->node;
    if (node == NULL || self->queue == NULL || self->peer_id == NULL
            || node->stats == NULL) {
        return cleared();
    }
    PyObject *fresh = PyList_New(0);
    if (fresh == NULL) {
        return -1;
    }
    PyObject *batch = self->queue;
    self->queue = fresh;
    Py_INCREF(node);
    PyObject *peer_id = Py_NewRef(self->peer_id), *kept = NULL;
    PyObject *validate = Py_XNewRef(set_or_null(node->validate));
    PyObject *aggregate = NULL;
    int failed = -1;
    Py_ssize_t examined = PyList_GET_SIZE(batch);
    if (validate == NULL) {
        /* The default admits everything: no per-message calls. */
        kept = Py_NewRef(batch);
    }
    else if ((kept = PyList_New(0)) == NULL) {
        goto done;
    }
    for (Py_ssize_t i = 0; validate != NULL && i < PyList_GET_SIZE(batch);
            i++) {
        PyObject *payload = Py_NewRef(PyList_GET_ITEM(batch, i));
        int admit = hook_admits(validate, payload, peer_id);
        if (admit > 0) {
            admit = PyList_Append(kept, payload);
        }
        else if (admit == 0) {
            node->stats->filtered++;
            admit = node_observe(node, str_gossip_filtered, peer_id,
                                 payload, NULL);
        }
        Py_DECREF(payload);
        if (admit < 0) {
            goto done;
        }
    }
    /* Messages run through validate, then (two or more) aggregate. */
    Py_ssize_t before = PyList_GET_SIZE(kept);
    if (before > 1) {
        examined += before;
        aggregate = Py_XNewRef(set_or_null(node->aggregate));
        if (aggregate != NULL) {
            PyObject *merged = hook_aggregate(aggregate, kept, peer_id);
            if (merged == NULL) {
                goto done;
            }
            Py_SETREF(kept, merged);
            Py_ssize_t after = PyObject_Length(kept);
            if (after < 0 || (before - after > 0 && sender_note_aggregates(
                    node, peer_id, kept, before - after) < 0)) {
                goto done;
            }
        }
    }
    /* The hooks ran inline: the charge occupies the CPU without delaying
     * this batch; queued CPU work behind it is what pays. */
    if (node->hook_s > 0.0) {
        double service = (double)examined * node->hook_s;
        if (service > 0.0 && node_charge(node, service) < 0) {
            goto done;
        }
    }
    int nonempty = PyObject_IsTrue(kept);
    double now;
    if (nonempty < 0 || (nonempty && (queue_now(node->queue, &now) < 0
                                      || sender_send_round(self, kept, now)
                                         < 0))) {
        goto done;
    }
    failed = 0;
done:
    Py_XDECREF(aggregate);
    Py_XDECREF(validate);
    Py_XDECREF(kept);
    Py_DECREF(peer_id);
    Py_DECREF(batch);
    Py_DECREF(node);
    return failed;
}

static int
sender_init(SenderObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *node, *peer_id, *link, *capacity = Py_None;
    static char *kwlist[] = {"node", "peer_id", "link", "capacity", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O!OO|O:SenderCore",
                                     kwlist, &NodeType, &node, &peer_id,
                                     &link, &capacity)) {
        return -1;
    }
    Py_ssize_t limit = 0;
    if (capacity != Py_None) {
        limit = PyNumber_AsSsize_t(capacity, PyExc_OverflowError);
        if (limit == -1 && PyErr_Occurred()) {
            return -1;
        }
    }
    PyObject *queue = PyList_New(0);
    if (queue == NULL) {
        return -1;
    }
    Py_XSETREF(self->queue, queue);
    Py_INCREF(node);
    Py_XSETREF(self->node, node);
    Py_INCREF(peer_id);
    Py_XSETREF(self->peer_id, peer_id);
    Py_INCREF(link);
    Py_XSETREF(self->link, link);
    self->bounded = capacity != Py_None;
    self->limit = limit;
    self->free_at = 0.0;
    self->wakeup_armed = 0;
    self->wakeup_seq = -1;
    return 0;
}

static PyObject *
sender_enqueue(SenderObject *self, PyObject *payload)
{
    if (sender_push(self, payload) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
sender_wakeup(SenderObject *self, PyObject *Py_UNUSED(ignored))
{
    self->wakeup_armed = 0;
    self->wakeup_seq = -1;
    if (sender_pump(self) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
sender_discard(SenderObject *self, PyObject *Py_UNUSED(ignored))
{
    NodeObject *node = (NodeObject *)self->node;
    if (node == NULL || node->queue == NULL || self->queue == NULL) {
        cleared();
        return NULL;
    }
    if (self->wakeup_armed && queue_cancel_seq(node->queue,
                                               self->wakeup_seq) < 0) {
        return NULL;
    }
    self->wakeup_armed = 0;
    self->wakeup_seq = -1;
    if (PyList_SetSlice(self->queue, 0, PyList_GET_SIZE(self->queue),
                        NULL) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
sender_get_busy(SenderObject *self, void *Py_UNUSED(closure))
{
    double now;
    NodeObject *node = (NodeObject *)self->node;
    if (self->wakeup_armed) {
        Py_RETURN_TRUE;
    }
    if (queue_now(node == NULL ? NULL : node->queue, &now) < 0) {
        return NULL;
    }
    return PyBool_FromLong(now < self->free_at);
}

static int
sender_traverse(SenderObject *s, visitproc visit, void *arg)
{
    Py_VISIT(s->link);
    Py_VISIT(s->node);
    Py_VISIT(s->peer_id);
    Py_VISIT(s->queue);
    return 0;
}

static int
sender_clear(SenderObject *s)
{
    Py_CLEAR(s->link);
    Py_CLEAR(s->node);
    Py_CLEAR(s->peer_id);
    Py_CLEAR(s->queue);
    return 0;
}

static void
sender_dealloc(SenderObject *s)
{
    PyObject_GC_UnTrack(s);
    sender_clear(s);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyMethodDef sender_methods[] = {
    {"enqueue", (PyCFunction)sender_enqueue, METH_O,
     "enqueue(payload): queue payload behind the busy link. The first\n"
     "message queued arms the wake-up at _free_at, the sender's only\n"
     "event; a full queue drops the message and counts the drop."},
    {"_wakeup", (PyCFunction)sender_wakeup, METH_NOARGS,
     "The link frees: validate and aggregate what has queued (the queue\n"
     "is taken whole), charge examined * hook_s when the hooks are\n"
     "charged, and commit the survivors to the wire as one chained round."},
    {"discard", (PyCFunction)sender_discard, METH_NOARGS,
     "Disarm the outstanding wake-up and forget the queue it would have\n"
     "pumped: the peer is gone (GossipNode.remove_peer)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef sender_members[] = {
    {"link", T_OBJECT_EX, offsetof(SenderObject, link), 0,
     "The directed link to the peer."},
    {"_free_at", T_DOUBLE, offsetof(SenderObject, free_at), 0,
     "The instant the link finishes serialising this sender's traffic."},
    {"_wakeup_armed", T_BOOL, offsetof(SenderObject, wakeup_armed), 0,
     "Whether a wake-up is outstanding."},
    {"peer_id", T_OBJECT, offsetof(SenderObject, peer_id), READONLY, NULL},
    {"queue", T_OBJECT, offsetof(SenderObject, queue), READONLY,
     "The pending messages; a new list after each round."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef sender_getset[] = {
    {"busy", (getter)sender_get_busy, NULL,
     "True while a batch is being serialised or paced.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject SenderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.gossip.node.SenderCore",
    .tp_doc = "SenderCore(node, peer_id, link, capacity=None)\n\n"
              "The send routine for one peer: its queue, its wake-up and\n"
              "the batched round that validates, aggregates and commits\n"
              "what queued behind a busy link.",
    .tp_basicsize = sizeof(SenderObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)sender_init,
    .tp_dealloc = (destructor)sender_dealloc,
    .tp_traverse = (traverseproc)sender_traverse,
    .tp_clear = (inquiry)sender_clear,
    .tp_methods = sender_methods,
    .tp_members = sender_members,
    .tp_getset = sender_getset,
};
