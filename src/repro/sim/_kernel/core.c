/* The Paxos process's message handling: PaxosCore.
 *
 * Backs repro.paxos.process (PaxosCore is PaxosProcess's base; the
 * coordinator stays in Python). Reference model: ReferenceProcess in
 * tests/reference/replica.py. Lockstep:
 * tests/properties/test_replica_lockstep.py. Leak gate: baseline_star,
 * and test_a_paxos_handle_releases_what_its_callbacks_return.
 */

/* -- PaxosCore: a Paxos process's message handling ------------------------ */

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    QueueObject *queue;     /* sim's, bound with it */
    PyObject *process_id;
    PyObject *comm;
    PyObject *on_deliver;   /* NULL or None: none */
    PyObject *stats;
    PyObject *obs;          /* NULL or None: untraced */
    PyObject *coordinator;  /* NULL or None: not coordinating */
    AcceptorObject *acceptor;
    LearnerObject *learner;
    LogObject *log;
    PyObject *seen_values;  /* dict value_id -> Value */
    PyObject *decided_ids;  /* set of value ids */
    long long max_seen_round;
    char alive, track_values;
} CoreObject;

static int
core_init(CoreObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *process_id, *n;
    static char *kwlist[] = {"process_id", "n", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OO:PaxosCore", kwlist,
                                     &process_id, &n)) {
        return -1;
    }
    if (kinds[K_PHASE2B].type == NULL) {
        return unregistered();
    }
    PyObject *acceptor = PyObject_CallOneArg((PyObject *)&AcceptorType,
                                             process_id);
    PyObject *learner = acceptor == NULL
        ? NULL : PyObject_CallOneArg((PyObject *)&LearnerType, n);
    PyObject *log = learner == NULL
        ? NULL : PyObject_CallNoArgs((PyObject *)&LogType);
    PyObject *seen = log == NULL ? NULL : PyDict_New();
    PyObject *ids = seen == NULL ? NULL : PySet_New(NULL);
    if (ids == NULL) {
        Py_XDECREF(acceptor);
        Py_XDECREF(learner);
        Py_XDECREF(log);
        Py_XDECREF(seen);
        return -1;
    }
    Py_XSETREF(self->acceptor, (AcceptorObject *)acceptor);
    Py_XSETREF(self->learner, (LearnerObject *)learner);
    Py_XSETREF(self->log, (LogObject *)log);
    Py_XSETREF(self->seen_values, seen);
    Py_XSETREF(self->decided_ids, ids);
    self->max_seen_round = 1;
    self->track_values = 0;
    return 0;
}

static inline void
core_see_round(CoreObject *self, long long round)
{
    if (round > self->max_seen_round) {
        self->max_seen_round = round;
    }
}

/* target.method(arg[, arg2]), for comm and the coordinator. */
static int
core_call(PyObject *target, PyObject *method, PyObject *arg, PyObject *arg2)
{
    Py_INCREF(target);
    PyObject *argv[] = {target, arg, arg2};
    PyObject *res = PyObject_VectorcallMethod(
        method, argv, arg2 == NULL ? 2 : 3, NULL);
    Py_DECREF(target);
    return observed(res);
}

/* The coordinator's method(arg, now), if there is a coordinator. */
static int
core_to_coordinator(CoreObject *self, PyObject *method, PyObject *arg)
{
    PyObject *coordinator = set_or_null(self->coordinator);
    if (coordinator == NULL) {
        return 0;
    }
    if (self->queue == NULL) {
        return cleared();
    }
    Py_INCREF(coordinator);
    PyObject *now = PyFloat_FromDouble(self->queue->now);
    int failed = now == NULL ? -1 : core_call(coordinator, method, arg, now);
    Py_XDECREF(now);
    Py_DECREF(coordinator);
    return failed;
}

/* The body of _on_decided: instance was decided here with value (the
 * reference is consumed). */
static int
core_decided(CoreObject *self, PyObject *instance, PyObject *value)
{
    int failed = -1;
    long long first;
    PyObject *ready = NULL, *value_id = field(value, K_VALUE, F_VALUE_ID);
    if (value_id == NULL) {
        goto done;
    }
    PyObject *obs = set_or_null(self->obs);
    if (obs != NULL) {
        Py_INCREF(obs);
        PyObject *argv[] = {obs, self->process_id, instance, value_id};
        PyObject *res = PyObject_VectorcallMethod(
            str_value_decided, argv, 4, NULL);
        Py_DECREF(obs);
        if (observed(res) < 0) {
            goto done;
        }
    }
    PyObject *coordinator = set_or_null(self->coordinator);
    if (coordinator != NULL) {
        /* Inform all processes (paper section 2.3); filtering turns the
         * Decision into the message that obsoletes the instance's Phase
         * 2b traffic. */
        if (core_call(coordinator, str_on_decided, instance, NULL) < 0) {
            goto done;
        }
        /* learner_round(): the coordinator's round, or 0 without one. */
        coordinator = set_or_null(self->coordinator);
        PyObject *round = coordinator == NULL
            ? Py_NewRef(long_zero)
            : PyObject_GetAttr(coordinator, field_name[F_ROUND]);
        if (round == NULL) {
            goto done;
        }
        PyObject *argv[] = {instance, round, value};
        PyObject *decision = new_message(K_DECISION, argv, 3);
        Py_DECREF(round);
        if (decision == NULL) {
            goto done;
        }
        int sent = self->comm == NULL
            ? cleared() : core_call(self->comm, str_broadcast, decision, NULL);
        Py_DECREF(decision);
        if (sent < 0) {
            goto done;
        }
    }
    long long number;
    if (self->log == NULL || self->acceptor == NULL || self->learner == NULL) {
        cleared();
        goto done;
    }
    if (as_ll(instance, &number) < 0
            || log_add_one(self->log, instance, number, value) < 0
            || (ready = log_take_ready(self->log, &first)) == NULL) {
        goto done;
    }
    Py_ssize_t count = PyList_GET_SIZE(ready);
    if (count > 0) {
        long long watermark = first + count - 1;
        if (stat_add(self->stats, F_DECISIONS_DELIVERED, count) < 0
                || acceptor_forget(self->acceptor, watermark) < 0
                || learner_forget(self->learner, watermark) < 0) {
            goto done;
        }
        for (Py_ssize_t i = 0; self->track_values && i < count; i++) {
            PyObject *id = field(PyList_GET_ITEM(ready, i), K_VALUE,
                                 F_VALUE_ID);
            if (id == NULL || PySet_Add(self->decided_ids, id) < 0) {
                Py_XDECREF(id);
                goto done;
            }
            int seen = PyDict_Contains(self->seen_values, id);
            if (seen > 0) {
                seen = PyDict_DelItem(self->seen_values, id);
            }
            Py_DECREF(id);
            if (seen < 0) {
                goto done;
            }
        }
        for (Py_ssize_t i = 0; i < count; i++) {
            PyObject *deliver = set_or_null(self->on_deliver);
            if (deliver == NULL) {
                break;
            }
            PyObject *at = PyLong_FromLongLong(first + i);
            if (at == NULL) {
                goto done;
            }
            Py_INCREF(deliver);
            PyObject *argv[] = {at, PyList_GET_ITEM(ready, i)};
            PyObject *res = PyObject_Vectorcall(deliver, argv, 2, NULL);
            Py_DECREF(deliver);
            Py_DECREF(at);
            if (observed(res) < 0) {
                goto done;
            }
        }
    }
    failed = 0;
done:
    Py_XDECREF(ready);
    Py_XDECREF(value_id);
    Py_DECREF(value);
    return failed;
}

static int
core_phase2b(CoreObject *self, PyObject *msg)
{
    long long round;
    int outcome = -1;
    PyObject *decided = NULL, *value_id = NULL, *sender = NULL;
    PyObject *instance = field(msg, K_PHASE2B, F_INSTANCE);
    if (instance != NULL && field_ll(msg, K_PHASE2B, F_ROUND, &round) == 0) {
        core_see_round(self, round);
        if ((value_id = field(msg, K_PHASE2B, F_VALUE_ID)) != NULL
                && (sender = field(msg, K_PHASE2B, F_SENDER)) != NULL) {
            outcome = learner_vote(self->learner, instance, round, value_id,
                                   sender, &decided);
        }
    }
    if (outcome > 0) {
        outcome = core_decided(self, instance, decided);
    }
    Py_XDECREF(sender);
    Py_XDECREF(value_id);
    Py_XDECREF(instance);
    return outcome;
}

static int
core_phase2a(CoreObject *self, PyObject *msg)
{
    long long round;
    if (field_ll(msg, K_PHASE2A, F_ROUND, &round) < 0) {
        return -1;
    }
    core_see_round(self, round);
    PyObject *uid = field(msg, K_PHASE2A, F_UID);
    if (uid == NULL) {
        return -1;
    }
    PyObject *attempt = PySequence_GetItem(uid, 3);
    Py_DECREF(uid);
    if (attempt == NULL) {
        return -1;
    }
    PyObject *vote = acceptor_accept(self->acceptor, msg, attempt);
    Py_DECREF(attempt);
    if (vote == NULL) {
        return -1;
    }
    int outcome = 0;
    if (vote != Py_None) {
        outcome = self->comm == NULL
            ? cleared() : core_call(self->comm, str_phase2b, vote, NULL);
    }
    Py_DECREF(vote);
    if (outcome < 0) {
        return -1;
    }
    outcome = -1;
    PyObject *value = NULL, *value_id = NULL, *decided = NULL;
    PyObject *instance = field(msg, K_PHASE2A, F_INSTANCE);
    if (instance != NULL && (value = field(msg, K_PHASE2A, F_VALUE)) != NULL
            && (value_id = field(value, K_VALUE, F_VALUE_ID)) != NULL) {
        outcome = learner_learn(self->learner, instance, value, value_id, 0,
                                &decided);
    }
    if (outcome > 0) {
        outcome = core_decided(self, instance, decided);
    }
    Py_XDECREF(value_id);
    Py_XDECREF(value);
    Py_XDECREF(instance);
    return outcome;
}

static int
core_decision(CoreObject *self, PyObject *msg)
{
    int outcome = -1;
    PyObject *value = NULL, *value_id = NULL, *decided = NULL;
    PyObject *instance = field(msg, K_DECISION, F_INSTANCE);
    if (instance != NULL && (value = field(msg, K_DECISION, F_VALUE)) != NULL
            && (value_id = field(value, K_VALUE, F_VALUE_ID)) != NULL) {
        outcome = learner_learn(self->learner, instance, value, value_id, 1,
                                &decided);
    }
    if (outcome > 0) {
        outcome = core_decided(self, instance, decided);
    }
    Py_XDECREF(value_id);
    Py_XDECREF(value);
    Py_XDECREF(instance);
    return outcome;
}

static int
core_client_value(CoreObject *self, PyObject *msg)
{
    PyObject *value = field(msg, K_CLIENT, F_VALUE);
    if (value == NULL) {
        return -1;
    }
    int failed = 0;
    if (self->track_values) {
        PyObject *value_id = field(value, K_VALUE, F_VALUE_ID);
        int known = value_id == NULL
            ? -1 : PySet_Contains(self->decided_ids, value_id);
        failed = known < 0
            || (known == 0
                && PyDict_SetItem(self->seen_values, value_id, value) < 0);
        Py_XDECREF(value_id);
    }
    if (!failed) {
        failed = core_to_coordinator(self, str_on_client_value, value) < 0;
    }
    Py_DECREF(value);
    return failed ? -1 : 0;
}

static int
core_phase1a(CoreObject *self, PyObject *msg)
{
    long long round;
    if (field_ll(msg, K_PHASE1A, F_ROUND, &round) < 0) {
        return -1;
    }
    core_see_round(self, round);
    PyObject *promise = acceptor_promise(self->acceptor, msg);
    if (promise == NULL) {
        return -1;
    }
    int failed = 0;
    if (promise != Py_None) {
        failed = self->comm == NULL ? cleared()
            : core_call(self->comm, str_to_coordinator, promise, NULL);
    }
    Py_DECREF(promise);
    return failed;
}

static PyObject *
core_handle(PyObject *obj, PyObject *payload)
{
    CoreObject *self = (CoreObject *)obj;
    if (!self->alive) {
        Py_RETURN_NONE;
    }
    if (self->acceptor == NULL || self->learner == NULL
            || self->log == NULL || self->process_id == NULL) {
        cleared();
        return NULL;
    }
    if (stat_add(self->stats, F_MESSAGES_HANDLED, 1) < 0) {
        return NULL;
    }
    PyTypeObject *kind = Py_TYPE(payload);
    int failed = 0;
    Py_INCREF(payload);
    if (kind == kinds[K_PHASE2B].type) {
        failed = core_phase2b(self, payload);
    }
    else if (kind == kinds[K_PHASE2A].type) {
        failed = core_phase2a(self, payload);
    }
    else if (kind == kinds[K_DECISION].type) {
        failed = core_decision(self, payload);
    }
    else if (kind == kinds[K_CLIENT].type) {
        failed = core_client_value(self, payload);
    }
    else if (kind == kinds[K_PHASE1A].type) {
        failed = core_phase1a(self, payload);
    }
    else if (kind == kinds[K_PHASE1B].type) {
        failed = core_to_coordinator(self, str_on_phase1b, payload);
    }
    Py_DECREF(payload);
    if (failed < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static int
core_traverse(CoreObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->sim);
    Py_VISIT(self->queue);
    Py_VISIT(self->process_id);
    Py_VISIT(self->comm);
    Py_VISIT(self->on_deliver);
    Py_VISIT(self->stats);
    Py_VISIT(self->obs);
    Py_VISIT(self->coordinator);
    Py_VISIT(self->acceptor);
    Py_VISIT(self->learner);
    Py_VISIT(self->log);
    Py_VISIT(self->seen_values);
    Py_VISIT(self->decided_ids);
    return 0;
}

static int
core_clear(CoreObject *self)
{
    Py_CLEAR(self->sim);
    Py_CLEAR(self->queue);
    Py_CLEAR(self->process_id);
    Py_CLEAR(self->comm);
    Py_CLEAR(self->on_deliver);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->obs);
    Py_CLEAR(self->coordinator);
    Py_CLEAR(self->acceptor);
    Py_CLEAR(self->learner);
    Py_CLEAR(self->log);
    Py_CLEAR(self->seen_values);
    Py_CLEAR(self->decided_ids);
    return 0;
}

static void
core_dealloc(CoreObject *self)
{
    PyObject_GC_UnTrack(self);
    core_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef core_methods[] = {
    {"handle", (PyCFunction)core_handle, METH_O,
     "handle(payload): entry point for every message the substrate\n"
     "delivers. Nothing while dead; else counted in\n"
     "stats.messages_handled and dispatched on its exact class: Phase 2b\n"
     "to the learner, Phase 2a to the acceptor (the vote goes to\n"
     "comm.phase2b) and the learner, Decision to the learner, a client\n"
     "value to value tracking and the coordinator, Phase 1a to the\n"
     "acceptor (the promise goes to comm.to_coordinator), Phase 1b to the\n"
     "coordinator. A decision is traced, announced by a coordinator,\n"
     "logged and, once gap-free, delivered to on_deliver."},
    {NULL, NULL, 0, NULL},
};

static PyObject *
core_get_sim(CoreObject *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->sim == NULL ? Py_None : self->sim);
}

/* Setting sim binds its queue, whose clock the coordinator calls read. */
static int
core_set_sim(CoreObject *self, PyObject *sim, void *Py_UNUSED(closure))
{
    if (sim == NULL) {
        PyErr_SetString(PyExc_TypeError, "cannot delete sim");
        return -1;
    }
    QueueObject *queue = sim_queue(sim, "PaxosProcess");
    if (queue == NULL) {
        return -1;
    }
    Py_XSETREF(self->sim, Py_NewRef(sim));
    Py_XSETREF(self->queue, queue);
    return 0;
}

static PyGetSetDef core_getset[] = {
    {"sim", (getter)core_get_sim, (setter)core_set_sim,
     "The Simulator; setting it binds its event queue.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyMemberDef core_members[] = {
    {"process_id", T_OBJECT, offsetof(CoreObject, process_id), 0, NULL},
    {"comm", T_OBJECT, offsetof(CoreObject, comm), 0,
     "The Communicator binding to the substrate."},
    {"on_deliver", T_OBJECT, offsetof(CoreObject, on_deliver), 0,
     "on_deliver(instance, value), or None."},
    {"stats", T_OBJECT, offsetof(CoreObject, stats), 0, NULL},
    {"obs", T_OBJECT, offsetof(CoreObject, obs), 0,
     "Tracer (repro.obs); None in untraced runs."},
    {"coordinator", T_OBJECT, offsetof(CoreObject, coordinator), 0,
     "The Coordinator while this process leads, else None."},
    {"acceptor", T_OBJECT, offsetof(CoreObject, acceptor), READONLY, NULL},
    {"learner", T_OBJECT, offsetof(CoreObject, learner), READONLY, NULL},
    {"log", T_OBJECT, offsetof(CoreObject, log), READONLY, NULL},
    {"_seen_values", T_OBJECT, offsetof(CoreObject, seen_values), READONLY,
     "value_id -> Value of the client values seen and not yet delivered\n"
     "(tracked only with _track_values)."},
    {"_decided_value_ids", T_OBJECT, offsetof(CoreObject, decided_ids),
     READONLY, NULL},
    {"_max_seen_round", T_LONGLONG, offsetof(CoreObject, max_seen_round), 0,
     "The highest round seen in a Phase 1a, 2a or 2b."},
    {"alive", T_BOOL, offsetof(CoreObject, alive), 0,
     "False while crashed: messages are dropped."},
    {"_track_values", T_BOOL, offsetof(CoreObject, track_values), 0,
     "Whether client values are tracked for re-proposal."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject CoreType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.paxos.process.PaxosCore",
    .tp_doc = "PaxosCore(process_id, n)\n\n"
              "A Paxos process's acceptor, learner and decision log, and\n"
              "the handle that drives them; the coordinator stays in the\n"
              "Python subclass.",
    .tp_basicsize = sizeof(CoreObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)core_init,
    .tp_dealloc = (destructor)core_dealloc,
    .tp_traverse = (traverseproc)core_traverse,
    .tp_clear = (inquiry)core_clear,
    .tp_methods = core_methods,
    .tp_members = core_members,
    .tp_getset = core_getset,
};
