/* The Paxos replica's roles: the class registry, DecisionLog, Acceptor
 * and Learner.
 *
 * Backs repro.paxos.log, repro.paxos.acceptor and repro.paxos.learner
 * (the registry is filled by repro.paxos.process and repro.core).
 * Reference model: tests/reference/replica.py. Lockstep:
 * tests/properties/test_replica_lockstep.py. Leak gate: baseline_star
 * and baseline_faults, and every gossip case's replicas.
 */

/* -- the registry -------------------------------------------------------- */

/* The roles of repro.paxos: the acceptor, the learner and the gap-free
 * decision log; the message handling that drives them is core.c's.
 *
 * Instances and rounds are C long longs (a larger int raises
 * OverflowError). A message's fields are read straight from its slots
 * when it is of the exact class register_replica() named, and through
 * getattr otherwise; a Phase 2b vote is built the same way, slot by slot,
 * as Phase2b.__init__ would. Value ids are compared with ==, identity
 * first. */

static const char *field_text[NFIELDS] = {
    "instance", "round", "value", "value_id", "sender", "from_instance",
    "uid", "size_bytes", "iid", "messages_handled", "decisions_delivered",
    "senders", "attempt", "term", "index", "leader_commit",
};

static PyObject *field_name[NFIELDS];

static Kind kinds[NKINDS];
static PyObject *header_bytes;  /* a Phase 2b's size_bytes */
static PyObject *str_2b, *str_phase2b, *str_broadcast,
    *str_to_coordinator, *str_on_client_value, *str_on_phase1b,
    *str_on_decided, *str_value_decided;

/* obj.<field> as a new reference. */
static PyObject *
field(PyObject *obj, int kind, int f)
{
    const Kind *k = &kinds[kind];
    if (Py_TYPE(obj) == k->type && k->offset[f] > 0) {
        PyObject *value = *(PyObject **)((char *)obj + k->offset[f]);
        if (value != NULL) {
            return Py_NewRef(value);
        }
    }
    return PyObject_GetAttr(obj, field_name[f]);
}

static inline int
as_ll(PyObject *obj, long long *out)
{
    *out = PyLong_AsLongLong(obj);
    return *out == -1 && PyErr_Occurred() ? -1 : 0;
}

static int
field_ll(PyObject *obj, int kind, int f, long long *out)
{
    PyObject *value = field(obj, kind, f);
    if (value == NULL) {
        return -1;
    }
    int failed = as_ll(value, out);
    Py_DECREF(value);
    return failed;
}

/* stats.<field> += delta. */
static int
stat_add(PyObject *stats, int f, Py_ssize_t delta)
{
    PyObject *step = PyLong_FromSsize_t(delta);
    if (step == NULL) {
        return -1;
    }
    if (stats == NULL) {
        stats = Py_None;
    }
    Py_INCREF(stats);
    int failed = -1;
    PyObject *old = field(stats, K_STATS, f), *sum = NULL;
    if (old != NULL && (sum = PyNumber_Add(old, step)) != NULL) {
        const Kind *k = &kinds[K_STATS];
        if (Py_TYPE(stats) == k->type && k->offset[f] > 0) {
            Py_XSETREF(*(PyObject **)((char *)stats + k->offset[f]), sum);
            failed = 0;
        }
        else {
            failed = PyObject_SetAttr(stats, field_name[f], sum);
            Py_DECREF(sum);
        }
    }
    Py_XDECREF(old);
    Py_DECREF(step);
    Py_DECREF(stats);
    return failed;
}

/* The fields a Phase 2b vote is built from, in its __init__'s order. */
static const int vote_fields[] = {F_UID, F_SIZE_BYTES, F_IID, F_INSTANCE,
                                  F_ROUND, F_VALUE_ID, F_SENDER};
#define NVOTE_FIELDS (sizeof vote_fields / sizeof vote_fields[0])

/* The offset of type's writable object slot name (a __slots__ entry of
 * type or a base), or 0. */
static Py_ssize_t
slot_offset(PyTypeObject *type, PyObject *name)
{
    Py_ssize_t offset = 0;
    PyObject *descr = PyObject_GetAttr((PyObject *)type, name);
    if (descr == NULL) {
        PyErr_Clear();
        return 0;
    }
    if (Py_IS_TYPE(descr, &PyMemberDescr_Type)
            && PyType_IsSubtype(type, PyDescr_TYPE(descr))) {
        PyMemberDef *member = ((PyMemberDescrObject *)descr)->d_member;
        if (member->type == T_OBJECT_EX && !(member->flags & READONLY)) {
            offset = member->offset;
        }
    }
    Py_DECREF(descr);
    return offset;
}

/* The kind entry of type: its slot offsets for every field. */
static Kind
kind_of(PyTypeObject *type)
{
    Kind kind = {type, {0}};
    for (int f = 0; f < NFIELDS; f++) {
        kind.offset[f] = slot_offset(type, field_name[f]);
    }
    return kind;
}

/* Install types[i] as kinds[first + i], for i < count. */
static void
set_kinds(int first, PyTypeObject **types, const Kind *found, int count)
{
    for (int i = 0; i < count; i++) {
        Py_INCREF(types[i]);
        Py_XDECREF(kinds[first + i].type);
        kinds[first + i] = found[i];
    }
}

static PyObject *
register_replica(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *types[NREPLICA];
    PyObject *header;
    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!O!O:register_replica",
                          &PyType_Type, &types[K_STATS],
                          &PyType_Type, &types[K_VALUE],
                          &PyType_Type, &types[K_CLIENT],
                          &PyType_Type, &types[K_PHASE1A],
                          &PyType_Type, &types[K_PHASE1B],
                          &PyType_Type, &types[K_PHASE2A],
                          &PyType_Type, &types[K_PHASE2B],
                          &PyType_Type, &types[K_DECISION], &header)) {
        return NULL;
    }
    Kind found[NREPLICA];
    for (int i = 0; i < NREPLICA; i++) {
        found[i] = kind_of(types[i]);
    }
    for (size_t i = 0; i < NVOTE_FIELDS; i++) {
        if (found[K_PHASE2B].offset[vote_fields[i]] == 0) {
            PyErr_Format(PyExc_TypeError, "%s must keep %U in __slots__",
                         types[K_PHASE2B]->tp_name,
                         field_name[vote_fields[i]]);
            return NULL;
        }
    }
    set_kinds(0, types, found, NREPLICA);
    Py_INCREF(header);
    Py_XSETREF(header_bytes, header);
    Py_RETURN_NONE;
}

static int
unregistered(void)
{
    PyErr_SetString(PyExc_RuntimeError, "the Paxos message classes are not "
                    "registered (repro.paxos.process registers them)");
    return -1;
}

/* Phase2b(instance, round, value_id, sender, attempt), its slots set as
 * its __init__ sets them. */
static PyObject *
new_vote(PyObject *instance, PyObject *round, PyObject *value_id,
         PyObject *sender, PyObject *attempt)
{
    const Kind *k = &kinds[K_PHASE2B];
    if (k->type == NULL) {
        unregistered();
        return NULL;
    }
    PyObject *uid = PyTuple_Pack(5, str_2b, instance, round, sender, attempt);
    if (uid == NULL) {
        return NULL;
    }
    PyObject *vote = k->type->tp_alloc(k->type, 0);
    if (vote == NULL) {
        Py_DECREF(uid);
        return NULL;
    }
    PyObject *values[NVOTE_FIELDS] = {
        uid, Py_NewRef(header_bytes), Py_NewRef(Py_None), Py_NewRef(instance),
        Py_NewRef(round), Py_NewRef(value_id), Py_NewRef(sender)};
    for (size_t i = 0; i < NVOTE_FIELDS; i++) {
        *(PyObject **)((char *)vote + k->offset[vote_fields[i]]) = values[i];
    }
    return vote;
}

/* A call of cls(*argv) for a registered class. */
static PyObject *
new_message(int kind, PyObject *const *argv, size_t nargs)
{
    PyObject *cls = (PyObject *)kinds[kind].type;
    if (cls == NULL) {
        unregistered();
        return NULL;
    }
    return PyObject_Vectorcall(cls, argv, nargs, NULL);
}

/* -- DecisionLog --------------------------------------------------------- */

static int
log_init(LogObject *self, PyObject *args, PyObject *kwds)
{
    long long first = 1;
    static char *kwlist[] = {"first_instance", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|L:DecisionLog", kwlist,
                                     &first)) {
        return -1;
    }
    PyObject *pending = PyDict_New();
    if (pending == NULL) {
        return -1;
    }
    Py_XSETREF(self->pending, pending);
    self->next_instance = first;
    self->delivered_count = 0;
    return 0;
}

static int
log_add_one(LogObject *self, PyObject *instance, long long number,
            PyObject *value)
{
    if (self->pending == NULL) {
        return cleared();
    }
    if (number < self->next_instance) {
        return 0;
    }
    PyObject *kept = PyDict_SetDefault(self->pending, instance, value);
    return kept == NULL ? -1 : 0;
}

/* The values now deliverable in order, as a new list; the first one's
 * instance in *first. */
static PyObject *
log_take_ready(LogObject *self, long long *first)
{
    *first = self->next_instance;
    PyObject *ready = PyList_New(0);
    if (ready == NULL) {
        return NULL;
    }
    if (self->pending == NULL) {
        Py_DECREF(ready);
        cleared();
        return NULL;
    }
    while (PyDict_GET_SIZE(self->pending) > 0) {
        PyObject *key = PyLong_FromLongLong(self->next_instance);
        if (key == NULL) {
            Py_DECREF(ready);
            return NULL;
        }
        PyObject *value = PyDict_GetItemWithError(self->pending, key);
        if (value == NULL || PyList_Append(ready, value) < 0
                || PyDict_DelItem(self->pending, key) < 0) {
            Py_DECREF(key);
            if (PyErr_Occurred()) {
                Py_DECREF(ready);
                return NULL;
            }
            break;
        }
        Py_DECREF(key);
        self->next_instance++;
    }
    self->delivered_count += PyList_GET_SIZE(ready);
    return ready;
}

static PyObject *
log_add(LogObject *self, PyObject *const *argv, Py_ssize_t nargs)
{
    long long number;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "add() takes 2 arguments (%zd given)",
                     nargs);
        return NULL;
    }
    if (as_ll(argv[0], &number) < 0
            || log_add_one(self, argv[0], number, argv[1]) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
log_pop_ready(LogObject *self, PyObject *Py_UNUSED(ignored))
{
    long long first;
    PyObject *values = log_take_ready(self, &first);
    if (values == NULL) {
        return NULL;
    }
    Py_ssize_t count = PyList_GET_SIZE(values);
    PyObject *ready = PyList_New(count);
    for (Py_ssize_t i = 0; ready != NULL && i < count; i++) {
        PyObject *pair = Py_BuildValue("(LO)", first + i,
                                       PyList_GET_ITEM(values, i));
        if (pair == NULL) {
            Py_CLEAR(ready);
            break;
        }
        PyList_SET_ITEM(ready, i, pair);
    }
    Py_DECREF(values);
    return ready;
}

static PyObject *
log_gap_blocked(LogObject *self, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(self->pending == NULL
                              ? 0 : PyDict_GET_SIZE(self->pending));
}

static int
log_traverse(LogObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->pending);
    return 0;
}

static int
log_clear(LogObject *self)
{
    Py_CLEAR(self->pending);
    return 0;
}

static void
log_dealloc(LogObject *self)
{
    PyObject_GC_UnTrack(self);
    log_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef log_methods[] = {
    {"add", (PyCFunction)(void (*)(void))log_add, METH_FASTCALL,
     "add(instance, value): record a decision; the first one recorded for\n"
     "an instance stays, and an instance already delivered is ignored."},
    {"pop_ready", (PyCFunction)log_pop_ready, METH_NOARGS,
     "pop_ready() -> [(instance, value), ...]: the decisions now\n"
     "deliverable in instance order, with no gap."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef log_members[] = {
    {"next_instance", T_LONGLONG, offsetof(LogObject, next_instance), 0,
     "The instance delivered next."},
    {"delivered_count", T_LONGLONG, offsetof(LogObject, delivered_count), 0,
     "Decisions released by pop_ready so far."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef log_getset[] = {
    {"gap_blocked", (getter)log_gap_blocked, NULL,
     "Decided instances waiting behind a gap.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject LogType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.paxos.log.DecisionLog",
    .tp_doc = "DecisionLog(first_instance=1)\n\n"
              "Orders decided values for delivery to the replicated state\n"
              "machine: consecutive instances, in order, with no gap.",
    .tp_basicsize = sizeof(LogObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)log_init,
    .tp_dealloc = (destructor)log_dealloc,
    .tp_traverse = (traverseproc)log_traverse,
    .tp_clear = (inquiry)log_clear,
    .tp_methods = log_methods,
    .tp_members = log_members,
    .tp_getset = log_getset,
};

/* -- Acceptor ------------------------------------------------------------ */

static int
acceptor_init(AcceptorObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *process_id;
    static char *kwlist[] = {"process_id", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:Acceptor", kwlist,
                                     &process_id)) {
        return -1;
    }
    PyObject *accepted = PyDict_New();
    if (accepted == NULL) {
        return -1;
    }
    Py_INCREF(process_id);
    Py_XSETREF(self->process_id, process_id);
    Py_XSETREF(self->accepted, accepted);
    self->promised_round = 0;
    self->forgotten = 0;
    return 0;
}

/* A ranged Phase 1a: a Phase1b promise, or None (a new reference). */
static PyObject *
acceptor_promise(AcceptorObject *self, PyObject *msg)
{
    long long round, from, number;
    if (self->accepted == NULL) {
        cleared();
        return NULL;
    }
    PyObject *round_obj = field(msg, K_PHASE1A, F_ROUND);
    if (round_obj == NULL || as_ll(round_obj, &round) < 0) {
        Py_XDECREF(round_obj);
        return NULL;
    }
    if (round <= self->promised_round) {
        Py_DECREF(round_obj);
        Py_RETURN_NONE;
    }
    self->promised_round = round;
    PyObject *items = NULL, *accepted = NULL, *reply = NULL;
    if (field_ll(msg, K_PHASE1A, F_FROM_INSTANCE, &from) < 0
            || (items = PyDict_Items(self->accepted)) == NULL
            || PyList_Sort(items) < 0
            || (accepted = PyList_New(0)) == NULL) {
        goto done;
    }
    /* (instance, round, value) of each accepted instance >= from. */
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(items); i++) {
        PyObject *instance, *entry, *accepted_round, *value, *triple;
        if (!PyArg_ParseTuple(PyList_GET_ITEM(items, i), "OO", &instance,
                              &entry)
                || as_ll(instance, &number) < 0) {
            goto done;
        }
        if (number < from) {
            continue;
        }
        if (!PyArg_ParseTuple(entry, "OO", &accepted_round, &value)
                || (triple = PyTuple_Pack(3, instance, accepted_round,
                                          value)) == NULL) {
            goto done;
        }
        int failed = PyList_Append(accepted, triple);
        Py_DECREF(triple);
        if (failed < 0) {
            goto done;
        }
    }
    PyObject *argv[] = {round_obj, self->process_id, accepted};
    reply = new_message(K_PHASE1B, argv, 3);
done:
    Py_XDECREF(accepted);
    Py_XDECREF(items);
    Py_DECREF(round_obj);
    return reply;
}

/* A Phase 2a: the Phase2b vote, or None (a new reference). */
static PyObject *
acceptor_accept(AcceptorObject *self, PyObject *msg, PyObject *attempt)
{
    long long round;
    if (self->accepted == NULL) {
        cleared();
        return NULL;
    }
    PyObject *round_obj = field(msg, K_PHASE2A, F_ROUND);
    if (round_obj == NULL || as_ll(round_obj, &round) < 0) {
        Py_XDECREF(round_obj);
        return NULL;
    }
    if (round < self->promised_round) {
        Py_DECREF(round_obj);
        Py_RETURN_NONE;
    }
    self->promised_round = round;
    PyObject *vote = NULL, *entry = NULL, *value_id = NULL;
    PyObject *instance = field(msg, K_PHASE2A, F_INSTANCE);
    PyObject *value = instance == NULL ? NULL : field(msg, K_PHASE2A, F_VALUE);
    if (value != NULL && (entry = PyTuple_Pack(2, round_obj, value)) != NULL
            && PyDict_SetItem(self->accepted, instance, entry) == 0
            && (value_id = field(value, K_VALUE, F_VALUE_ID)) != NULL) {
        vote = new_vote(instance, round_obj, value_id, self->process_id,
                        attempt);
    }
    Py_XDECREF(value_id);
    Py_XDECREF(entry);
    Py_XDECREF(value);
    Py_XDECREF(instance);
    Py_DECREF(round_obj);
    return vote;
}

static int
acceptor_forget(AcceptorObject *self, long long instance)
{
    if (instance <= self->forgotten) {
        return 0;
    }
    if (self->accepted == NULL) {
        return cleared();
    }
    for (long long i = self->forgotten + 1;
            i <= instance && PyDict_GET_SIZE(self->accepted) > 0; i++) {
        PyObject *key = PyLong_FromLongLong(i);
        if (key == NULL) {
            return -1;
        }
        int found = PyDict_Contains(self->accepted, key);
        if (found > 0) {
            found = PyDict_DelItem(self->accepted, key);
        }
        Py_DECREF(key);
        if (found < 0) {
            return -1;
        }
    }
    self->forgotten = instance;
    return 0;
}

static PyObject *
acceptor_on_phase1a(AcceptorObject *self, PyObject *msg)
{
    return acceptor_promise(self, msg);
}

static PyObject *
acceptor_on_phase2a(AcceptorObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *msg, *attempt = NULL;
    static char *kwlist[] = {"msg", "attempt", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|O:on_phase2a", kwlist,
                                     &msg, &attempt)) {
        return NULL;
    }
    if (attempt == NULL) {
        attempt = long_zero;
    }
    return acceptor_accept(self, msg, attempt);
}

static PyObject *
acceptor_forget_up_to(AcceptorObject *self, PyObject *arg)
{
    long long instance;
    if (as_ll(arg, &instance) < 0 || acceptor_forget(self, instance) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static int
acceptor_traverse(AcceptorObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->process_id);
    Py_VISIT(self->accepted);
    return 0;
}

static int
acceptor_clear(AcceptorObject *self)
{
    Py_CLEAR(self->process_id);
    Py_CLEAR(self->accepted);
    return 0;
}

static void
acceptor_dealloc(AcceptorObject *self)
{
    PyObject_GC_UnTrack(self);
    acceptor_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef acceptor_methods[] = {
    {"on_phase1a", (PyCFunction)acceptor_on_phase1a, METH_O,
     "on_phase1a(msg) -> Phase1b or None\n\n"
     "Promise a round higher than any promised or accepted before; the\n"
     "promise reports the values accepted in instances >= from_instance."},
    {"on_phase2a", (PyCFunction)(void (*)(void))acceptor_on_phase2a,
     METH_VARARGS | METH_KEYWORDS,
     "on_phase2a(msg, attempt=0) -> Phase2b or None\n\n"
     "Accept unless a higher round was promised; accepting raises the\n"
     "promise to the proposal's round."},
    {"forget_up_to", (PyCFunction)acceptor_forget_up_to, METH_O,
     "forget_up_to(instance): drop the accepted values of the decided\n"
     "instances after the previous watermark, up to instance."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef acceptor_members[] = {
    {"process_id", T_OBJECT, offsetof(AcceptorObject, process_id), READONLY,
     NULL},
    {"promised_round", T_LONGLONG, offsetof(AcceptorObject, promised_round),
     0, "The one promised round, for every instance."},
    {"accepted", T_OBJECT, offsetof(AcceptorObject, accepted), READONLY,
     "instance -> (round, value) of the last accepted proposal."},
    {"_forgotten", T_LONGLONG, offsetof(AcceptorObject, forgotten),
     READONLY, "Watermark: instances up to it were compacted."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject AcceptorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.paxos.acceptor.Acceptor",
    .tp_doc = "Acceptor(process_id)\n\n"
              "Promise/accept state machine of one process over a\n"
              "multi-instance log with ranged Phase 1.",
    .tp_basicsize = sizeof(AcceptorObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)acceptor_init,
    .tp_dealloc = (destructor)acceptor_dealloc,
    .tp_traverse = (traverseproc)acceptor_traverse,
    .tp_clear = (inquiry)acceptor_clear,
    .tp_methods = acceptor_methods,
    .tp_members = acceptor_members,
};

/* -- Learner ------------------------------------------------------------- */

static inline size_t
slot_home(const SlateTable *t, long long instance)
{
    return (size_t)(((uint64_t)instance * 0x9E3779B97F4A7C15ull) >> 32)
        & t->mask;
}

static Slate *
slate_find(const SlateTable *t, long long instance)
{
    if (t->slots == NULL) {
        return NULL;
    }
    for (size_t i = slot_home(t, instance);; i = (i + 1) & t->mask) {
        Slate *slate = t->slots[i];
        if (slate == NULL || slate->instance == instance) {
            return slate;
        }
    }
}

static int
table_grow(SlateTable *t)
{
    size_t capacity = t->slots == NULL ? 16 : (t->mask + 1) * 2;
    Slate **old = t->slots;
    size_t old_capacity = old == NULL ? 0 : t->mask + 1;
    Slate **slots = PyMem_Calloc(capacity, sizeof(Slate *));
    if (slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    t->slots = slots;
    t->mask = capacity - 1;
    for (size_t i = 0; i < old_capacity; i++) {
        if (old[i] != NULL) {
            size_t j = slot_home(t, old[i]->instance);
            while (slots[j] != NULL) {
                j = (j + 1) & t->mask;
            }
            slots[j] = old[i];
        }
    }
    PyMem_Free(old);
    return 0;
}

/* The slate of instance, created empty if there is none. */
static Slate *
slate_get(SlateTable *t, long long instance)
{
    Slate *slate = slate_find(t, instance);
    if (slate != NULL) {
        return slate;
    }
    if (((size_t)t->used + 1) * 2 > (t->slots == NULL ? 0 : t->mask + 1)
            && table_grow(t) < 0) {
        return NULL;
    }
    slate = PyMem_Calloc(1, sizeof(Slate));
    if (slate == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    slate->instance = instance;
    size_t i = slot_home(t, instance);
    while (t->slots[i] != NULL) {
        i = (i + 1) & t->mask;
    }
    t->slots[i] = slate;
    t->used++;
    return slate;
}

/* Unlink instance's slate from the table (backward-shift deletion) and
 * return it, or NULL when there is none. */
static Slate *
slate_take(SlateTable *t, long long instance)
{
    if (t->used == 0) {
        return NULL;
    }
    size_t i = slot_home(t, instance);
    while (t->slots[i] != NULL && t->slots[i]->instance != instance) {
        i = (i + 1) & t->mask;
    }
    Slate *slate = t->slots[i];
    if (slate == NULL) {
        return NULL;
    }
    t->slots[i] = NULL;
    for (size_t j = (i + 1) & t->mask; t->slots[j] != NULL;
            j = (j + 1) & t->mask) {
        size_t home = slot_home(t, t->slots[j]->instance);
        int stays = i <= j ? (i < home && home <= j) : (i < home || home <= j);
        if (!stays) {
            t->slots[i] = t->slots[j];
            t->slots[j] = NULL;
            i = j;
        }
    }
    t->used--;
    return slate;
}

/* Free an unlinked slate; its decrefs may run arbitrary code. A tally's
 * value id is NULL when its key is a bare round (a Raft term). */
static void
slate_free(Slate *slate)
{
    for (int i = 0; i < slate->ntallies; i++) {
        Py_XDECREF(slate->tallies[i].value_id);
    }
    for (int i = 0; i < slate->nknown; i++) {
        Py_DECREF(slate->known[i].value_id);
        Py_DECREF(slate->known[i].value);
    }
    PyObject *decided_id = slate->decided_id;
    PyMem_Free(slate->tallies);
    PyMem_Free(slate->bits);
    PyMem_Free(slate->known);
    PyMem_Free(slate);
    Py_XDECREF(decided_id);
}

static int
table_traverse(SlateTable *t, visitproc visit, void *arg)
{
    for (size_t i = 0; t->slots != NULL && i <= t->mask; i++) {
        Slate *slate = t->slots[i];
        if (slate == NULL) {
            continue;
        }
        Py_VISIT(slate->decided_id);
        for (int k = 0; k < slate->ntallies; k++) {
            Py_VISIT(slate->tallies[k].value_id);
        }
        for (int k = 0; k < slate->nknown; k++) {
            Py_VISIT(slate->known[k].value_id);
            Py_VISIT(slate->known[k].value);
        }
    }
    return 0;
}

/* Empty the table; the slates' decrefs run after it is consistent. */
static void
table_clear(SlateTable *t)
{
    Slate **slots = t->slots;
    size_t capacity = slots == NULL ? 0 : t->mask + 1;
    t->slots = NULL;
    t->mask = 0;
    t->used = 0;
    for (size_t i = 0; i < capacity; i++) {
        if (slots[i] != NULL) {
            slate_free(slots[i]);
        }
    }
    PyMem_Free(slots);
}

/* a == b for value ids (NULL equals only NULL): 1, 0, or -1 with an
 * exception set. The slates stay put during an __eq__: their owner sets
 * *busy and refuses to be re-entered. */
static int
same_id(char *busy, PyObject *a, PyObject *b)
{
    if (a == b) {
        return 1;
    }
    if (a == NULL || b == NULL) {
        return 0;
    }
    char was = *busy;
    *busy = 1;
    int equal = PyObject_RichCompareBool(a, b, Py_EQ);
    *busy = was;
    return equal;
}

static int
learner_enter(LearnerObject *self)
{
    if (self->busy) {
        PyErr_SetString(PyExc_RuntimeError,
                        "Learner re-entered from a value id's __eq__");
        return -1;
    }
    return self->decided == NULL ? cleared() : 0;
}

/* The known value of value_id: its index, -1 if unknown, -2 on error. */
static int
slate_known(LearnerObject *self, Slate *slate, PyObject *value_id)
{
    for (int i = 0; i < slate->nknown; i++) {
        int equal = same_id(&self->busy, slate->known[i].value_id, value_id);
        if (equal != 0) {
            return equal < 0 ? -2 : i;
        }
    }
    return -1;
}

/* values[value_id] = value: its index, or -1. The value it replaces, if
 * any, goes to *dropped for the caller to release last. */
static int
slate_know(LearnerObject *self, Slate *slate, PyObject *value_id,
           PyObject *value, PyObject **dropped)
{
    int i = slate_known(self, slate, value_id);
    if (i == -2) {
        return -1;
    }
    if (i >= 0) {
        *dropped = slate->known[i].value;
        slate->known[i].value = Py_NewRef(value);
        return i;
    }
    if (slate->nknown == slate->cap_known) {
        int capacity = slate->cap_known == 0 ? 1 : slate->cap_known * 2;
        Known *known = PyMem_Realloc(slate->known,
                                     (size_t)capacity * sizeof(Known));
        if (known == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        slate->known = known;
        slate->cap_known = capacity;
    }
    i = slate->nknown++;
    slate->known[i].value_id = Py_NewRef(value_id);
    slate->known[i].value = Py_NewRef(value);
    return i;
}

/* The voter row, words long, of (round, value_id), added if new; NULL
 * on error. */
static uint64_t *
slate_voters(Slate *slate, Py_ssize_t words, char *busy, long long round,
             PyObject *value_id)
{
    for (int i = 0; i < slate->ntallies; i++) {
        if (slate->tallies[i].round != round) {
            continue;
        }
        int equal = same_id(busy, slate->tallies[i].value_id, value_id);
        if (equal < 0) {
            return NULL;
        }
        if (equal) {
            return slate->bits + (Py_ssize_t)i * words;
        }
    }
    if (slate->ntallies == slate->cap_tallies) {
        int capacity = slate->cap_tallies == 0 ? 1 : slate->cap_tallies * 2;
        Tally *tallies = PyMem_Realloc(slate->tallies,
                                       (size_t)capacity * sizeof(Tally));
        if (tallies == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        slate->tallies = tallies;
        uint64_t *bits = PyMem_Realloc(
            slate->bits, (size_t)capacity * (size_t)words * sizeof(uint64_t));
        if (bits == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        slate->bits = bits;
        slate->cap_tallies = capacity;
    }
    int i = slate->ntallies++;
    slate->tallies[i].round = round;
    slate->tallies[i].value_id = Py_XNewRef(value_id);
    uint64_t *row = slate->bits + (Py_ssize_t)i * words;
    memset(row, 0, (size_t)words * sizeof(uint64_t));
    return row;
}

/* 1 if a message about instance is ignored: decided here or compacted. */
static int
learner_closed(LearnerObject *self, PyObject *instance, long long number)
{
    if (number <= self->forgotten) {
        return 1;
    }
    return PyDict_Contains(self->decided, instance);
}

/* Decide instance with its known value number k: recorded in decided,
 * counted, the slate dropped. 1 with the value in *decided, or -1. */
static int
learner_finalize(LearnerObject *self, PyObject *instance, Slate *slate,
                 int k, int by_majority, PyObject **decided)
{
    PyObject *value = Py_NewRef(slate->known[k].value);
    if (PyDict_SetItem(self->decided, instance, value) < 0) {
        Py_DECREF(value);
        return -1;
    }
    if (by_majority) {
        self->by_majority++;
    }
    else {
        self->by_message++;
    }
    slate_free(slate_take(&self->table, slate->instance));
    *decided = value;
    return 1;
}

/* The outcome of an op: 1 with the decided value (a new reference) in
 * *decided, 0 undecided, -1 with an exception set. */

/* A Phase 2b vote. */
static int
learner_vote(LearnerObject *self, PyObject *instance, long long round,
             PyObject *value_id, PyObject *sender, PyObject **decided)
{
    long long number;
    *decided = NULL;
    if (learner_enter(self) < 0) {
        return -1;
    }
    Py_ssize_t voter = PyLong_AsSsize_t(sender);
    if (voter == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (voter < 0 || voter >= self->n) {
        PyErr_Format(PyExc_ValueError, "Phase 2b sender must be a process "
                     "id in [0, %zd), got %R", self->n, sender);
        return -1;
    }
    if (as_ll(instance, &number) < 0) {
        return -1;
    }
    int closed = learner_closed(self, instance, number);
    if (closed != 0) {
        return closed < 0 ? -1 : 0;
    }
    Slate *slate = slate_get(&self->table, number);
    uint64_t *row = slate == NULL ? NULL
        : slate_voters(slate, self->words, &self->busy, round, value_id);
    if (row == NULL) {
        return -1;
    }
    row[voter >> 6] |= (uint64_t)1 << (voter & 63);
    if (slate->decided_id != NULL) {
        return 0;
    }
    Py_ssize_t count = 0;
    for (Py_ssize_t w = 0; w < self->words; w++) {
        count += __builtin_popcountll(row[w]);
    }
    if (count < self->majority) {
        return 0;
    }
    slate->decided_id = Py_NewRef(value_id);
    PyObject *on_quorum = set_or_null(self->on_quorum);
    if (on_quorum != NULL) {
        Py_INCREF(on_quorum);
        PyObject *argv[] = {instance, value_id};
        PyObject *res = PyObject_Vectorcall(on_quorum, argv, 2, NULL);
        Py_DECREF(on_quorum);
        if (observed(res) < 0) {
            return -1;
        }
        slate = slate_find(&self->table, number);
        if (slate == NULL) {
            return 0;
        }
    }
    int k = slate_known(self, slate, value_id);
    if (k == -2) {
        return -1;
    }
    return k < 0 ? 0 : learner_finalize(self, instance, slate, k, 1, decided);
}

/* The content of value (with id value_id) for instance: a Phase 2a
 * (decide == 0), which may complete a pending majority, or a Decision
 * (decide == 1), which decides. */
static int
learner_learn(LearnerObject *self, PyObject *instance, PyObject *value,
              PyObject *value_id, int decide, PyObject **decided)
{
    long long number;
    *decided = NULL;
    if (learner_enter(self) < 0 || as_ll(instance, &number) < 0) {
        return -1;
    }
    int closed = learner_closed(self, instance, number);
    if (closed != 0) {
        return closed < 0 ? -1 : 0;
    }
    PyObject *dropped = NULL;
    int outcome = -1;
    Slate *slate = slate_get(&self->table, number);
    int k = slate == NULL ? -1 : slate_know(self, slate, value_id, value,
                                            &dropped);
    if (k >= 0 && decide) {
        Py_INCREF(value_id);
        Py_XSETREF(slate->decided_id, value_id);
        outcome = learner_finalize(self, instance, slate, k, 0, decided);
    }
    else if (k >= 0) {
        int equal = slate->decided_id == NULL
            ? 0 : same_id(&self->busy, slate->decided_id, value_id);
        outcome = equal <= 0 ? equal
            : learner_finalize(self, instance, slate, k, 1, decided);
    }
    Py_XDECREF(dropped);
    return outcome;
}

static int
learner_forget(LearnerObject *self, long long instance)
{
    if (instance <= self->forgotten) {
        return 0;
    }
    for (long long i = self->forgotten + 1;
            i <= instance && self->table.used > 0; i++) {
        Slate *slate = slate_take(&self->table, i);
        if (slate != NULL) {
            slate_free(slate);
        }
    }
    self->forgotten = instance;
    return 0;
}

static int
learner_init(LearnerObject *self, PyObject *args, PyObject *kwds)
{
    Py_ssize_t n;
    static char *kwlist[] = {"n", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "n:Learner", kwlist, &n)) {
        return -1;
    }
    if (n < 0) {
        PyErr_Format(PyExc_ValueError, "n must be >= 0, got %zd", n);
        return -1;
    }
    if (self->decided != NULL) {
        PyErr_SetString(PyExc_RuntimeError, "Learner is already initialised");
        return -1;
    }
    self->decided = PyDict_New();
    if (self->decided == NULL) {
        return -1;
    }
    self->n = n;
    self->majority = n / 2 + 1;
    self->words = n == 0 ? 1 : (n + 63) / 64;
    return 0;
}

/* (instance, value) for a decision, None otherwise. */
static PyObject *
decided_pair(int outcome, PyObject *instance, PyObject *value)
{
    if (outcome < 0) {
        return NULL;
    }
    if (outcome == 0) {
        Py_RETURN_NONE;
    }
    PyObject *pair = PyTuple_Pack(2, instance, value);
    Py_DECREF(value);
    return pair;
}

static PyObject *
learner_on_phase2b(LearnerObject *self, PyObject *msg)
{
    long long round;
    PyObject *value = NULL, *sender = NULL, *value_id = NULL;
    PyObject *instance = field(msg, K_PHASE2B, F_INSTANCE), *result = NULL;
    if (instance != NULL && field_ll(msg, K_PHASE2B, F_ROUND, &round) == 0
            && (value_id = field(msg, K_PHASE2B, F_VALUE_ID)) != NULL
            && (sender = field(msg, K_PHASE2B, F_SENDER)) != NULL) {
        int outcome = learner_vote(self, instance, round, value_id, sender,
                                   &value);
        result = decided_pair(outcome, instance, value);
    }
    Py_XDECREF(sender);
    Py_XDECREF(value_id);
    Py_XDECREF(instance);
    return result;
}

static PyObject *
learner_on_content(LearnerObject *self, PyObject *msg, int kind, int decide)
{
    PyObject *value = NULL, *value_id = NULL, *decided = NULL;
    PyObject *instance = field(msg, kind, F_INSTANCE), *result = NULL;
    if (instance != NULL && (value = field(msg, kind, F_VALUE)) != NULL
            && (value_id = field(value, K_VALUE, F_VALUE_ID)) != NULL) {
        int outcome = learner_learn(self, instance, value, value_id, decide,
                                    &decided);
        result = decided_pair(outcome, instance, decided);
    }
    Py_XDECREF(value_id);
    Py_XDECREF(value);
    Py_XDECREF(instance);
    return result;
}

static PyObject *
learner_on_phase2a(LearnerObject *self, PyObject *msg)
{
    return learner_on_content(self, msg, K_PHASE2A, 0);
}

static PyObject *
learner_on_decision(LearnerObject *self, PyObject *msg)
{
    return learner_on_content(self, msg, K_DECISION, 1);
}

static PyObject *
learner_is_decided(LearnerObject *self, PyObject *instance)
{
    if (learner_enter(self) < 0) {
        return NULL;
    }
    int found = PyDict_Contains(self->decided, instance);
    return found < 0 ? NULL : PyBool_FromLong(found);
}

static PyObject *
learner_forget_up_to(LearnerObject *self, PyObject *arg)
{
    long long instance;
    if (learner_enter(self) < 0 || as_ll(arg, &instance) < 0
            || learner_forget(self, instance) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static int
learner_traverse(LearnerObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->decided);
    Py_VISIT(self->on_quorum);
    return table_traverse(&self->table, visit, arg);
}

static int
learner_clear(LearnerObject *self)
{
    table_clear(&self->table);
    Py_CLEAR(self->decided);
    Py_CLEAR(self->on_quorum);
    return 0;
}

static void
learner_dealloc(LearnerObject *self)
{
    PyObject_GC_UnTrack(self);
    learner_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef learner_methods[] = {
    {"on_phase2a", (PyCFunction)learner_on_phase2a, METH_O,
     "on_phase2a(msg) -> (instance, value) or None\n\n"
     "Record the value content; it may complete a pending majority."},
    {"on_phase2b", (PyCFunction)learner_on_phase2b, METH_O,
     "on_phase2b(msg) -> (instance, value) or None\n\n"
     "Count a vote. The sender must be a process id in [0, n). A majority\n"
     "for a value whose content has not arrived is held pending."},
    {"on_decision", (PyCFunction)learner_on_decision, METH_O,
     "on_decision(msg) -> (instance, value) or None: a Decision decides."},
    {"is_decided", (PyCFunction)learner_is_decided, METH_O,
     "is_decided(instance) -> bool"},
    {"forget_up_to", (PyCFunction)learner_forget_up_to, METH_O,
     "forget_up_to(instance): drop the vote state of the instances after\n"
     "the previous watermark, up to instance; later messages about them\n"
     "are ignored."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef learner_members[] = {
    {"n", T_PYSSIZET, offsetof(LearnerObject, n), READONLY, NULL},
    {"majority", T_PYSSIZET, offsetof(LearnerObject, majority), READONLY,
     NULL},
    {"decided", T_OBJECT, offsetof(LearnerObject, decided), READONLY,
     "instance -> Value, every decision this process learned."},
    {"decided_by_majority", T_LONGLONG,
     offsetof(LearnerObject, by_majority), 0,
     "Decisions learned from a majority of Phase 2b votes."},
    {"decided_by_message", T_LONGLONG, offsetof(LearnerObject, by_message),
     0, "Decisions learned from a Decision message."},
    {"on_quorum", T_OBJECT, offsetof(LearnerObject, on_quorum), 0,
     "on_quorum(instance, value_id), called when a Phase 2b majority\n"
     "first forms here (repro.obs); None when unset."},
    {"_forgotten", T_LONGLONG, offsetof(LearnerObject, forgotten), READONLY,
     "Watermark: messages about instances up to it are ignored."},
    {"_undecided", T_PYSSIZET, offsetof(LearnerObject, table.used), READONLY,
     "Instances holding vote or value state."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject LearnerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.paxos.learner.Learner",
    .tp_doc = "Learner(n)\n\n"
              "Per-process decision tracker across all instances. Each\n"
              "undecided instance keeps its (round, value id, voter bitset)\n"
              "tallies and the value contents that arrived.",
    .tp_basicsize = sizeof(LearnerObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)learner_init,
    .tp_dealloc = (destructor)learner_dealloc,
    .tp_traverse = (traverseproc)learner_traverse,
    .tp_clear = (inquiry)learner_clear,
    .tp_methods = learner_methods,
    .tp_members = learner_members,
};
