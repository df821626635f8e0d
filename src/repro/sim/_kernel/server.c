/* The FIFO server, after the helpers every hop type shares (the
 * queue's clock, the field checks, the ring buffer).
 *
 * Backs repro.sim.server (FifoServer). Reference models:
 * tests/reference/fifo.py (the Python type it replaced) and
 * tests/reference/server.py (the event-per-job server before it).
 * Lockstep: tests/properties/test_hop_lockstep.py. Leak gate: every
 * case of tests/sim/test_leak_gate.py (each node's CPU is one).
 */

/* -- shared helpers for the hop types ------------------------------------ */

static int
cleared(void)
{
    PyErr_SetString(PyExc_RuntimeError,
                    "object was cleared by the garbage collector");
    return -1;
}

static inline int
as_double(PyObject *obj, double *value)
{
    *value = PyFloat_CheckExact(obj) ? PyFloat_AS_DOUBLE(obj)
                                     : PyFloat_AsDouble(obj);
    return *value == -1.0 && PyErr_Occurred() ? -1 : 0;
}

/* The clock of a type's queue (NULL: cleared by the garbage collector).
 * 0, or -1 with an exception set. */
static inline int
queue_now(QueueObject *queue, double *now)
{
    if (queue == NULL) {
        return cleared();
    }
    *now = queue->now;
    return 0;
}

/* A ValueError naming the field and the rule value broke; returns -1. */
static int
reject(const char *field, const char *rule, double value)
{
    PyObject *obj = PyFloat_FromDouble(value);
    if (obj != NULL) {
        PyErr_Format(PyExc_ValueError, "%s must be %s, got %R",
                     field, rule, obj);
        Py_DECREF(obj);
    }
    return -1;
}

#define A_TIME "a finite, non-negative time in seconds"

/* check_service_time's rule, in C. */
static inline int
check_time(const char *field, double value)
{
    return value >= 0.0 && value < Py_HUGE_VAL ? 0 : reject(field, A_TIME,
                                                            value);
}

/* The simulator's queue, which the types push into directly. */
static QueueObject *
sim_queue(PyObject *sim, const char *owner)
{
    PyObject *queue = PyObject_GetAttr(sim, str_queue);
    if (queue == NULL) {
        return NULL;
    }
    if (!Py_IS_TYPE(queue, &QueueType)) {
        PyErr_Format(PyExc_TypeError,
                     "%s needs a repro.sim.Simulator, whose _queue is an "
                     "EventQueue, not %.100s", owner, Py_TYPE(queue)->tp_name);
        Py_DECREF(queue);
        return NULL;
    }
    return (QueueObject *)queue;
}

static inline void *
ring_at(const Ring *r, Py_ssize_t i, size_t size)
{
    Py_ssize_t pos = r->head + i;
    if (pos >= r->cap) {
        pos -= r->cap;
    }
    return r->buf + pos * size;
}

static int
ring_grow(Ring *r, size_t size)
{
    Py_ssize_t cap = r->cap + (r->cap >> 3) + 16;
    if ((size_t)cap > PY_SSIZE_T_MAX / size) {
        PyErr_NoMemory();
        return -1;
    }
    char *buf = PyMem_Realloc(r->buf, cap * size);
    if (buf == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    /* Wrapped around: the items from head to the old end move to the
     * end of the new space. */
    Py_ssize_t upper = r->cap - r->head;
    if (r->len > upper) {
        memmove(buf + (cap - upper) * size, buf + r->head * size,
                upper * size);
        r->head = cap - upper;
    }
    r->buf = buf;
    r->cap = cap;
    return 0;
}

static inline int
ring_push(Ring *r, const void *item, size_t size)
{
    if (r->len == r->cap && ring_grow(r, size) < 0) {
        return -1;
    }
    memcpy(ring_at(r, r->len, size), item, size);
    r->len++;
    return 0;
}

/* Remove the oldest item; the pointer is valid until the next push. */
static inline void *
ring_pop(Ring *r, size_t size)
{
    void *item = r->buf + r->head * size;
    if (++r->head == r->cap) {
        r->head = 0;
    }
    r->len--;
    return item;
}

static void
ring_free(Ring *r)
{
    PyMem_Free(r->buf);
    r->buf = NULL;
    r->head = r->len = r->cap = 0;
}

/* -- FifoServer ---------------------------------------------------------- */

/* Charge, in FIFO order, every waiting job started by now. */
static void
server_charge_started(ServerObject *s, double now)
{
    while (s->waiting.len > 0 && s->wait_start <= now) {
        double service = *(double *)ring_pop(&s->waiting, sizeof(double));
        s->busy_time += service;
        s->wait_start += service;
    }
}

/* Accept a job: its completion, or -1.0 with an exception set. Right
 * after every accept, waiting holds exactly the jobs not yet started. */
static double
server_accept(ServerObject *s, double service)
{
    double now;
    if (check_time("FifoServer service_time", service) < 0) {
        return -1.0;
    }
    if (queue_now(s->queue, &now) < 0) {
        return -1.0;
    }
    if (s->slowdown != 1.0) {
        service = service * s->slowdown;
    }
    double busy_until = s->busy_until;
    int idle = busy_until <= now;
    double completion = (idle ? now : busy_until) + service;
    if (!(completion < Py_HUGE_VAL)) {
        reject("FifoServer completion", "finite", completion);
        return -1.0;
    }
    Ring *waiting = &s->waiting;
    if (idle) {
        /* Charge every waiting job, then the new one, which starts. */
        if (waiting->len > 0) {
            while (waiting->len > 0) {
                s->busy_time += *(double *)ring_pop(waiting, sizeof(double));
            }
            ring_free(waiting);
        }
        s->busy_time += service;
    }
    else {
        if (waiting->len == 0) {
            s->wait_start = busy_until;
        }
        else if (s->wait_start <= now) {
            server_charge_started(s, now);
        }
        if (ring_push(waiting, &service, sizeof service) < 0) {
            return -1.0;
        }
    }
    s->busy_until = completion;
    return completion;
}

static PyObject *
server_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *sim;
    static char *kwlist[] = {"sim", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:FifoServer", kwlist,
                                     &sim)) {
        return NULL;
    }
    QueueObject *queue = sim_queue(sim, "FifoServer");
    if (queue == NULL) {
        return NULL;
    }
    ServerObject *s = (ServerObject *)type->tp_alloc(type, 0);
    if (s == NULL) {
        Py_DECREF(queue);
        return NULL;
    }
    s->sim = Py_NewRef(sim);
    s->queue = queue;
    s->slowdown = 1.0;
    return (PyObject *)s;
}

static PyObject *
server_submit_timed(ServerObject *s, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs < 2) {
        PyErr_Format(PyExc_TypeError, "submit_timed() takes at least 2 "
                     "arguments (%zd given)", nargs);
        return NULL;
    }
    double service;
    if (as_double(argv[0], &service) < 0) {
        return NULL;
    }
    double completion = server_accept(s, service);
    if (completion == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    PyObject *fn = argv[1];
    if (fn != Py_None) {
        Py_ssize_t n = nargs - 2;
        PyObject *args = n == 0 ? Py_NewRef(empty_tuple) : PyTuple_New(n);
        if (args == NULL) {
            return NULL;
        }
        for (Py_ssize_t i = 0; i < n; i++) {
            PyTuple_SET_ITEM(args, i, Py_NewRef(argv[2 + i]));
        }
        long long seq = heap_push_bare(s->queue, completion, fn, args);
        Py_DECREF(args);
        if (seq < 0) {
            return NULL;
        }
    }
    return PyFloat_FromDouble(completion);
}

static PyObject *
server_submit_acct(ServerObject *s, PyObject *service_obj)
{
    double service;
    if (as_double(service_obj, &service) < 0) {
        return NULL;
    }
    double completion = server_accept(s, service);
    if (completion == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    return PyFloat_FromDouble(completion);
}

/* busy_time, charged up to the clock: 0, or -1 with an exception set. */
static int
server_busy_time(ServerObject *s, double *busy_time)
{
    double now;
    if (queue_now(s->queue, &now) < 0) {
        return -1;
    }
    server_charge_started(s, now);
    *busy_time = s->busy_time;
    return 0;
}

static PyObject *
server_utilization(ServerObject *s, PyObject *elapsed_obj)
{
    double elapsed, busy_time;
    if (as_double(elapsed_obj, &elapsed) < 0) {
        return NULL;
    }
    if (elapsed <= 0) {
        return PyFloat_FromDouble(0.0);
    }
    if (server_busy_time(s, &busy_time) < 0) {
        return NULL;
    }
    double share = busy_time / elapsed;
    return PyFloat_FromDouble(share < 1.0 ? share : 1.0);
}

static PyObject *
server_get_busy_time(ServerObject *s, void *Py_UNUSED(closure))
{
    double busy_time;
    if (server_busy_time(s, &busy_time) < 0) {
        return NULL;
    }
    return PyFloat_FromDouble(busy_time);
}

static PyObject *
server_get_queue_length(ServerObject *s, void *Py_UNUSED(closure))
{
    double now;
    if (queue_now(s->queue, &now) < 0) {
        return NULL;
    }
    server_charge_started(s, now);
    return PyLong_FromSsize_t(s->waiting.len);
}

static PyObject *
server_get_busy(ServerObject *s, void *Py_UNUSED(closure))
{
    double now;
    if (queue_now(s->queue, &now) < 0) {
        return NULL;
    }
    return PyBool_FromLong(s->busy_until > now);
}

static PyObject *
server_get_slowdown(ServerObject *s, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(s->slowdown);
}

static int
server_set_slowdown(ServerObject *s, PyObject *value,
                    void *Py_UNUSED(closure))
{
    double slowdown;
    if (value == NULL) {
        PyErr_SetString(PyExc_TypeError, "cannot delete slowdown");
        return -1;
    }
    if (as_double(value, &slowdown) < 0) {
        return -1;
    }
    if (!(slowdown > 0.0 && slowdown < Py_HUGE_VAL)) {
        return reject("FifoServer.slowdown", "a finite factor > 0", slowdown);
    }
    s->slowdown = slowdown;
    return 0;
}

static int
server_traverse(ServerObject *s, visitproc visit, void *arg)
{
    Py_VISIT(s->sim);
    Py_VISIT(s->queue);
    return 0;
}

static int
server_clear(ServerObject *s)
{
    Py_CLEAR(s->sim);
    Py_CLEAR(s->queue);
    return 0;
}

static void
server_dealloc(ServerObject *s)
{
    PyObject_GC_UnTrack(s);
    server_clear(s);
    ring_free(&s->waiting);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyMethodDef server_methods[] = {
    {"submit_timed", (PyCFunction)(void (*)(void))server_submit_timed,
     METH_FASTCALL,
     "submit_timed(service_time, fn, *args) -> completion\n\n"
     "Enqueue a job taking service_time whose effect is fn(*args) at its\n"
     "completion (one kernel event); with fn=None the job only occupies\n"
     "the server, and a caller can schedule its own event at the\n"
     "returned time."},
    {"submit_acct", (PyCFunction)server_submit_acct, METH_O,
     "submit_acct(service_time) -> completion: submit_timed with\n"
     "fn=None, for the receive path's per-message charge."},
    {"utilization", (PyCFunction)server_utilization, METH_O,
     "utilization(elapsed): the fraction of elapsed the server was busy."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef server_members[] = {
    {"sim", T_OBJECT, offsetof(ServerObject, sim), READONLY, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef server_getset[] = {
    {"busy_time", (getter)server_get_busy_time, NULL,
     "Seconds of service of every job started so far.", NULL},
    {"queue_length", (getter)server_get_queue_length, NULL,
     "Jobs waiting to start (excludes the in-service job).", NULL},
    {"busy", (getter)server_get_busy, NULL,
     "Whether an accepted job is still in service.", NULL},
    {"slowdown", (getter)server_get_slowdown, (setter)server_set_slowdown,
     "Gray-failure service multiplier (finite, > 0), fixed per job at "
     "submission.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject ServerType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.server.FifoServer",
    .tp_doc = "FifoServer(sim): single-server FIFO queue over the "
              "simulator, in virtual time.",
    .tp_basicsize = sizeof(ServerObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = server_new,
    .tp_dealloc = (destructor)server_dealloc,
    .tp_traverse = (traverseproc)server_traverse,
    .tp_clear = (inquiry)server_clear,
    .tp_methods = server_methods,
    .tp_members = server_members,
    .tp_getset = server_getset,
};
