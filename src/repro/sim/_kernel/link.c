/* The link: LinkStats, ReceiverLossInjector and DirectedLink.
 *
 * Backs repro.net.channel (DirectedLink, LinkStats) and
 * repro.net.faults.loss (ReceiverLossInjector). Reference models:
 * tests/reference/link.py and tests/reference/loss.py. Lockstep:
 * tests/properties/test_hop_lockstep.py (the link) and
 * tests/properties/test_receive_lockstep.py (the loss injector). Leak
 * gate: link_faults and degrade_jitter, fig6_loss and push_pull_loss
 * (the loss injector), and
 * test_an_arrival_releases_what_its_callbacks_return.
 */

/* -- LinkStats ----------------------------------------------------------- */

static PyMemberDef stats_members[] = {
    {"sent", T_LONGLONG, offsetof(StatsObject, sent), 0,
     "Messages whose serialisation has completed."},
    {"dropped_queue", T_LONGLONG, offsetof(StatsObject, dropped_queue), 0,
     "Messages refused by a full transmit queue."},
    {"dropped_loss", T_LONGLONG, offsetof(StatsObject, dropped_loss), 0,
     "Arrivals the loss hook dropped."},
    {"delivered", T_LONGLONG, offsetof(StatsObject, delivered), 0,
     "Arrivals handed to the receiver."},
    {"bytes_sent", T_LONGLONG, offsetof(StatsObject, bytes_sent), 0,
     "Bytes of the sent messages."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject StatsType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net.channel.LinkStats",
    .tp_doc = "Per-link counters.",
    .tp_basicsize = sizeof(StatsObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_members = stats_members,
};

/* -- ReceiverLossInjector ------------------------------------------------ */

/* The paper's receiver-side loss (section 4.5): the loss_hook of every
 * link of a lossy run. A message arriving at dst is dropped with dst's
 * rate (its per_process entry, else rate), decided by one random() of
 * the simulator's named stream, the same object and call as the Python
 * it replaced (tests/reference/loss.py). A link calls it directly;
 * any other caller goes through __call__. */
typedef struct {
    PyObject_HEAD
    double rate;
    PyObject *per_process;  /* dict dst -> float rate, or NULL: none */
    PyObject *rng;
    PyObject *draw;         /* rng.random, bound once */
    long long examined;
    long long dropped;
} LossObject;

/* A copy of per_process with every rate a float in [0, 1]; NULL with
 * ValueError naming the process otherwise. */
static PyObject *
loss_rates(PyObject *per_process)
{
    PyObject *given = PyObject_CallOneArg((PyObject *)&PyDict_Type,
                                          per_process);
    PyObject *rates = given == NULL ? NULL : PyDict_New();
    PyObject *pid, *value;
    Py_ssize_t pos = 0;
    while (rates != NULL && PyDict_Next(given, &pos, &pid, &value)) {
        double rate = PyFloat_AsDouble(value);
        PyObject *as_float = NULL;
        if (rate == -1.0 && PyErr_Occurred()) {
            Py_CLEAR(rates);
        }
        else if (!(0.0 <= rate && rate <= 1.0)) {
            PyErr_Format(PyExc_ValueError, "loss rate of process %R must "
                         "be within [0, 1], got %R", pid, value);
            Py_CLEAR(rates);
        }
        else if ((as_float = PyFloat_FromDouble(rate)) == NULL
                 || PyDict_SetItem(rates, pid, as_float) < 0) {
            Py_CLEAR(rates);
        }
        Py_XDECREF(as_float);
    }
    Py_XDECREF(given);
    return rates;
}

static int
loss_init(LossObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *per_process = Py_None, *stream = NULL;
    double rate = 0.0;
    static char *kwlist[] = {"sim", "rate", "per_process", "stream", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O|dOO:ReceiverLossInjector",
                                     kwlist, &sim, &rate, &per_process,
                                     &stream)) {
        return -1;
    }
    if (!(0.0 <= rate && rate <= 1.0)) {
        PyErr_SetString(PyExc_ValueError, "loss rate must be within [0, 1]");
        return -1;
    }
    PyObject *rates = NULL;
    int given = per_process == Py_None ? 0 : PyObject_IsTrue(per_process);
    if (given < 0 || (given && (rates = loss_rates(per_process)) == NULL)) {
        return -1;
    }
    if (rates != NULL && PyDict_GET_SIZE(rates) == 0) {
        Py_CLEAR(rates);
    }
    PyObject *name = stream != NULL ? Py_NewRef(stream)
                                    : PyUnicode_FromString("faults");
    PyObject *rng = name == NULL ? NULL
        : PyObject_CallMethodOneArg(sim, str_rng, name);
    Py_XDECREF(name);
    PyObject *draw = rng == NULL ? NULL : PyObject_GetAttr(rng, str_random);
    if (draw == NULL) {
        Py_XDECREF(rng);
        Py_XDECREF(rates);
        return -1;
    }
    self->rate = rate;
    Py_XSETREF(self->per_process, rates);
    Py_XSETREF(self->rng, rng);
    Py_XSETREF(self->draw, draw);
    self->examined = self->dropped = 0;
    return 0;
}

/* 1 if the message arriving at dst is lost, 0 if not, -1 on error. */
static int
loss_drops(LossObject *self, PyObject *dst)
{
    self->examined++;
    double rate = self->rate;
    if (self->per_process != NULL) {
        PyObject *own = PyDict_GetItemWithError(self->per_process, dst);
        if (own != NULL) {
            rate = PyFloat_AS_DOUBLE(own);
        }
        else if (PyErr_Occurred()) {
            return -1;
        }
    }
    if (rate <= 0.0) {
        return 0;
    }
    if (self->draw == NULL) {
        return cleared();
    }
    PyObject *draw = Py_NewRef(self->draw);
    PyObject *res = PyObject_Vectorcall(draw, NULL, 0, NULL);
    Py_DECREF(draw);
    if (res == NULL) {
        return -1;
    }
    double x = PyFloat_AsDouble(res);
    Py_DECREF(res);
    if (x == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    if (x < rate) {
        self->dropped++;
        return 1;
    }
    return 0;
}

static PyObject *
loss_call(LossObject *self, PyObject *args, PyObject *kwds)
{
    PyObject *dst;
    static char *kwlist[] = {"dst", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "O:ReceiverLossInjector",
                                     kwlist, &dst)) {
        return NULL;
    }
    int lost = loss_drops(self, dst);
    return lost < 0 ? NULL : PyBool_FromLong(lost);
}

static PyObject *
loss_get_per_process(LossObject *self, void *Py_UNUSED(closure))
{
    return self->per_process != NULL ? PyDict_Copy(self->per_process)
                                     : PyDict_New();
}

static int
loss_traverse(LossObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->per_process);
    Py_VISIT(self->rng);
    Py_VISIT(self->draw);
    return 0;
}

static int
loss_clear(LossObject *self)
{
    Py_CLEAR(self->per_process);
    Py_CLEAR(self->rng);
    Py_CLEAR(self->draw);
    return 0;
}

static void
loss_dealloc(LossObject *self)
{
    PyObject_GC_UnTrack(self);
    loss_clear(self);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMemberDef loss_members[] = {
    {"rate", T_DOUBLE, offsetof(LossObject, rate), READONLY,
     "Drop probability of a receiver without a per_process entry."},
    {"examined", T_LONGLONG, offsetof(LossObject, examined), 0,
     "Arrivals judged."},
    {"dropped", T_LONGLONG, offsetof(LossObject, dropped), 0,
     "Arrivals dropped."},
    {"_rng", T_OBJECT, offsetof(LossObject, rng), READONLY,
     "The named stream the draws come from."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef loss_getset[] = {
    {"per_process", (getter)loss_get_per_process, NULL,
     "A copy of the per-receiver rates.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject LossType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net.faults.loss.ReceiverLossInjector",
    .tp_doc = "ReceiverLossInjector(sim, rate=0.0, per_process=None, "
              "stream='faults')\n\n"
              "Drops arriving messages with a fixed probability per "
              "receiver:\ncalled as hook(dst) -> bool. Every rate must be "
              "within [0, 1].",
    .tp_basicsize = sizeof(LossObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)loss_init,
    .tp_call = (ternaryfunc)loss_call,
    .tp_dealloc = (destructor)loss_dealloc,
    .tp_traverse = (traverseproc)loss_traverse,
    .tp_clear = (inquiry)loss_clear,
    .tp_members = loss_members,
    .tp_getset = loss_getset,
};

/* -- DirectedLink -------------------------------------------------------- */

/* A message committed behind a busy wire and not yet counted as sent. */
typedef struct {
    double completion;
    long long size;
    PyObject *payload;
    long long seq;          /* its arrival's bare entry */
} Record;

static int
attr_double(PyObject *obj, PyObject *name, double *value)
{
    PyObject *attr = PyObject_GetAttr(obj, name);
    if (attr == NULL) {
        return -1;
    }
    int failed = as_double(attr, value);
    Py_DECREF(attr);
    return failed;
}

/* Take config's cost model and queue bound, checked as LinkConfig
 * checks them: the hop's arithmetic relies on them. */
static int
link_set_config(LinkObject *l, PyObject *config)
{
    double per_message, per_byte, jitter, capacity = Py_HUGE_VAL;
    if (attr_double(config, str_per_message_s, &per_message) < 0
            || check_time("LinkConfig.per_message_s", per_message) < 0
            || attr_double(config, str_per_byte_s, &per_byte) < 0
            || check_time("LinkConfig.per_byte_s", per_byte) < 0
            || attr_double(config, str_jitter_s, &jitter) < 0
            || check_time("LinkConfig.jitter_s", jitter) < 0) {
        return -1;
    }
    PyObject *bound = PyObject_GetAttr(config, str_queue_capacity);
    if (bound == NULL) {
        return -1;
    }
    int bounded = bound != Py_None;
    int failed = bounded && as_double(bound, &capacity) < 0;
    Py_DECREF(bound);
    if (failed) {
        return -1;
    }
    if (!(capacity >= 0.0)) {
        return reject("LinkConfig.queue_capacity", "None or >= 0", capacity);
    }
    l->per_message_s = per_message;
    l->per_byte_s = per_byte;
    l->jitter_s = jitter;
    l->capacity = capacity;
    l->bounded = bounded;
    Py_INCREF(config);
    Py_XSETREF(l->config, config);
    return 0;
}

/* Count the slot message as sent and empty the slot. */
static void
link_retire_slot(LinkObject *l)
{
    PyObject *payload = l->payload;
    l->payload = NULL;
    l->stats->sent++;
    l->stats->bytes_sent += l->size;
    Py_DECREF(payload);
}

/* Count the oldest record as sent and drop it. */
static void
link_retire_record(LinkObject *l)
{
    Record *record = ring_pop(&l->records, sizeof(Record));
    PyObject *payload = record->payload;
    l->stats->sent++;
    l->stats->bytes_sent += record->size;
    Py_DECREF(payload);
}

/* Count the messages serialised by now; the number still serialising
 * or queued. */
static Py_ssize_t
link_drain_sent(LinkObject *l, double now)
{
    Py_ssize_t pending = 0;
    if (l->payload != NULL) {
        if (l->done > now) {
            pending = 1;    /* and nothing behind it has completed */
        }
        else {
            link_retire_slot(l);
        }
    }
    while (l->records.len > 0
           && ((Record *)ring_at(&l->records, 0, sizeof(Record)))->completion
              <= now) {
        link_retire_record(l);
    }
    return pending + l->records.len;
}

/* One uniform(0, jitter_s) draw from the link's jitter stream. */
static int
link_draw(LinkObject *l, double *draw)
{
    PyObject *width = PyFloat_FromDouble(l->jitter_s);
    if (width == NULL) {
        return -1;
    }
    PyObject *argv[3] = {l->jitter_rng, float_zero, width};
    PyObject *res = PyObject_VectorcallMethod(str_uniform, argv, 3, NULL);
    Py_DECREF(width);
    if (res == NULL) {
        return -1;
    }
    int failed = as_double(res, draw);
    Py_DECREF(res);
    return failed;
}

/* Push the arrival of a message serialising at completion under the
 * current propagation parameters: its seq, or -1 with an exception. */
static long long
link_push_arrival(LinkObject *l, double completion, PyObject *args)
{
    double delay = l->latency_s;
    if (l->jitter_rng != NULL) {
        double draw;
        if (link_draw(l, &draw) < 0) {
            return -1;
        }
        delay += draw;
    }
    return heap_push_bare(l->queue, completion + delay, l->arrive_cb, args);
}

/* An instant a message is handed over at: None is now; otherwise finite
 * and not before now. */
static int
link_at(PyObject *obj, double now, double *at)
{
    if (obj == Py_None) {
        *at = now;
        return 0;
    }
    if (as_double(obj, at) < 0) {
        return -1;
    }
    if (!(*at >= now && *at < Py_HUGE_VAL)) {
        return reject("DirectedLink at", "finite and not before now", *at);
    }
    return 0;
}

/* Serialise payload from at (>= now), after the committed work, and push
 * the one event of its hop: the completion, or -1.0 with an exception. */
static double
link_commit_at(LinkObject *l, PyObject *payload, PyObject *args, double at,
               double now)
{
    PyObject *size_obj = PyObject_GetAttr(payload, str_size_bytes);
    if (size_obj == NULL) {
        return -1.0;
    }
    long long size = PyLong_AsLongLong(size_obj);
    Py_DECREF(size_obj);
    if (size < 0) {
        if (!PyErr_Occurred()) {
            PyErr_Format(PyExc_ValueError,
                         "payload.size_bytes must be >= 0, got %lld", size);
        }
        return -1.0;
    }
    double service = l->per_message_s + size * l->per_byte_s;
    double busy_until = l->busy_until;
    double completion = (busy_until <= at ? at : busy_until) + service;
    long long seq = link_push_arrival(l, completion, args);
    if (seq < 0) {
        return -1.0;
    }
    l->busy_until = completion;
    /* Retiring before every append keeps the records O(in-flight). */
    link_drain_sent(l, now);
    if (busy_until <= now) {
        /* Everything committed before has serialised and been counted:
         * free the records' buffer, keep the new message in the slot. */
        ring_free(&l->records);
        l->done = completion;
        l->size = size;
        l->payload = Py_NewRef(payload);
        l->seq = seq;
        return completion;
    }
    Record record = {completion, size, payload, seq};
    if (ring_push(&l->records, &record, sizeof record) < 0) {
        return -1.0;
    }
    Py_INCREF(payload);
    return completion;
}

static PyObject *
link_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *sim, *src, *dst, *config, *deliver, *loss_hook = Py_None;
    double latency_s;
    static char *kwlist[] = {"sim", "src", "dst", "latency_s", "config",
                             "deliver", "loss_hook", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "OOOdOO|O:DirectedLink",
                                     kwlist, &sim, &src, &dst, &latency_s,
                                     &config, &deliver, &loss_hook)) {
        return NULL;
    }
    if (check_time("DirectedLink latency_s", latency_s) < 0) {
        return NULL;
    }
    QueueObject *queue = sim_queue(sim, "DirectedLink");
    if (queue == NULL) {
        return NULL;
    }
    LinkObject *l = (LinkObject *)type->tp_alloc(type, 0);
    if (l == NULL) {
        Py_DECREF(queue);
        return NULL;
    }
    l->sim = Py_NewRef(sim);
    l->queue = queue;
    l->src = Py_NewRef(src);
    l->dst = Py_NewRef(dst);
    l->latency_s = l->base_latency_s = latency_s;
    l->deliver = Py_NewRef(deliver);
    l->loss_hook = loss_hook == Py_None ? NULL : Py_NewRef(loss_hook);
    l->stats = (StatsObject *)PyType_GenericNew(&StatsType, NULL, NULL);
    if (l->stats == NULL || link_set_config(l, config) < 0) {
        goto error;
    }
    l->base_config = Py_NewRef(config);
    if (l->jitter_s > 0) {
        l->jitter_rng = PyObject_CallMethodOneArg(sim, str_rng,
                                                  str_link_jitter);
        if (l->jitter_rng == NULL) {
            goto error;
        }
        l->base_jitter_rng = Py_NewRef(l->jitter_rng);
    }
    /* One bound method reused for every hop; the race auditor labels the
     * arrivals by its __qualname__, DirectedLink._arrive. */
    l->arrive_cb = PyObject_GetAttr((PyObject *)l, str_arrive);
    if (l->arrive_cb == NULL) {
        goto error;
    }
    return (PyObject *)l;
error:
    Py_DECREF(l);
    return NULL;
}

static PyObject *
link_commit(LinkObject *l, PyObject *const *argv, Py_ssize_t nargs)
{
    double now, at;
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "commit() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    if (!PyTuple_Check(argv[1])) {
        PyErr_Format(PyExc_TypeError, "commit() args must be a tuple, not "
                     "%.100s", Py_TYPE(argv[1])->tp_name);
        return NULL;
    }
    if (queue_now(l->queue, &now) < 0 || link_at(argv[2], now, &at) < 0) {
        return NULL;
    }
    double completion = link_commit_at(l, argv[0], argv[1], at, now);
    if (completion == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    return PyFloat_FromDouble(completion);
}

/* Records that finish serialising by at (bisect_right on completion). */
static Py_ssize_t
link_records_done_by(LinkObject *l, double at)
{
    Py_ssize_t lo = 0, hi = l->records.len;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (at < ((Record *)ring_at(&l->records, mid, sizeof(Record)))
                     ->completion) {
            hi = mid;
        }
        else {
            lo = mid + 1;
        }
    }
    return lo;
}

static PyObject *
link_transmit(LinkObject *l, PyObject *const *argv, Py_ssize_t nargs)
{
    double now, at;
    if (nargs < 1 || nargs > 2) {
        PyErr_Format(PyExc_TypeError,
                     "transmit() takes 1 or 2 arguments (%zd given)", nargs);
        return NULL;
    }
    if (queue_now(l->queue, &now) < 0
            || link_at(nargs == 2 ? argv[1] : Py_None, now, &at) < 0) {
        return NULL;
    }
    if (l->bounded && l->busy_until > at) {
        /* The slot and the records bound what is unfinished at at; only
         * when they could exceed the capacity are the records that
         * finish by at found, by bisection. */
        Py_ssize_t unfinished = l->records.len;
        if (unfinished >= l->capacity) {
            if (l->payload != NULL && l->done > at) {
                unfinished += 1;
            }
            else if (unfinished) {
                unfinished -= link_records_done_by(l, at);
            }
            if (unfinished > l->capacity) {
                l->stats->dropped_queue++;
                Py_RETURN_FALSE;
            }
        }
    }
    PyObject *args = PyTuple_Pack(1, argv[0]);
    if (args == NULL) {
        return NULL;
    }
    double completion = link_commit_at(l, argv[0], args, at, now);
    Py_DECREF(args);
    if (completion == -1.0 && PyErr_Occurred()) {
        return NULL;
    }
    Py_RETURN_TRUE;
}

/* Cancel an arrival and push it again under the current parameters:
 * the new seq, or -1 with an exception set. */
static long long
link_rearm(LinkObject *l, long long seq, double completion, PyObject *payload)
{
    if (queue_cancel_seq(l->queue, seq) < 0) {
        return -1;
    }
    PyObject *args = PyTuple_Pack(1, payload);
    if (args == NULL) {
        return -1;
    }
    seq = link_push_arrival(l, completion, args);
    Py_DECREF(args);
    return seq;
}

static PyObject *
link_degrade(LinkObject *l, PyObject *args, PyObject *kwds)
{
    double factor = 1.0, extra = 0.0, now;
    PyObject *rng = Py_None;
    static char *kwlist[] = {"latency_factor", "extra_jitter_s",
                             "jitter_rng", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|ddO:degrade", kwlist,
                                     &factor, &extra, &rng)) {
        return NULL;
    }
    if (!(factor > 0.0 && factor < Py_HUGE_VAL)) {
        reject("latency_factor", "a finite factor > 0", factor);
        return NULL;
    }
    if (check_time("extra_jitter_s", extra) < 0) {
        return NULL;
    }
    if (extra > 0.0 && rng == Py_None) {
        PyErr_SetString(PyExc_ValueError,
                        "extra_jitter_s > 0 needs a jitter_rng to draw from");
        return NULL;
    }
    double latency = l->base_latency_s * factor;
    if (check_time("degraded latency_s", latency) < 0) {
        return NULL;
    }
    if (queue_now(l->queue, &now) < 0) {
        return NULL;
    }
    PyObject *base = l->base_config;
    if (extra > 0.0) {
        double base_jitter;
        PyObject *per_message = NULL, *per_byte = NULL, *capacity = NULL;
        PyObject *config = NULL;
        if (attr_double(base, str_jitter_s, &base_jitter) == 0
                && (per_message = PyObject_GetAttr(base, str_per_message_s))
                && (per_byte = PyObject_GetAttr(base, str_per_byte_s))
                && (capacity = PyObject_GetAttr(base, str_queue_capacity))) {
            config = PyObject_CallFunction(
                (PyObject *)Py_TYPE(base), "OOOd", per_message, per_byte,
                capacity, base_jitter + extra);
        }
        Py_XDECREF(per_message);
        Py_XDECREF(per_byte);
        Py_XDECREF(capacity);
        int failed = config == NULL || link_set_config(l, config) < 0;
        Py_XDECREF(config);
        if (failed) {
            return NULL;
        }
        Py_INCREF(rng);
        Py_XSETREF(l->jitter_rng, rng);
    }
    else {
        if (link_set_config(l, base) < 0) {
            return NULL;
        }
        Py_XINCREF(l->base_jitter_rng);
        Py_XSETREF(l->jitter_rng, l->base_jitter_rng);
    }
    l->latency_s = latency;
    /* Re-time what has not finished serialising, in FIFO order: the
     * slot message, then the records. */
    link_drain_sent(l, now);
    if (l->payload != NULL) {
        long long seq = link_rearm(l, l->seq, l->done, l->payload);
        if (seq < 0) {
            return NULL;
        }
        l->seq = seq;
    }
    for (Py_ssize_t i = 0; i < l->records.len; i++) {
        Record *record = ring_at(&l->records, i, sizeof(Record));
        long long seq = link_rearm(l, record->seq, record->completion,
                                   record->payload);
        if (seq < 0) {
            return NULL;
        }
        /* Fetched again: a call-out may have moved the buffer. */
        ((Record *)ring_at(&l->records, i, sizeof(Record)))->seq = seq;
    }
    Py_RETURN_NONE;
}

static PyObject *
link_restore(LinkObject *l, PyObject *Py_UNUSED(ignored))
{
    return link_degrade(l, empty_tuple, NULL);
}

static PyObject *
link_arrive(LinkObject *l, PyObject *payload)
{
    if (l->stats == NULL) {
        cleared();
        return NULL;
    }
    if (l->loss_hook != NULL) {
        long long start = span_begin();
        PyObject *hook = Py_NewRef(l->loss_hook);
        int lost;
        if (Py_IS_TYPE(hook, &LossType)) {
            lost = loss_drops((LossObject *)hook, l->dst);
        }
        else {
            PyObject *res = PyObject_CallOneArg(hook, l->dst);
            lost = res == NULL ? -1 : PyObject_IsTrue(res);
            Py_XDECREF(res);
        }
        Py_DECREF(hook);
        span_end(SPAN_LOSS, start);
        if (lost < 0) {
            return NULL;
        }
        if (lost) {
            l->stats->dropped_loss++;
            Py_RETURN_NONE;
        }
    }
    l->stats->delivered++;
    PyObject *deliver = Py_NewRef(l->deliver);
    PyObject *argv[2] = {l->src, payload};
    PyObject *res = PyObject_Vectorcall(deliver, argv, 2, NULL);
    Py_DECREF(deliver);
    if (res == NULL) {
        return NULL;
    }
    Py_DECREF(res);
    Py_RETURN_NONE;
}

static PyObject *
link_get_stats(LinkObject *l, void *Py_UNUSED(closure))
{
    double now;
    if (queue_now(l->queue, &now) < 0) {
        return NULL;
    }
    link_drain_sent(l, now);
    return Py_NewRef(l->stats);
}

static PyObject *
link_get_busy(LinkObject *l, void *Py_UNUSED(closure))
{
    double now;
    if (queue_now(l->queue, &now) < 0) {
        return NULL;
    }
    return PyBool_FromLong(now < l->busy_until);
}

static PyObject *
link_get_queue_length(LinkObject *l, void *Py_UNUSED(closure))
{
    double now;
    if (queue_now(l->queue, &now) < 0) {
        return NULL;
    }
    Py_ssize_t pending = link_drain_sent(l, now);
    return PyLong_FromSsize_t(pending > 0 ? pending - 1 : 0);
}

static PyObject *
link_get_latency_s(LinkObject *l, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(l->latency_s);
}

static PyObject *
link_get_loss_hook(LinkObject *l, void *Py_UNUSED(closure))
{
    return Py_NewRef(l->loss_hook != NULL ? l->loss_hook : Py_None);
}

static int
link_set_loss_hook(LinkObject *l, PyObject *hook, void *Py_UNUSED(closure))
{
    if (hook == NULL) {
        PyErr_SetString(PyExc_TypeError, "cannot delete loss_hook");
        return -1;
    }
    Py_XSETREF(l->loss_hook, hook == Py_None ? NULL : Py_NewRef(hook));
    return 0;
}

static int
link_traverse(LinkObject *l, visitproc visit, void *arg)
{
    Py_VISIT(l->sim);
    Py_VISIT(l->queue);
    Py_VISIT(l->src);
    Py_VISIT(l->dst);
    Py_VISIT(l->config);
    Py_VISIT(l->stats);
    Py_VISIT(l->payload);
    for (Py_ssize_t i = 0; i < l->records.len; i++) {
        Py_VISIT(((Record *)ring_at(&l->records, i, sizeof(Record)))
                 ->payload);
    }
    Py_VISIT(l->jitter_rng);
    Py_VISIT(l->deliver);
    Py_VISIT(l->arrive_cb);
    Py_VISIT(l->loss_hook);
    Py_VISIT(l->base_config);
    Py_VISIT(l->base_jitter_rng);
    return 0;
}

static int
link_clear(LinkObject *l)
{
    Ring records = l->records;
    l->records = (Ring){NULL, 0, 0, 0};
    for (Py_ssize_t i = 0; i < records.len; i++) {
        Py_DECREF(((Record *)ring_at(&records, i, sizeof(Record)))->payload);
    }
    ring_free(&records);
    Py_CLEAR(l->payload);
    Py_CLEAR(l->sim);
    Py_CLEAR(l->queue);
    Py_CLEAR(l->src);
    Py_CLEAR(l->dst);
    Py_CLEAR(l->config);
    Py_CLEAR(l->stats);
    Py_CLEAR(l->jitter_rng);
    Py_CLEAR(l->deliver);
    Py_CLEAR(l->arrive_cb);
    Py_CLEAR(l->loss_hook);
    Py_CLEAR(l->base_config);
    Py_CLEAR(l->base_jitter_rng);
    return 0;
}

static void
link_dealloc(LinkObject *l)
{
    PyObject_GC_UnTrack(l);
    link_clear(l);
    Py_TYPE(l)->tp_free((PyObject *)l);
}

static PyMethodDef link_methods[] = {
    {"commit", (PyCFunction)(void (*)(void))link_commit, METH_FASTCALL,
     "commit(payload, args, at) -> completion\n\n"
     "Serialise payload from instant at (>= now), after the committed\n"
     "work, and push the one event of its hop: the arrival, args being\n"
     "its argument tuple (payload,), at completion + latency_s plus, on a\n"
     "jittered link, one draw taken now. No queue bound applies."},
    {"transmit", (PyCFunction)(void (*)(void))link_transmit, METH_FASTCALL,
     "transmit(payload, at=None) -> bool\n\n"
     "commit behind the transmit-queue bound, from at (default now; it\n"
     "must never decrease on the link). The bound counts the messages\n"
     "still serialising at at. False, and a drop counted, when full."},
    {"_arrive", (PyCFunction)link_arrive, METH_O,
     "The arrival event: consult the loss hook, then deliver(src, payload)."},
    {"degrade", (PyCFunction)(void (*)(void))link_degrade,
     METH_VARARGS | METH_KEYWORDS,
     "degrade(latency_factor=1.0, extra_jitter_s=0.0, jitter_rng=None)\n\n"
     "Multiply the pristine latency by latency_factor (finite, > 0) and\n"
     "widen the pristine jitter by extra_jitter_s (finite, >= 0; drawn\n"
     "from jitter_rng, required when it is > 0). Neutral arguments\n"
     "restore the link. Each message not yet serialised has its arrival\n"
     "cancelled and pushed again at completion + the new delay, in FIFO\n"
     "order; messages already serialised keep theirs."},
    {"restore", (PyCFunction)link_restore, METH_NOARGS,
     "Undo any degradation (degrade())."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef link_members[] = {
    {"sim", T_OBJECT, offsetof(LinkObject, sim), READONLY, NULL},
    {"src", T_OBJECT, offsetof(LinkObject, src), READONLY, NULL},
    {"dst", T_OBJECT, offsetof(LinkObject, dst), READONLY, NULL},
    {"deliver", T_OBJECT, offsetof(LinkObject, deliver), READONLY,
     "deliver(src, payload), called at each arrival let through."},
    {"config", T_OBJECT, offsetof(LinkObject, config), READONLY,
     "The LinkConfig in force (degrade swaps it)."},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef link_getset[] = {
    {"stats", (getter)link_get_stats, NULL,
     "LinkStats, drained to now: a message counts as sent once its "
     "serialisation completion has passed.", NULL},
    {"busy", (getter)link_get_busy, NULL,
     "Whether committed work is still unserialised right now.", NULL},
    {"queue_length", (getter)link_get_queue_length, NULL,
     "Committed messages behind the oldest one not yet serialised.", NULL},
    {"latency_s", (getter)link_get_latency_s, NULL,
     "One-way propagation latency in force (degrade scales it).", NULL},
    {"loss_hook", (getter)link_get_loss_hook, (setter)link_set_loss_hook,
     "Optional loss_hook(dst) -> bool consulted at each arrival; True "
     "drops the message.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PyTypeObject LinkType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.net.channel.DirectedLink",
    .tp_doc = "DirectedLink(sim, src, dst, latency_s, config, deliver, "
              "loss_hook=None)\n\n"
              "One direction of a channel, src -> dst. deliver(src, payload)\n"
              "is called at each arrival the loss hook lets through.",
    .tp_basicsize = sizeof(LinkObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = link_new,
    .tp_dealloc = (destructor)link_dealloc,
    .tp_traverse = (traverseproc)link_traverse,
    .tp_clear = (inquiry)link_clear,
    .tp_methods = link_methods,
    .tp_members = link_members,
    .tp_getset = link_getset,
};
