/* The simulator's compiled kernel: the pending-event queue and run loop,
 * the three objects every message hop goes through -- the FIFO
 * server (repro.sim.server.FifoServer), the directed link
 * (repro.net.channel.DirectedLink, with its LinkStats) and the seen-cache
 * (repro.gossip.cache.InternedSeenCache) -- and the gossip node's half of
 * the hop (repro.gossip.node: the NodeCore base of GossipNode, the
 * SenderCore base of its per-peer senders, and GossipStats). Their
 * executable reference models, in Python, live with the tests.
 *
 * A binary min-heap of 32-byte entries {time, seq, fn, args} ordered by
 * (time, seq). seq is unique, so the order is total and no two entries
 * ever compare equal: the pop order is fully determined by the pushes.
 *
 * An entry comes in two kinds. A bare entry (push_bare) is the event:
 * fn and its args tuple sit in the entry and the handle is the seq. A
 * handle entry (push) has args == NULL and fn pointing at the Event the
 * push returned, which callers may keep and cancel at any time.
 *
 * Cancellation is lazy for both kinds: Event.cancel() marks the handle,
 * a cancelled bare seq goes into a tombstone set, and a pop discards
 * either kind of shell it meets. Once the shells outnumber the live
 * entries (and the heap holds at least COMPACT_MIN_SIZE) the heap is
 * compacted: shells dropped, tombstones cleared, heap rebuilt.
 *
 * An optional observer (the race auditor) is told about every
 * reservation, push and execution; it is NULL when off, so the hot paths
 * pay one pointer test.
 *
 * Every Python call-out (a callback, a decref that may run a finaliser,
 * an observer method) happens while the heap is consistent, so a
 * re-entrant push or cancel is safe.
 *
 * A server completion or a link arrival is pushed straight into the heap
 * (heap_push_bare), observer included, without push_bare's checks: its
 * time is finite and no earlier than the clock by construction, because
 * every input it is computed from is checked where it enters (service
 * times, slowdown, a link's latency, costs and degrade arguments).
 * Floats are computed in the order and association of the reference
 * models, and the build passes -ffp-contract=off so that no multiply and
 * add is fused into one rounding.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>
#include "structmember.h"

#define COMPACT_MIN_SIZE 64

static PyObject *str_now, *str_queue, *str_rng, *str_link_jitter,
    *str_arrive, *str_uniform, *str_size_bytes, *str_iid, *str_uid,
    *str_intern, *str_lookup, *str_per_message_s, *str_per_byte_s,
    *str_queue_capacity, *str_jitter_s, *str_register_payload,
    *str_recv_fresh_s, *str_recv_dup_s, *str_send_per_peer_s, *str_complete,
    *str_aggregated, *str_receive_aggregated, *str_gossip_receive,
    *str_gossip_filtered, *str_enqueue, *str_commit, *float_zero,
    *empty_tuple;

/* -- Event: the handle a handle entry points at -------------------------- */

typedef struct {
    PyObject_HEAD
    double time;
    long long seq;
    PyObject *fn;
    PyObject *args;
    char cancelled;
} EventObject;

static PyTypeObject EventType;

static EventObject *
event_create(double time, long long seq, PyObject *fn, PyObject *args)
{
    EventObject *ev = PyObject_GC_New(EventObject, &EventType);
    if (ev == NULL) {
        return NULL;
    }
    ev->time = time;
    ev->seq = seq;
    Py_INCREF(fn);
    ev->fn = fn;
    Py_INCREF(args);
    ev->args = args;
    ev->cancelled = 0;
    PyObject_GC_Track(ev);
    return ev;
}

static PyObject *
event_new(PyTypeObject *Py_UNUSED(type), PyObject *args, PyObject *kwds)
{
    double time;
    long long seq;
    PyObject *fn, *fargs;
    static char *kwlist[] = {"time", "seq", "fn", "args", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "dLOO!:Event", kwlist,
                                     &time, &seq, &fn, &PyTuple_Type, &fargs)) {
        return NULL;
    }
    return (PyObject *)event_create(time, seq, fn, fargs);
}

/* Retire a handle, moving its callback and args out to the caller. */
static void
event_take(EventObject *ev, PyObject **fn, PyObject **args)
{
    *fn = ev->fn;
    *args = ev->args;
    ev->cancelled = 1;
    ev->fn = Py_NewRef(Py_None);
    ev->args = Py_NewRef(empty_tuple);
}

/* Drop the references at once: a cancelled event may sit in the heap for
 * a long time, and its args can pin large messages. */
static PyObject *
event_cancel(EventObject *ev, PyObject *Py_UNUSED(ignored))
{
    PyObject *fn, *args;
    event_take(ev, &fn, &args);
    Py_XDECREF(fn);
    Py_XDECREF(args);
    Py_RETURN_NONE;
}

static PyObject *
event_repr(EventObject *ev)
{
    char *time = PyOS_double_to_string(ev->time, 'f', 6, 0, NULL);
    if (time == NULL) {
        return PyErr_NoMemory();
    }
    PyObject *repr = PyUnicode_FromFormat(
        "Event(t=%s, seq=%lld%s)", time, ev->seq,
        ev->cancelled ? " cancelled" : "");
    PyMem_Free(time);
    return repr;
}

static int
event_traverse(EventObject *ev, visitproc visit, void *arg)
{
    Py_VISIT(ev->fn);
    Py_VISIT(ev->args);
    return 0;
}

static int
event_clear(EventObject *ev)
{
    Py_CLEAR(ev->fn);
    Py_CLEAR(ev->args);
    return 0;
}

static void
event_dealloc(EventObject *ev)
{
    PyObject_GC_UnTrack(ev);
    event_clear(ev);
    PyObject_GC_Del(ev);
}

static PyMethodDef event_methods[] = {
    {"cancel", (PyCFunction)event_cancel, METH_NOARGS,
     "Mark the event so it will be skipped when its time comes."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef event_members[] = {
    {"time", T_DOUBLE, offsetof(EventObject, time), READONLY, NULL},
    {"seq", T_LONGLONG, offsetof(EventObject, seq), READONLY, NULL},
    {"fn", T_OBJECT, offsetof(EventObject, fn), READONLY, NULL},
    {"args", T_OBJECT, offsetof(EventObject, args), READONLY, NULL},
    {"cancelled", T_BOOL, offsetof(EventObject, cancelled), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject EventType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.events.Event",
    .tp_doc = "A scheduled callback; returned by Simulator.schedule.",
    .tp_basicsize = sizeof(EventObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = event_new,
    .tp_dealloc = (destructor)event_dealloc,
    .tp_traverse = (traverseproc)event_traverse,
    .tp_clear = (inquiry)event_clear,
    .tp_repr = (reprfunc)event_repr,
    .tp_methods = event_methods,
    .tp_members = event_members,
};

/* -- the heap ------------------------------------------------------------ */

typedef struct {
    double time;
    long long seq;
    PyObject *fn;       /* the callback, or the Event of a handle entry */
    PyObject *args;     /* a tuple, or NULL for a handle entry */
} Entry;

typedef struct {
    PyObject_HEAD
    Entry *heap;
    Py_ssize_t size;
    Py_ssize_t capacity;
    long long next_seq;
    long long pushed;
    long long popped;
    long long cancelled;
    long long shells;       /* cancelled entries still in the heap */
    long long executed;     /* callbacks the run loop invoked */
    PyObject *dead;         /* set of cancelled bare seqs still queued */
    PyObject *observer;     /* NULL when off */
} QueueObject;

static PyTypeObject QueueType;

static inline int
entry_less(const Entry *a, const Entry *b)
{
    return a->time < b->time || (a->time == b->time && a->seq < b->seq);
}

/* Move heap[pos] rootward, no further than start (heapq's _siftdown). */
static void
sift_rootward(Entry *heap, Py_ssize_t start, Py_ssize_t pos)
{
    Entry item = heap[pos];
    while (pos > start) {
        Py_ssize_t parent = (pos - 1) >> 1;
        if (!entry_less(&item, &heap[parent])) {
            break;
        }
        heap[pos] = heap[parent];
        pos = parent;
    }
    heap[pos] = item;
}

/* Restore the heap below pos (heapq's _siftup): walk the smaller child
 * down to a leaf, then move the displaced item back up. */
static void
sift_leafward(Entry *heap, Py_ssize_t size, Py_ssize_t pos)
{
    Py_ssize_t start = pos;
    Entry item = heap[pos];
    Py_ssize_t child = 2 * pos + 1;
    while (child < size) {
        if (child + 1 < size && !entry_less(&heap[child], &heap[child + 1])) {
            child++;
        }
        heap[pos] = heap[child];
        pos = child;
        child = 2 * pos + 1;
    }
    heap[pos] = item;
    sift_rootward(heap, start, pos);
}

static void
heap_remove_top(QueueObject *q)
{
    Py_ssize_t size = --q->size;
    if (size > 0) {
        q->heap[0] = q->heap[size];
        sift_leafward(q->heap, size, 0);
    }
}

/* Grow by an eighth: the heap of a large run is most of its pending
 * memory, and slack is what a tracemalloc peak sees. */
static int
heap_reserve_one(QueueObject *q)
{
    if (q->size < q->capacity) {
        return 0;
    }
    Py_ssize_t capacity = q->capacity + (q->capacity >> 3) + 16;
    if ((size_t)capacity > PY_SSIZE_T_MAX / sizeof(Entry)) {
        PyErr_NoMemory();
        return -1;
    }
    Entry *heap = PyMem_Realloc(q->heap, capacity * sizeof(Entry));
    if (heap == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    q->heap = heap;
    q->capacity = capacity;
    return 0;
}

static inline double
finite_time(PyObject *obj)
{
    double time = PyFloat_CheckExact(obj) ? PyFloat_AS_DOUBLE(obj)
                                          : PyFloat_AsDouble(obj);
    if (!isfinite(time)) {
        if (!PyErr_Occurred()) {
            PyErr_Format(PyExc_ValueError,
                         "event time must be finite, got %R", obj);
        }
        return -1.0;
    }
    return time;
}

/* Consume an observer call's result: 0, or -1 with an exception set. */
static int
observed(PyObject *result)
{
    if (result == NULL) {
        return -1;
    }
    Py_DECREF(result);
    return 0;
}

/* Insert {time, seq, fn, args}: the queue's one insertion path. With a
 * handle pointer (push) the entry holds a new Event, returned there;
 * without one the entry is bare. explicit_seq tells the observer whether
 * seq was reserved. 0, or -1 with an exception set. */
static int
heap_insert(QueueObject *q, double time, long long seq, PyObject *fn,
            PyObject *args, int explicit_seq, PyObject **handle)
{
    Entry entry = {time, seq, fn, NULL};
    if (handle != NULL) {
        /* Before the slot is reserved: allocating may run a collection,
         * and a finaliser may push. */
        EventObject *ev = event_create(time, seq, fn, args);
        if (ev == NULL) {
            return -1;
        }
        entry.fn = (PyObject *)ev;
    }
    if (heap_reserve_one(q) < 0) {
        Py_XDECREF(handle != NULL ? entry.fn : NULL);
        return -1;
    }
    if (handle != NULL) {
        Py_INCREF(entry.fn);
        *handle = entry.fn;
    }
    else {
        Py_INCREF(fn);
        Py_INCREF(args);
        entry.args = args;
    }
    q->heap[q->size] = entry;
    sift_rootward(q->heap, 0, q->size);
    q->size++;
    q->pushed++;
    if (q->observer != NULL
            && observed(PyObject_CallMethod(
                   q->observer, "note_push", "dLOOO", time, seq, fn, args,
                   explicit_seq ? Py_True : Py_False)) < 0) {
        if (handle != NULL) {
            Py_CLEAR(*handle);
        }
        return -1;
    }
    return 0;
}

/* push_bare for the C types: time is finite and not before the clock.
 * The entry's seq, or -1 with an exception set. */
static long long
heap_push_bare(QueueObject *q, double time, PyObject *fn, PyObject *args)
{
    long long seq = q->next_seq++;
    return heap_insert(q, time, seq, fn, args, 0, NULL) < 0 ? -1 : seq;
}

/* The shared body of push and push_bare: parse (time, fn, args[, seq]),
 * take a seq into *seq_out, insert. 0, or -1 with an exception. */
static int
queue_insert(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs,
             const char *name, long long *seq_out, PyObject **handle)
{
    if (nargs < 3 || nargs > 4) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes 3 or 4 arguments (%zd given)", name, nargs);
        return -1;
    }
    double time = finite_time(argv[0]);
    if (time == -1.0 && PyErr_Occurred()) {
        return -1;
    }
    PyObject *fn = argv[1], *args = argv[2];
    if (!PyTuple_Check(args)) {
        PyErr_Format(PyExc_TypeError, "%s() args must be a tuple, not %.100s",
                     name, Py_TYPE(args)->tp_name);
        return -1;
    }
    int explicit_seq = nargs == 4 && argv[3] != Py_None;
    long long seq;
    if (explicit_seq) {
        seq = PyLong_AsLongLong(argv[3]);
        if (seq == -1 && PyErr_Occurred()) {
            return -1;
        }
    }
    else {
        seq = q->next_seq++;
    }
    if (heap_insert(q, time, seq, fn, args, explicit_seq, handle) < 0) {
        return -1;
    }
    *seq_out = seq;
    return 0;
}

static PyObject *
queue_push(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs)
{
    long long seq;
    PyObject *handle = NULL;
    if (queue_insert(q, argv, nargs, "push", &seq, &handle) < 0) {
        return NULL;
    }
    return handle;
}

static PyObject *
queue_push_bare(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs)
{
    long long seq;
    if (queue_insert(q, argv, nargs, "push_bare", &seq, NULL) < 0) {
        return NULL;
    }
    return PyLong_FromLongLong(seq);
}

/* Allocate a seq without enqueueing, telling the observer: the seq, or
 * -1 with an exception set. */
static long long
queue_reserve_seq(QueueObject *q)
{
    long long seq = q->next_seq++;
    if (q->observer != NULL
            && observed(PyObject_CallMethod(q->observer, "note_reserved",
                                            "L", seq)) < 0) {
        return -1;
    }
    return seq;
}

static PyObject *
queue_reserve(QueueObject *q, PyObject *Py_UNUSED(ignored))
{
    long long seq = queue_reserve_seq(q);
    return seq < 0 ? NULL : PyLong_FromLongLong(seq);
}

/* 1 if the top entry is a shell (it is then removed and released), 0 if
 * it is live, -1 on error. */
static int
discard_top_shell(QueueObject *q)
{
    Entry top = q->heap[0];
    if (top.args == NULL) {
        if (!((EventObject *)top.fn)->cancelled) {
            return 0;
        }
    }
    else {
        if (PySet_GET_SIZE(q->dead) == 0) {
            return 0;
        }
        PyObject *key = PyLong_FromLongLong(top.seq);
        if (key == NULL) {
            return -1;
        }
        int found = PySet_Discard(q->dead, key);
        Py_DECREF(key);
        if (found <= 0) {
            return found;
        }
    }
    heap_remove_top(q);
    q->shells--;
    Py_DECREF(top.fn);
    Py_XDECREF(top.args);
    return 1;
}

/* Move the earliest live entry into *out if its time is <= limit: 1. None
 * (queue drained, or the earliest live entry is later; it stays): 0.
 * Shells ahead of it are discarded either way. -1 on error. */
static int
pop_live(QueueObject *q, double limit, Entry *out)
{
    while (q->size > 0) {
        int shell = discard_top_shell(q);
        if (shell < 0) {
            return -1;
        }
        if (shell) {
            continue;
        }
        if (q->heap[0].time > limit) {
            return 0;
        }
        *out = q->heap[0];
        heap_remove_top(q);
        q->popped++;
        return 1;
    }
    return 0;
}

/* A time limit or an event budget: a number, or None for no bound. */
static int
parse_bound(PyObject *obj, double *bound)
{
    if (obj == Py_None) {
        *bound = Py_HUGE_VAL;
        return 0;
    }
    *bound = PyFloat_AsDouble(obj);
    return *bound == -1.0 && PyErr_Occurred() ? -1 : 0;
}

static PyObject *
queue_pop_entry(QueueObject *q, PyObject *limit_obj)
{
    double limit;
    Entry e;
    if (parse_bound(limit_obj, &limit) < 0) {
        return NULL;
    }
    int got = pop_live(q, limit, &e);
    if (got <= 0) {
        if (got < 0) {
            return NULL;
        }
        Py_RETURN_NONE;
    }
    return Py_BuildValue("(dLNN)", e.time, e.seq, e.fn,
                         e.args == NULL ? Py_NewRef(Py_None) : e.args);
}

static PyObject *
queue_pop(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs)
{
    double limit = Py_HUGE_VAL;
    Entry e;
    if (nargs > 1) {
        PyErr_Format(PyExc_TypeError,
                     "pop() takes at most 1 argument (%zd given)", nargs);
        return NULL;
    }
    if (nargs == 1 && parse_bound(argv[0], &limit) < 0) {
        return NULL;
    }
    int got = pop_live(q, limit, &e);
    if (got <= 0) {
        if (got < 0) {
            return NULL;
        }
        Py_RETURN_NONE;
    }
    if (e.args == NULL) {
        return e.fn;
    }
    PyObject *event = (PyObject *)event_create(e.time, e.seq, e.fn, e.args);
    Py_DECREF(e.fn);
    Py_DECREF(e.args);
    return event;
}

/* Drop every shell and rebuild the heap. Released references are
 * decref'd only once the heap is whole again. */
static int
queue_compact(QueueObject *q)
{
    Entry *gone = PyMem_Malloc((size_t)(q->shells ? q->shells : 1)
                               * sizeof(Entry));
    if (gone == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    Py_ssize_t kept = 0, dropped = 0, i;
    int error = 0;
    for (i = 0; i < q->size; i++) {
        Entry e = q->heap[i];
        int shell = 0;
        if (!error && dropped < q->shells) {
            if (e.args == NULL) {
                shell = ((EventObject *)e.fn)->cancelled;
            }
            else if (PySet_GET_SIZE(q->dead) > 0) {
                PyObject *key = PyLong_FromLongLong(e.seq);
                shell = key == NULL ? -1 : PySet_Contains(q->dead, key);
                Py_XDECREF(key);
                if (shell < 0) {
                    /* Keep the rest: a shell left queued is still
                     * discarded by a later pop. */
                    error = 1;
                    shell = 0;
                }
            }
        }
        if (shell) {
            gone[dropped++] = e;
        }
        else {
            q->heap[kept++] = e;
        }
    }
    q->size = kept;
    for (i = kept / 2 - 1; i >= 0; i--) {
        sift_leafward(q->heap, kept, i);
    }
    q->shells -= dropped;
    if (!error) {
        PySet_Clear(q->dead);
    }
    for (i = 0; i < dropped; i++) {
        Py_DECREF(gone[i].fn);
        Py_XDECREF(gone[i].args);
    }
    PyMem_Free(gone);
    return error ? -1 : 0;
}

/* Count one cancelled live entry, compacting once the shells outnumber
 * the live entries. 0, or -1 with an exception set. */
static int
queue_count_cancel(QueueObject *q)
{
    q->cancelled++;
    q->shells++;
    long long live = q->pushed - q->popped - q->cancelled;
    if (q->shells > live && live + q->shells >= COMPACT_MIN_SIZE) {
        return queue_compact(q);
    }
    return 0;
}

/* Cancel the pending bare entry numbered seq. 0, or -1 with an
 * exception set. */
static int
queue_cancel_seq(QueueObject *q, long long seq)
{
    PyObject *key = PyLong_FromLongLong(seq);
    if (key == NULL) {
        return -1;
    }
    int added = PySet_Add(q->dead, key);
    Py_DECREF(key);
    return added < 0 ? -1 : queue_count_cancel(q);
}

static PyObject *
queue_note_cancelled(QueueObject *q, PyObject *Py_UNUSED(ignored))
{
    if (queue_count_cancel(q) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
queue_cancel_bare(QueueObject *q, PyObject *seq)
{
    if (PySet_Add(q->dead, seq) < 0 || queue_count_cancel(q) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

/* run(sim, limit, budget): execute live events with time <= limit, at
 * most budget of them, setting sim.now to each one's time before calling
 * it. Returns the number executed. A callback that raises was popped, so
 * it is counted before the exception propagates. */
static PyObject *
queue_run(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "run() takes 3 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *sim = argv[0];
    double limit, budget;
    if (parse_bound(argv[1], &limit) < 0
            || parse_bound(argv[2], &budget) < 0) {
        return NULL;
    }
    long long executed = 0;
    while ((double)executed < budget) {
        Entry e;
        int got = pop_live(q, limit, &e);
        if (got <= 0) {
            if (got < 0) {
                return NULL;
            }
            break;
        }
        PyObject *fn, *args;
        if (e.args == NULL) {
            /* Retire the handle before its callback runs: a callback
             * cancelling its own event must not count a second
             * cancellation. Its references move to this frame. */
            event_take((EventObject *)e.fn, &fn, &args);
            Py_DECREF(e.fn);
        }
        else {
            fn = e.fn;
            args = e.args;
        }
        executed++;
        q->executed++;
        PyObject *now = PyFloat_FromDouble(e.time);
        int failed = now == NULL || PyObject_SetAttr(sim, str_now, now) < 0;
        Py_XDECREF(now);
        if (!failed && q->observer != NULL) {
            failed = observed(PyObject_CallMethod(
                q->observer, "note_exec", "dLOO", e.time, e.seq, fn, args)) < 0;
        }
        PyObject *res = failed ? NULL : PyObject_Call(fn, args, NULL);
        Py_DECREF(fn);
        Py_DECREF(args);
        if (res == NULL) {
            return NULL;
        }
        Py_DECREF(res);
    }
    return PyLong_FromLongLong(executed);
}

static Py_ssize_t
queue_len(QueueObject *q)
{
    return (Py_ssize_t)(q->pushed - q->popped - q->cancelled);
}

static PyObject *
queue_get_scheduled_total(QueueObject *q, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(q->pushed);
}

static PyObject *
queue_get_cancelled_total(QueueObject *q, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(q->cancelled);
}

static PyObject *
queue_get_executed_total(QueueObject *q, void *Py_UNUSED(closure))
{
    return PyLong_FromLongLong(q->executed);
}

static PyObject *
queue_get_heap_size(QueueObject *q, void *Py_UNUSED(closure))
{
    return PyLong_FromSsize_t(q->size);
}

static PyObject *
queue_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *observer = Py_None;
    static char *kwlist[] = {"observer", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|O:EventQueue", kwlist,
                                     &observer)) {
        return NULL;
    }
    QueueObject *q = (QueueObject *)type->tp_alloc(type, 0);
    if (q == NULL) {
        return NULL;
    }
    q->dead = PySet_New(NULL);
    if (q->dead == NULL) {
        Py_DECREF(q);
        return NULL;
    }
    if (observer != Py_None) {
        Py_INCREF(observer);
        q->observer = observer;
    }
    return (PyObject *)q;
}

static int
queue_traverse(QueueObject *q, visitproc visit, void *arg)
{
    for (Py_ssize_t i = 0; i < q->size; i++) {
        Py_VISIT(q->heap[i].fn);
        Py_VISIT(q->heap[i].args);
    }
    Py_VISIT(q->dead);
    Py_VISIT(q->observer);
    return 0;
}

static int
queue_clear(QueueObject *q)
{
    Entry *heap = q->heap;
    Py_ssize_t size = q->size;
    q->heap = NULL;
    q->size = q->capacity = 0;
    for (Py_ssize_t i = 0; i < size; i++) {
        Py_DECREF(heap[i].fn);
        Py_XDECREF(heap[i].args);
    }
    PyMem_Free(heap);
    Py_CLEAR(q->dead);
    Py_CLEAR(q->observer);
    return 0;
}

static void
queue_dealloc(QueueObject *q)
{
    PyObject_GC_UnTrack(q);
    queue_clear(q);
    Py_TYPE(q)->tp_free((PyObject *)q);
}

static PyMethodDef queue_methods[] = {
    {"push", (PyCFunction)(void (*)(void))queue_push, METH_FASTCALL,
     "push(time, fn, args, seq=None) -> Event: enqueue a handle entry."},
    {"push_bare", (PyCFunction)(void (*)(void))queue_push_bare, METH_FASTCALL,
     "push_bare(time, fn, args, seq=None) -> seq: enqueue fn(*args)."},
    {"reserve", (PyCFunction)queue_reserve, METH_NOARGS,
     "Allocate and return a sequence number without enqueueing."},
    {"pop_entry", (PyCFunction)queue_pop_entry, METH_O,
     "pop_entry(limit) -> (time, seq, fn, args) or None."},
    {"pop", (PyCFunction)(void (*)(void))queue_pop, METH_FASTCALL,
     "pop(limit=None) -> Event or None."},
    {"note_cancelled", (PyCFunction)queue_note_cancelled, METH_NOARGS,
     "Count one cancelled live handle event."},
    {"cancel_bare", (PyCFunction)queue_cancel_bare, METH_O,
     "Cancel the pending bare event whose push returned seq."},
    {"run", (PyCFunction)(void (*)(void))queue_run, METH_FASTCALL,
     "run(sim, limit, budget) -> executed: the event loop."},
    {NULL, NULL, 0, NULL},
};

static PyGetSetDef queue_getset[] = {
    {"scheduled_total", (getter)queue_get_scheduled_total, NULL,
     "Events ever pushed.", NULL},
    {"cancelled_total", (getter)queue_get_cancelled_total, NULL,
     "Live events cancelled before running.", NULL},
    {"executed_total", (getter)queue_get_executed_total, NULL,
     "Callbacks the run loop invoked, a raising one included.", NULL},
    {"heap_size", (getter)queue_get_heap_size, NULL,
     "Physical entries, cancelled shells included.", NULL},
    {NULL, NULL, NULL, NULL, NULL},
};

static PySequenceMethods queue_as_sequence = {
    .sq_length = (lenfunc)queue_len,
};

static PyTypeObject QueueType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim.events.EventQueue",
    .tp_doc = "Binary min-heap of events ordered by (time, seq).",
    .tp_basicsize = sizeof(QueueObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = queue_new,
    .tp_dealloc = (destructor)queue_dealloc,
    .tp_traverse = (traverseproc)queue_traverse,
    .tp_clear = (inquiry)queue_clear,
    .tp_as_sequence = &queue_as_sequence,
    .tp_methods = queue_methods,
    .tp_getset = queue_getset,
};

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

/* sim.now as a double. 0, or -1 with an exception set. */
static inline int
sim_now(PyObject *sim, double *now)
{
    if (sim == NULL) {
        return cleared();
    }
    PyObject *obj = PyObject_GetAttr(sim, str_now);
    if (obj == NULL) {
        return -1;
    }
    int failed = as_double(obj, now);
    Py_DECREF(obj);
    return failed;
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

/* A FIFO of fixed-size items in a circular buffer: push at the tail, pop
 * at the head (or, to withdraw, at the tail). Grown by an eighth through
 * PyMem_Realloc, as the heap is, so tracemalloc sees it and a large one
 * keeps little slack. */
typedef struct {
    char *buf;
    Py_ssize_t head, len, cap;
} Ring;

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

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    QueueObject *queue;
    double slowdown;        /* gray-failure multiplier, fixed per job */
    double busy_until;      /* completion of the last accepted job */
    double busy_time;       /* services of started jobs, FIFO sum */
    double wait_start;      /* start of the first waiting job */
    Ring waiting;           /* services of accepted jobs not yet charged */
} ServerObject;

static PyTypeObject ServerType;

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
    if (sim_now(s->sim, &now) < 0) {
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
    if (sim_now(s->sim, &now) < 0) {
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
    if (sim_now(s->sim, &now) < 0) {
        return NULL;
    }
    server_charge_started(s, now);
    return PyLong_FromSsize_t(s->waiting.len);
}

static PyObject *
server_get_busy(ServerObject *s, void *Py_UNUSED(closure))
{
    double now;
    if (sim_now(s->sim, &now) < 0) {
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
        return reject("FifoServer.slowdown", "a finite factor > 0",
                      slowdown);
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

/* -- LinkStats ----------------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    long long sent;
    long long dropped_queue;
    long long dropped_loss;
    long long delivered;
    long long bytes_sent;
} StatsObject;

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

/* -- DirectedLink -------------------------------------------------------- */

/* A message committed behind a busy wire and not yet counted as sent. */
typedef struct {
    double completion;
    long long size;
    PyObject *payload;
    long long seq;          /* its arrival's bare entry */
} Record;

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    QueueObject *queue;
    PyObject *src;
    PyObject *dst;
    double latency_s;
    PyObject *config;
    /* config's cost model and bound, read when config is set */
    double per_message_s, per_byte_s, jitter_s, capacity;
    int bounded;
    StatsObject *stats;
    double busy_until;      /* the wire finishes all committed work */
    /* The message committed on an idle wire and not yet counted as
     * sent (payload NULL: none). It is older than every record. */
    double done;
    long long size;
    PyObject *payload;
    long long seq;
    Ring records;           /* Records in completion order */
    PyObject *jitter_rng;   /* NULL: no jitter */
    PyObject *deliver;
    PyObject *arrive_cb;    /* the bound _arrive every arrival calls */
    PyObject *loss_hook;    /* NULL: none */
    double base_latency_s;  /* pristine parameters, for degrade */
    PyObject *base_config;
    PyObject *base_jitter_rng;
} LinkObject;

static PyTypeObject LinkType;

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
    if (sim_now(l->sim, &now) < 0 || link_at(argv[2], now, &at) < 0) {
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
    if (sim_now(l->sim, &now) < 0
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
    if (sim_now(l->sim, &now) < 0) {
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
link_abort_pending_chain(LinkObject *l, PyObject *Py_UNUSED(ignored))
{
    double now;
    if (sim_now(l->sim, &now) < 0) {
        return NULL;
    }
    Py_ssize_t removed = link_drain_sent(l, now) - 1;
    if (removed <= 0) {
        return PyLong_FromLong(0);
    }
    for (Py_ssize_t i = 0; i < removed; i++) {
        Record *record = ring_at(&l->records, --l->records.len,
                                 sizeof(Record));
        PyObject *payload = record->payload;
        int failed = queue_cancel_seq(l->queue, record->seq) < 0;
        Py_DECREF(payload);
        if (failed) {
            return NULL;
        }
    }
    l->busy_until = l->payload != NULL
        ? l->done
        : ((Record *)ring_at(&l->records, 0, sizeof(Record)))->completion;
    return PyLong_FromSsize_t(removed);
}

static PyObject *
link_arrive(LinkObject *l, PyObject *payload)
{
    if (l->stats == NULL) {
        cleared();
        return NULL;
    }
    if (l->loss_hook != NULL) {
        PyObject *hook = Py_NewRef(l->loss_hook);
        PyObject *res = PyObject_CallOneArg(hook, l->dst);
        Py_DECREF(hook);
        if (res == NULL) {
            return NULL;
        }
        int lost = PyObject_IsTrue(res);
        Py_DECREF(res);
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
link_rebind_deliver(LinkObject *l, PyObject *deliver)
{
    Py_INCREF(deliver);
    Py_XSETREF(l->deliver, deliver);
    Py_RETURN_NONE;
}

static PyObject *
link_get_stats(LinkObject *l, void *Py_UNUSED(closure))
{
    double now;
    if (sim_now(l->sim, &now) < 0) {
        return NULL;
    }
    link_drain_sent(l, now);
    return Py_NewRef(l->stats);
}

static PyObject *
link_get_busy(LinkObject *l, void *Py_UNUSED(closure))
{
    double now;
    if (sim_now(l->sim, &now) < 0) {
        return NULL;
    }
    return PyBool_FromLong(now < l->busy_until);
}

static PyObject *
link_get_queue_length(LinkObject *l, void *Py_UNUSED(closure))
{
    double now;
    if (sim_now(l->sim, &now) < 0) {
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
    {"abort_pending_chain", (PyCFunction)link_abort_pending_chain,
     METH_NOARGS,
     "Withdraw the committed messages behind the one in service (a\n"
     "sender crashed mid-round), cancelling their arrivals; the wire\n"
     "frees when that message completes. Returns how many."},
    {"rebind_deliver", (PyCFunction)link_rebind_deliver, METH_O,
     "Point arrivals directly at the receiver's resolved callback."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef link_members[] = {
    {"sim", T_OBJECT, offsetof(LinkObject, sim), READONLY, NULL},
    {"src", T_OBJECT, offsetof(LinkObject, src), READONLY, NULL},
    {"dst", T_OBJECT, offsetof(LinkObject, dst), READONLY, NULL},
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

/* -- InternedSeenCache --------------------------------------------------- */

typedef struct {
    PyObject_HEAD
    Py_ssize_t capacity;
    PyObject *interner;
    unsigned char *present;     /* bit iid: iid is in the window */
    Py_ssize_t present_bytes;
    Ring order;                 /* uint32 iids in insertion order */
    long long registered;
    long long hits;
    long long evictions;
} CacheObject;

static inline int
cache_has(const CacheObject *c, Py_ssize_t iid)
{
    return (iid >> 3) < c->present_bytes
        && (c->present[iid >> 3] >> (iid & 7)) & 1;
}

/* A dense id as a C index. -1 with an exception set when it is not an
 * int in [0, 2**32). */
static Py_ssize_t
cache_index(PyObject *iid_obj)
{
    Py_ssize_t iid = PyLong_AsSsize_t(iid_obj);
    if (iid == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (iid < 0 || (uint64_t)iid > UINT32_MAX) {
        PyErr_Format(PyExc_ValueError,
                     "interned id must be in [0, 2**32), got %zd", iid);
        return -1;
    }
    return iid;
}

static PyObject *
cache_register_iid(CacheObject *c, Py_ssize_t iid)
{
    if ((iid >> 3) >= c->present_bytes) {
        Py_ssize_t size = c->present_bytes + (c->present_bytes >> 3) + 16;
        if (size <= (iid >> 3)) {
            size = (iid >> 3) + 1;
        }
        unsigned char *present = PyMem_Realloc(c->present, size);
        if (present == NULL) {
            return PyErr_NoMemory();
        }
        memset(present + c->present_bytes, 0, size - c->present_bytes);
        c->present = present;
        c->present_bytes = size;
    }
    if (cache_has(c, iid)) {
        c->hits++;
        Py_RETURN_FALSE;
    }
    uint32_t item = (uint32_t)iid;
    if (ring_push(&c->order, &item, sizeof item) < 0) {
        return NULL;
    }
    c->present[iid >> 3] |= (unsigned char)(1 << (iid & 7));
    c->registered++;
    if (c->order.len > c->capacity) {
        uint32_t oldest = *(uint32_t *)ring_pop(&c->order, sizeof item);
        c->present[oldest >> 3] &= (unsigned char)~(1 << (oldest & 7));
        c->evictions++;
    }
    Py_RETURN_TRUE;
}

static PyObject *
cache_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    Py_ssize_t capacity = 100000;
    PyObject *interner = Py_None;
    static char *kwlist[] = {"capacity", "interner", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "|nO:InternedSeenCache",
                                     kwlist, &capacity, &interner)) {
        return NULL;
    }
    if (capacity < 1) {
        PyErr_SetString(PyExc_ValueError, "capacity must be positive");
        return NULL;
    }
    if (interner == Py_None) {
        PyErr_SetString(PyExc_ValueError,
                        "InternedSeenCache requires a UidInterner");
        return NULL;
    }
    CacheObject *c = (CacheObject *)type->tp_alloc(type, 0);
    if (c == NULL) {
        return NULL;
    }
    c->capacity = capacity;
    c->interner = Py_NewRef(interner);
    return (PyObject *)c;
}

static PyObject *
cache_register(CacheObject *c, PyObject *uid)
{
    if (c->interner == NULL) {
        cleared();
        return NULL;
    }
    PyObject *iid_obj = PyObject_CallMethodOneArg(c->interner, str_intern,
                                                  uid);
    if (iid_obj == NULL) {
        return NULL;
    }
    Py_ssize_t iid = cache_index(iid_obj);
    Py_DECREF(iid_obj);
    return iid < 0 ? NULL : cache_register_iid(c, iid);
}

static PyObject *
cache_register_payload(CacheObject *c, PyObject *payload)
{
    PyObject *iid_obj = PyObject_GetAttr(payload, str_iid);
    if (iid_obj == Py_None) {
        /* Interned once per deployment, on the payload. */
        Py_DECREF(iid_obj);
        PyObject *uid = PyObject_GetAttr(payload, str_uid);
        if (uid == NULL) {
            return NULL;
        }
        if (c->interner == NULL) {
            Py_DECREF(uid);
            cleared();
            return NULL;
        }
        iid_obj = PyObject_CallMethodOneArg(c->interner, str_intern, uid);
        Py_DECREF(uid);
        if (iid_obj != NULL
                && PyObject_SetAttr(payload, str_iid, iid_obj) < 0) {
            Py_CLEAR(iid_obj);
        }
    }
    if (iid_obj == NULL) {
        return NULL;
    }
    Py_ssize_t iid = cache_index(iid_obj);
    Py_DECREF(iid_obj);
    if (iid < 0) {
        return NULL;
    }
    if (cache_has(c, iid)) {
        c->hits++;
        Py_RETURN_FALSE;
    }
    return cache_register_iid(c, iid);
}

static int
cache_contains(CacheObject *c, PyObject *uid)
{
    if (c->interner == NULL) {
        return cleared();
    }
    PyObject *iid_obj = PyObject_CallMethodOneArg(c->interner, str_lookup,
                                                  uid);
    if (iid_obj == NULL) {
        return -1;
    }
    if (iid_obj == Py_None) {
        Py_DECREF(iid_obj);
        return 0;
    }
    Py_ssize_t iid = PyLong_AsSsize_t(iid_obj);
    Py_DECREF(iid_obj);
    if (iid == -1 && PyErr_Occurred()) {
        return -1;
    }
    return iid >= 0 && cache_has(c, iid);
}

static Py_ssize_t
cache_len(CacheObject *c)
{
    return c->order.len;
}

static int
cache_traverse(CacheObject *c, visitproc visit, void *arg)
{
    Py_VISIT(c->interner);
    return 0;
}

static int
cache_clear(CacheObject *c)
{
    Py_CLEAR(c->interner);
    return 0;
}

static void
cache_dealloc(CacheObject *c)
{
    PyObject_GC_UnTrack(c);
    cache_clear(c);
    PyMem_Free(c->present);
    ring_free(&c->order);
    Py_TYPE(c)->tp_free((PyObject *)c);
}

static PyMethodDef cache_methods[] = {
    {"register", (PyCFunction)cache_register, METH_O,
     "register(uid) -> bool: record uid; True if it was not present."},
    {"register_payload", (PyCFunction)cache_register_payload, METH_O,
     "register_payload(payload) -> bool: register payload.uid, interning\n"
     "it once per deployment into payload.iid."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef cache_members[] = {
    {"capacity", T_PYSSIZET, offsetof(CacheObject, capacity), READONLY,
     "Ids the window holds before the oldest is evicted."},
    {"interner", T_OBJECT, offsetof(CacheObject, interner), READONLY, NULL},
    {"registered", T_LONGLONG, offsetof(CacheObject, registered), READONLY,
     "Fresh ids recorded."},
    {"hits", T_LONGLONG, offsetof(CacheObject, hits), READONLY,
     "Probes that found their id present."},
    {"evictions", T_LONGLONG, offsetof(CacheObject, evictions), READONLY,
     "Ids pushed out of the window."},
    {NULL, 0, 0, 0, NULL},
};

static PySequenceMethods cache_as_sequence = {
    .sq_length = (lenfunc)cache_len,
    .sq_contains = (objobjproc)cache_contains,
};

static PyTypeObject CacheType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.gossip.cache.InternedSeenCache",
    .tp_doc = "InternedSeenCache(capacity=100000, interner)\n\n"
              "Bounded FIFO set of message ids over a UidInterner's dense\n"
              "ids: a bit per id, and the window of ids in insertion order\n"
              "so that the oldest is the one evicted.",
    .tp_basicsize = sizeof(CacheObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = cache_new,
    .tp_dealloc = (destructor)cache_dealloc,
    .tp_traverse = (traverseproc)cache_traverse,
    .tp_clear = (inquiry)cache_clear,
    .tp_as_sequence = &cache_as_sequence,
    .tp_methods = cache_methods,
    .tp_members = cache_members,
};

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

/* -- SenderCore: the pacing state of a gossip node's per-peer sender ----- */

typedef struct {
    PyObject_HEAD
    PyObject *link;
    double free_at;         /* the link serialises our traffic until then */
    long long wakeup_seq;   /* reserved tie-break slot for the wake-up */
    char wakeup_armed;      /* a wake-up is outstanding */
} SenderObject;

static int
sender_traverse(SenderObject *s, visitproc visit, void *arg)
{
    Py_VISIT(s->link);
    return 0;
}

static int
sender_clear(SenderObject *s)
{
    Py_CLEAR(s->link);
    return 0;
}

static void
sender_dealloc(SenderObject *s)
{
    PyObject_GC_UnTrack(s);
    sender_clear(s);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyMemberDef sender_members[] = {
    {"link", T_OBJECT_EX, offsetof(SenderObject, link), 0,
     "The directed link to the peer."},
    {"_free_at", T_DOUBLE, offsetof(SenderObject, free_at), 0,
     "The instant the link finishes serialising this sender's traffic."},
    {"_wakeup_armed", T_BOOL, offsetof(SenderObject, wakeup_armed), 0,
     "Whether a wake-up is outstanding."},
    {"_wakeup_seq", T_LONGLONG, offsetof(SenderObject, wakeup_seq), 0,
     "The tie-break slot reserved at the last commit."},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject SenderType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.gossip.node.SenderCore",
    .tp_doc = "The state of a per-peer send routine that the compiled\n"
              "fan-out reads and writes: link, _free_at, _wakeup_armed and\n"
              "_wakeup_seq (0.0, False and 0 until set). Its queue and\n"
              "wake-up live in the Python subclass.",
    .tp_basicsize = sizeof(SenderObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_dealloc = (destructor)sender_dealloc,
    .tp_traverse = (traverseproc)sender_traverse,
    .tp_clear = (inquiry)sender_clear,
    .tp_members = sender_members,
};

/* -- NodeCore: a gossip node's receive, completion and fan-out ----------- */

typedef struct {
    PyObject_HEAD
    PyObject *sim;
    QueueObject *queue;
    PyObject *process_id;
    ServerObject *cpu;
    PyObject *cache;
    PyObject *register_cb;  /* cache.register_payload */
    PyObject *deliver;      /* NULL or None: none */
    PyObject *obs;          /* NULL or None: untraced */
    PyObject *validate;     /* NULL or None: the default, admit all */
    GossipStatsObject *stats;
    PyObject *fwd_pairs;    /* tuple of (peer_id, sender) */
    PyObject *complete_cb;  /* bound _complete: the fresh receive's job */
    double recv_fresh_s, recv_dup_s, send_per_peer_s;
    double hook_s;          /* charged per validate; 0.0: not charged */
    double svc_broadcast, svc_receive;
    Py_ssize_t fanout;
    char alive;
} NodeObject;

static PyTypeObject NodeType;

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
    PyObject *register_cb = PyObject_GetAttr(cache, str_register_payload);
    if (register_cb == NULL) {
        return -1;
    }
    Py_INCREF(cache);
    Py_XSETREF(self->cache, cache);
    Py_XSETREF(self->register_cb, register_cb);
    return 0;
}

static PyObject *
node_get_cache(NodeObject *self, void *Py_UNUSED(closure))
{
    return Py_NewRef(self->cache != NULL ? self->cache : Py_None);
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
    PyObject *complete_cb = PyObject_GetAttr((PyObject *)self,
                                             str_complete);
    if (complete_cb == NULL) {
        return -1;
    }
    Py_XSETREF(self->complete_cb, complete_cb);
    return 0;
}

/* 1 if payload is fresh (now registered), 0 if seen, -1 on error. */
static int
node_register(NodeObject *self, PyObject *payload)
{
    PyObject *cache = self->cache, *res;
    if (cache == NULL) {
        return cleared();
    }
    if (Py_IS_TYPE(cache, &CacheType)) {
        res = cache_register_payload((CacheObject *)cache, payload);
    }
    else {
        PyObject *register_cb = Py_NewRef(self->register_cb);
        res = PyObject_CallOneArg(register_cb, payload);
        Py_DECREF(register_cb);
    }
    if (res == NULL) {
        return -1;
    }
    int fresh = PyObject_IsTrue(res);
    Py_DECREF(res);
    return fresh;
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
        PyObject *call[3] = {(PyObject *)self, src, payload};
        return PyObject_VectorcallMethod(str_receive_aggregated, call, 3,
                                         NULL);
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

/* The decision for an idle peer: validate, charge hook_s, and either
 * reserve the slot a later wake-up fires in and commit, or count the
 * filtered message. *args is the fan-out's shared arrival tuple, built
 * at the first commit. 0, or -1 with an exception set. */
static int
node_send_idle(NodeObject *self, SenderObject *sender, PyObject *peer_id,
               PyObject *payload, PyObject *validate, PyObject **args,
               double now)
{
    int admit = 1;
    if (validate != NULL) {
        PyObject *argv[2] = {payload, peer_id};
        PyObject *res = PyObject_Vectorcall(validate, argv, 2, NULL);
        if (res == NULL) {
            return -1;
        }
        admit = PyObject_IsTrue(res);
        Py_DECREF(res);
        if (admit < 0) {
            return -1;
        }
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
    /* Reserved first, so that the wake-up precedes a zero-latency arrival
     * at the completion instant. */
    long long seq = queue_reserve_seq(self->queue);
    if (seq < 0) {
        return -1;
    }
    sender->wakeup_seq = seq;
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
    double now;
    if (self->stats == NULL || self->queue == NULL) {
        return cleared();
    }
    if (sim_now(self->sim, &now) < 0) {
        return -1;
    }
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
            PyObject *res = PyObject_CallMethodOneArg(sender, str_enqueue,
                                                      payload);
            if (res == NULL) {
                goto error;
            }
            Py_DECREF(res);
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

static PyObject *
node_complete(NodeObject *self, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError,
                     "_complete() takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    PyObject *payload = argv[0], *src = argv[1];
    if (self->stats == NULL) {
        cleared();
        return NULL;
    }
    self->stats->delivered++;
    PyObject *deliver = set_or_null(self->deliver);
    if (deliver != NULL) {
        Py_INCREF(deliver);
        PyObject *res = PyObject_CallOneArg(deliver, payload);
        Py_DECREF(deliver);
        if (res == NULL) {
            return NULL;
        }
        Py_DECREF(res);
    }
    /* Read after deliver: it may have changed the peer set. */
    PyObject *pairs = Py_XNewRef(self->fwd_pairs);
    if (pairs == NULL) {
        cleared();
        return NULL;
    }
    Py_ssize_t count = node_fan_out(self, payload, pairs, src);
    Py_DECREF(pairs);
    if (count < 0) {
        return NULL;
    }
    self->stats->forwarded += count;
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
    Py_VISIT(self->register_cb);
    Py_VISIT(self->deliver);
    Py_VISIT(self->obs);
    Py_VISIT(self->validate);
    Py_VISIT(self->stats);
    Py_VISIT(self->fwd_pairs);
    Py_VISIT(self->complete_cb);
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
    Py_CLEAR(self->register_cb);
    Py_CLEAR(self->deliver);
    Py_CLEAR(self->obs);
    Py_CLEAR(self->validate);
    Py_CLEAR(self->stats);
    Py_CLEAR(self->fwd_pairs);
    Py_CLEAR(self->complete_cb);
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
     "else counted received. An aggregated payload goes to\n"
     "_receive_aggregated. A duplicate is counted and charged recv_dup_s;\n"
     "a fresh one becomes a CPU job of _svc_receive whose completion is\n"
     "_complete(payload, src)."},
    {"_complete", (PyCFunction)(void (*)(void))node_complete, METH_FASTCALL,
     "_complete(payload, src): deliver a fresh payload and forward it to\n"
     "every peer but src (None for a local broadcast)."},
    {"_send", (PyCFunction)(void (*)(void))node_send, METH_FASTCALL,
     "_send(payload, pairs, exclude=None) -> count\n\n"
     "Hand payload to each (peer_id, sender) of pairs but exclude's. A\n"
     "busy sender (wake-up armed, or its link serialising) queues it. For\n"
     "an idle one it is decided here: validated (when the hooks override\n"
     "validate) and charged hook_s; if admitted, a slot is reserved for a\n"
     "later wake-up and the message committed onto the link with the\n"
     "arrival tuple the fan-out shares."},
    {"_set_forward", (PyCFunction)node_set_forward, METH_O,
     "_set_forward(pairs): the fan-out tuple of (peer_id, sender), and\n"
     "the broadcast and receive service times it implies."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef node_members[] = {
    {"process_id", T_OBJECT, offsetof(NodeObject, process_id), READONLY,
     NULL},
    {"alive", T_BOOL, offsetof(NodeObject, alive), 0,
     "False while crashed: inbound traffic is dropped."},
    {"deliver", T_OBJECT, offsetof(NodeObject, deliver), 0,
     "deliver(payload) callback into the application, or None."},
    {"obs", T_OBJECT, offsetof(NodeObject, obs), 0,
     "Tracer (repro.obs); None in untraced runs."},
    {"stats", T_OBJECT, offsetof(NodeObject, stats), READONLY, NULL},
    {"cpu", T_OBJECT, offsetof(NodeObject, cpu), READONLY,
     "The FifoServer all application-visible work is charged to."},
    {"_register", T_OBJECT, offsetof(NodeObject, register_cb), READONLY,
     "The cache's register_payload."},
    {"_validate", T_OBJECT, offsetof(NodeObject, validate), 0,
     "hooks.validate, or None for the default (admit everything)."},
    {"_fwd_pairs", T_OBJECT, offsetof(NodeObject, fwd_pairs), READONLY,
     NULL},
    {"_fanout", T_PYSSIZET, offsetof(NodeObject, fanout), READONLY, NULL},
    {"_svc_broadcast", T_DOUBLE, offsetof(NodeObject, svc_broadcast),
     READONLY, NULL},
    {"_svc_receive", T_DOUBLE, offsetof(NodeObject, svc_receive), READONLY,
     NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyGetSetDef node_getset[] = {
    {"cache", (getter)node_get_cache, (setter)node_set_cache,
     "Duplicate detector; an InternedSeenCache is probed directly, any "
     "other through its register_payload.", NULL},
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

static struct PyModuleDef kernel_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "The simulator's event heap and run loop, and the FIFO server, "
             "directed link and seen-cache a message hop goes through.",
    .m_size = -1,
};

static int
intern_strings(void)
{
    struct { PyObject **slot; const char *text; } names[] = {
        {&str_now, "now"}, {&str_queue, "_queue"}, {&str_rng, "rng"},
        {&str_link_jitter, "link-jitter"}, {&str_arrive, "_arrive"},
        {&str_uniform, "uniform"}, {&str_size_bytes, "size_bytes"},
        {&str_iid, "iid"}, {&str_uid, "uid"}, {&str_intern, "intern"},
        {&str_lookup, "lookup"}, {&str_per_message_s, "per_message_s"},
        {&str_per_byte_s, "per_byte_s"},
        {&str_queue_capacity, "queue_capacity"},
        {&str_jitter_s, "jitter_s"},
        {&str_register_payload, "register_payload"},
        {&str_recv_fresh_s, "recv_fresh_s"}, {&str_recv_dup_s, "recv_dup_s"},
        {&str_send_per_peer_s, "send_per_peer_s"},
        {&str_complete, "_complete"}, {&str_aggregated, "aggregated"},
        {&str_receive_aggregated, "_receive_aggregated"},
        {&str_gossip_receive, "gossip_receive"},
        {&str_gossip_filtered, "gossip_filtered"},
        {&str_enqueue, "enqueue"}, {&str_commit, "commit"},
    };
    for (size_t i = 0; i < sizeof names / sizeof names[0]; i++) {
        *names[i].slot = PyUnicode_InternFromString(names[i].text);
        if (*names[i].slot == NULL) {
            return -1;
        }
    }
    float_zero = PyFloat_FromDouble(0.0);
    empty_tuple = PyTuple_New(0);
    return float_zero == NULL || empty_tuple == NULL ? -1 : 0;
}

PyMODINIT_FUNC
PyInit__kernel(void)
{
    struct { const char *name; PyTypeObject *type; } types[] = {
        {"Event", &EventType}, {"EventQueue", &QueueType},
        {"FifoServer", &ServerType}, {"LinkStats", &StatsType},
        {"DirectedLink", &LinkType}, {"InternedSeenCache", &CacheType},
        {"GossipStats", &GossipStatsType}, {"SenderCore", &SenderType},
        {"NodeCore", &NodeType},
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
