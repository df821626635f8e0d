/* The simulator's pending-event queue and run loop.
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
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include "structmember.h"

#define COMPACT_MIN_SIZE 64

static PyObject *str_now, *empty_tuple;

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

/* The shared body of push and push_bare: parse (time, fn, args[, seq]),
 * take a seq into *seq_out, insert. With a handle pointer (push) the
 * entry holds a new Event, returned there. 0, or -1 with an exception. */
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

static PyObject *
queue_reserve(QueueObject *q, PyObject *Py_UNUSED(ignored))
{
    PyObject *seq = PyLong_FromLongLong(q->next_seq);
    if (seq == NULL) {
        return NULL;
    }
    q->next_seq++;
    if (q->observer != NULL
            && observed(PyObject_CallMethod(q->observer, "note_reserved",
                                            "O", seq)) < 0) {
        Py_DECREF(seq);
        return NULL;
    }
    return seq;
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

static PyObject *
queue_note_cancelled(QueueObject *q, PyObject *Py_UNUSED(ignored))
{
    q->cancelled++;
    q->shells++;
    long long live = q->pushed - q->popped - q->cancelled;
    if (q->shells > live && live + q->shells >= COMPACT_MIN_SIZE
            && queue_compact(q) < 0) {
        return NULL;
    }
    Py_RETURN_NONE;
}

static PyObject *
queue_cancel_bare(QueueObject *q, PyObject *seq)
{
    if (PySet_Add(q->dead, seq) < 0) {
        return NULL;
    }
    return queue_note_cancelled(q, NULL);
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

static struct PyModuleDef queue_module = {
    .m_base = PyModuleDef_HEAD_INIT,
    .m_name = "_queue",
    .m_doc = "The simulator's pending-event heap and run loop.",
    .m_size = -1,
};

PyMODINIT_FUNC
PyInit__queue(void)
{
    if (PyType_Ready(&EventType) < 0 || PyType_Ready(&QueueType) < 0) {
        return NULL;
    }
    str_now = PyUnicode_InternFromString("now");
    empty_tuple = PyTuple_New(0);
    if (str_now == NULL || empty_tuple == NULL) {
        return NULL;
    }
    PyObject *module = PyModule_Create(&queue_module);
    if (module == NULL) {
        return NULL;
    }
    Py_INCREF(&EventType);
    Py_INCREF(&QueueType);
    if (PyModule_AddObject(module, "Event", (PyObject *)&EventType) < 0
            || PyModule_AddObject(module, "EventQueue",
                                  (PyObject *)&QueueType) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
