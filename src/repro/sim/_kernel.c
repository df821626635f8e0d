/* The simulator's compiled kernel: the pending-event queue and run loop,
 * the three objects every message hop goes through -- the FIFO
 * server (repro.sim.server.FifoServer), the directed link
 * (repro.net.channel.DirectedLink, with its LinkStats) and the seen-cache
 * (repro.gossip.cache.InternedSeenCache) -- and the gossip node's half of
 * the hop (repro.gossip.node: the NodeCore base of GossipNode, the
 * SenderCore base of its per-peer senders, and GossipStats) -- the Paxos
 * replica (repro.paxos: Acceptor, Learner, DecisionLog and the PaxosCore
 * base of PaxosProcess) -- and the semantic rules the senders call
 * (repro.core: SemanticFilter and SemanticAggregator). Their executable
 * reference models, in Python, live with the tests.
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
 * An optional observer (the race auditor) is told about every push and
 * execution; it is NULL when off, so the hot paths pay one pointer test.
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
#include <time.h>
#if defined(__x86_64__) || defined(__i386__)
#include <x86intrin.h>
#endif
#include "structmember.h"

#define COMPACT_MIN_SIZE 64

/* Kept out of line: a rare path that would otherwise be inlined into a
 * hot one (the census loop into run, the aggregated receive into the
 * single-part one). Inlined whatever its callers: a helper of a hot
 * path that a rare one shares (a receive's cache probe, a completion's
 * delivery). */
#if defined(__GNUC__)
#define RARE_PATH __attribute__((noinline))
#define HOT_PATH inline __attribute__((always_inline))
#else
#define RARE_PATH
#define HOT_PATH inline
#endif

static PyObject *str_queue, *str_rng, *str_link_jitter,
    *str_arrive, *str_uniform, *str_size_bytes, *str_iid, *str_uid,
    *str_intern, *str_lookup, *str_per_message_s, *str_per_byte_s,
    *str_queue_capacity, *str_jitter_s, *str_recv_fresh_s,
    *str_recv_dup_s, *str_send_per_peer_s, *str_complete,
    *str_aggregated, *str_complete_parts, *str_gossip_receive,
    *str_gossip_filtered, *str_commit, *str_disaggregate,
    *str_senders, *str_bit_count, *str_gossip_aggregated, *str_wakeup,
    *str_random,
    *float_zero,
    *long_zero, *long_one, *empty_tuple;

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
    double now;             /* the simulated clock; only run() writes it */
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

/* Insert {time, next seq, fn, args}: the queue's one insertion path.
 * With a handle pointer (push) the entry holds a new Event, returned
 * there; without one the entry is bare. The entry's seq, or -1 with an
 * exception set. */
static long long
heap_insert(QueueObject *q, double time, PyObject *fn, PyObject *args,
            PyObject **handle)
{
    long long seq = q->next_seq++;
    Entry entry = {time, seq, fn, NULL};
    if (handle != NULL) {
        /* Before the heap grows: allocating may run a collection, and a
         * finaliser may push. */
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
                   q->observer, "note_push", "dLOO", time, seq, fn,
                   args)) < 0) {
        if (handle != NULL) {
            Py_CLEAR(*handle);
        }
        return -1;
    }
    return seq;
}

/* push_bare for the C types: time is finite and not before the clock.
 * The entry's seq, or -1 with an exception set. */
static long long
heap_push_bare(QueueObject *q, double time, PyObject *fn, PyObject *args)
{
    return heap_insert(q, time, fn, args, NULL);
}

/* The shared body of push and push_bare: parse (time, fn, args) and
 * insert. The entry's seq, or -1 with an exception set. */
static long long
queue_insert(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs,
             const char *name, PyObject **handle)
{
    if (nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "%s() takes 3 arguments (%zd given)", name, nargs);
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
    return heap_insert(q, time, fn, args, handle);
}

static PyObject *
queue_push(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs)
{
    PyObject *handle = NULL;
    if (queue_insert(q, argv, nargs, "push", &handle) < 0) {
        return NULL;
    }
    return handle;
}

static PyObject *
queue_push_bare(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs)
{
    long long seq = queue_insert(q, argv, nargs, "push_bare", NULL);
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

/* -- the census: events and nanoseconds per callback --------------------- */

/* run(..., census) counts each executed event and the time its callback
 * took (inclusive of every C call it makes), per callback function, in a
 * table of C counters; the compiled types that call each other time
 * those calls as named spans. Times are read from the time-stamp counter
 * where there is one (a read costs about half a clock_gettime) and
 * scaled to CLOCK_MONOTONIC nanoseconds by the run's own span of both
 * clocks; elsewhere they are CLOCK_MONOTONIC. At the end of the run the
 * table is folded into the census dict. With no census the loop and the
 * spans cost one pointer test. */

enum {
    SPAN_DELIVER, SPAN_ROUTE, SPAN_VALIDATE, SPAN_AGGREGATE, SPAN_LOSS,
    SPAN_AGGREGATED, NSPANS
};

static const char *span_text[NSPANS] = {
    "NodeCore._complete -> deliver",
    "NodeCore._complete -> route",
    "send -> validate",
    "send -> aggregate",
    "DirectedLink._arrive -> loss hook",
    "NodeCore._on_link_receive -> aggregated receive",
};

/* One callback: a Python function (a bound method's __func__), a
 * compiled method (the type of its self and its PyMethodDef), or the
 * type of any other callable. The table owns a reference to key. */
typedef struct {
    PyObject *key;          /* NULL: an empty slot */
    const PyMethodDef *def;
    long long events;
    long long ns;           /* in census_clock() ticks until folded */
} CensusRow;

typedef struct {
    CensusRow *rows;
    Py_ssize_t capacity;    /* a power of two */
    Py_ssize_t used;
    long long span_calls[NSPANS];
    long long span_ns[NSPANS];
} Census;

/* The census of the run in progress; NULL when there is none. */
static Census *census_active;

static inline long long
monotonic_ns(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (long long)ts.tv_sec * 1000000000LL + ts.tv_nsec;
}

/* A census time stamp, in ticks. */
static inline long long
census_clock(void)
{
#if defined(__x86_64__) || defined(__i386__)
    return (long long)__rdtsc();
#else
    return monotonic_ns();
#endif
}

/* The start of a span, or 0 when no census is running. */
static inline long long
span_begin(void)
{
    return census_active != NULL ? census_clock() : 0;
}

static inline void
span_end(int span, long long start)
{
    if (start != 0 && census_active != NULL) {
        census_active->span_calls[span]++;
        census_active->span_ns[span] += census_clock() - start;
    }
}

static void
census_key(PyObject *fn, PyObject **key, const PyMethodDef **def)
{
    *def = NULL;
    if (PyMethod_Check(fn)) {
        *key = PyMethod_GET_FUNCTION(fn);
        return;
    }
    if (PyCFunction_Check(fn)) {
        PyObject *self = PyCFunction_GET_SELF(fn);
        if (self != NULL && !PyModule_Check(self)) {
            *key = (PyObject *)Py_TYPE(self);
            *def = ((PyCFunctionObject *)fn)->m_ml;
            return;
        }
    }
    *key = PyFunction_Check(fn) || PyCFunction_Check(fn)
        ? fn : (PyObject *)Py_TYPE(fn);
}

static inline size_t
census_slot(const Census *c, PyObject *key, const PyMethodDef *def)
{
    uintptr_t h = ((uintptr_t)key >> 4) ^ ((uintptr_t)def >> 3);
    return (size_t)(h * (uintptr_t)0x9E3779B97F4A7C15ULL >> 7)
        & (size_t)(c->capacity - 1);
}

static int
census_grow(Census *c)
{
    Py_ssize_t capacity = c->capacity * 2;
    CensusRow *rows = PyMem_Calloc((size_t)capacity, sizeof(CensusRow));
    if (rows == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    CensusRow *old = c->rows;
    Py_ssize_t old_capacity = c->capacity;
    c->rows = rows;
    c->capacity = capacity;
    for (Py_ssize_t i = 0; i < old_capacity; i++) {
        if (old[i].key != NULL) {
            size_t at = census_slot(c, old[i].key, old[i].def);
            while (rows[at].key != NULL) {
                at = (at + 1) & (size_t)(capacity - 1);
            }
            rows[at] = old[i];
        }
    }
    PyMem_Free(old);
    return 0;
}

/* The row of callback fn, inserted if new; NULL with an exception set. */
static CensusRow *
census_row(Census *c, PyObject *fn)
{
    PyObject *key;
    const PyMethodDef *def;
    census_key(fn, &key, &def);
    size_t at = census_slot(c, key, def);
    while (c->rows[at].key != NULL) {
        if (c->rows[at].key == key && c->rows[at].def == def) {
            return &c->rows[at];
        }
        at = (at + 1) & (size_t)(c->capacity - 1);
    }
    if (2 * (c->used + 1) > c->capacity) {
        if (census_grow(c) < 0) {
            return NULL;
        }
        return census_row(c, fn);
    }
    c->rows[at].key = Py_NewRef(key);
    c->rows[at].def = def;
    c->used++;
    return &c->rows[at];
}

/* census[key] += (count, ns), a 2-tuple of ints. */
static int
census_add(PyObject *census, PyObject *key, long long count, long long ns)
{
    PyObject *old = PyDict_GetItemWithError(census, key);
    if (old == NULL && PyErr_Occurred()) {
        return -1;
    }
    long long old_count = 0, old_ns = 0;
    if (old != NULL && !PyArg_ParseTuple(old, "LL;a census value is a "
                                         "(count, ns) pair",
                                         &old_count, &old_ns)) {
        return -1;
    }
    PyObject *value = Py_BuildValue("(LL)", old_count + count, old_ns + ns);
    if (value == NULL) {
        return -1;
    }
    int failed = PyDict_SetItem(census, key, value);
    Py_DECREF(value);
    return failed;
}

/* Fold c into the census dict and release it. A compiled method's key
 * is its method descriptor, looked up on its self's type. Keeps a
 * pending exception. 0, or -1 with an exception set. */
static int
census_fold(Census *c, PyObject *census, long long run_events,
            long long run_ns, double ns_per_tick)
{
    PyObject *exc_type, *exc_value, *exc_tb;
    PyErr_Fetch(&exc_type, &exc_value, &exc_tb);
    int failed = 0;
    for (Py_ssize_t i = 0; i < c->capacity; i++) {
        CensusRow *row = &c->rows[i];
        if (row->key == NULL) {
            continue;
        }
        if (!failed) {
            PyObject *key = row->def == NULL ? Py_NewRef(row->key)
                : PyObject_GetAttrString(row->key, row->def->ml_name);
            failed = key == NULL
                || census_add(census, key, row->events,
                              llround(row->ns * ns_per_tick)) < 0;
            Py_XDECREF(key);
        }
        Py_DECREF(row->key);
    }
    PyMem_Free(c->rows);
    for (int s = 0; s < NSPANS && !failed; s++) {
        if (c->span_calls[s] == 0) {
            continue;
        }
        PyObject *key = PyUnicode_FromString(span_text[s]);
        failed = key == NULL
            || census_add(census, key, c->span_calls[s],
                          llround(c->span_ns[s] * ns_per_tick)) < 0;
        Py_XDECREF(key);
    }
    if (!failed) {
        PyObject *key = PyUnicode_FromString("EventQueue.run");
        failed = key == NULL
            || census_add(census, key, run_events, run_ns) < 0;
        Py_XDECREF(key);
    }
    if (exc_type != NULL) {
        PyErr_Restore(exc_type, exc_value, exc_tb);
        return -1;
    }
    return failed ? -1 : 0;
}

/* run()'s body for one popped entry: retire a handle, count it, set the
 * clock to its time, tell the observer, call it (timed under row when
 * there is a census) and release its references. 0, or -1 with an
 * exception set. */
static HOT_PATH int
run_one(QueueObject *q, Entry *e, CensusRow *row)
{
    PyObject *fn, *args;
    if (e->args == NULL) {
        /* Retire the handle before its callback runs: a callback
         * cancelling its own event must not count a second
         * cancellation. Its references move to this frame. */
        event_take((EventObject *)e->fn, &fn, &args);
        Py_DECREF(e->fn);
    }
    else {
        fn = e->fn;
        args = e->args;
    }
    q->executed++;
    q->now = e->time;
    PyObject *res = NULL;
    if (q->observer == NULL
            || observed(PyObject_CallMethod(q->observer, "note_exec", "dLOO",
                                            e->time, e->seq, fn, args)) == 0) {
        if (row == NULL) {
            res = PyObject_Call(fn, args, NULL);
        }
        else {
            long long start = census_clock();
            res = PyObject_Call(fn, args, NULL);
            row->ns += census_clock() - start;
        }
    }
    Py_DECREF(fn);
    Py_DECREF(args);
    if (res == NULL) {
        return -1;
    }
    Py_DECREF(res);
    return 0;
}

/* The event loop: run live events with time <= limit, at most budget of
 * them, counting each one in *executed; with a census c, each under its
 * callback's row. Stopped at limit rather than by the budget (a live
 * event beyond it, or drained), it advances the clock to a finite limit;
 * a limit behind the clock never moves it back. 0, or -1 with an
 * exception set. */
static HOT_PATH int
run_loop(QueueObject *q, double limit, double budget, Census *c,
         long long *executed)
{
    while ((double)*executed < budget) {
        Entry e;
        int got = pop_live(q, limit, &e);
        if (got <= 0) {
            if (got == 0 && limit > q->now && limit < Py_HUGE_VAL) {
                q->now = limit;
            }
            return got;
        }
        CensusRow *row = NULL;
        if (c != NULL) {
            PyObject *fn = e.args == NULL ? ((EventObject *)e.fn)->fn : e.fn;
            row = census_row(c, fn);
            if (row == NULL) {
                /* Counted, as a raising callback is, and released. */
                ++*executed;
                q->executed++;
                Py_DECREF(e.fn);
                Py_XDECREF(e.args);
                return -1;
            }
            row->events++;
        }
        ++*executed;
        if (run_one(q, &e, row) < 0) {
            return -1;
        }
    }
    return 0;
}

/* run()'s loop with each event counted and timed under its callback's
 * row, folded into the census dict at the end. */
static RARE_PATH PyObject *
queue_run_census(QueueObject *q, double limit, double budget,
                 PyObject *census)
{
    Census c = {NULL, 16, 0, {0}, {0}};
    c.rows = PyMem_Calloc((size_t)c.capacity, sizeof(CensusRow));
    if (c.rows == NULL) {
        return PyErr_NoMemory();
    }
    Census *outer = census_active;
    census_active = &c;
    long long executed = 0, start = monotonic_ns(), ticks = census_clock();
    int failed = run_loop(q, limit, budget, &c, &executed) < 0;
    ticks = census_clock() - ticks;
    long long elapsed = monotonic_ns() - start;
    census_active = outer;
    double ns_per_tick = ticks > 0 ? (double)elapsed / (double)ticks : 1.0;
    if (census_fold(&c, census, executed, elapsed, ns_per_tick) < 0
            || failed) {
        return NULL;
    }
    return PyLong_FromLongLong(executed);
}

/* run(limit, budget, census=None): execute live events with time <=
 * limit, at most budget of them, the clock set to each one's time before
 * it is called. Returns the number executed. A callback that raises was
 * popped, so it is counted before the exception propagates. A census
 * dict receives (events, ns) per callback and per span. */
static PyObject *
queue_run(QueueObject *q, PyObject *const *argv, Py_ssize_t nargs)
{
    if (nargs != 2 && nargs != 3) {
        PyErr_Format(PyExc_TypeError,
                     "run() takes 2 or 3 arguments (%zd given)", nargs);
        return NULL;
    }
    double limit, budget;
    if (parse_bound(argv[0], &limit) < 0
            || parse_bound(argv[1], &budget) < 0) {
        return NULL;
    }
    if (nargs == 3 && argv[2] != Py_None) {
        if (!PyDict_Check(argv[2])) {
            PyErr_Format(PyExc_TypeError, "run() census must be a dict, "
                         "not %.100s", Py_TYPE(argv[2])->tp_name);
            return NULL;
        }
        return queue_run_census(q, limit, budget, argv[2]);
    }
    long long executed = 0;
    if (run_loop(q, limit, budget, NULL, &executed) < 0) {
        return NULL;
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
queue_get_now(QueueObject *q, void *Py_UNUSED(closure))
{
    return PyFloat_FromDouble(q->now);
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
     "push(time, fn, args) -> Event: enqueue a handle entry."},
    {"push_bare", (PyCFunction)(void (*)(void))queue_push_bare, METH_FASTCALL,
     "push_bare(time, fn, args) -> seq: enqueue fn(*args)."},
    {"pop_entry", (PyCFunction)queue_pop_entry, METH_O,
     "pop_entry(limit) -> (time, seq, fn, args) or None."},
    {"pop", (PyCFunction)(void (*)(void))queue_pop, METH_FASTCALL,
     "pop(limit=None) -> Event or None."},
    {"note_cancelled", (PyCFunction)queue_note_cancelled, METH_NOARGS,
     "Count one cancelled live handle event."},
    {"cancel_bare", (PyCFunction)queue_cancel_bare, METH_O,
     "Cancel the pending bare event whose push returned seq."},
    {"run", (PyCFunction)(void (*)(void))queue_run, METH_FASTCALL,
     "run(limit, budget, census=None) -> executed: the event loop.\n\n"
     "A census dict receives, per executed callback's function (a\n"
     "compiled method's descriptor), the pair (events, ns): the events\n"
     "run and the CLOCK_MONOTONIC nanoseconds spent in them; per span of\n"
     "one compiled type calling another, its name -> (calls, ns); and\n"
     "'EventQueue.run' -> (events, ns) for the whole loop. Pairs add to\n"
     "what the dict holds."},
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
    {"now", (getter)queue_get_now, NULL,
     "The simulated clock: the time of the event running or last run,\n"
     "or the limit a run stopped at.", NULL},
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

/* -- ReceiverLossInjector ------------------------------------------------ */

/* The paper's receiver-side loss (section 4.5): the loss_hook of every
 * link of a lossy run. A message arriving at dst is dropped with dst's
 * rate (its per_process entry, else rate), decided by one random() of
 * the simulator's named stream, the same object and call as the Python
 * it replaced (tests/net/reference_loss.py). A link calls it directly;
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

static PyTypeObject LossType;

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

/* -- SenderCore: a gossip node's per-peer send routine ------------------ */

/* Its methods follow NodeCore's, whose fields the pump reads. */
typedef struct {
    PyObject_HEAD
    PyObject *link;
    double free_at;         /* the link serialises our traffic until then */
    char wakeup_armed;      /* a wake-up is outstanding */
    char bounded;           /* capacity is not None */
    PyObject *node;         /* the NodeCore it sends for */
    PyObject *peer_id;
    PyObject *queue;        /* list; holds messages only while armed */
    Py_ssize_t limit;       /* capacity, when bounded */
    long long wakeup_seq;   /* the armed wake-up's bare handle */
} SenderObject;

static PyTypeObject SenderType;

/* The compiled semantics, defined beside the learner whose instance
 * table the filter shares; the node calls them directly. */
static PyObject *filter_validate(PyObject *self, PyObject *const *argv,
                                 Py_ssize_t nargs, PyObject *kwnames);
static int filter_admits(PyObject *filter, PyObject *payload,
                         PyObject *peer_id);
static PyObject *aggregator_aggregate(PyObject *self, PyObject *const *argv,
                                      Py_ssize_t nargs, PyObject *kwnames);
static PyObject *aggregator_merge(PyObject *obj, PyObject *payloads);
static PyObject *aggregator_disaggregate(PyObject *self, PyObject *payload);
static PyObject *disaggregate_parts(PyObject *payload);

/* The Paxos replica's handle, which the node calls directly. */
static PyObject *core_handle(PyObject *obj, PyObject *payload);

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
    PyObject *complete_cb = PyObject_GetAttr((PyObject *)self,
                                             str_complete);
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
    double completion = callback == NULL ? -1.0
        : server_accept(cpu, service);
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

static int sender_push(SenderObject *self, PyObject *payload);

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
    {"_validate", T_OBJECT, offsetof(NodeObject, validate), 0,
     "hooks.validate, or None for the default (admit everything)."},
    {"_aggregate", T_OBJECT, offsetof(NodeObject, aggregate), 0,
     "hooks.aggregate, or None for the default (the identity)."},
    {"_disaggregate", T_OBJECT, offsetof(NodeObject, disaggregate), 0,
     "hooks.disaggregate, or None for the default ([payload])."},
    {"_fwd_pairs", T_OBJECT, offsetof(NodeObject, fwd_pairs), READONLY,
     NULL},
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

/* -- the Paxos replica: Acceptor, Learner, DecisionLog and PaxosCore ---- */

/* The roles of repro.paxos (the acceptor, the learner and the gap-free
 * decision log) and the message handling of repro.paxos.process.
 * PaxosProcess, whose C base PaxosCore is. The coordinator stays in
 * Python. Their executable reference models, in Python, are
 * tests/paxos/reference_replica.py.
 *
 * Instances and rounds are C long longs (a larger int raises
 * OverflowError). A message's fields are read straight from its slots
 * when it is of the exact class register_replica() named, and through
 * getattr otherwise; a Phase 2b vote is built the same way, slot by slot,
 * as Phase2b.__init__ would. Value ids are compared with ==, identity
 * first. */

enum {
    F_INSTANCE, F_ROUND, F_VALUE, F_VALUE_ID, F_SENDER, F_FROM_INSTANCE,
    F_UID, F_SIZE_BYTES, F_IID, F_MESSAGES_HANDLED, F_DECISIONS_DELIVERED,
    F_SENDERS, F_ATTEMPT, F_TERM, F_INDEX, F_LEADER_COMMIT, NFIELDS
};

static const char *field_text[NFIELDS] = {
    "instance", "round", "value", "value_id", "sender", "from_instance",
    "uid", "size_bytes", "iid", "messages_handled", "decisions_delivered",
    "senders", "attempt", "term", "index", "leader_commit",
};

static PyObject *field_name[NFIELDS];

/* The replica's classes (register_replica), then the votes and decisions
 * of both protocols that the compiled semantics switch on
 * (register_semantics): Phase2b, Aggregated2b, Decision, AppendAck,
 * AggregatedAck, CommitNotice and AppendEntries. */
enum {
    K_STATS, K_VALUE, K_CLIENT, K_PHASE1A, K_PHASE1B, K_PHASE2A, K_PHASE2B,
    K_DECISION, K_VOTE, K_VOTES, K_DECIDE, K_ACK, K_ACKS, K_COMMIT, K_APPEND,
    NKINDS
};
#define NREPLICA (K_DECISION + 1)

/* A registered class and the offsets of its object slots (0: none). */
typedef struct {
    PyTypeObject *type;
    Py_ssize_t offset[NFIELDS];
} Kind;

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
    PyObject *uid = PyTuple_Pack(5, str_2b, instance, round, sender,
                                 attempt);
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

typedef struct {
    PyObject_HEAD
    long long next_instance;
    long long delivered_count;
    PyObject *pending;      /* dict instance -> value */
} LogObject;

static PyTypeObject LogType;

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

typedef struct {
    PyObject_HEAD
    PyObject *process_id;
    PyObject *accepted;     /* dict instance -> (round, value) */
    long long promised_round;
    long long forgotten;
} AcceptorObject;

static PyTypeObject AcceptorType;

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

/* The votes for one (round, value id); its voter bitset is the tally's
 * row of the slate's bits. */
typedef struct {
    long long round;
    PyObject *value_id;
} Tally;

/* A value whose content arrived (Phase 2a or Decision). */
typedef struct {
    PyObject *value_id;
    PyObject *value;
} Known;

/* The state of one undecided instance. */
typedef struct {
    long long instance;
    PyObject *decided_id;   /* NULL until a majority formed */
    Tally *tallies;
    uint64_t *bits;         /* cap_tallies rows of the learner's words */
    Known *known;
    int ntallies, cap_tallies, nknown, cap_known;
} Slate;

/* Slates by instance: open addressing, linear probing. */
typedef struct {
    Slate **slots;
    size_t mask;            /* capacity - 1; 0 with no table yet */
    Py_ssize_t used;
} SlateTable;

typedef struct {
    PyObject_HEAD
    Py_ssize_t n, majority, words;
    PyObject *decided;      /* dict instance -> Value */
    PyObject *on_quorum;    /* NULL or None: unset */
    long long by_majority, by_message, forgotten;
    SlateTable table;
    char busy;              /* inside a value id comparison */
} LearnerObject;

static PyTypeObject LearnerType;

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
        int equal = same_id(&self->busy, slate->known[i].value_id,
                            value_id);
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

/* -- the compiled semantics: SemanticFilter and SemanticAggregator ------- */

/* repro.core's filtering and aggregation rules (paper section 3.2) for
 * Paxos and Raft alike; their executable reference models, in Python, are
 * tests/core/reference_rules.py. A vote is a key plus senders: a Phase
 * 2b or Aggregated2b votes for (round, value id) in an instance, an
 * AppendAck or AggregatedAck for a term at a log index. A Decision
 * decides its instance; a CommitNotice's index and an AppendEntries'
 * leader_commit decide every index up to theirs.
 *
 * The filter keeps, per peer, the instances whose decision the peer must
 * know (a watermark plus a sparse set) and the learner's instance table
 * of (round, value id, sent-senders bitset): a Raft key is a term, whose
 * tally has no value id. Senders are process ids in [0, n); a bitset is
 * n bits wide and a majority a popcount, as in the learner. Instances,
 * rounds and terms are C long longs (a larger int raises OverflowError).
 * Message classes are matched exactly, as the Python rules' type switch
 * did, and their fields read from their slots. */

/* The slots an AppendAck, an Aggregated2b and an AggregatedAck are
 * built from, as their __init__ sets them. */
static const int ack_fields[] = {F_UID, F_SIZE_BYTES, F_IID, F_TERM,
                                 F_INDEX, F_SENDER};
static const int votes_fields[] = {F_UID, F_SIZE_BYTES, F_IID, F_INSTANCE,
                                   F_ROUND, F_VALUE_ID, F_SENDERS,
                                   F_ATTEMPT};
static const int acks_fields[] = {F_UID, F_SIZE_BYTES, F_IID, F_TERM,
                                  F_INDEX, F_SENDERS, F_ATTEMPT};
#define NACK_FIELDS (sizeof ack_fields / sizeof ack_fields[0])
#define NVOTES_FIELDS (sizeof votes_fields / sizeof votes_fields[0])
#define NACKS_FIELDS (sizeof acks_fields / sizeof acks_fields[0])

static PyObject *str_ack, *str_a2b, *str_aack, *long_64;

static PyObject *
register_semantics(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyTypeObject *types[NKINDS - NREPLICA];
    if (!PyArg_ParseTuple(args, "O!O!O!O!O!O!O!:register_semantics",
                          &PyType_Type, &types[0], &PyType_Type, &types[1],
                          &PyType_Type, &types[2], &PyType_Type, &types[3],
                          &PyType_Type, &types[4], &PyType_Type, &types[5],
                          &PyType_Type, &types[6])) {
        return NULL;
    }
    Kind found[NKINDS - NREPLICA];
    for (int i = 0; i < NKINDS - NREPLICA; i++) {
        found[i] = kind_of(types[i]);
    }
    /* The classes built slot by slot: a Raft ack (a disaggregated part)
     * and both aggregates. */
    struct { int kind; const int *fields; size_t count; } built[] = {
        {K_ACK, ack_fields, NACK_FIELDS},
        {K_VOTES, votes_fields, NVOTES_FIELDS},
        {K_ACKS, acks_fields, NACKS_FIELDS},
    };
    for (size_t b = 0; b < sizeof built / sizeof built[0]; b++) {
        const Kind *k = &found[built[b].kind - NREPLICA];
        for (size_t i = 0; i < built[b].count; i++) {
            if (k->offset[built[b].fields[i]] == 0) {
                PyErr_Format(PyExc_TypeError, "%s must keep %U in "
                             "__slots__", k->type->tp_name,
                             field_name[built[b].fields[i]]);
                return NULL;
            }
        }
    }
    set_kinds(NREPLICA, types, found, NKINDS - NREPLICA);
    Py_RETURN_NONE;
}

/* The kind of a vote or decision class of either protocol, or -1. */
static inline int
semantic_kind(PyTypeObject *type)
{
    for (int kind = NREPLICA; kind < NKINDS; kind++) {
        if (kinds[kind].type == type) {
            return kind;
        }
    }
    return -1;
}

static int
semantics_registered(void)
{
    if (kinds[K_VOTE].type == NULL) {
        PyErr_SetString(PyExc_RuntimeError, "the vote and decision classes "
                        "are not registered (repro.core.filtering registers "
                        "them)");
        return -1;
    }
    return 0;
}

/* What one peer is expected to know, from what was sent to it. */
typedef struct {
    long long watermark;    /* instances up to it are decided */
    long long *sparse;      /* and these, ascending, above watermark + 1 */
    Py_ssize_t nsparse, cap_sparse;
    SlateTable votes;       /* undecided instances' sent senders */
} Summary;

typedef struct {
    PyObject_HEAD
    Py_ssize_t n, majority, words;
    PyObject *peers;        /* dict peer_id -> index into summaries */
    Summary *summaries;
    Py_ssize_t npeers, cap_peers;
    uint64_t *bits;         /* words: the senders of the vote at hand */
    char busy;              /* judging: a value id's __eq__ may run */
} FilterObject;

static int
summary_decided(const Summary *s, long long instance)
{
    if (instance <= s->watermark) {
        return 1;
    }
    Py_ssize_t lo = 0, hi = s->nsparse;
    while (lo < hi) {
        Py_ssize_t mid = (lo + hi) / 2;
        if (s->sparse[mid] < instance) {
            lo = mid + 1;
        }
        else {
            hi = mid;
        }
    }
    return lo < s->nsparse && s->sparse[lo] == instance;
}

/* Mark instance decided and drop its vote state. 0, or -1 on error. */
static int
summary_mark(Summary *s, long long instance)
{
    if (summary_decided(s, instance)) {
        return 0;
    }
    if (instance == s->watermark + 1) {
        s->watermark = instance;
        Py_ssize_t absorbed = 0;
        while (absorbed < s->nsparse
                && s->sparse[absorbed] == s->watermark + 1) {
            s->watermark++;
            absorbed++;
        }
        if (absorbed > 0) {
            s->nsparse -= absorbed;
            memmove(s->sparse, s->sparse + absorbed,
                    (size_t)s->nsparse * sizeof(long long));
        }
    }
    else {
        if (s->nsparse == s->cap_sparse) {
            Py_ssize_t capacity = s->cap_sparse == 0 ? 4 : s->cap_sparse * 2;
            long long *sparse = PyMem_Realloc(
                s->sparse, (size_t)capacity * sizeof(long long));
            if (sparse == NULL) {
                PyErr_NoMemory();
                return -1;
            }
            s->sparse = sparse;
            s->cap_sparse = capacity;
        }
        Py_ssize_t at = s->nsparse;
        while (at > 0 && s->sparse[at - 1] > instance) {
            s->sparse[at] = s->sparse[at - 1];
            at--;
        }
        s->sparse[at] = instance;
        s->nsparse++;
    }
    Slate *slate = slate_take(&s->votes, instance);
    if (slate != NULL) {
        slate_free(slate);
    }
    return 0;
}

/* Mark every instance up to instance decided (a Raft prefix). */
static int
summary_mark_through(Summary *s, long long instance)
{
    for (long long i = s->watermark + 1; i <= instance; i++) {
        if (summary_mark(s, i) < 0) {
            return -1;
        }
    }
    return 0;
}

static void
summary_clear(Summary *s)
{
    PyMem_Free(s->sparse);
    s->sparse = NULL;
    s->nsparse = s->cap_sparse = 0;
    table_clear(&s->votes);
}

/* A sender mask into bits (words long): an int whose every set bit is a
 * process id below n. 0, or -1 with an exception set. */
static int
mask_bits(PyObject *mask, Py_ssize_t n, Py_ssize_t words, uint64_t *bits)
{
    if (!PyLong_Check(mask)) {
        PyErr_Format(PyExc_TypeError, "a sender mask must be an int, not "
                     "%.100s", Py_TYPE(mask)->tp_name);
        return -1;
    }
    memset(bits, 0, (size_t)words * sizeof(uint64_t));
    unsigned long long low = PyLong_AsUnsignedLongLong(mask);
    if (low == (unsigned long long)-1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError)) {
            return -1;
        }
        PyErr_Clear();
        int negative = PyObject_RichCompareBool(mask, long_zero, Py_LT);
        if (negative != 0) {
            if (negative > 0) {
                PyErr_Format(PyExc_ValueError, "a sender mask must not be "
                             "negative, got %R", mask);
            }
            return -1;
        }
        size_t size = (size_t)words * sizeof(uint64_t);
        unsigned char *bytes = PyMem_Malloc(size);
        if (bytes == NULL) {
            PyErr_NoMemory();
            return -1;
        }
#if PY_VERSION_HEX >= 0x030D0000
        int failed = _PyLong_AsByteArray((PyLongObject *)mask, bytes, size,
                                         1, 0, 1);
#else
        int failed = _PyLong_AsByteArray((PyLongObject *)mask, bytes, size,
                                         1, 0);
#endif
        if (failed == 0) {
            for (size_t i = 0; i < size; i++) {
                bits[i / 8] |= (uint64_t)bytes[i] << (8 * (i % 8));
            }
        }
        PyMem_Free(bytes);
        if (failed < 0) {
            PyErr_Clear();
            goto too_wide;
        }
    }
    else {
        bits[0] = low;
    }
    Py_ssize_t top = n - 64 * (words - 1);    /* bits used in the top word */
    if (top < 64 && (bits[words - 1] >> top) != 0) {
        goto too_wide;
    }
    return 0;
too_wide:
    PyErr_Format(PyExc_ValueError, "sender mask %R names a process id "
                 "outside [0, %zd)", mask, n);
    return -1;
}

/* The process id sender, checked to be in [0, n). */
static Py_ssize_t
voter_id(PyObject *sender, Py_ssize_t n)
{
    Py_ssize_t voter = PyLong_AsSsize_t(sender);
    if (voter == -1 && PyErr_Occurred()) {
        return -1;
    }
    if (voter < 0 || voter >= n) {
        PyErr_Format(PyExc_ValueError, "a vote's sender must be a process "
                     "id in [0, %zd), got %R", n, sender);
        return -1;
    }
    return voter;
}

/* The summary of peer_id, created empty if there is none; NULL with an
 * exception set, or with none when create is 0 and there is none. */
static Summary *
filter_summary(FilterObject *self, PyObject *peer_id, int create)
{
    PyObject *index = PyDict_GetItemWithError(self->peers, peer_id);
    if (index != NULL) {
        return &self->summaries[PyLong_AsSsize_t(index)];
    }
    if (PyErr_Occurred() || !create) {
        return NULL;
    }
    if (self->npeers == self->cap_peers) {
        Py_ssize_t capacity = self->cap_peers == 0 ? 4 : self->cap_peers * 2;
        Summary *summaries = PyMem_Realloc(
            self->summaries, (size_t)capacity * sizeof(Summary));
        if (summaries == NULL) {
            PyErr_NoMemory();
            return NULL;
        }
        self->summaries = summaries;
        self->cap_peers = capacity;
    }
    index = PyLong_FromSsize_t(self->npeers);
    if (index == NULL) {
        return NULL;
    }
    int failed = PyDict_SetItem(self->peers, peer_id, index);
    Py_DECREF(index);
    if (failed < 0) {
        return NULL;
    }
    Summary *s = &self->summaries[self->npeers++];
    memset(s, 0, sizeof(Summary));
    return s;
}

/* The verdict on a vote or decision of kind towards peer_id: 1 sent, 0
 * dropped, -1 on error. Runs with self->busy set. */
static int
filter_judge(FilterObject *self, PyObject *payload, int kind,
             PyObject *peer_id)
{
    long long instance, round = 0;
    PyObject *value_id = NULL, *senders = NULL;
    int prefix = kind == K_ACK || kind == K_ACKS || kind == K_COMMIT
        || kind == K_APPEND;
    int vote = kind == K_VOTE || kind == K_VOTES || kind == K_ACK
        || kind == K_ACKS;
    int at_f = kind == K_APPEND ? F_LEADER_COMMIT
        : prefix ? F_INDEX : F_INSTANCE;
    Py_ssize_t voter = -1;
    if (field_ll(payload, kind, at_f, &instance) < 0) {
        return -1;
    }
    if (vote) {
        int round_f = prefix ? F_TERM : F_ROUND;
        int single = kind == K_VOTE || kind == K_ACK;
        if (field_ll(payload, kind, round_f, &round) < 0
                || (!prefix && (value_id = field(payload, kind,
                                                 F_VALUE_ID)) == NULL)
                || (senders = field(payload, kind, single ? F_SENDER
                                                          : F_SENDERS))
                   == NULL) {
            goto error;
        }
        if (single ? (voter = voter_id(senders, self->n)) < 0
                   : mask_bits(senders, self->n, self->words, self->bits)
                     < 0) {
            goto error;
        }
    }
    Summary *s = filter_summary(self, peer_id, 1);
    if (s == NULL) {
        goto error;
    }
    if (vote) {
        if (summary_decided(s, instance)) {
            Py_XDECREF(value_id);
            Py_DECREF(senders);
            return 0;
        }
        Slate *slate = slate_get(&s->votes, instance);
        uint64_t *row = slate == NULL ? NULL
            : slate_voters(slate, self->words, &self->busy, round, value_id);
        if (row == NULL) {
            goto error;
        }
        Py_ssize_t count = 0;
        if (voter >= 0) {
            row[voter >> 6] |= (uint64_t)1 << (voter & 63);
        }
        for (Py_ssize_t w = 0; w < self->words; w++) {
            if (voter < 0) {
                row[w] |= self->bits[w];
            }
            count += __builtin_popcountll(row[w]);
        }
        Py_XDECREF(value_id);
        Py_DECREF(senders);
        value_id = senders = NULL;
        if (count < self->majority) {
            return 1;
        }
        /* The peer can now learn the decision from the votes sent. */
    }
    if ((prefix ? summary_mark_through(s, instance)
                : summary_mark(s, instance)) < 0) {
        return -1;
    }
    return 1;
error:
    Py_XDECREF(value_id);
    Py_XDECREF(senders);
    return -1;
}

/* The arguments (names[0], names[1]) of a fast call, by position or by
 * name, into out. 0, or -1 with a TypeError set. */
static int
two_args(const char *method, const char *const names[2],
         PyObject *const *argv, Py_ssize_t nargs, PyObject *kwnames,
         PyObject *out[2])
{
    Py_ssize_t nkw = kwnames == NULL ? 0 : PyTuple_GET_SIZE(kwnames);
    out[0] = nargs > 0 ? argv[0] : NULL;
    out[1] = nargs > 1 ? argv[1] : NULL;
    if (nargs > 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 arguments (%zd given)",
                     method, nargs + nkw);
        return -1;
    }
    for (Py_ssize_t i = 0; i < nkw; i++) {
        PyObject *name = PyTuple_GET_ITEM(kwnames, i);
        int which = PyUnicode_CompareWithASCIIString(name, names[0]) == 0
            ? 0 : PyUnicode_CompareWithASCIIString(name, names[1]) == 0
            ? 1 : -1;
        if (which < 0 || out[which] != NULL) {
            PyErr_Format(PyExc_TypeError, which < 0
                         ? "%s() got an unexpected keyword argument '%U'"
                         : "%s() got multiple values for argument '%U'",
                         method, name);
            return -1;
        }
        out[which] = argv[nargs + i];
    }
    for (int i = 0; i < 2; i++) {
        if (out[i] == NULL) {
            PyErr_Format(PyExc_TypeError, "%s() missing required argument "
                         "'%s'", method, names[i]);
            return -1;
        }
    }
    return 0;
}

/* validate(payload, peer_id) as a truth value: 1, 0, or -1. */
static int
filter_admits(PyObject *filter, PyObject *payload, PyObject *peer_id)
{
    FilterObject *self = (FilterObject *)filter;
    int kind = semantic_kind(Py_TYPE(payload));
    if (kind < 0) {
        return 1;
    }
    if (self->busy) {
        PyErr_SetString(PyExc_RuntimeError, "SemanticFilter re-entered "
                        "while judging a message");
        return -1;
    }
    if (self->peers == NULL) {
        return cleared();
    }
    self->busy = 1;
    int verdict = filter_judge(self, payload, kind, peer_id);
    self->busy = 0;
    return verdict;
}

static PyObject *
filter_validate(PyObject *self, PyObject *const *argv, Py_ssize_t nargs,
                PyObject *kwnames)
{
    static const char *const names[2] = {"payload", "peer_id"};
    PyObject *args[2];
    if (two_args("validate", names, argv, nargs, kwnames, args) < 0) {
        return NULL;
    }
    int verdict = filter_admits(self, args[0], args[1]);
    return verdict < 0 ? NULL : PyBool_FromLong(verdict);
}

/* The sender set of a tally row as an int. */
static PyObject *
row_mask(const uint64_t *row, Py_ssize_t words)
{
    size_t size = (size_t)words * sizeof(uint64_t);
    unsigned char *bytes = PyMem_Malloc(size);
    if (bytes == NULL) {
        return PyErr_NoMemory();
    }
    for (size_t i = 0; i < size; i++) {
        bytes[i] = (unsigned char)(row[i / 8] >> (8 * (i % 8)));
    }
    PyObject *mask = _PyLong_FromByteArray(bytes, size, 1, 0);
    PyMem_Free(bytes);
    return mask;
}

/* {instance: {key: mask}}, a key being (round, value_id) or a term. */
static PyObject *
summary_votes(FilterObject *self, const Summary *s)
{
    PyObject *votes = PyDict_New();
    const SlateTable *t = &s->votes;
    for (size_t i = 0; votes != NULL && t->slots != NULL && i <= t->mask;
            i++) {
        Slate *slate = t->slots[i];
        if (slate == NULL) {
            continue;
        }
        PyObject *keys = PyDict_New(), *instance = NULL;
        for (int k = 0; keys != NULL && k < slate->ntallies; k++) {
            Tally *tally = &slate->tallies[k];
            PyObject *key = tally->value_id == NULL
                ? PyLong_FromLongLong(tally->round)
                : Py_BuildValue("LO", tally->round, tally->value_id);
            PyObject *mask = row_mask(slate->bits + k * self->words,
                                      self->words);
            if (key == NULL || mask == NULL
                    || PyDict_SetItem(keys, key, mask) < 0) {
                Py_CLEAR(keys);
            }
            Py_XDECREF(key);
            Py_XDECREF(mask);
        }
        if (keys == NULL
                || (instance = PyLong_FromLongLong(slate->instance)) == NULL
                || PyDict_SetItem(votes, instance, keys) < 0) {
            Py_CLEAR(votes);
        }
        Py_XDECREF(instance);
        Py_XDECREF(keys);
    }
    return votes;
}

static PyObject *
filter_get_summary(FilterObject *self, PyObject *peer_id)
{
    if (self->peers == NULL) {
        cleared();
        return NULL;
    }
    Summary *s = filter_summary(self, peer_id, 0);
    if (s == NULL) {
        if (PyErr_Occurred()) {
            return NULL;
        }
        Py_RETURN_NONE;
    }
    PyObject *sparse = PyTuple_New(s->nsparse);
    for (Py_ssize_t i = 0; sparse != NULL && i < s->nsparse; i++) {
        PyObject *item = PyLong_FromLongLong(s->sparse[i]);
        if (item == NULL) {
            Py_CLEAR(sparse);
            break;
        }
        PyTuple_SET_ITEM(sparse, i, item);
    }
    PyObject *votes = sparse == NULL ? NULL : summary_votes(self, s);
    PyObject *result = votes == NULL ? NULL
        : Py_BuildValue("LOO", s->watermark, sparse, votes);
    Py_XDECREF(sparse);
    Py_XDECREF(votes);
    return result;
}

static int
filter_init(FilterObject *self, PyObject *args, PyObject *kwds)
{
    Py_ssize_t n;
    static char *kwlist[] = {"n", NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, "n:SemanticFilter", kwlist,
                                     &n)) {
        return -1;
    }
    if (n < 0) {
        PyErr_Format(PyExc_ValueError, "n must be >= 0, got %zd", n);
        return -1;
    }
    if (self->peers != NULL) {
        PyErr_SetString(PyExc_RuntimeError,
                        "SemanticFilter is already initialised");
        return -1;
    }
    if (semantics_registered() < 0) {
        return -1;
    }
    Py_ssize_t words = n == 0 ? 1 : (n + 63) / 64;
    self->bits = PyMem_Calloc((size_t)words, sizeof(uint64_t));
    if (self->bits == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    self->peers = PyDict_New();
    if (self->peers == NULL) {
        return -1;
    }
    self->n = n;
    self->majority = n / 2 + 1;
    self->words = words;
    return 0;
}

static int
filter_traverse(FilterObject *self, visitproc visit, void *arg)
{
    Py_VISIT(self->peers);
    for (Py_ssize_t i = 0; i < self->npeers; i++) {
        int failed = table_traverse(&self->summaries[i].votes, visit, arg);
        if (failed) {
            return failed;
        }
    }
    return 0;
}

static int
filter_clear(FilterObject *self)
{
    Summary *summaries = self->summaries;
    Py_ssize_t npeers = self->npeers;
    self->summaries = NULL;
    self->npeers = self->cap_peers = 0;
    for (Py_ssize_t i = 0; i < npeers; i++) {
        summary_clear(&summaries[i]);
    }
    PyMem_Free(summaries);
    Py_CLEAR(self->peers);
    return 0;
}

static void
filter_dealloc(FilterObject *self)
{
    PyObject_GC_UnTrack(self);
    filter_clear(self);
    PyMem_Free(self->bits);
    Py_TYPE(self)->tp_free((PyObject *)self);
}

static PyMethodDef filter_methods[] = {
    {"validate", (PyCFunction)(void (*)(void))filter_validate,
     METH_FASTCALL | METH_KEYWORDS,
     "validate(payload, peer_id) -> bool\n\n"
     "False when payload must not be sent to peer_id: a vote for an\n"
     "instance whose decision the peer must know. A vote that brings its\n"
     "key to a majority of senders marks the instance (the prefix, for a\n"
     "Raft ack) decided for the peer; so does a decision, which always\n"
     "passes. Any other message passes untouched."},
    {"summary", (PyCFunction)filter_get_summary, METH_O,
     "summary(peer_id) -> (watermark, sparse, votes) or None\n\n"
     "What peer_id is expected to know: instances up to watermark and\n"
     "those in the ascending tuple sparse are decided; votes maps each\n"
     "other instance sent votes for to {key: sender mask}, a key being\n"
     "(round, value_id) or a Raft term. None before the first message."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef filter_members[] = {
    {"n", T_PYSSIZET, offsetof(FilterObject, n), READONLY, NULL},
    {"majority", T_PYSSIZET, offsetof(FilterObject, majority), READONLY,
     NULL},
    {NULL, 0, 0, 0, NULL},
};

static PyTypeObject FilterType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.filtering.SemanticFilter",
    .tp_doc = "SemanticFilter(n)\n\n"
              "Per-peer evaluation of the semantic filtering rules for n\n"
              "processes.",
    .tp_basicsize = sizeof(FilterObject),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)filter_init,
    .tp_dealloc = (destructor)filter_dealloc,
    .tp_traverse = (traverseproc)filter_traverse,
    .tp_clear = (inquiry)filter_clear,
    .tp_methods = filter_methods,
    .tp_members = filter_members,
};

/* -- SemanticAggregator -------------------------------------------------- */

/* One group of pending votes with equal keys: (instance, round, value id,
 * attempt) for Paxos, (term, index, attempt) for Raft, with value_id
 * NULL. Fields are the first vote's. The senders are a 64-bit mask while
 * every one fits, an int otherwise. */
typedef struct {
    int kind;               /* K_VOTES or K_ACKS: the aggregate's class */
    Py_hash_t hash;
    PyObject *a, *b, *value_id, *attempt;
    uint64_t small;
    PyObject *big;          /* NULL: the mask is small */
    Py_ssize_t count;
    char emitted;
} Group;

typedef struct {
    PyObject_HEAD
    long long votes_absorbed, aggregates_built;
} AggregatorObject;

static void
group_release(Group *g)
{
    Py_XDECREF(g->a);
    Py_XDECREF(g->b);
    Py_XDECREF(g->value_id);
    Py_XDECREF(g->attempt);
    Py_XDECREF(g->big);
}

/* The senders of a vote as a mask: a small one in *small (big NULL), or
 * an int in *big. 0, or -1 with an exception set. */
static int
vote_mask(PyObject *payload, int kind, uint64_t *small, PyObject **big)
{
    *big = NULL;
    if (kind == K_VOTE || kind == K_ACK) {
        PyObject *sender = field(payload, kind, F_SENDER);
        if (sender == NULL) {
            return -1;
        }
        long long id = PyLong_CheckExact(sender)
            ? PyLong_AsLongLong(sender) : -2;
        if (id == -1 && PyErr_Occurred()) {
            PyErr_Clear();
            id = -2;
        }
        if (id >= 0 && id < 64) {
            *small = (uint64_t)1 << id;
        }
        else {
            *big = PyNumber_Lshift(long_one, sender);
        }
        Py_DECREF(sender);
        return *big == NULL && !(id >= 0 && id < 64) ? -1 : 0;
    }
    PyObject *senders = field(payload, kind, F_SENDERS);
    if (senders == NULL) {
        return -1;
    }
    if (PyLong_CheckExact(senders)) {
        unsigned long long mask = PyLong_AsUnsignedLongLong(senders);
        if (!(mask == (unsigned long long)-1 && PyErr_Occurred())) {
            *small = mask;
            Py_DECREF(senders);
            return 0;
        }
        PyErr_Clear();
    }
    *big = senders;
    return 0;
}

/* The group key of a vote of kind into g (new references). */
static int
vote_key(PyObject *payload, int kind, Group *g)
{
    int paxos = kind == K_VOTE || kind == K_VOTES;
    memset(g, 0, sizeof(Group));
    g->kind = paxos ? K_VOTES : K_ACKS;
    g->a = field(payload, kind, paxos ? F_INSTANCE : F_TERM);
    g->b = g->a == NULL ? NULL : field(payload, kind,
                                       paxos ? F_ROUND : F_INDEX);
    if (g->b == NULL
            || (paxos && (g->value_id = field(payload, kind,
                                               F_VALUE_ID)) == NULL)) {
        return -1;
    }
    if (kind == K_VOTE || kind == K_ACK) {
        /* uid = (tag, ..., sender, attempt) */
        PyObject *uid = field(payload, kind, F_UID);
        if (uid == NULL) {
            return -1;
        }
        g->attempt = PyTuple_CheckExact(uid) && PyTuple_GET_SIZE(uid) > 4
            ? Py_NewRef(PyTuple_GET_ITEM(uid, 4))
            : PySequence_GetItem(uid, 4);
        Py_DECREF(uid);
    }
    else {
        g->attempt = field(payload, kind, F_ATTEMPT);
    }
    if (g->attempt == NULL) {
        return -1;
    }
    Py_hash_t ha = PyObject_Hash(g->a), hb = PyObject_Hash(g->b);
    if (ha == -1 || hb == -1) {
        return -1;
    }
    g->hash = (ha * 1000003) ^ hb ^ g->kind;
    return 0;
}

/* 1 if groups a and b have equal keys, 0 if not, -1 on error. */
static int
same_key(const Group *a, const Group *b)
{
    if (a->hash != b->hash || a->kind != b->kind) {
        return 0;
    }
    PyObject *left[] = {a->a, a->b, a->value_id, a->attempt};
    PyObject *right[] = {b->a, b->b, b->value_id, b->attempt};
    for (int i = 0; i < 4; i++) {
        if (left[i] == right[i]) {
            continue;
        }
        if (left[i] == NULL || right[i] == NULL) {
            return 0;
        }
        int equal = PyObject_RichCompareBool(left[i], right[i], Py_EQ);
        if (equal <= 0) {
            return equal;
        }
    }
    return 1;
}

/* g's senders |= the vote's (small, big). 0, or -1. */
static int
group_add(Group *g, uint64_t small, PyObject *big)
{
    if (g->big == NULL && big == NULL) {
        g->small |= small;
        return 0;
    }
    if (g->big == NULL
            && (g->big = PyLong_FromUnsignedLongLong(g->small)) == NULL) {
        return -1;
    }
    PyObject *other = big != NULL ? Py_NewRef(big)
                                  : PyLong_FromUnsignedLongLong(small);
    if (other == NULL) {
        return -1;
    }
    PyObject *merged = PyNumber_InPlaceOr(g->big, other);
    Py_DECREF(other);
    if (merged == NULL) {
        return -1;
    }
    Py_SETREF(g->big, merged);
    return 0;
}

/* A new instance of the registered class of kind with its slots
 * fields[i] set to values[i], as its __init__ sets them. The values are
 * new references, stolen (all of them, whatever happens); a NULL one
 * means its construction failed. NULL with an exception set. */
static PyObject *
new_slotted(int kind, const int *fields, PyObject **values, size_t count)
{
    PyTypeObject *type = kinds[kind].type;
    PyObject *obj = NULL;
    int complete = 1;
    for (size_t i = 0; i < count; i++) {
        complete = complete && values[i] != NULL;
    }
    if (complete && type == NULL) {
        semantics_registered();
    }
    else if (complete) {
        obj = type->tp_alloc(type, 0);
    }
    for (size_t i = 0; i < count; i++) {
        if (obj != NULL) {
            *(PyObject **)((char *)obj + kinds[kind].offset[fields[i]]) =
                values[i];
        }
        else {
            Py_XDECREF(values[i]);
        }
    }
    return obj;
}

/* AppendAck(term, index, sender, attempt), built slot by slot. */
static PyObject *
new_ack(PyObject *term, PyObject *index, PyObject *sender, PyObject *attempt)
{
    PyObject *values[NACK_FIELDS] = {
        PyTuple_Pack(5, str_ack, term, index, sender, attempt),
        Py_NewRef(header_bytes), Py_NewRef(Py_None), Py_NewRef(term),
        Py_NewRef(index), Py_NewRef(sender)};
    return new_slotted(K_ACK, ack_fields, values, NACK_FIELDS);
}

/* The aggregate of group g: Aggregated2b(instance, round, value_id,
 * senders, attempt) or AggregatedAck(term, index, senders, attempt),
 * built slot by slot: uid, and size_bytes = header + 8 + one byte per
 * eight senders. */
static PyObject *
group_aggregate(const Group *g)
{
    if (header_bytes == NULL) {
        unregistered();
        return NULL;
    }
    long long header = PyLong_AsLongLong(header_bytes), bits;
    if (header == -1 && PyErr_Occurred()) {
        return NULL;
    }
    PyObject *senders;
    if (g->big == NULL) {
        bits = __builtin_popcountll(g->small);
        senders = PyLong_FromUnsignedLongLong(g->small);
    }
    else {
        PyObject *count = PyObject_CallMethodNoArgs(g->big, str_bit_count);
        bits = count == NULL ? -1 : PyLong_AsLongLong(count);
        Py_XDECREF(count);
        if (bits == -1 && PyErr_Occurred()) {
            return NULL;
        }
        senders = Py_NewRef(g->big);
    }
    if (senders == NULL) {
        return NULL;
    }
    PyObject *size = PyLong_FromLongLong(header + 8 + bits / 8);
    PyObject *result;
    if (g->kind == K_VOTES) {
        PyObject *values[NVOTES_FIELDS] = {
            PyTuple_Pack(6, str_a2b, g->a, g->b, g->value_id, senders,
                         g->attempt),
            size, Py_NewRef(Py_None), Py_NewRef(g->a), Py_NewRef(g->b),
            Py_NewRef(g->value_id), senders, Py_NewRef(g->attempt)};
        result = new_slotted(K_VOTES, votes_fields, values, NVOTES_FIELDS);
    }
    else {
        PyObject *values[NACKS_FIELDS] = {
            PyTuple_Pack(5, str_aack, g->a, g->b, senders, g->attempt),
            size, Py_NewRef(Py_None), Py_NewRef(g->a), Py_NewRef(g->b),
            senders, Py_NewRef(g->attempt)};
        result = new_slotted(K_ACKS, acks_fields, values, NACKS_FIELDS);
    }
    return result;
}

/* The replacement send list for payloads: payloads itself when no two
 * votes share a key. */
static PyObject *
aggregator_merge(PyObject *obj, PyObject *payloads)
{
    AggregatorObject *self = (AggregatorObject *)obj;
    /* A copy: a value id's __eq__ cannot change what is iterated. */
    PyObject *seq = PySequence_Tuple(payloads);
    if (seq == NULL) {
        return NULL;
    }
    Py_ssize_t size = PyTuple_GET_SIZE(seq);
    Group *groups = PyMem_Calloc(size > 0 ? (size_t)size : 1, sizeof(Group));
    Py_ssize_t *group_of = PyMem_Calloc(size > 0 ? (size_t)size : 1,
                                        sizeof(Py_ssize_t));
    Py_ssize_t ngroups = 0;
    PyObject *result = NULL;
    int merges = 0;
    if (groups == NULL || group_of == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    for (Py_ssize_t i = 0; i < size; i++) {
        PyObject *payload = PyTuple_GET_ITEM(seq, i);
        int kind = semantic_kind(Py_TYPE(payload));
        if (kind != K_VOTE && kind != K_VOTES && kind != K_ACK
                && kind != K_ACKS) {
            group_of[i] = -1;
            continue;
        }
        Group *fresh = &groups[ngroups];
        uint64_t small = 0;
        PyObject *big = NULL;
        if (vote_key(payload, kind, fresh) < 0
                || vote_mask(payload, kind, &small, &big) < 0) {
            group_release(fresh);
            goto done;
        }
        Py_ssize_t g = 0;
        for (; g < ngroups; g++) {
            int equal = same_key(&groups[g], fresh);
            if (equal < 0) {
                group_release(fresh);
                Py_XDECREF(big);
                goto done;
            }
            if (equal) {
                break;
            }
        }
        if (g < ngroups) {
            group_release(fresh);
            merges = 1;
        }
        else {
            ngroups++;
        }
        groups[g].count++;
        int failed = group_add(&groups[g], small, big);
        Py_XDECREF(big);
        if (failed < 0) {
            goto done;
        }
        group_of[i] = g;
    }
    if (!merges) {
        result = Py_NewRef(payloads);
        goto done;
    }
    result = PyList_New(0);
    for (Py_ssize_t i = 0; result != NULL && i < size; i++) {
        PyObject *payload = PyTuple_GET_ITEM(seq, i);
        Group *g = group_of[i] < 0 ? NULL : &groups[group_of[i]];
        if (g != NULL && g->emitted) {
            continue;       /* absorbed into the aggregate emitted earlier */
        }
        PyObject *item = g == NULL || g->count < 2 ? Py_NewRef(payload)
                                                   : group_aggregate(g);
        if (item == NULL || PyList_Append(result, item) < 0) {
            Py_CLEAR(result);
        }
        Py_XDECREF(item);
        if (result != NULL && g != NULL && g->count >= 2) {
            g->emitted = 1;
            self->aggregates_built++;
            self->votes_absorbed += g->count - 1;
        }
    }
done:
    for (Py_ssize_t g = 0; groups != NULL && g < ngroups; g++) {
        group_release(&groups[g]);
    }
    PyMem_Free(groups);
    PyMem_Free(group_of);
    Py_DECREF(seq);
    return result;
}

static PyObject *
aggregator_aggregate(PyObject *self, PyObject *const *argv, Py_ssize_t nargs,
                     PyObject *kwnames)
{
    static const char *const names[2] = {"payloads", "peer_id"};
    PyObject *args[2];
    if (two_args("aggregate", names, argv, nargs, kwnames, args) < 0) {
        return NULL;
    }
    return aggregator_merge(self, args[0]);
}

/* Append one part per sender of the mask senders (an int >= 0) to
 * parts, ascending: a Phase 2b (instance a, round b) or an AppendAck
 * (term a, index b). 0, or -1 with an exception set. */
static int
append_parts(PyObject *parts, int paxos, PyObject *a, PyObject *b,
             PyObject *value_id, PyObject *senders, PyObject *attempt)
{
    PyObject *rest = Py_NewRef(senders);
    long long base = 0;
    int failed = 0;
    while (!failed) {
        /* The low 64 bits; the last word if the rest fits in them. */
        unsigned long long word = PyLong_AsUnsignedLongLong(rest);
        int last = !(word == (unsigned long long)-1 && PyErr_Occurred());
        if (!last) {
            if (!PyErr_ExceptionMatches(PyExc_OverflowError)) {
                failed = -1;
                break;
            }
            PyErr_Clear();
            word = PyLong_AsUnsignedLongLongMask(rest);
        }
        while (word != 0 && !failed) {
            PyObject *sender = PyLong_FromLongLong(
                base + __builtin_ctzll(word));
            word &= word - 1;
            PyObject *part = sender == NULL ? NULL
                : paxos ? new_vote(a, b, value_id, sender, attempt)
                        : new_ack(a, b, sender, attempt);
            Py_XDECREF(sender);
            failed = part == NULL || PyList_Append(parts, part) < 0 ? -1 : 0;
            Py_XDECREF(part);
        }
        if (last || failed) {
            break;
        }
        PyObject *shifted = PyNumber_Rshift(rest, long_64);
        if (shifted == NULL) {
            failed = -1;
            break;
        }
        Py_SETREF(rest, shifted);
        base += 64;
    }
    Py_DECREF(rest);
    return failed;
}

/* The original votes of a registered Aggregated2b (kind K_VOTES) or
 * AggregatedAck (K_ACKS), ascending by sender, built slot by slot as its
 * disaggregate() builds them through the vote classes' __init__; that
 * method itself for a senders mask other than an int >= 0. */
static PyObject *
vote_parts(PyObject *payload, int kind)
{
    int paxos = kind == K_VOTES;
    if (header_bytes == NULL
            || (paxos ? kinds[K_PHASE2B].type : kinds[K_ACK].type) == NULL) {
        return PyObject_CallMethodNoArgs(payload, str_disaggregate);
    }
    PyObject *a = field(payload, kind, paxos ? F_INSTANCE : F_TERM);
    PyObject *b = a == NULL ? NULL
        : field(payload, kind, paxos ? F_ROUND : F_INDEX);
    PyObject *value_id = b == NULL || !paxos ? NULL
        : field(payload, kind, F_VALUE_ID);
    PyObject *attempt = b == NULL || (paxos && value_id == NULL) ? NULL
        : field(payload, kind, F_ATTEMPT);
    PyObject *senders = attempt == NULL ? NULL
        : field(payload, kind, F_SENDERS);
    PyObject *parts = NULL;
    if (senders != NULL) {
        int negative = PyLong_CheckExact(senders)
            ? PyObject_RichCompareBool(senders, long_zero, Py_LT) : 1;
        if (negative > 0) {
            parts = PyObject_CallMethodNoArgs(payload, str_disaggregate);
        }
        else if (negative == 0 && (parts = PyList_New(0)) != NULL
                 && append_parts(parts, paxos, a, b, value_id, senders,
                                 attempt) < 0) {
            Py_CLEAR(parts);
        }
    }
    Py_XDECREF(a);
    Py_XDECREF(b);
    Py_XDECREF(value_id);
    Py_XDECREF(attempt);
    Py_XDECREF(senders);
    return parts;
}

/* disaggregate(payload): the parts of a registered aggregate, else
 * [payload]. */
static PyObject *
disaggregate_parts(PyObject *payload)
{
    int kind = semantic_kind(Py_TYPE(payload));
    if (kind == K_VOTES || kind == K_ACKS) {
        return vote_parts(payload, kind);
    }
    PyObject *parts = PyList_New(1);
    if (parts != NULL) {
        PyList_SET_ITEM(parts, 0, Py_NewRef(payload));
    }
    return parts;
}

static PyObject *
aggregator_disaggregate(PyObject *Py_UNUSED(self), PyObject *payload)
{
    return disaggregate_parts(payload);
}

static int
aggregator_init(AggregatorObject *self, PyObject *args, PyObject *kwds)
{
    static char *kwlist[] = {NULL};
    if (!PyArg_ParseTupleAndKeywords(args, kwds, ":SemanticAggregator",
                                     kwlist)) {
        return -1;
    }
    self->votes_absorbed = self->aggregates_built = 0;
    return semantics_registered();
}

static PyMethodDef aggregator_methods[] = {
    {"aggregate", (PyCFunction)(void (*)(void))aggregator_aggregate,
     METH_FASTCALL | METH_KEYWORDS,
     "aggregate(payloads, peer_id) -> list\n\n"
     "The replacement send list, order-preserving: the votes that share a\n"
     "key become one aggregate carrying the union of their senders, at\n"
     "the first one's position; everything else keeps its relative\n"
     "order. payloads itself when no two votes share a key."},
    {"disaggregate", (PyCFunction)aggregator_disaggregate, METH_O,
     "disaggregate(payload) -> list: the original votes of an aggregate\n"
     "(reversible rule), else [payload]."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef aggregator_members[] = {
    {"votes_absorbed", T_LONGLONG,
     offsetof(AggregatorObject, votes_absorbed), 0,
     "Votes merged into an aggregate beyond its first."},
    {"aggregates_built", T_LONGLONG,
     offsetof(AggregatorObject, aggregates_built), 0, NULL},
    {NULL, 0, 0, 0, NULL},
};

/* It holds no references, so like LinkStats it is not a GC type. */
static PyTypeObject AggregatorType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.core.aggregation.SemanticAggregator",
    .tp_doc = "SemanticAggregator()\n\n"
              "Groups identical pending votes into multi-sender votes.",
    .tp_basicsize = sizeof(AggregatorObject),
    .tp_flags = Py_TPFLAGS_DEFAULT,
    .tp_new = PyType_GenericNew,
    .tp_init = (initproc)aggregator_init,
    .tp_methods = aggregator_methods,
    .tp_members = aggregator_members,
};

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

static PyTypeObject CoreType;

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
