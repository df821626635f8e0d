/* The census: events and host time per callback and per compiled span.
 *
 * Backs repro.sim.census and the census argument of EventQueue.run
 * (repro.sim.events). It has no reference model: it observes a run and
 * changes nothing the run computes, which tests/sim/test_census.py
 * checks. Its lockstep property is that check (a census run's report
 * fingerprint equals the plain run's). No leak-gate case takes a census.
 */

/* run(..., census) counts each executed event and the time its callback
 * took (inclusive of every C call it makes), per callback function, in a
 * table of C counters; the compiled types that call each other time
 * those calls as named spans. Times are read from the time-stamp counter
 * where there is one (a read costs about half a clock_gettime) and
 * scaled to CLOCK_MONOTONIC nanoseconds by the run's own span of both
 * clocks; elsewhere they are CLOCK_MONOTONIC. At the end of the run the
 * table is folded into the census dict. With no census the loop and the
 * spans cost one pointer test. */

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
