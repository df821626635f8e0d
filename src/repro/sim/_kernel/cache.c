/* The seen-cache: InternedSeenCache, a gossip node's duplicate filter.
 *
 * Backs repro.gossip.cache. Reference models: tests/reference/cache.py
 * (the Python type it replaced) and tests/reference/dedup.py (the
 * uid-keyed cache before it). Lockstep:
 * tests/properties/test_hop_lockstep.py, and
 * test_interned_seen_cache_matches_dict_cache in
 * tests/properties/test_interner_props.py. Leak gate: every gossip case
 * (fig7_overlay, push_pull_loss, agg_heavy, churn_smoke, ...).
 */

/* -- InternedSeenCache --------------------------------------------------- */

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
