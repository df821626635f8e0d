/* The semantic rules: SemanticFilter and SemanticAggregator.
 *
 * Backs repro.core.filtering and repro.core.aggregation. Reference
 * models: tests/reference/rules.py (the Python rules they replaced) and
 * tests/reference/semantics.py (the set-based bookkeeping before those).
 * Lockstep: tests/properties/test_semantics_lockstep.py, and
 * tests/properties/test_vote_mask_props.py for the set-based twins.
 * Leak gate: agg_heavy and raft_semantic.
 */

/* -- the compiled semantics: SemanticFilter and SemanticAggregator ------- */

/* repro.core's filtering and aggregation rules (paper section 3.2) for
 * Paxos and Raft alike; their executable reference models, in Python, are
 * tests/reference/rules.py. A vote is a key plus senders: a Phase
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
    {"majority", T_PYSSIZET, offsetof(FilterObject, majority), READONLY, NULL},
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
