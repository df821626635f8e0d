/* The kernel's shared declarations, included by ../_kernel.c ahead of
 * its parts: the interned names, one declaration of every type object,
 * the object layouts a part reads outside its own, and the entry points
 * one part calls in another. Anything else a part uses from an earlier
 * part it reaches by the include order: the parts are one translation
 * unit, compiled and inlined as one. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
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
 * delivery). GCC and Clang, the compilers repro.sim.native drives, both
 * take these attributes. */
#define RARE_PATH __attribute__((noinline))
#define HOT_PATH inline __attribute__((always_inline))

/* The interned names and constants, made once by module.c's
 * intern_strings. replica.c and semantics.c declare their own names
 * beside the tables that use them (declared here instead, they would
 * move in .bss and so move every address the code reads them at). */
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

/* Every type object, each defined at the end of its part. */
static PyTypeObject EventType, QueueType, ServerType, StatsType, LossType,
    LinkType, CacheType, GossipStatsType, SenderType, NodeType, LogType,
    AcceptorType, LearnerType, FilterType, AggregatorType, CoreType;

/* -- queue.c: the heap entry and the queue ------------------------------- */

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

/* -- census.c: the compiled spans span_begin/span_end time --------------- */

enum {
    SPAN_DELIVER, SPAN_ROUTE, SPAN_VALIDATE, SPAN_AGGREGATE, SPAN_LOSS,
    SPAN_AGGREGATED, NSPANS
};

/* -- server.c: the hop types' ring buffer and the FIFO server ------------ */

/* A FIFO of fixed-size items in a circular buffer: push at the tail, pop
 * at the head (or, to withdraw, at the tail). Grown by an eighth through
 * PyMem_Realloc, as the heap is, so tracemalloc sees it and a large one
 * keeps little slack. */
typedef struct {
    char *buf;
    Py_ssize_t head, len, cap;
} Ring;

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

/* -- link.c: the link and its counters ----------------------------------- */

typedef struct {
    PyObject_HEAD
    long long sent;
    long long dropped_queue;
    long long dropped_loss;
    long long delivered;
    long long bytes_sent;
} StatsObject;

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

/* -- cache.c: the seen-cache --------------------------------------------- */

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

/* -- node.c: a gossip node's per-peer sender (SenderCore) ---------------- */

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

/* -- replica.c: the registry's fields and kinds, and the roles ----------- */

/* The message fields the registry reads, by slot or by name (field_text
 * and field_name in replica.c). */
enum {
    F_INSTANCE, F_ROUND, F_VALUE, F_VALUE_ID, F_SENDER, F_FROM_INSTANCE,
    F_UID, F_SIZE_BYTES, F_IID, F_MESSAGES_HANDLED, F_DECISIONS_DELIVERED,
    F_SENDERS, F_ATTEMPT, F_TERM, F_INDEX, F_LEADER_COMMIT, NFIELDS
};

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

typedef struct {
    PyObject_HEAD
    long long next_instance;
    long long delivered_count;
    PyObject *pending;      /* dict instance -> value */
} LogObject;

typedef struct {
    PyObject_HEAD
    PyObject *process_id;
    PyObject *accepted;     /* dict instance -> (round, value) */
    long long promised_round;
    long long forgotten;
} AcceptorObject;

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

/* The entry points one part calls in another. node.c calls sender_push
 * before it defines it, and the semantics' entry points and core_handle
 * before their parts come; the rest are defined before their callers and
 * declared here as the seams between the parts. */
static long long heap_push_bare(QueueObject *q, double time, PyObject *fn,
                                PyObject *args);
static int queue_cancel_seq(QueueObject *q, long long seq);
static inline long long span_begin(void);
static inline void span_end(int span, long long start);
static inline int queue_now(QueueObject *queue, double *now);
static double server_accept(ServerObject *s, double service);
static double link_commit_at(LinkObject *l, PyObject *payload,
                             PyObject *args, double at, double now);
static PyObject *cache_register_payload(CacheObject *c, PyObject *payload);
static int sender_push(SenderObject *self, PyObject *payload);
static PyObject *filter_validate(PyObject *self, PyObject *const *argv,
                                 Py_ssize_t nargs, PyObject *kwnames);
static int filter_admits(PyObject *filter, PyObject *payload,
                         PyObject *peer_id);
static PyObject *aggregator_aggregate(PyObject *self, PyObject *const *argv,
                                      Py_ssize_t nargs, PyObject *kwnames);
static PyObject *aggregator_merge(PyObject *obj, PyObject *payloads);
static PyObject *aggregator_disaggregate(PyObject *self, PyObject *payload);
static PyObject *disaggregate_parts(PyObject *payload);
static PyObject *core_handle(PyObject *obj, PyObject *payload);
