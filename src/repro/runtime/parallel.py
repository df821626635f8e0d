"""Process-pool experiment executor.

Every experiment run is a pure function of its :class:`ExperimentConfig`
(same seed, same run — DESIGN.md §2), so independent runs can execute in
any process, in any order, without perturbing each other's results. This
module fans such runs out to a ``multiprocessing`` pool and returns their
reports **in deterministic input order**, which makes parallelism
invisible to callers: a sweep at ``workers=4`` produces bitwise-identical
values to the same sweep at ``workers=1``.

Design rules:

* **spawn-safe** — the pool uses the ``spawn`` start method by default, so
  workers never inherit interpreter state by accident; everything a task
  needs crosses the process boundary by pickling. This is also the only
  start method available everywhere, so behaviour is platform-uniform.
* **serial fallback** — when the work does not parallelise (one worker,
  one task) or *cannot* (an unpicklable config or monitor factory), the
  executor degrades to a plain in-process loop that is bitwise-identical
  to calling :func:`repro.runtime.runner.run_experiment` directly.
* **no new dependencies** — stdlib ``multiprocessing`` only.

Usage::

    from repro.runtime.parallel import run_experiments

    reports = run_experiments(configs, workers=4)   # input order preserved
"""

import multiprocessing
import os
import pickle
import sys

from repro.runtime.runner import run_experiment

#: Start method used for worker pools; "spawn" keeps workers free of
#: inherited interpreter state and behaves identically on every platform.
START_METHOD = "spawn"


def default_workers():
    """The ``os.cpu_count()``-aware worker default (always at least 1)."""
    return max(1, os.cpu_count() or 1)


def resolve_workers(workers, tasks):
    """Worker processes to actually use for ``tasks`` items.

    ``None`` or ``0`` selects :func:`default_workers`; the result is
    capped at the task count (idle workers would only cost startup time).
    """
    if workers is None or workers == 0:
        workers = default_workers()
    if workers < 0:
        raise ValueError("workers must be >= 0, got {}".format(workers))
    return max(1, min(workers, tasks))


def _picklable(obj):
    """Whether ``obj`` survives a round trip to a worker process."""
    try:
        pickle.dumps(obj)
    except Exception:
        return False
    return True


def _spawn_importable_main():
    """Whether spawn can re-import the parent's ``__main__`` module.

    Spawned workers re-run the main module's file to make its globals
    unpicklable-by-reference; a main that is not a real file (stdin,
    ``exec`` of a string) makes every worker die at startup — and the
    pool respawn it forever. Detect that and stay serial instead.
    """
    main = sys.modules.get("__main__")
    path = getattr(main, "__file__", None)
    return path is None or os.path.exists(path)


def _invoke(payload):
    """Pool target: unpack ``(fn, item)`` and apply. Must stay top-level
    so the spawn start method can import it by qualified name."""
    fn, item = payload
    return fn(item)


def parallel_map(fn, items, workers=None):
    """``[fn(item) for item in items]``, fanned out over a process pool.

    Results are returned in input order regardless of completion order.
    Falls back to the serial loop when the pool would not help (resolved
    workers <= 1, fewer than two items) or cannot be used (``fn`` or an
    item does not pickle). ``fn`` must be a top-level callable for the
    parallel path; tasks are dispatched one at a time (``chunksize=1``)
    so heterogeneous run times load-balance across workers.
    """
    items = list(items)
    workers = resolve_workers(workers, len(items))
    if (workers <= 1 or len(items) < 2 or not _spawn_importable_main()
            or not _picklable((fn, items))):
        return [fn(item) for item in items]
    context = multiprocessing.get_context(START_METHOD)
    with context.Pool(processes=workers) as pool:
        return pool.map(_invoke, [(fn, item) for item in items], chunksize=1)


def _run_one(task):
    """Worker body for :func:`run_experiments`: one seeded run."""
    config, monitor_factory = task
    monitor = monitor_factory() if monitor_factory is not None else None
    return run_experiment(config, monitor)


def run_experiments(configs, workers=None, monitor_factory=None):
    """Run independent experiments; reports come back in input order.

    Parameters
    ----------
    configs:
        Iterable of :class:`ExperimentConfig`. Each fully determines its
        run, so execution order and process placement cannot change any
        report.
    workers:
        Worker processes; ``None``/``0`` means one per CPU (capped at the
        number of configs), ``1`` forces the serial path.
    monitor_factory:
        Optional zero-argument callable producing a fresh monitor (e.g.
        ``repro.checks.SafetyMonitor``) per run — a *factory* because one
        monitor instance cannot observe runs in several processes. In
        strict mode a violation raises out of the affected run. If the
        factory does not pickle, the executor silently degrades to the
        serial path so checks are never skipped.

    Returns
    -------
    list[MetricsReport] in the order of ``configs``.
    """
    tasks = [(config, monitor_factory) for config in configs]
    return parallel_map(_run_one, tasks, workers=workers)
