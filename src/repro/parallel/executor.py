"""The sweep executor: process-pool fan-out with deterministic merge.

:class:`SweepExecutor` runs a list of picklable tasks (see
:mod:`repro.parallel.tasks`) and returns their results *in task
order*, regardless of which worker finished first — so a parallel run
is bit-identical to the serial one.  Three execution tiers compose:

1. **Cache replay** — with caching on, each task's content digest is
   looked up in the :class:`~repro.parallel.cache.ResultCache` first;
   hits skip computation entirely.  The cache holds fast-path results,
   so it is bypassed under :func:`repro.tiers.reference`, whose runs
   must actually run the reference model.
2. **Process pool** — cache misses are sharded across a
   ``ProcessPoolExecutor`` when ``jobs > 1`` (``ProcessPoolExecutor
   .map`` preserves submission order).
3. **Serial in-process** — ``jobs=1`` (the default without a
   ``REPRO_JOBS`` environment override) runs tasks inline, which is
   the path to force when debugging, profiling, or tracing.

Tracing interaction
-------------------

When the global tracer is enabled the executor *forces* the serial
fresh-run tier: cached results would emit no events, and forked
workers would inherit the parent's enabled tracer and JSONL sink —
concurrent writes through the same file descriptor interleave lines,
and a child flushing inherited buffered data duplicates parent events.
Worker processes additionally run :func:`_worker_init`, which turns
tracing off and detaches any inherited sink *without* flushing, so a
pool created while tracing is toggling can never corrupt the stream.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor

from repro import tiers
from repro.parallel.cache import ResultCache, cache_enabled

__all__ = ["ENV_JOBS", "SweepExecutor", "resolve_jobs", "run_task"]

ENV_JOBS = "REPRO_JOBS"

#: Distinguishes "cache missed" from a task that legitimately
#: returned ``None``.
_UNSET = object()


def resolve_jobs(jobs: int | None = None) -> int:
    """Worker-count resolution: explicit argument, else ``REPRO_JOBS``,
    else 1 (serial).  Zero or negative means "all cores"."""
    if jobs is None:
        env = os.environ.get(ENV_JOBS, "").strip()
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ValueError(
                    f"{ENV_JOBS} must be an integer, got {env!r}") from None
        else:
            jobs = 1
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return jobs


def _worker_init() -> None:
    """Pool-worker initializer: never inherit an enabled tracer.

    Detaches any sink without flush/close — with the ``fork`` start
    method the child holds a duplicate of the parent's buffered file
    object, so flushing here would write the parent's pending lines a
    second time, and closing would tear down shared state.
    """
    from repro.trace import tracer
    tracer.TRACE_ENABLED = False
    tracer.TRACER._sink = None
    tracer.TRACER._owns_sink = False


def run_task(task):
    """Module-level trampoline so tasks pickle under every start
    method."""
    return task.run()


class SweepExecutor:
    """Runs task lists with optional parallelism and result caching.

    ``jobs=None`` defers to ``REPRO_JOBS`` (default 1); ``use_cache=
    None`` defers to ``REPRO_CACHE`` (default on).  A custom ``cache``
    instance may be supplied (tests point it at a temp directory).
    """

    def __init__(self, jobs: int | None = None,
                 use_cache: bool | None = None,
                 cache: ResultCache | None = None):
        self.jobs = resolve_jobs(jobs)
        if use_cache is None:
            use_cache = cache_enabled() if cache is None else True
        self.use_cache = use_cache
        self.cache = cache if cache is not None else (
            ResultCache() if use_cache else None)

    # ------------------------------------------------------------------

    def _tracing_active(self) -> bool:
        from repro.trace import tracer
        return tracer.TRACE_ENABLED

    def map(self, fn, items) -> list:
        """Apply ``fn`` to every item; results in item order.

        Parallel only when this executor has ``jobs > 1``, there is
        more than one item, and tracing is off.
        """
        items = list(items)
        if self.jobs <= 1 or len(items) <= 1 or self._tracing_active():
            return [fn(item) for item in items]
        workers = min(self.jobs, len(items))
        with ProcessPoolExecutor(max_workers=workers,
                                 initializer=_worker_init) as pool:
            return list(pool.map(fn, items))

    def run_tasks(self, tasks) -> list:
        """Run every task (cache replay, then pool fan-out of misses);
        returns results in task order."""
        tasks = list(tasks)
        if self._tracing_active():
            # Traced runs must actually execute, serially, in-process:
            # the event stream is the product.
            return [task.run() for task in tasks]
        results = [_UNSET] * len(tasks)
        keys: list[str | None] = [None] * len(tasks)
        pending = []
        if self.use_cache and self.cache is not None and tiers.fast():
            for i, task in enumerate(tasks):
                keys[i] = self.cache.key(type(task).__name__, task.spec())
                hit, value = self.cache.get(keys[i])
                if hit:
                    results[i] = value
                else:
                    pending.append(i)
        else:
            pending = list(range(len(tasks)))
        if pending:
            computed = self.map(run_task, [tasks[i] for i in pending])
            for i, value in zip(pending, computed):
                results[i] = value
                if keys[i] is not None:
                    self.cache.put(keys[i], value)
        return results
