"""Cohort-batched SPMD scheduling (a fast path of :mod:`repro.tiers`).

The reference :class:`~repro.simkernel.scheduler.SpmdScheduler` polls
*every* blocked condition between every advance.  That is O(blocked)
work per event, and with P processors blocked on a barrier the epoch
costs O(P^2) ``ready()`` calls — the hidden serial term that caps weak
scaling runs at a few dozen simulated PEs.

This scheduler advances the whole *ready cohort* — every context whose
next event lands before the next synchronization horizon — between
polls, by observing that a blocked condition can only become ready when
specific machine state changes:

* a :class:`~repro.simkernel.conditions.BarrierCondition` flips exactly
  when the *last* processor starts the epoch (the barrier's wired-OR
  completes);
* a :class:`~repro.simkernel.conditions.BytesArrivedCondition` flips
  only when a store packet lands in the waiting node's arrival log;
* a :class:`~repro.simkernel.conditions.MessageCondition` (hardware
  messages) flips only when :meth:`MessageUnit.send` appends to the
  waiting node's inbox, and an
  :class:`~repro.splitc.am.AmMessageCondition` only when
  :meth:`ActiveMessages.send` deposits a request — both senders emit
  the matching wake event, so message-driven programs (histogram,
  samplesort, request/reply protocols) block without polling too.
  These groups are *re-polled per member* on wake, because another
  thread may consume the message first (and a condition found unready
  at pop time parks on the always-poll list — the conservative
  reference treatment);
* any condition type this module does not recognize is polled before
  every advance, exactly as the reference scheduler does.

The barrier tree and the nodes carry a ``wake_sink`` list while a
cohort run is active; :meth:`HardwareBarrier.start` appends a wake
event when an epoch completes and :meth:`Node.record_store_arrival`
appends one per landing packet.  Between wake events the scheduler
drains the run-queue heap with *zero* condition polls — the cohort —
so a P-processor barrier epoch costs O(P) instead of O(P^2).

Because ``ready()`` is a pure function of that keyed state, skipping a
poll whose key was not touched can never miss a wake-up, and the heap
(keyed ``(clock, index)``, a total order) pops in exactly the same
sequence as the reference scheduler: the tier is bit-identical by
construction, and ``tests/test_cohort_equivalence.py`` holds it to
that.

:func:`repro.tiers.reference` falls back to the event-at-a-time
scheduler; single-processor machines always take the serial reference
path.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush

from repro import tiers
from repro.simkernel.conditions import (
    BarrierCondition,
    BytesArrivedCondition,
    MessageCondition,
)
from repro.simkernel.scheduler import DeadlockError, SpmdScheduler, _Thread
from repro.trace import tracer as _trace

__all__ = ["CohortScheduler", "cohort_enabled"]

#: Lazily-resolved AmMessageCondition class.  The import is deferred
#: because ``repro.splitc`` (the package that defines it) imports this
#: module during its own initialization.
_AM_CONDITION: type | None = None


def _am_condition_type() -> type:
    global _AM_CONDITION
    if _AM_CONDITION is None:
        from repro.splitc.am import AmMessageCondition
        _AM_CONDITION = AmMessageCondition
    return _AM_CONDITION


def cohort_enabled() -> bool:
    """Whether ``run_spmd`` uses the cohort scheduler:
    :func:`repro.tiers.fast`."""
    return tiers.fast()


class CohortScheduler(SpmdScheduler):
    """Wake-gated cohort scheduler; bit-identical to the reference."""

    def run(self, contexts, program, *args, **kwargs):
        """Run ``program(ctx, *args, **kwargs)`` on every context.

        Same contract as :meth:`SpmdScheduler.run`.  A machine of one
        processor degenerates to the serial reference path — there is
        no cohort to batch.
        """
        if len(contexts) <= 1:
            return SpmdScheduler.run(self, contexts, program,
                                     *args, **kwargs)
        threads = []
        for ctx in contexts:
            gen = program(ctx, *args, **kwargs)
            if not hasattr(gen, "send"):
                raise TypeError(
                    "SPMD programs must be generator functions "
                    "(use 'yield from' for blocking operations)"
                )
            threads.append(_Thread(pe=ctx.pe, ctx=ctx, gen=gen))

        # Install the wake sink on every unit whose state can flip a
        # keyed condition; restore previous sinks on the way out so
        # nested / sequential runs on one machine stay independent.
        machine = self.machine
        wake: list = []
        self._wake = wake
        hooked = []
        barrier = getattr(machine, "barrier", None)
        if barrier is not None and hasattr(barrier, "wake_sink"):
            hooked.append((barrier, barrier.wake_sink))
            barrier.wake_sink = wake
        for node in getattr(machine, "nodes", ()):
            if hasattr(node, "wake_sink"):
                hooked.append((node, node.wake_sink))
                node.wake_sink = wake
        try:
            return self._run(threads, wake)
        finally:
            for unit, previous in hooked:
                unit.wake_sink = previous
            self._wake = None

    # ------------------------------------------------------------------
    # Core loop
    # ------------------------------------------------------------------

    def _wake_key(self, condition):
        """The wake-event key a blocked condition listens on, or None
        for condition types that must be polled every round."""
        kind = type(condition)
        if kind is BarrierCondition:
            if getattr(condition.barrier, "wake_sink", None) is self._wake:
                return ("b", condition.epoch)
        elif kind is BytesArrivedCondition:
            if getattr(condition.node, "wake_sink", None) is self._wake:
                return ("y", condition.node.pe)
        elif kind is MessageCondition:
            # A hardware-message inbox gains entries only through
            # MessageUnit.send, which appends an ("m", dst) wake event.
            unit = condition.msg_unit
            node = unit.fabric.node(unit.my_pe)
            if getattr(node, "wake_sink", None) is self._wake:
                return ("m", unit.my_pe)
        elif kind is _am_condition_type():
            # Likewise, an AM request queue fills only through
            # ActiveMessages.send, which appends ("a", dst).
            node = condition.am.sc.ctx.node
            if getattr(node, "wake_sink", None) is self._wake:
                return ("a", node.pe)
        return None

    def _run(self, threads, wake):
        heap = [(t.ctx.clock, i) for i, t in enumerate(threads)]
        heapify(heap)
        #: Blocked threads listening on a wake key.
        groups: dict[tuple, list[int]] = {}
        #: Blocked threads polled before every advance (messages, AM,
        #: foreign/unknown condition types) — reference behaviour.
        always: list[int] = []
        unfinished = len(threads)
        machine = self.machine
        advance = self._advance

        def poll(full: bool = False) -> int:
            """Move every now-ready blocked thread to the heap.

            Polls the groups named by pending wake events (or all of
            them when ``full``) plus the always-poll list; returns the
            number of threads woken — the cohort joining the heap.
            """
            woken = 0
            if full:
                touched = list(groups)
                wake.clear()
            elif wake:
                touched = list(dict.fromkeys(wake))
                wake.clear()
            else:
                touched = ()
            for key in touched:
                members = groups.pop(key, None)
                if not members:
                    continue
                if key[0] == "b" and not full:
                    # Barrier epochs emit their wake event only when
                    # the last processor arrives, so the whole group
                    # is ready — no per-member poll needed.
                    for i in members:
                        heappush(heap, (threads[i].ctx.clock, i))
                    woken += len(members)
                    continue
                still = []
                for i in members:
                    t = threads[i]
                    if t.condition.ready():
                        heappush(heap, (t.ctx.clock, i))
                        woken += 1
                    else:
                        still.append(i)
                if still:
                    groups[key] = still
            if always:
                still = []
                for i in always:
                    t = threads[i]
                    if t.condition.ready():
                        heappush(heap, (t.ctx.clock, i))
                        woken += 1
                    else:
                        still.append(i)
                always[:] = still
            return woken

        while unfinished:
            if wake or always:
                woken = poll()
                if woken and _trace.TRACE_ENABLED:
                    _trace.emit(
                        "cohort_round", t=None, pe=None, woken=woken,
                        runnable=len(heap),
                        blocked=sum(map(len, groups.values())) + len(always))
            if not heap:
                # Nothing runnable: settle write buffers (scheduled
                # drains may land awaited bytes), then poll whatever
                # those arrivals touched; as a final check poll every
                # blocked condition once — exactly the reference
                # scheduler's pre-deadlock sweep.
                machine.settle()
                poll()
                if not heap:
                    poll(full=True)
                if not heap:
                    waits = "; ".join(
                        f"pe{t.pe}@{t.ctx.clock:.0f}cy waiting on "
                        f"{self._describe(t.condition)}"
                        for t in threads if not t.finished)
                    finished = [t.pe for t in threads if t.finished]
                    hint = (f" (threads {finished} already finished — "
                            "mismatched collective counts?)"
                            if finished else "")
                    raise DeadlockError(
                        f"all threads blocked: {waits}{hint}")
                continue
            _clock, i = heappop(heap)
            thread = threads[i]
            cond = thread.condition
            if cond is not None and not cond.ready():
                # Went unready since it was enqueued (e.g. the awaited
                # message was consumed); park it on the always-poll
                # list — the conservative reference treatment.
                always.append(i)
                continue
            advance(thread)
            if thread.finished:
                unfinished -= 1
            elif thread.condition is None or thread.condition.ready():
                heappush(heap, (thread.ctx.clock, i))
            else:
                key = self._wake_key(thread.condition)
                if key is None:
                    always.append(i)
                else:
                    groups.setdefault(key, []).append(i)

        return [t.result for t in threads]
