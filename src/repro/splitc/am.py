"""Poll-based Active Messages rebuilt from shared-memory primitives
(paper section 7.4).

The hardware message path costs ~25 us per receive (OS interrupt), so
the paper constructs the equivalent of CMAM Active Messages from the
fast primitives instead:

* an **N-to-1 request queue** lives in each node's memory; senders
  draw a slot ticket with a remote **fetch&increment** (~1 us — the
  serialization point that makes the queue multi-access safe);
* the sender **stores** the handler id, the data words (four by
  default), and a sequence flag into the slot (non-blocking stores,
  ~17 cycles each);
* the receiver **polls** the head slot's flag and, when set, reads the
  payload and dispatches the registered handler on its own thread.

Measured costs reproduced: deposit ~2.9 us, dispatch + access ~1.5 us.

Because handlers run on the owning thread, a handler that performs a
word read-modify-write is atomic with respect to all other byte
updates routed the same way — which is how the paper repairs the
broken byte store of section 4.5 (:meth:`ActiveMessages.write_byte`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.node.alpha import merge_byte_into_word
from repro.params import WORD_BYTES
from repro.simkernel.conditions import Condition

__all__ = ["ActiveMessages", "AmMessageCondition", "Dispatch"]

#: Handler id used by the correct byte-write (section 4.5 repair).
BYTE_WRITE_HANDLER = 0


@dataclass
class _AmDelivery:
    """Scheduler-visible record of a deposited request."""

    src_pe: int
    handler_id: int
    args: tuple
    arrival_time: float


@dataclass(frozen=True)
class Dispatch:
    """Result of dispatching one request.

    Distinguishes "a handler ran (and possibly returned None)" from
    "nothing had arrived" — drain loops test ``poll() is not None``.
    """

    src_pe: int
    handler_id: int
    result: object


class AmMessageCondition(Condition):
    """Block until an AM request has arrived at a node's queue."""

    def __init__(self, am: "ActiveMessages"):
        self.am = am

    def ready(self) -> bool:
        return bool(self.am._inbox)

    def resume_time(self, clock: float) -> float:
        return max(clock, min(d.arrival_time for d in self.am._inbox))


class ActiveMessages:
    """Per-thread AM endpoint over the Split-C runtime.

    Create one per SPMD thread with the *same* handler table on every
    processor (SPMD single code image).  The queue storage must be
    symmetric: every thread calls :meth:`ActiveMessages.attach` once,
    in the same program position.
    """

    def __init__(self, sc):
        self.sc = sc
        self.params = sc.ctx.node.params.shell.am
        # A slot holds the handler id, the data words and the flag.
        self._slot_bytes = (self.params.data_words + 2) * WORD_BYTES
        self._handlers = {BYTE_WRITE_HANDLER: _byte_write_handler}
        self._next_handler_id = 1
        self._queue_base: int | None = None
        self._head = 0
        self._inbox: list[_AmDelivery] = []
        self.deposits = 0
        self.dispatches = 0

    # ------------------------------------------------------------------
    # Setup
    # ------------------------------------------------------------------

    def attach(self) -> None:
        """Allocate this node's request queue (symmetric offset) and
        register this endpoint as the node's AM receiver."""
        nbytes = self.params.queue_slots * self._slot_bytes
        self._queue_base = self.sc.all_alloc(nbytes)
        self.sc.ctx.node.atomics.set_register(0, 0)
        self.sc.ctx.node.am_endpoint = self

    def register_handler(self, fn) -> int:
        """Register ``fn(am, src_pe, *args)``; returns its handler id.

        Registration must happen identically on every processor (the
        SPMD single-code-image property makes ids agree).
        """
        handler_id = self._next_handler_id
        self._next_handler_id += 1
        self._handlers[handler_id] = fn
        return handler_id

    def _require_attached(self) -> int:
        if self._queue_base is None:
            raise RuntimeError("ActiveMessages.attach() was never called")
        return self._queue_base

    # ------------------------------------------------------------------
    # Sending (deposit, ~2.9 us)
    # ------------------------------------------------------------------

    def send(self, dst_pe: int, handler_id: int, *args) -> None:
        """Deposit a request into ``dst_pe``'s queue."""
        base = self._require_attached()
        if handler_id not in self._handlers:
            raise ValueError(f"unregistered handler {handler_id}")
        if len(args) > self.params.data_words:
            raise ValueError(
                f"AM payload limited to {self.params.data_words} words")
        sc = self.sc
        ctx = sc.ctx
        self.deposits += 1

        # Ticket: remote fetch&increment serializes senders (~1 us).
        cycles, ticket = ctx.node.atomics.fetch_increment(
            ctx.clock, dst_pe, 0)
        ctx.charge(cycles)

        # Store handler id, payload, and the sequence flag into the slot.
        slot = base + (ticket % self.params.queue_slots) * self._slot_bytes
        words = [handler_id, *args]
        words += [0] * (1 + self.params.data_words - len(words))
        words.append(ticket + 1)                  # sequence flag, last
        index = sc._setup_annex(dst_pe)
        for i, word in enumerate(words):
            offset = slot + i * WORD_BYTES
            full = sc._full_addr(index, offset)
            ctx.charge(ctx.node.remote.store(
                ctx.clock, dst_pe, offset, word, full))
        ctx.charge(self.params.deposit_software_cycles)

        # Scheduler-visible delivery: arrives once the flag store has
        # drained and flown (conservatively one drain + one flight).
        flight = (ctx.machine.hops(sc.my_pe, dst_pe)
                  * ctx.node.params.network.hop_cycles)
        arrival = (ctx.clock
                   + ctx.node.params.shell.remote.store_drain_cycles / 4
                   + flight)
        dst_node = ctx.machine.node(dst_pe)
        dst_am = dst_node.am_endpoint
        if dst_am is None:
            raise RuntimeError(f"pe {dst_pe} has no attached AM endpoint")
        dst_am._inbox.append(_AmDelivery(
            src_pe=sc.my_pe, handler_id=handler_id, args=tuple(args),
            arrival_time=arrival))
        # Message-wake hook: a blocked AmMessageCondition on the target
        # becomes ready only through this append — name the wake group
        # for the cohort scheduler instead of forcing every-round polls.
        sink = getattr(dst_node, "wake_sink", None)
        if sink is not None:
            sink.append(("a", dst_pe))

    # ------------------------------------------------------------------
    # Receiving (poll + dispatch, ~1.5 us)
    # ------------------------------------------------------------------

    def poll(self) -> Dispatch | None:
        """Check for an arrived request; dispatch at most one.

        Returns a :class:`Dispatch` when a handler ran, ``None`` when
        nothing had arrived.  Non-blocking: cost is one flag read on an
        empty queue, a full dispatch otherwise.
        """
        ctx = self.sc.ctx
        arrived = [d for d in self._inbox if d.arrival_time <= ctx.clock]
        if not arrived:
            # Fruitless poll: one uncached flag read.
            ctx.charge(ctx.node.alpha.external_register())
            return None
        delivery = min(arrived, key=lambda d: d.arrival_time)
        self._inbox.remove(delivery)
        return self._dispatch(delivery)

    def wait_and_dispatch(self):
        """Blocking receive: generator; dispatches exactly one request
        and returns the handler's return value."""
        yield AmMessageCondition(self)
        delivery = min(self._inbox, key=lambda d: d.arrival_time)
        self._inbox.remove(delivery)
        return self._dispatch(delivery).result

    def _dispatch(self, delivery: _AmDelivery) -> Dispatch:
        ctx = self.sc.ctx
        self.dispatches += 1
        self._head += 1
        ctx.charge(self.params.dispatch_software_cycles)
        handler = self._handlers[delivery.handler_id]
        result = handler(self, delivery.src_pe, *delivery.args)
        return Dispatch(src_pe=delivery.src_pe,
                        handler_id=delivery.handler_id, result=result)

    # ------------------------------------------------------------------
    # The correct byte write (section 4.5 repair)
    # ------------------------------------------------------------------

    def write_byte(self, gp, byte_index: int, byte: int) -> None:
        """Atomic byte store: ship the update to the owner, who applies
        the read-modify-write on its own thread."""
        if gp.is_local_to(self.sc.my_pe):
            _byte_write_handler(self, self.sc.my_pe, gp.addr, byte_index, byte)
            return
        self.send(gp.pe, BYTE_WRITE_HANDLER, gp.addr, byte_index, byte)


def _byte_write_handler(am: ActiveMessages, src_pe: int, addr: int,
                        byte_index: int, byte: int) -> None:
    """Owner-side byte update: word RMW, atomic because only the owner
    thread ever runs it."""
    ctx = am.sc.ctx
    word = ctx.local_read(addr)
    ctx.charge(ctx.node.alpha.alu(3))
    merged = merge_byte_into_word(int(word), byte, byte_index)
    ctx.local_write(addr, merged)
