"""One T3D node: Alpha core + memory system + shell units.

The node also keeps the arrival log of remotely-stored bytes, which is
the machine state behind the Split-C ``store_sync`` primitive: a
receiver can ask "by when had N bytes arrived?".
"""

from __future__ import annotations

import bisect
import heapq
from operator import itemgetter

import numpy as _np

from repro.node.alpha import AlphaCosts
from repro.node.memsys import MemorySystem
from repro.params import MachineParams
from repro.shell.annex import DtbAnnex
from repro.shell.atomics import AtomicUnit
from repro.shell.blt import BlockTransferEngine
from repro.shell.msgqueue import MessageUnit
from repro.shell.prefetch import PrefetchQueue
from repro.shell.remote import RemoteAccessUnit, make_inbound

__all__ = ["HeapAllocator", "Node"]


class HeapAllocator:
    """Bump allocator for a node's local region of the global space.

    The local region holds statics and a heap portion (section 3.1);
    a simple monotone allocator suffices for the reproduction's
    programs.  The base is offset from zero so that null (address 0)
    never aliases an allocation.
    """

    def __init__(self, base: int = 0x1000):
        self._next = base

    def alloc(self, nbytes: int, align: int = 8) -> int:
        """Reserve ``nbytes``; returns the starting local offset."""
        if nbytes <= 0:
            raise ValueError("allocation size must be positive")
        if align & (align - 1):
            raise ValueError("alignment must be a power of two")
        start = (self._next + align - 1) & ~(align - 1)
        self._next = start + nbytes
        return start

    @property
    def high_water(self) -> int:
        return self._next


class Node:
    """A processing element with its full complement of shell units."""

    def __init__(self, pe: int, params: MachineParams, fabric):
        self.pe = pe
        self.params = params
        self.memsys = MemorySystem(params.node)
        # Trace attribution: a node's memory system (and its write
        # buffer) emit events under this processor's identity.
        self.memsys.owner_pe = pe
        self.memsys.write_buffer.owner_pe = pe
        self.alpha = AlphaCosts(params.node.alpha)
        self.annex = DtbAnnex(params.shell.annex, pe)
        self.remote = RemoteAccessUnit(
            params.shell.remote, params.network, pe, self.memsys, fabric)
        self.prefetch = PrefetchQueue(
            params.shell.prefetch, params.network, pe, self.remote)
        self.blt = BlockTransferEngine(params.shell.blt, pe, fabric)
        self.atomics = AtomicUnit(params.shell.atomics, pe, fabric)
        self.msgq = MessageUnit(params.shell.msgq, params.network, pe, fabric)
        self.heap = HeapAllocator()
        #: Set by repro.splitc.am.ActiveMessages.attach(): the AM
        #: endpoint receiving requests deposited into this node.
        self.am_endpoint = None
        #: Inbound network-interface occupancy: arriving store packets
        #: serialize here, so many-to-one traffic queues (incast).
        self.inbound_busy_until = 0.0
        # Time-sorted log of store arrivals into this node's memory:
        # (arrival_time, nbytes, local_addr).  Cumulative queries may
        # be scoped to an address region — the machinery behind both
        # the plain Split-C ``store_sync`` and the region-scoped
        # extension used by message-driven phase counting.
        self._arrivals: list[tuple[float, int, int]] = []
        # Running totals, unscoped and per queried region, so
        # store_sync polls do not re-sum the whole log.
        self._arrived_total = 0
        self._region_totals: dict[tuple[int, int], int] = {}
        #: Wake-event list installed by the cohort scheduler
        #: (:mod:`repro.machine.cohort`): each recorded arrival appends
        #: a ``("y", pe)`` event — the only state change that can make
        #: a blocked BytesArrivedCondition on this node ready.
        self.wake_sink: list | None = None
        # Lazily-built bundle of target-side bindings for PeerLink
        # (see peer_exports); shared by every source node's link here.
        self._peer_exports = None

    def reset(self) -> None:
        """Cold-start the node (between benchmark runs)."""
        self.memsys.reset()
        self.remote.reset()
        self.prefetch.reset()
        self.atomics.reset()
        self.msgq.reset()
        self._arrivals = []
        self._arrived_total = 0
        self._region_totals = {}
        self.inbound_busy_until = 0.0
        # _peer_exports survives reset on purpose: every member is a
        # stable object whose state containers reset in place.

    def peer_exports(self) -> tuple:
        """Target-side bindings every remote :class:`PeerLink` needs:
        the DRAM controller, its access and peek methods and penalties,
        the memory's ``load``, and the retirement callbacks for stores
        into this node (one entry at a time, and a run of entries).
        Built once per *target* and shared by every source's link (at
        1024 PEs a node is the store target of dozens of sources); every
        member is stable for the machine's life."""
        ex = self._peer_exports
        if ex is None:
            ms = self.memsys
            dram = ms.dram
            ex = self._peer_exports = (
                dram, dram.access_with, dram.peek_access_with,
                ms.params.dram.same_bank_cycles,
                ms.params.dram.access_cycles, ms.memory.load,
                *make_inbound(self, self.remote.params),
            )
        return ex

    # ------------------------------------------------------------------
    # Store-arrival bookkeeping (store_sync support, section 7.1)
    # ------------------------------------------------------------------

    def record_store_arrival(self, nbytes: int, arrival_time: float,
                             addr: int = 0) -> None:
        """Log ``nbytes`` landing at ``arrival_time`` near ``addr``.

        Arrivals from different senders are not time-ordered; the log
        keeps them sorted so cumulative queries stay correct.  The
        common case — an arrival no earlier than the latest logged —
        appends in O(1); equal times land after existing entries either
        way, matching the bisect placement.
        """
        entry = (arrival_time, nbytes, addr)
        arrivals = self._arrivals
        if not arrivals or arrival_time >= arrivals[-1][0]:
            arrivals.append(entry)
        else:
            index = bisect.bisect_right(arrivals, (arrival_time,
                                                   float("inf"), 0))
            arrivals.insert(index, entry)
        self._arrived_total += nbytes
        for region in self._region_totals:
            if region[0] <= addr < region[1]:
                self._region_totals[region] += nbytes
        if self.wake_sink is not None:
            self.wake_sink.append(("y", self.pe))

    def record_store_arrivals(self, nbytes, times, addrs) -> None:
        """:meth:`record_store_arrival` of ``(nbytes[i], times[i],
        addrs[i])`` for each ``i`` in turn (int, float and int numpy
        arrays), batched.

        Each arrival lands after every logged one no later than it, so
        the batch, sorted stably by time, merges into the log's tail
        with existing entries first on ties: an ``extend`` when it
        starts no earlier than the log ends and is in order.
        """
        times_l = times.tolist()
        if not times_l:
            return
        entries = list(zip(times_l, nbytes.tolist(), addrs.tolist()))
        arrivals = self._arrivals
        if not (_np.diff(times) >= 0).all():
            entries.sort(key=itemgetter(0))
        first = entries[0][0]
        if not arrivals or first >= arrivals[-1][0]:
            arrivals.extend(entries)
        else:
            cut = bisect.bisect_right(arrivals, (first, float("inf"), 0))
            tail = arrivals[cut:]
            del arrivals[cut:]
            arrivals.extend(heapq.merge(tail, entries, key=itemgetter(0)))
        self._arrived_total += int(nbytes.sum())
        for region in self._region_totals:
            inside = (addrs >= region[0]) & (addrs < region[1])
            self._region_totals[region] += int(nbytes[inside].sum())
        if self.wake_sink is not None:
            self.wake_sink.extend([("y", self.pe)] * len(entries))

    def _in_region(self, addr: int, region) -> bool:
        if region is None:
            return True
        lo, hi = region
        return lo <= addr < hi

    def bytes_arrived_total(self, region=None) -> int:
        """All bytes stored into this node (optionally only those
        landing in the half-open address ``region``).  A region's total
        is summed from the log when first asked for, then kept running
        by :meth:`record_store_arrival` (a sum does not depend on the
        order arrivals are logged in)."""
        if region is None:
            return self._arrived_total
        region = tuple(region)
        total = self._region_totals.get(region)
        if total is None:
            total = self._region_totals[region] = sum(
                nbytes for _t, nbytes, addr in self._arrivals
                if self._in_region(addr, region))
        return total

    def time_when_bytes_arrived(self, target_bytes: int,
                                region=None) -> float:
        """Earliest time by which ``target_bytes`` had cumulatively
        arrived (within ``region`` if given).  Raises if that many
        bytes never arrived (callers check :meth:`bytes_arrived_total`
        / use the blocking condition).
        """
        if target_bytes <= 0:
            return 0.0
        total = 0
        for arrival_time, nbytes, addr in self._arrivals:
            if not self._in_region(addr, region):
                continue
            total += nbytes
            if total >= target_bytes:
                return arrival_time
        raise RuntimeError(
            f"only {total} bytes ever arrived in region; "
            f"{target_bytes} requested"
        )
