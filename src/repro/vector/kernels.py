"""Vectorized tag-arithmetic twins of the :mod:`repro.node` unit models.

Each function here computes, over a whole pre-generated address stream,
exactly what the corresponding stateful model computes one access at a
time:

==============================  =====================================
:func:`direct_mapped_hit_mask`  :meth:`repro.node.cache.Cache.access_fill`
                                (direct-mapped)
:func:`dram_cost_stream`,       :meth:`repro.node.dram.Dram.access_with`
:func:`dram_row_events`
:func:`dram_bank_row`           the bank and row ``Dram.access_with``
                                maps an address to
:func:`tlb_cost_stream`         :meth:`repro.node.tlb.Tlb.translate`
                                (fully-associative LRU)
==============================  =====================================

The correspondence is lock-step, not approximate — the unit tests in
``tests/vector/test_kernels.py`` replay random streams through both
spellings and require identical outputs.  Every kernel takes a stream
of non-negative integer addresses and by default assumes a
**cold-started** unit (the probe harness's ``reset_fn`` guarantees it);
:func:`direct_mapped_hit_mask` and :func:`dram_row_events` also accept
a warm starting state, which they update in place to the state after
the stream (:meth:`repro.node.memsys.MemorySystem.plan_block` runs
them that way).

Why the results are bit-identical, not just numerically close: every
per-access cost in the calibrated model is a small dyadic rational
(integers on the read paths; quarter-integer write-buffer drain
intervals at worst, since ``drain / capacity`` divides by the
power-of-two buffer depth 4), and probe totals stay many orders of
magnitude below 2**53 — so every float64 addition is exact, and any
summation order (including numpy's pairwise reduction) produces the
same bits as the reference model's sequential accumulation.
"""

from __future__ import annotations

import numpy as np

from repro.vector import UnsupportedStimulus

__all__ = [
    "chunks",
    "direct_mapped_hit_mask",
    "dram_bank_row",
    "dram_cost_stream",
    "dram_row_events",
    "sawtooth_addresses",
    "tlb_cost_stream",
    "validate_point",
]


def validate_point(base: int, stride: int, count: int,
                   warmup_passes: int, measure_passes: int) -> None:
    """Reject point geometry the kernels do not claim.

    The reference loop technically accepts degenerate inputs (a
    negative stride walks addresses downward; ``range`` raises on a
    zero stride), so anything outside the canonical sawtooth —
    positive stride, at least one access, non-negative base, at least
    one measured pass — is routed to the reference loop rather than
    silently reinterpreted.
    """
    if stride <= 0 or count <= 0 or base < 0 \
            or warmup_passes < 0 or measure_passes < 1:
        raise UnsupportedStimulus(
            f"non-canonical point geometry: base={base} stride={stride} "
            f"count={count} passes={warmup_passes}+{measure_passes}")


def sawtooth_addresses(base: int, stride: int, count: int,
                       npasses: int) -> np.ndarray:
    """The full probe stimulus as one int64 array: ``npasses``
    repetitions of ``base, base+stride, ..., base+(count-1)*stride``.

    int64 is exact here: probe addresses stay far below 2**63 (the
    largest composed address is one annex bit at 2**32 plus a sub-GB
    offset).
    """
    one_pass = base + stride * np.arange(count, dtype=np.int64)
    if npasses == 1:
        return one_pass
    return np.tile(one_pass, npasses)


def chunks(addrs, size: int = 16384):
    """Yield ``(start, array)`` pieces of at most ``size`` addresses of
    ``addrs`` (an int64 array or a ``range``, generated per piece), so
    a long stream's temporaries stay small.  The warm-state kernels
    chain exactly across pieces: each piece's end state is the next
    one's start state.  (At 2,048 the pieces' fixed numpy cost made
    Figure 1's workstation sweep ~1.5x slower; past 16,384 the
    temporaries outgrow the host's caches.)"""
    for start in range(0, len(addrs), size):
        piece = addrs[start:start + size]
        if isinstance(piece, range):
            piece = np.arange(piece.start, piece.stop, piece.step,
                              dtype=np.int64)
        yield start, piece


def _repeats(keys: np.ndarray, tags: np.ndarray, num_keys: int,
             state=None) -> np.ndarray:
    """Whether each element's tag equals the tag of the previous element
    with the same key: a stable argsort groups the stream by key while
    preserving program order inside each group, turning the question
    into one shifted compare.

    A key's first element compares against ``state[key]`` when
    ``state`` (an int64 array indexed by key) is given, and never
    matches when it is not; ``state`` is then updated in place to each
    key's last tag.
    """
    if num_keys <= 1 << 16:
        keys = keys.astype(np.uint16)   # numpy radix-sorts 16-bit keys
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    tags_sorted = tags[order]
    n = len(keys)
    same_sorted = np.empty(n, dtype=bool)
    if n:
        first = np.empty(n, dtype=bool)
        first[0] = True
        first[1:] = keys_sorted[1:] != keys_sorted[:-1]
        same_sorted[1:] = tags_sorted[1:] == tags_sorted[:-1]
        if state is None:
            same_sorted[first] = False
        else:
            same_sorted[first] = (tags_sorted[first]
                                  == state[keys_sorted[first]])
            last = np.empty(n, dtype=bool)
            last[:-1] = first[1:]
            last[-1] = True
            state[keys_sorted[last]] = tags_sorted[last]
    same = np.empty(n, dtype=bool)
    same[order] = same_sorted
    return same


def direct_mapped_hit_mask(addrs: np.ndarray, line_bytes: int,
                           num_sets: int, resident=None) -> np.ndarray:
    """Hit/miss of each access against a direct-mapped cache.

    Twin of :meth:`Cache.access_fill` with ``associativity == 1``: the
    resident line of a set is always the line of the most recent prior
    access mapping to that set (a hit leaves it, a miss overwrites it),
    so access *i* hits iff the previous access to its set touched the
    same line (:func:`_repeats`).

    The cache starts cold unless ``resident`` is given: an int64 array
    of each set's resident line *number* (``-1`` for an empty set),
    updated in place to the resident lines after the stream.
    """
    lines = addrs // line_bytes         # line *number*; equal iff the
    return _repeats(lines % num_sets,   # line address addr - addr%lb is
                    lines, num_sets, resident)  # equal, for ints >= 0


def dram_bank_row(addrs: np.ndarray, *, interleave: int, banks: int,
                  page_bytes: int):
    """The bank and the row within it of each address, as ``(bank,
    row)`` int64 arrays: :meth:`Dram.access_with`'s mapping (banks
    interleaved every ``interleave`` bytes), in shifts and masks when
    every size is a power of two (the same floors and remainders)."""
    if all(x & (x - 1) == 0 for x in (interleave, banks, page_bytes)):
        shift = interleave.bit_length() - 1
        block = addrs >> shift
        return (block & (banks - 1),
                ((block >> (banks.bit_length() - 1)) << shift
                 | addrs & (interleave - 1)) >> (page_bytes.bit_length() - 1))
    block = addrs // interleave
    return (block % banks,
            ((block // banks) * interleave + addrs % interleave)
            // page_bytes)


def dram_row_events(addrs: np.ndarray, *, interleave: int, banks: int,
                    page_bytes: int, open_rows=None, last_bank: int = -1):
    """Bank, row miss and same-bank conflict of each access to a
    page-mode DRAM, as ``(bank, miss, conflict)`` arrays.

    Twin of the state walk in :meth:`Dram.access_with`: after any
    access to a bank that bank's open row equals that access's row (a
    hit means it already did; a miss installs it), so an access
    row-misses iff its row differs from the previous access *to the
    same bank* (:func:`_repeats`).  The same-bank conflict additionally
    requires the immediately preceding access (``last_bank`` for the
    first) to have used this bank.

    The DRAM starts cold (every row closed, no last bank) unless
    ``open_rows`` is given: an int64 array of each bank's open row
    (``-1`` for none; rows are >= 0, so it always misses), updated in
    place to the open rows after the stream.
    """
    n = len(addrs)
    bank, row = dram_bank_row(addrs, interleave=interleave, banks=banks,
                              page_bytes=page_bytes)
    miss = ~_repeats(bank, row, banks, open_rows)
    conflict = np.zeros(n, dtype=bool)
    if n:
        conflict[0] = miss[0] and bank[0] == last_bank
        conflict[1:] = miss[1:] & (bank[1:] == bank[:-1])
    return bank, miss, conflict


def dram_cost_stream(addrs: np.ndarray, *, interleave: int, banks: int,
                     page_bytes: int, access_cycles: float,
                     off_page_cycles: float,
                     same_bank_cycles: float) -> np.ndarray:
    """Per-access cost of a stream through a cold page-mode DRAM: twin
    of :meth:`Dram.access_with` from reset state, by
    :func:`dram_row_events`."""
    _bank, miss, conflict = dram_row_events(
        addrs, interleave=interleave, banks=banks, page_bytes=page_bytes)
    costs = np.full(len(addrs), access_cycles, dtype=np.float64)
    costs[miss] += off_page_cycles
    costs[conflict] += same_bank_cycles
    return costs


def tlb_cost_stream(addrs_one_pass: np.ndarray, npasses: int, *,
                    page_bytes: int, capacity: int,
                    miss_cycles: float) -> np.ndarray:
    """Per-access translation cost over ``npasses`` repetitions of one
    pass, against a cold fully-associative LRU TLB.

    Twin of :meth:`Tlb.translate`.  The sawtooth stimulus makes the
    reuse pattern analytic instead of needing an LRU replay.  Within a
    pass the page sequence is non-decreasing, so its first-touch
    positions are exactly the page transitions (plus position 0), and
    the number of distinct pages ``P`` is transitions + 1:

    * ``P <= capacity`` — pass 1 misses at each first touch; by the end
      of the pass all ``P`` pages are resident (inserting the P-th page
      finds ``P-1 < capacity`` entries, so even ``P == capacity`` fits
      without an eviction) and every later pass hits everywhere.
    * ``P > capacity`` — repeat accesses to a page still hit (the page
      was just touched, hence most-recent in LRU order), but by the
      time a pass returns to a page's first-touch position ``P-1 >=
      capacity`` other distinct pages have been touched, so LRU has
      evicted it: **every** first-touch position misses in **every**
      pass.  (Position 0 of passes 2+ is a first touch here because
      ``P >= 2`` makes the previous access's page — the pass's last,
      largest page — differ from the base page.)
    """
    count = len(addrs_one_pass)
    pages = addrs_one_pass // page_bytes
    newpage = np.empty(count, dtype=bool)
    if count:
        newpage[0] = True
        newpage[1:] = pages[1:] != pages[:-1]
    distinct = int(newpage.sum())
    costs = np.zeros(count * npasses, dtype=np.float64)
    if distinct > capacity:
        miss_mask = np.tile(newpage, npasses)
        costs[miss_mask] = miss_cycles
    else:
        costs[:count][newpage] = miss_cycles
    return costs
