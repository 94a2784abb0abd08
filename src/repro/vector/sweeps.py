"""Batched sweep builders for the vectorized tier (Figure 2's writes).

:func:`build` turns probe geometry (a node's frozen parameter
object) into a ``sweep_fn`` with the harness
contract ``(base, stride, count, warmup_passes, measure_passes) ->
(total_cycles, measured_accesses)``.  Builders validate the geometry
once (anything the kernels cannot express raises
:class:`~repro.vector.UnsupportedStimulus` so the caller runs the
reference loop): the machine shape, and every cycle value the closure
adds, which must sit on the exactness grid of
:func:`repro.node.exact.on_grid` for any summation order to reproduce
the reference bit for bit.  The returned closures re-validate per
point.

Like a probe-memo hit, a vectorized point computes the timing answer
without stepping the stateful units, so hit/miss counters and model
state are *not* advanced — the harness doctrine (see
``run_stride_probe``) already declares post-point state meaningful only
when the caller resets it, which every stride probe does.

The cost composition in each closure mirrors its reference path
line-for-line; the citations name the methods being twinned.
"""

from __future__ import annotations

import numpy as np

from repro.node.exact import on_grid
from repro.params import LOCAL_ADDR_MASK, NodeParams
from repro.vector import UnsupportedStimulus
from repro.vector.kernels import (
    dram_cost_stream,
    sawtooth_addresses,
    tlb_cost_stream,
    validate_point,
)

__all__ = ["build"]


def build(family: str, **geometry):
    """Build the batched sweep for one claimed probe family."""
    try:
        builder = _BUILDERS[family]
    except KeyError:
        raise UnsupportedStimulus(
            f"no vectorized kernel for family {family!r}") from None
    return builder(**geometry)


def _require_grid(*cycles: float) -> None:
    """Decline unless every cycle value is on the exactness grid."""
    if not all(on_grid(x) for x in cycles):
        raise UnsupportedStimulus("cycle value off the exactness grid")


# ----------------------------------------------------------------------
# local_write (Figure 2)
# ----------------------------------------------------------------------

def _build_local_write(*, node_params: NodeParams):
    p = node_params
    depth = p.write_buffer.entries
    if depth & (depth - 1):
        raise UnsupportedStimulus("write buffer depth not a power of two")
    dram = p.dram
    drains = (dram.access_cycles,
              dram.access_cycles + dram.off_page_cycles,
              dram.access_cycles + dram.off_page_cycles
              + dram.same_bank_cycles)
    _require_grid(dram.access_cycles, dram.off_page_cycles,
                  dram.same_bank_cycles, p.write_buffer.issue_cycles,
                  *(drain / depth for drain in drains),
                  *(() if p.tlb.never_misses else (p.tlb.miss_cycles,)))

    def sweep(base, stride, count, warmup_passes, measure_passes):
        """Twin of the per-store :meth:`MemorySystem.write_cycles`
        loop.

        Write timing is genuinely sequential — merging couples to the
        drain schedule, which couples to the running clock — so the
        core is the exact reference recurrence over scalars, fed by
        numpy-precomputed geometry (line addresses, DRAM bank/row per
        line, the analytic TLB cost stream).  Three exact reductions
        make it fast:

        * **No-merge regime** — when merging is off, or the stride
          spans whole lines and a pass touches more distinct lines
          than the buffer holds, no store can ever merge (in-pass
          lines strictly increase; cross-pass, the <= ``capacity``
          pending lines are the largest of the previous pass and the
          next store's line is the smallest).  Every store then
          reaches DRAM in stream order, so the drain costs vectorize
          (:func:`dram_cost_stream` over the tiled line stream) and
          the buffer collapses to a ring recurrence: with at most
          ``capacity`` entries ever unretired, the store ``i`` stalls
          exactly ``max(0, retire[i-capacity] - issue_time)``.
        * **Steady-state pass replay** — write timing is translation
          invariant: every quantity is a multiple of ``2**-8`` (the
          builder declines otherwise), so shifting all clocks by the
          pass start time is exact, and a pass that begins in the
          same *relative* state
          (open rows, last bank, pending lines with retire times
          relative to now) as the previous pass repeats its total
          verbatim.  From the second pass boundary on (where the TLB
          cost pattern is also pass-invariant), remaining passes are
          replayed without simulation.
        * The generic loop (merging strides) runs over precomputed
          Python lists with the pending buffer as parallel scalars
          and a head pointer, replacing the reference's per-store
          call chain with local arithmetic.

        Float adds and compares on dyadic rationals are exact, so all
        three spellings match the reference bit for bit.
        """
        validate_point(base, stride, count, warmup_passes, measure_passes)
        npasses = warmup_passes + measure_passes
        one_pass = sawtooth_addresses(base, stride, count, 1)
        wb = p.write_buffer
        line_bytes = p.l1.line_bytes
        lines_np = one_pass - one_pass % line_bytes
        dram = p.dram
        if p.tlb.never_misses:
            tlb_l = None
        else:
            tlb_l = tlb_cost_stream(
                one_pass, npasses, page_bytes=p.tlb.page_bytes,
                capacity=p.tlb.entries,
                miss_cycles=p.tlb.miss_cycles).tolist()
        merging = wb.merging
        capacity = wb.entries
        issue = wb.issue_cycles
        measured = count * measure_passes
        no_merge = (not merging) or (stride >= line_bytes
                                     and count > capacity)
        if no_merge:
            total = _write_passes_no_merge(
                lines_np, npasses, count, warmup_passes, tlb_l,
                capacity, issue, dram)
        else:
            total = _write_passes_generic(
                lines_np, npasses, count, warmup_passes, tlb_l,
                capacity, issue, merging, dram)
        return total, measured

    return sweep


def _write_passes_no_merge(lines_np, npasses, count, warmup_passes,
                           tlb_l, capacity, issue, dram):
    """The no-merge write recurrence (see ``_build_local_write``):
    every store drains through DRAM, costs precomputed in bulk."""
    stream_lines = np.tile(lines_np, npasses) if npasses > 1 else lines_np
    drain_q = (dram_cost_stream(
        stream_lines & LOCAL_ADDR_MASK,
        interleave=dram.bank_interleave_bytes, banks=dram.banks,
        page_bytes=dram.page_bytes, access_cycles=dram.access_cycles,
        off_page_cycles=dram.off_page_cycles,
        same_bank_cycles=dram.same_bank_cycles) / capacity).tolist()
    ring = [0.0] * capacity          # retire times of the last
    ring_n = 0                       # ``capacity`` entries
    last_retire = 0.0
    now = 0.0
    total = 0.0
    i = 0
    prev_state = None
    for pidx in range(npasses):
        measuring = pidx >= warmup_passes
        pass_total = 0.0
        for _ in range(count):
            t = now if tlb_l is None else now + tlb_l[i]
            if ring_n >= capacity:
                stall = ring[i % capacity] - t
                if stall < 0.0:
                    stall = 0.0
            else:
                stall = 0.0
                ring_n += 1
            start = t + stall
            retire = (start if start >= last_retire
                      else last_retire) + drain_q[i]
            ring[i % capacity] = retire
            last_retire = retire
            cost = t - now + issue + stall
            now += cost
            pass_total += cost
            i += 1
        if measuring:
            total += pass_total
        remaining = npasses - pidx - 1
        if not remaining:
            break
        # Relative boundary state: the last ``capacity`` retire times
        # in logical (oldest-first) order, shifted by now, with
        # already-passed deadlines clipped (they can never stall or
        # dominate a future max, so their exact value is irrelevant).
        # DRAM and TLB boundary state need no capture: each pass
        # replays the same addresses, so from the first boundary on
        # their per-pass cost slices are identical by construction.
        if ring_n >= capacity:
            rel = tuple(max(ring[(i + k) % capacity] - now, 0.0)
                        for k in range(capacity))
        else:
            rel = tuple(max(r - now, 0.0) for r in ring[:ring_n])
        state = (rel, ring_n, max(last_retire - now, 0.0))
        if pidx >= 1 and state == prev_state:
            total += pass_total * remaining
            break
        prev_state = state
    return total


def _write_passes_generic(lines_np, npasses, count, warmup_passes,
                          tlb_l, capacity, issue, merging, dram):
    """The full write recurrence with merging (see
    ``_build_local_write``): the reference pending-list semantics with
    the buffer as parallel scalars and a head pointer."""
    local = lines_np & LOCAL_ADDR_MASK
    block = local // dram.bank_interleave_bytes
    bank_l = (block % dram.banks).tolist()
    row_l = (((block // dram.banks) * dram.bank_interleave_bytes
              + local % dram.bank_interleave_bytes)
             // dram.page_bytes).tolist()
    lines = lines_np.tolist()
    access_cycles = dram.access_cycles
    off_page = dram.off_page_cycles
    same_bank = dram.same_bank_cycles
    open_row = [-1] * dram.banks
    last_bank = -1
    # The pending list as parallel scalars with a head pointer:
    # entries before ``head`` have been committed (the reference
    # deletes them; we advance past them and compact per pass).
    pend_line: list[int] = []
    pend_retire: list[float] = []
    head = 0
    last_retire = 0.0
    now = 0.0
    total = 0.0
    i = 0
    prev_state = None
    for pidx in range(npasses):
        measuring = pidx >= warmup_passes
        pass_total = 0.0
        for j in range(count):
            c = 0.0 if tlb_l is None else tlb_l[i]
            i += 1
            line = lines[j]
            n = len(pend_line)
            # write_cycles prescans the pending list *before* the
            # push-time flush, so already-retired entries can match.
            matched = False
            if merging:
                for k in range(head, n):
                    if pend_line[k] == line:
                        matched = True
                        break
            t = now + c
            if matched:
                # WriteBuffer.push: flush, then re-scan; a merge
                # costs only the issue time.  When the matched entry
                # retired in the flush (stale merge), push falls
                # through to a drain-free append.
                while head < n and pend_retire[head] <= t:
                    head += 1
                still = False
                for k in range(head, n):
                    if pend_line[k] == line:
                        still = True
                        break
                if still:
                    cost = c + issue
                else:
                    stall = 0.0
                    if n - head >= capacity:
                        stall = max(0.0, pend_retire[head] - t)
                        bound = t + stall
                        while head < n and pend_retire[head] <= bound:
                            head += 1
                    retire = max(t + stall, last_retire)  # + 0.0/cap
                    last_retire = retire
                    pend_line.append(line)
                    pend_retire.append(retire)
                    cost = c + issue + stall
            else:
                # Inlined Dram.access on the line's canonical address
                # (the drain cost), then push_new.
                b = bank_l[j]
                row = row_l[j]
                drain = access_cycles
                if open_row[b] != row:
                    drain += off_page
                    if b == last_bank:
                        drain += same_bank
                    open_row[b] = row
                last_bank = b
                while head < n and pend_retire[head] <= t:
                    head += 1
                stall = 0.0
                if n - head >= capacity:
                    stall = max(0.0, pend_retire[head] - t)
                    bound = t + stall
                    while head < n and pend_retire[head] <= bound:
                        head += 1
                retire = max(t + stall, last_retire) + drain / capacity
                last_retire = retire
                pend_line.append(line)
                pend_retire.append(retire)
                cost = c + issue + stall
            now += cost
            pass_total += cost
        if measuring:
            total += pass_total
        remaining = npasses - pidx - 1
        if not remaining:
            break
        n = len(pend_line)
        state = (tuple(open_row), last_bank,
                 tuple((pend_line[k], max(pend_retire[k] - now, 0.0))
                       for k in range(head, n)),
                 max(last_retire - now, 0.0))
        if pidx >= 1 and state == prev_state:
            total += pass_total * remaining
            break
        prev_state = state
        if head > 4096:
            del pend_line[:head]
            del pend_retire[:head]
            head = 0
    return total


_BUILDERS = {
    "local_write": _build_local_write,
}
