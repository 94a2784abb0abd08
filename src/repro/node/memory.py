"""Functional backing store for one node's local memory.

Word-granularity (8-byte) storage holding arbitrary Python values
(ints for probe patterns, floats for EM3D fields).  Sub-word accesses
are composed from word accesses plus the Alpha byte-manipulation
helpers — there are no byte stores, which is what makes the byte-write
race of section 4.5 reproducible at the machine layer.

Two tiers back the store:

* **Flat typed segments** — contiguous (optionally strided) runs of
  words reserved up front via :meth:`WordMemory.alloc_segment`.  A
  segment keeps its words in one ``array.array`` buffer (``'d'`` for
  float64, ``'q'`` for int64, a plain list for arbitrary objects), so
  a million-word field costs ~8 MB instead of a hundred-plus bytes per
  dict entry, and bulk movers can shift whole slices without a Python
  call per word.  :meth:`Segment.np_view` exposes the same buffer
  zero-copy as a ``float64``/``int64`` numpy array for vectorized
  setup and analysis.
* **The sparse dict** — the historical per-word store, retained as the
  fallback for every unsegmented or irregular address.

Every operation (``load``/``store``/``load_range``/``store_range``/
``load_stride``) resolves the segment first and falls back to the
dict, and the observable behavior is defined to be *bit-identical* to
the pure-dict store: unwritten words read as int ``0``, stored values
round-trip with their exact Python type (a float comes back a float,
a bool a bool, an oversized int an int — values that do not fit the
segment's typed buffer are kept exactly in a per-segment override
dict).  ``tests/properties/test_segment_memory.py`` holds the two
tiers to that equivalence under randomized mixed access.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import repeat
from math import gcd

import numpy as _np

from repro.params import WORD_BYTES

__all__ = ["Segment", "WordMemory", "WordRun"]

#: Segment kinds: array.array typecode, the exact Python type the
#: typed buffer round-trips, and the numpy dtype name for views.
_KINDS = {
    "f8": ("d", float, "float64"),
    "i8": ("q", int, "int64"),
    "obj": (None, None, None),
}

_MISSING = object()

#: Words a :class:`WordRun` loads at a time while it is iterated.
_RUN_SLICE_WORDS = 2048


class Segment:
    """One contiguous typed run of words at a fixed byte stride.

    The segment owns words at ``base + i * stride`` for ``i`` in
    ``range(nwords)``; a stride above 8 leaves the in-between words to
    other segments or the sparse dict (EM3D's 32-byte node structures
    interleave this way).  ``defined`` tracks which words were ever
    written (unwritten words read as int 0, exactly like a dict miss),
    and ``overrides`` holds the exact value for any write the typed
    buffer cannot represent (wrong type, bool, > 64-bit int).
    """

    __slots__ = ("base", "nwords", "kind", "stride", "limit", "data",
                 "defined", "overrides", "undefined", "vtype")

    def __init__(self, base: int, nwords: int, kind: str, stride: int):
        self.base = base
        self.nwords = nwords
        self.kind = kind
        self.stride = stride
        #: Byte offset of the last owned word (inclusive).
        self.limit = (nwords - 1) * stride
        typecode, vtype, _dtype = _KINDS[kind]
        if typecode is None:
            self.data: object = [0] * nwords
        else:
            self.data = array(typecode, bytes(8 * nwords))
        self.defined = bytearray(nwords)
        self.overrides: dict[int, object] = {}
        self.undefined = nwords
        self.vtype = vtype

    def write(self, i: int, value) -> None:
        """Store ``value`` at word index ``i`` (exact round-trip)."""
        if self.vtype is None:
            self.data[i] = value
        elif type(value) is self.vtype:
            try:
                self.data[i] = value
                if self.overrides:
                    self.overrides.pop(i, None)
            except OverflowError:
                self.overrides[i] = value
        else:
            self.overrides[i] = value
        if not self.defined[i]:
            self.defined[i] = 1
            self.undefined -= 1

    def read(self, i: int):
        """Load word index ``i``; unwritten words read as int 0."""
        if not self.defined[i]:
            return 0
        if self.overrides:
            value = self.overrides.get(i, _MISSING)
            if value is not _MISSING:
                return value
        return self.data[i]

    def all_plain(self, i: int, n: int) -> bool:
        """Whether words ``i .. i+n-1`` all live in the typed buffer:
        every one written, none overridden — the precondition for
        slicing ``data`` directly."""
        if self.undefined and self.defined.find(0, i, i + n) != -1:
            return False
        if self.overrides and any(i <= k < i + n for k in self.overrides):
            return False
        return True

    def fill(self, i: int, values) -> None:
        """Store ``values`` at word indices ``i, i+1, ...``: one typed
        slice store when the buffer holds every value exactly (a numpy
        array of the segment's dtype, or values all of its exact Python
        type), else the per-word :meth:`write` with its overrides."""
        n = len(values)
        if isinstance(values, _np.ndarray):
            if self.vtype is not None and values.dtype == _KINDS[self.kind][2]:
                self.np_view()[i:i + n] = values
                self.define_range(i, n)
                return
            values = values.tolist()
        if set(map(type, values)) <= {self.vtype}:
            try:
                self.data[i:i + n] = array(self.data.typecode, values)
            except OverflowError:
                pass
            else:
                self.define_range(i, n)
                return
        for k, value in enumerate(values):
            self.write(i + k, value)

    def define_range(self, i: int, n: int) -> None:
        """Mark words ``i .. i+n-1`` written (after a slice store)."""
        if self.undefined:
            self.undefined -= n - self.defined.count(1, i, i + n)
            self.defined[i:i + n] = b"\x01" * n
        if self.overrides:
            for k in [k for k in self.overrides if i <= k < i + n]:
                del self.overrides[k]

    def np_view(self):
        """Zero-copy numpy view of the typed buffer (None when the
        segment holds arbitrary objects).

        Writes through the view bypass the defined-word tracking;
        callers must :meth:`define_range` what they fill.
        """
        if self.vtype is None:
            return None
        return _np.frombuffer(self.data, dtype=_KINDS[self.kind][2])


class WordRun:
    """The words at ``addr + 8 * i`` (``i < nwords``) of a memory as a
    sequence that loads a slice at a time, so a long store stream never
    holds all its values at once.  ``overrides`` (``{i: value}``)
    replace the loaded values at their indices.  Valid while nothing
    changes those words other than to the overriding values."""

    __slots__ = ("memory", "addr", "nwords", "overrides")

    def __init__(self, memory: "WordMemory", addr: int, nwords: int,
                 overrides: dict | None = None):
        self.memory = memory
        self.addr = addr
        self.nwords = nwords
        self.overrides = overrides or {}

    def __len__(self) -> int:
        return self.nwords

    def __getitem__(self, index):
        if not isinstance(index, slice):
            i = index + self.nwords if index < 0 else index
            if not 0 <= i < self.nwords:
                raise IndexError("WordRun index out of range")
            value = self.overrides.get(i, _MISSING)
            return (self.memory.load(self.addr + i * WORD_BYTES)
                    if value is _MISSING else value)
        start, stop, step = index.indices(self.nwords)
        if step != 1:
            return [self[i] for i in range(start, stop, step)]
        values = self.memory.load_range(self.addr + start * WORD_BYTES,
                                        max(0, stop - start))
        for i, value in self.overrides.items():
            if start <= i < stop:
                values[i - start] = value
        return values

    def __iter__(self):
        for start in range(0, self.nwords, _RUN_SLICE_WORDS):
            yield from self[start:start + _RUN_SLICE_WORDS]


class WordMemory:
    """Sparse word-addressed memory; unwritten words read as 0."""

    def __init__(self):
        self._words: dict[int, object] = {}
        self._segments: list[Segment] = []
        self._bases: list[int] = []
        self._max_limit = 0
        # Quick-reject bounds: addresses outside [lo, hi] skip segment
        # resolution entirely (lo > hi while no segment exists).
        self._seg_lo = 1
        self._seg_hi = 0
        self._hint: Segment | None = None

    # ------------------------------------------------------------------
    # Segment management
    # ------------------------------------------------------------------

    def alloc_segment(self, addr: int, nwords: int, kind: str = "f8",
                      stride_bytes: int = WORD_BYTES) -> Segment:
        """Reserve a flat typed segment of ``nwords`` words at
        ``addr, addr + stride, ...``; returns the :class:`Segment`.

        The address range must already be heap-reserved by the caller
        (:class:`~repro.machine.node.HeapAllocator` /
        ``Machine.symmetric_segment``); this call only changes the
        *representation* of those words.  Words previously stored to
        the sparse dict on the segment's lattice migrate in, so
        allocating late is safe.  Raises if the new segment's word set
        could collide with an existing segment's.
        """
        if addr % WORD_BYTES:
            raise ValueError("segment base must be word-aligned")
        if nwords <= 0:
            raise ValueError("segment needs at least one word")
        if stride_bytes < WORD_BYTES or stride_bytes % WORD_BYTES:
            raise ValueError("segment stride must be whole words")
        if kind not in _KINDS:
            raise ValueError(f"unknown segment kind {kind!r}")
        seg = Segment(addr, nwords, kind, stride_bytes)
        end = addr + seg.limit
        for other in self._segments:
            other_end = other.base + other.limit
            if addr <= other_end and other.base <= end \
                    and (addr - other.base) % gcd(stride_bytes,
                                                  other.stride) == 0:
                raise ValueError(
                    f"segment at {addr:#x} overlaps segment at "
                    f"{other.base:#x}")
        index = bisect_right(self._bases, addr)
        self._segments.insert(index, seg)
        self._bases.insert(index, addr)
        self._max_limit = max(self._max_limit, seg.limit)
        self._seg_lo = min(self._seg_lo, addr) if self._segments[1:] \
            else addr
        self._seg_hi = max(self._seg_hi, end) if self._segments[1:] \
            else end
        # Migrate any dict words already on the segment's lattice.
        stale = [w for w in self._words
                 if addr <= w <= end and (w - addr) % stride_bytes == 0]
        for w in stale:
            seg.write((w - addr) // stride_bytes, self._words.pop(w))
        return seg

    def _find(self, w: int):
        """Resolve word-aligned ``w`` to ``(segment, index)`` or None."""
        seg = self._hint
        if seg is not None:
            off = w - seg.base
            if 0 <= off <= seg.limit and not off % seg.stride:
                return seg, off // seg.stride
        segments = self._segments
        i = bisect_right(self._bases, w) - 1
        max_limit = self._max_limit
        while i >= 0:
            seg = segments[i]
            off = w - seg.base
            if off > max_limit:
                return None
            if off <= seg.limit and not off % seg.stride:
                self._hint = seg
                return seg, off // seg.stride
            i -= 1
        return None

    def segment_at(self, addr: int) -> Segment | None:
        """The segment owning the word containing ``addr`` (or None)."""
        w = addr - (addr % WORD_BYTES)
        if not self._seg_lo <= w <= self._seg_hi:
            return None
        hit = self._find(w)
        return hit[0] if hit is not None else None

    @property
    def segments(self) -> tuple:
        return tuple(self._segments)

    # ------------------------------------------------------------------
    # Scalar access
    # ------------------------------------------------------------------

    def clear(self) -> None:
        """Forget every word and segment: a fresh, empty memory."""
        self.__init__()

    def word_addr(self, addr: int) -> int:
        return addr - (addr % WORD_BYTES)

    def load(self, addr: int):
        """Load the 8-byte word containing ``addr``."""
        w = addr - (addr % WORD_BYTES)
        if self._seg_lo <= w <= self._seg_hi:
            hit = self._find(w)
            if hit is not None:
                seg, i = hit
                if not seg.defined[i]:
                    return 0
                if seg.overrides:
                    value = seg.overrides.get(i, _MISSING)
                    if value is not _MISSING:
                        return value
                return seg.data[i]
        return self._words.get(w, 0)

    def store(self, addr: int, value) -> None:
        """Store ``value`` into the 8-byte word containing ``addr``."""
        w = addr - (addr % WORD_BYTES)
        if self._seg_lo <= w <= self._seg_hi:
            hit = self._find(w)
            if hit is not None:
                hit[0].write(hit[1], value)
                return
        self._words[w] = value

    # ------------------------------------------------------------------
    # Range access
    # ------------------------------------------------------------------

    def _unsegmented(self, base: int, nwords: int) -> bool:
        """Whether no segment can own a word of the ``nwords``-word run
        at word-aligned ``base`` (the run lives in the sparse dict)."""
        return (not self._segments or base > self._seg_hi
                or base + (nwords - 1) * WORD_BYTES < self._seg_lo)

    def load_range(self, addr: int, nwords: int) -> list:
        """Load ``nwords`` consecutive words starting at ``addr``."""
        base = addr - (addr % WORD_BYTES)
        if self._unsegmented(base, nwords):
            return list(map(self._words.get,
                            range(base, base + nwords * WORD_BYTES,
                                  WORD_BYTES), repeat(0, nwords)))
        if self._seg_lo <= base <= self._seg_hi:
            hit = self._find(base)
            if hit is not None:
                seg, i = hit
                if seg.stride == WORD_BYTES and i + nwords <= seg.nwords:
                    if seg.vtype is not None and seg.all_plain(i, nwords):
                        return seg.data[i:i + nwords].tolist()
                    read = seg.read
                    return [read(j) for j in range(i, i + nwords)]
        load = self.load
        return [load(base + i * WORD_BYTES) for i in range(nwords)]

    def store_range(self, addr: int, values) -> None:
        """Store consecutive words starting at ``addr``."""
        base = addr - (addr % WORD_BYTES)
        if not isinstance(values, (list, tuple)):
            values = list(values)
        nwords = len(values)
        if nwords and self._unsegmented(base, nwords):
            self._words.update(zip(range(base, base + nwords * WORD_BYTES,
                                         WORD_BYTES), values))
            return
        if nwords and self._seg_lo <= base <= self._seg_hi:
            hit = self._find(base)
            if hit is not None:
                seg, i = hit
                if seg.stride == WORD_BYTES and i + nwords <= seg.nwords:
                    seg.fill(i, values)
                    return
        store = self.store
        for k, value in enumerate(values):
            store(base + k * WORD_BYTES, value)

    def store_words(self, words: dict) -> None:
        """Store every ``word_addr: value`` of ``words`` (word-aligned
        keys), leaving memory as :meth:`store` in the dict's order
        would: one dict update off the segments, one
        :meth:`store_range` for a contiguous run, one
        :meth:`Segment.fill` for a run on one segment's stride lattice."""
        lo, hi = min(words), max(words)
        nwords = len(words)
        if self._unsegmented(lo, (hi - lo) // WORD_BYTES + 1):
            self._words.update(words)
            return
        if hi - lo == (nwords - 1) * WORD_BYTES:
            self.store_range(lo, list(map(
                words.__getitem__, range(lo, hi + WORD_BYTES, WORD_BYTES))))
            return
        seg = self.segment_at(lo)
        if (seg is not None and hi - lo == (nwords - 1) * seg.stride
                and hi - seg.base <= seg.limit):
            values = list(map(words.get, range(lo, hi + 1, seg.stride),
                              repeat(_MISSING)))
            if _MISSING not in values:
                seg.fill((lo - seg.base) // seg.stride, values)
                return
        store = self.store
        for w, value in words.items():
            store(w, value)

    def load_stride(self, addr: int, stride_bytes: int, nwords: int) -> list:
        """Load ``nwords`` words at ``addr, addr + stride, ...``.

        Each element equals ``load(addr + i * stride_bytes)`` — the
        per-element word alignment matters when the stride is not a
        multiple of the word size.
        """
        if (stride_bytes >= WORD_BYTES
                and stride_bytes % WORD_BYTES == 0
                and addr % WORD_BYTES == 0
                and self._seg_lo <= addr <= self._seg_hi):
            hit = self._find(addr)
            if hit is not None:
                seg, i = hit
                if (seg.stride == stride_bytes
                        and i + nwords <= seg.nwords):
                    if seg.vtype is not None and seg.all_plain(i, nwords):
                        if stride_bytes == WORD_BYTES:
                            return seg.data[i:i + nwords].tolist()
                    read = seg.read
                    return [read(j) for j in range(i, i + nwords)]
        load = self.load
        return [
            load(a)
            for a in range(addr, addr + nwords * stride_bytes, stride_bytes)
        ]

    def gather(self, addrs, kind: str = "f8", overlay=None,
               written: bool = False):
        """Load the words containing each of ``addrs`` (an int64 numpy
        array) as one numpy array of the ``kind`` dtype (``"f8"`` or
        ``"i8"``), or None when some word's value is not exactly that
        dtype's Python type (the caller then loads per word).

        Element ``k`` equals ``load(addrs[k])`` in value (an unwritten
        word reads 0; with ``written``, it returns None instead, so each
        element is exactly what ``load`` gives), except that ``overlay``
        — an optional ``{k: value}`` dict, such as the memory system's
        pending write-buffer words — replaces the values at its
        positions.  Words in override-free segments of ``kind`` are read
        with one fancy index per segment; every other word goes through
        :meth:`load`.
        """
        vtype, dtype = _KINDS[kind][1:]
        words = addrs & -WORD_BYTES
        out = _np.zeros(len(words), dtype=dtype)
        todo = _np.ones(len(words), dtype=bool)
        if overlay:
            todo[list(overlay)] = False
        if len(words):
            lo, hi = int(words.min()), int(words.max())
            for seg in self._segments:
                if seg.kind != kind or seg.overrides or seg.base > hi \
                        or seg.base + seg.limit < lo:
                    continue
                off = words - seg.base
                hit = todo & (off >= 0) & (off <= seg.limit) \
                    & (off % seg.stride == 0)
                index = off[hit] // seg.stride
                if written and seg.undefined and not _np.frombuffer(
                        seg.defined, dtype=_np.uint8)[index].all():
                    return None
                out[hit] = seg.np_view()[index]
                todo &= ~hit
        rest = [(k, self.load(int(words[k])))
                for k in _np.flatnonzero(todo).tolist()]
        for k, value in rest + list((overlay or {}).items()):
            if type(value) is not vtype and (written or not (
                    type(value) is int and value == 0)):
                return None
            try:
                out[k] = value
            except OverflowError:
                return None
        return out

    def move_range(self, dst_addr: int, src_mem: "WordMemory",
                   src_addr: int, nwords: int) -> bool:
        """Copy ``nwords`` consecutive words from ``src_mem`` in one
        typed slice assignment when both ends are same-kind unit-stride
        segments; returns False when the shapes don't allow it (the
        caller falls back to ``load_range``/``store_range``).
        """
        if nwords <= 0 or src_addr % WORD_BYTES or dst_addr % WORD_BYTES:
            return False
        src_hit = src_mem._find(src_addr) \
            if src_mem._seg_lo <= src_addr <= src_mem._seg_hi else None
        if src_hit is None:
            return False
        dst_hit = self._find(dst_addr) \
            if self._seg_lo <= dst_addr <= self._seg_hi else None
        if dst_hit is None:
            return False
        src_seg, i = src_hit
        dst_seg, j = dst_hit
        if (src_seg.kind != dst_seg.kind or src_seg.vtype is None
                or src_seg.stride != WORD_BYTES
                or dst_seg.stride != WORD_BYTES
                or i + nwords > src_seg.nwords
                or j + nwords > dst_seg.nwords
                or not src_seg.all_plain(i, nwords)):
            return False
        dst_seg.data[j:j + nwords] = src_seg.data[i:i + nwords]
        dst_seg.define_range(j, nwords)
        return True

    # ------------------------------------------------------------------
    # Introspection (fingerprints, footprint gauges)
    # ------------------------------------------------------------------

    def items(self):
        """Iterate ``(word_addr, value)`` over every *written* word —
        dict and segment tiers merged; the canonical content view the
        golden-equivalence fingerprints sort and compare."""
        yield from self._words.items()
        for seg in self._segments:
            base, stride = seg.base, seg.stride
            defined = seg.defined
            read = seg.read
            for i in range(seg.nwords):
                if defined[i]:
                    yield base + i * stride, read(i)

    @property
    def words_allocated(self) -> int:
        """Capacity gauge: dict words plus every reserved segment word
        (written or not) — the footprint the segment tier pre-pays."""
        return len(self._words) + sum(s.nwords for s in self._segments)

    @property
    def segment_bytes(self) -> int:
        """Approximate bytes held by segment buffers (data + masks)."""
        return sum(s.nwords * 9 for s in self._segments)

    def __len__(self) -> int:
        """Number of written words (both tiers)."""
        return len(self._words) + sum(
            s.nwords - s.undefined for s in self._segments)
