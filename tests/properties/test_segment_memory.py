"""Property-based tests: segment-backed ``WordMemory`` is observably
identical to the pure-dict store.

The segment tier (PR 10) is a representation change only — every
sequence of scalar/range/strided/sub-word-aligned accesses against a
memory with typed segments must produce byte-for-byte the values (and
exact Python types) the historical dict-only store produces.  A
shadow ``WordMemory`` with no segments plays the reference role.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.node.memory import WordMemory
from repro.params import WORD_BYTES

# A compact address universe so accesses collide with segments,
# straddle their boundaries, and spill into the dict fallback.
SEG_A = 64            # f8, unit stride, 16 words -> [64, 192)
SEG_B = 256           # i8, unit stride, 8 words  -> [256, 320)
SEG_C = 512           # f8, stride 32, 8 words    -> 512, 544, ... 736
SEG_D = 520           # i8, stride 32 interleaved with SEG_C
SEG_E = 1024          # obj, unit stride, 8 words

ADDRS = st.integers(min_value=0, max_value=1200)

VALUES = st.one_of(
    st.integers(min_value=-(2 ** 70), max_value=2 ** 70),
    st.floats(allow_nan=False, allow_infinity=True, width=64),
    st.booleans(),
    st.text(max_size=4),
)

OPS = st.lists(
    st.one_of(
        st.tuples(st.just("store"), ADDRS, VALUES),
        st.tuples(st.just("load"), ADDRS),
        st.tuples(st.just("load_range"), ADDRS,
                  st.integers(min_value=0, max_value=24)),
        st.tuples(st.just("store_range"), ADDRS,
                  st.lists(VALUES, max_size=24)),
        st.tuples(st.just("load_stride"), ADDRS,
                  st.integers(min_value=1, max_value=40),
                  st.integers(min_value=0, max_value=12)),
    ),
    max_size=80,
)


def _segmented() -> WordMemory:
    mem = WordMemory()
    mem.alloc_segment(SEG_A, 16, "f8")
    mem.alloc_segment(SEG_B, 8, "i8")
    mem.alloc_segment(SEG_C, 8, "f8", stride_bytes=32)
    mem.alloc_segment(SEG_D, 8, "i8", stride_bytes=32)
    mem.alloc_segment(SEG_E, 8, "obj")
    return mem


def _tagged(value):
    """Compare by exact type as well as value (1 != 1.0 != True here),
    tolerating nan."""
    if isinstance(value, float) and math.isnan(value):
        return (type(value), "nan")
    return (type(value), value)


def _run(sequence, mem):
    out = []
    for op in sequence:
        name = op[0]
        if name == "store":
            mem.store(op[1], op[2])
        elif name == "load":
            out.append(_tagged(mem.load(op[1])))
        elif name == "load_range":
            out.append([_tagged(v) for v in mem.load_range(op[1], op[2])])
        elif name == "store_range":
            mem.store_range(op[1], op[2])
        else:
            out.append([_tagged(v)
                        for v in mem.load_stride(op[1], op[2], op[3])])
    return out


@given(OPS)
@settings(max_examples=150, deadline=None)
def test_segment_tier_matches_pure_dict(sequence):
    """Mixed scalar/range/strided access: identical observable values,
    identical written-word sets, identical ``len``."""
    seg, ref = _segmented(), WordMemory()
    assert _run(sequence, seg) == _run(sequence, ref)
    seg_items = sorted((a, _tagged(v)) for a, v in seg.items())
    ref_items = sorted((a, _tagged(v)) for a, v in ref.items())
    assert seg_items == ref_items
    assert len(seg) == len(ref)


@given(st.lists(st.tuples(st.integers(0, 15), VALUES), max_size=30),
       st.integers(0, 15), st.integers(0, 16))
@settings(max_examples=80, deadline=None)
def test_move_range_equals_word_copy(writes, start, n):
    """``move_range`` (the BLT slice path) equals a per-word copy, and
    declines exactly when a per-word copy is the honest path."""
    src_seg, src_ref = _segmented(), WordMemory()
    for i, value in writes:
        src_seg.store(SEG_A + i * WORD_BYTES, value)
        src_ref.store(SEG_A + i * WORD_BYTES, value)
    n = min(n, 16 - start)
    dst = _segmented()
    src_addr = SEG_A + start * WORD_BYTES
    moved = dst.move_range(SEG_A, src_seg, src_addr, n)
    if not moved:
        dst.store_range(SEG_A, src_seg.load_range(src_addr, n))
    expected = WordMemory()
    expected.store_range(SEG_A, src_ref.load_range(src_addr, n))
    got = [_tagged(v) for v in dst.load_range(SEG_A, n)]
    want = [_tagged(v) for v in expected.load_range(SEG_A, n)]
    assert got == want


def test_sub_word_accesses_share_the_word():
    """Byte-offset addresses resolve to the containing word in both
    tiers — the section 4.5 byte-write race stays reproducible."""
    seg, ref = _segmented(), WordMemory()
    for mem in (seg, ref):
        mem.store(SEG_A + 3, 7.5)          # lands in word SEG_A
        mem.store(SEG_B + 13, 11)          # lands in word SEG_B + 8
        mem.store(2001, "x")               # dict fallback, word 2000
    for mem in (seg, ref):
        assert mem.load(SEG_A) == 7.5
        assert mem.load(SEG_A + 7) == 7.5
        assert mem.load(SEG_B + 8) == 11
        assert mem.load(2000) == "x"
        assert mem.load(SEG_B) == 0 and type(mem.load(SEG_B)) is int


def test_boundary_straddles_fall_back_cleanly():
    """Ranges that start inside a segment and run past its end land
    the tail in the dict, and read back identically."""
    seg, ref = _segmented(), WordMemory()
    values = [float(i) for i in range(20)]     # SEG_A holds 16 words
    for mem in (seg, ref):
        mem.store_range(SEG_A + 8 * 10, values)
    for mem in (seg, ref):
        assert mem.load_range(SEG_A + 80, 20) == values
    # Words 144..184 stay in SEG_A, the 192..248 gap falls to the
    # dict, and 256..296 land in SEG_B (as float overrides on the i8
    # buffer) — 6 + 8 + 6 words.
    assert len(seg._words) == 8 and len(ref._words) == 20
    assert len(seg) == len(ref) == 20


def test_alloc_collision_and_validation():
    import pytest
    mem = _segmented()
    with pytest.raises(ValueError):
        mem.alloc_segment(SEG_A + 8, 4, "f8")          # same lattice
    with pytest.raises(ValueError):
        mem.alloc_segment(SEG_C + 32, 2, "f8", stride_bytes=32)
    with pytest.raises(ValueError):
        mem.alloc_segment(3, 4, "f8")                  # misaligned
    with pytest.raises(ValueError):
        mem.alloc_segment(4096, 0, "f8")               # empty
    with pytest.raises(ValueError):
        mem.alloc_segment(4096, 4, "f4")               # unknown kind
    # Interleaving on a disjoint lattice is fine (SEG_C/SEG_D idiom).
    mem.alloc_segment(SEG_A + 8 * 16, 4, "i8")


def test_dict_words_migrate_into_new_segment():
    mem = WordMemory()
    mem.store(64, 1.5)           # on the stride-16 lattice -> migrates
    mem.store(76, 2.5)           # word 72, off-lattice -> stays in dict
    mem.store(96, True)          # on-lattice; exact bool must survive
    seg = mem.alloc_segment(64, 4, "f8", stride_bytes=16)
    assert mem.load(64) == 1.5 and seg.read(0) == 1.5
    assert mem.load(72) == 2.5 and 72 in mem._words
    assert mem.load(96) is True and 96 not in mem._words
    assert mem.words_allocated == 1 + 4


def test_footprint_gauges():
    mem = _segmented()
    assert mem.words_allocated == 16 + 8 + 8 + 8 + 8
    assert mem.segment_bytes == (16 + 8 + 8 + 8 + 8) * 9
    assert len(mem) == 0
    mem.store(SEG_A, 1.0)
    mem.store(5000, 2)
    assert len(mem) == 2
