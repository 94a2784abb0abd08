"""Unit tests for the functional word store."""

import pytest

from repro.node.memory import WordMemory, WordRun


def test_unwritten_reads_zero():
    mem = WordMemory()
    assert mem.load(0x1234) == 0


def test_store_load_round_trip():
    mem = WordMemory()
    mem.store(0x100, 3.5)
    assert mem.load(0x100) == 3.5


def test_word_granularity():
    mem = WordMemory()
    mem.store(0x100, "word")
    # Any address within the word reads the same value.
    assert mem.load(0x107) == "word"
    assert mem.load(0x108) == 0
    # A sub-word-addressed store replaces the whole word.
    mem.store(0x103, "other")
    assert mem.load(0x100) == "other"


def test_range_helpers():
    mem = WordMemory()
    mem.store_range(0x200, [1, 2, 3])
    assert mem.load_range(0x200, 4) == [1, 2, 3, 0]


def test_len_counts_written_words():
    mem = WordMemory()
    mem.store(0, 1)
    mem.store(7, 2)        # same word
    mem.store(8, 3)
    assert len(mem) == 2


def test_word_run_is_a_sequence():
    mem = WordMemory()
    mem.store_range(0x200, [1.5, 2.5, 3.5, 4.5])
    run = WordRun(mem, 0x200, 5, {1: "override"})
    expected = [1.5, "override", 3.5, 4.5, 0]
    assert [run[k] for k in range(5)] == expected
    assert [run[k] for k in range(-5, 0)] == expected
    assert list(run) == expected
    assert run[1:4] == expected[1:4]
    assert run[::2] == expected[::2]
    assert run[::-1] == expected[::-1]
    for k in (5, -6):
        with pytest.raises(IndexError):
            run[k]
    other = WordMemory()
    other.store_range(0x1000, run)
    assert other.load_range(0x1000, 5) == expected


def test_word_run_iterates_past_one_slice():
    mem = WordMemory()
    values = [float(k) for k in range(5000)]
    mem.store_range(0, values)
    assert list(WordRun(mem, 0, 5000)) == values
