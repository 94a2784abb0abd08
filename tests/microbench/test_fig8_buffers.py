"""Figure 8's bulk probes move their words through typed buffers.

Each point's source and destination are ``"f8"`` segments, the source
filled with distinct floats before the clock is read.  Every mechanism
must deliver exactly the source words, keep every word out of the
sparse dict, and time the transfer as it does on a machine with no
segments.
"""

import numpy as np
import pytest

from repro.machine.machine import Machine
from repro.microbench import probes
from repro.params import WORD_BYTES

KB = 1024


def _sparse_words(machine) -> int:
    return sum(len(node.memsys.memory._words) for node in machine.nodes)


def _check_moved(machine, nbytes: int, buffers) -> None:
    src_pe, src_offset, dst_pe, dst_offset = buffers
    nwords = nbytes // WORD_BYTES
    source = machine.nodes[src_pe].memsys.memory.load_range(src_offset,
                                                            nwords)
    assert source == [float(k) for k in range(1, nwords + 1)]
    # ``written`` makes gather return None unless every word was written
    # and is a Python float (pending write-buffer words overlaid).
    moved = machine.nodes[dst_pe].memsys.gather(
        np.arange(dst_offset, dst_offset + nbytes, WORD_BYTES),
        written=True)
    assert moved is not None
    assert moved.tolist() == source
    assert _sparse_words(machine) == 0


@pytest.mark.parametrize("nbytes", [8, 2 * KB, 16 * KB, 512 * KB])
@pytest.mark.parametrize("name", list(probes.READ_MECHANISMS))
def test_read_moves_the_source_words(name, nbytes):
    mech = probes.READ_MECHANISMS[name]
    machine = probes._bulk_machine(nbytes, probes._READ_BUFFERS)
    point = probes._bulk_read_point(machine, name, mech, nbytes)
    _check_moved(machine, nbytes, probes._READ_BUFFERS)
    assert point == probes._bulk_read_point(probes._fresh_pair(), name,
                                            mech, nbytes)


@pytest.mark.parametrize("source_cached", [False, True])
@pytest.mark.parametrize("nbytes", [32, 2 * KB, 16 * KB, 512 * KB])
@pytest.mark.parametrize("name", list(probes.WRITE_MECHANISMS))
def test_write_moves_the_source_words(name, nbytes, source_cached):
    mech = probes.WRITE_MECHANISMS[name]
    machine = probes._bulk_machine(nbytes, probes._WRITE_BUFFERS)
    point = probes._bulk_write_point(machine, name, mech, nbytes,
                                     source_cached)
    _check_moved(machine, nbytes, probes._WRITE_BUFFERS)
    assert point == probes._bulk_write_point(probes._fresh_pair(), name,
                                             mech, nbytes, source_cached)


def test_bandwidth_probes_keep_every_word_out_of_the_sparse_dict(
        monkeypatch):
    released = []
    release = Machine.release

    def checked_release(machine):
        released.append(_sparse_words(machine))
        release(machine)

    monkeypatch.setattr(Machine, "release", checked_release)
    sizes = [8, 32, 128, 512, 2 * KB, 8 * KB, 32 * KB, 128 * KB, 512 * KB]
    probes.bulk_read_bandwidth_probe(sizes)
    probes.bulk_write_bandwidth_probe(sizes[1:])
    assert released == [0] * (len(sizes) * len(probes.READ_MECHANISMS)
                              + len(sizes[1:]) * len(probes.WRITE_MECHANISMS))
