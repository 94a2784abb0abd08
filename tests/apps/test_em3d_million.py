"""The million-point capacity kernel: its affine fill and an honest
run, at sizes small enough for tier-1."""

import pytest

from repro.apps.em3d.million import run_em3d_million
from repro.machine.machine import Machine
from repro.params import t3d_machine_params


def fresh_machine(shape=(2, 2, 1)):
    return Machine(t3d_machine_params(shape))


def _point(nodes_per_pe: int = 64, shape=(2, 2, 1)):
    return run_em3d_million(fresh_machine(shape), nodes_per_pe,
                            degree=2, steps=1, warmup_steps=1)


def test_compute_is_deterministic():
    # A non-power-of-two node count exercises the modular scatter.
    for nodes_per_pe in (64, 37):
        a = _point(nodes_per_pe)
        b = _point(nodes_per_pe)
        assert a.cycles_per_edge == b.cycles_per_edge
        assert a.e_checksum == b.e_checksum
        assert a.cycles_per_edge > 0


def test_every_processor_holds_its_own_image():
    point = _point()
    per_pe = 2 * 64 + 2 * 2 * 64 * 2
    assert point.footprint["segment_words"] == 4 * per_pe


def test_scalar_fill_matches_numpy_fill():
    """The vectorized fill writes exactly the module docstring's scalar
    formulas: integer hashes scaled by an exact power of two."""
    from repro.apps.em3d import million
    from repro.node.memory import WordMemory

    n, degree = 37, 2
    vb = million.VALUE_BYTES
    layout = {"e_vals": 0, "h_vals": n * vb, "e_adj": 2 * n * vb,
              "h_adj": 2 * n * vb + n * degree * 16}
    mem = WordMemory()
    million._build_image(mem, layout, n, degree)

    def unit(x):
        return (x % million._HASH_MOD) / million._HASH_MOD * 2.0 - 1.0

    for kind, (mult, off) in million._INIT.items():
        base = layout[kind + "_vals"]
        assert [mem.load(base + i * vb) for i in range(n)] == [
            unit(i * mult + off) for i in range(n)]
    pairs = [(i, k) for i in range(n) for k in range(degree)]
    for kind, vals in (("e", "h_vals"), ("h", "e_vals")):
        base = layout[kind + "_adj"]
        assert [mem.load(base + 16 * e) for e in range(len(pairs))] == [
            layout[vals] + (i * million._IDX_A + k * million._IDX_B) % n * vb
            for i, k in pairs]
        assert [mem.load(base + 8 + 16 * e) for e in range(len(pairs))] == [
            unit(i * million._HASH_A + k * million._HASH_B)
            for i, k in pairs]


def test_rejects_bad_sizes():
    with pytest.raises(ValueError, match="positive"):
        run_em3d_million(fresh_machine(), 0)
