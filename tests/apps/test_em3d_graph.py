"""Unit tests for EM3D graph generation and communication plans."""

import hashlib
import random

import numpy as np
import pytest

from repro.apps.em3d.graph import initial_values, make_graph, randbelow


def _adj(g, direction):
    """Every processor's edge lists of one direction."""
    return [g.adjacency(direction, pe) for pe in range(g.num_pes)]


def test_shapes():
    g = make_graph(num_pes=4, nodes_per_pe=10, degree=3,
                   remote_fraction=0.5)
    assert len(_adj(g, "e")) == 4
    assert all(len(nodes) == 10 for nodes in _adj(g, "e"))
    assert all(len(edges) == 3 for nodes in _adj(g, "h") for edges in nodes)
    assert g.edges_per_pe == 2 * 10 * 3
    for edges in g.e_edges + g.h_edges:
        assert edges.owner.dtype == np.int64 and edges.idx.dtype == np.int64
        assert edges.weight.dtype == np.float64
        assert len(edges.owner) == len(edges.idx) == len(edges.weight) == 30


def test_deterministic_in_seed():
    a = make_graph(2, 5, 2, 0.3, seed=9)
    b = make_graph(2, 5, 2, 0.3, seed=9)
    c = make_graph(2, 5, 2, 0.3, seed=10)
    for direction in "eh":
        assert _adj(a, direction) == _adj(b, direction)
    assert _adj(a, "e") != _adj(c, "e")


def _stream_digest(g):
    h = hashlib.sha256()
    for direction in "eh":
        for nodes in _adj(g, direction):
            for edges in nodes:
                for owner, idx, w in edges:
                    h.update(f"{owner},{idx},{w!r};".encode())
    return h.hexdigest()


@pytest.mark.parametrize("shape, digest", [
    ((4, 300, 12, 0.2),
     "1f033df23f34cdb9b4cdf519c8999c02ab237bf6a458cf21071a03af29181bfa"),
    ((4, 10, 3, 0.5),
     "dd009080e30ae7677092b3b5c9364a1df4b4e2a4b170a76e5a8d8eb7fe3b3997"),
    ((3, 7, 5, 1.0),
     "3a81e2e2e6e6ad7243218e2adb6f5dde291bc7754d40e40743beff90d612b447"),
    ((1, 9, 4, 0.0),
     "aee9c149c7bc6580fdb1cb5f8eda41bcc6c7b56d0bb1a5ca48e2352aad74b388"),
])
def test_rng_stream_pinned(shape, digest):
    """The (owner, idx, weight) sequence at seed 1995, pinned as the
    tuple-list generator produced it: the array representation draws
    the same random numbers in the same order."""
    assert _stream_digest(make_graph(*shape, seed=1995)) == digest


@pytest.mark.parametrize("n", [1, 2, 3, 64, 255, 256, 300, 1 << 40])
def test_randbelow_draws_randrange(n):
    """The helper and ``randrange`` give the same numbers and leave the
    generator in the same state, interleaved with other draws."""
    ours, theirs = random.Random(n), random.Random(n)
    below = randbelow(ours, n)
    for _ in range(2000):
        assert below() == theirs.randrange(n)
        assert ours.random() == theirs.random()
    assert ours.getstate() == theirs.getstate()


def test_remote_fraction_zero_is_all_local():
    g = make_graph(4, 8, 3, 0.0)
    assert g.remote_edge_fraction() == 0.0


def test_remote_fraction_tracks_request():
    g = make_graph(8, 50, 10, 0.4, seed=2)
    assert g.remote_edge_fraction() == pytest.approx(0.4, abs=0.05)


def test_remote_fraction_one_has_no_local_edges():
    g = make_graph(4, 10, 3, 1.0)
    for direction in "eh":
        for pe, nodes in enumerate(_adj(g, direction)):
            for edges in nodes:
                assert all(owner != pe for owner, _i, _w in edges)


def test_plan_covers_every_remote_edge():
    g = make_graph(4, 10, 3, 0.5, seed=5)
    for direction, plan in (("e", g.e_plan), ("h", g.h_plan)):
        for consumer in range(4):
            slots = plan.edge_slot[consumer].tolist()
            flat = [edge for edges in g.adjacency(direction, consumer)
                    for edge in edges]
            for (owner, idx, _w), slot in zip(flat, slots):
                if owner != consumer:
                    assert plan.ghost_slot[consumer][(owner, idx)] == slot
                    assert idx in plan.needed[consumer][owner]
                else:
                    assert slot == -1


def test_plan_slots_contiguous_per_source():
    g = make_graph(4, 20, 4, 0.7, seed=5)
    plan = g.e_plan
    for consumer in range(4):
        for src in plan.needed[consumer]:
            base = plan.slot_base(consumer, src)
            idxs = plan.needed[consumer][src]
            slots = [plan.ghost_slot[consumer][(src, idx)] for idx in idxs]
            assert slots == list(range(base, base + len(idxs)))
            assert plan.ghost_src[consumer][slots].tolist() == \
                [src] * len(idxs)
            assert plan.ghost_idx[consumer][slots].tolist() == idxs


def test_plan_ghosts_are_distinct_values():
    g = make_graph(4, 10, 5, 0.8, seed=5)
    for consumer in range(4):
        slots = list(g.e_plan.ghost_slot[consumer].values())
        assert len(slots) == len(set(slots))
        assert g.e_plan.ghost_count(consumer) == len(slots)


def _old_plan(adj, num_pes):
    """The tuple-list plan construction (the oracle): needed sets, then
    slots numbered source by source."""
    needed_sets = [dict() for _ in range(num_pes)]
    for consumer in range(num_pes):
        for edges in adj[consumer]:
            for owner, idx, _w in edges:
                if owner != consumer:
                    needed_sets[consumer].setdefault(owner, set()).add(idx)
    needed = [{s: sorted(idxs) for s, idxs in by_src.items()}
              for by_src in needed_sets]
    ghost_slot, senders = [], [[] for _ in range(num_pes)]
    for consumer in range(num_pes):
        slots, slot = {}, 0
        for s in sorted(needed[consumer]):
            senders[s].append((consumer, needed[consumer][s], slot))
            for idx in needed[consumer][s]:
                slots[(s, idx)] = slot
                slot += 1
        ghost_slot.append(slots)
    return needed, ghost_slot, senders


def _old_slot_base(needed, consumer, source):
    base = 0
    for s in sorted(needed[consumer]):
        if s == source:
            return base
        base += len(needed[consumer][s])
    raise KeyError(source)


@pytest.mark.parametrize("trial", range(12))
def test_plan_lookups_equal_old_definitions(trial):
    """On random graphs the array-derived plan, its slot bases and the
    layout's ghost count equal the old scans."""
    from repro.apps.em3d.kernels import _setup
    from repro.machine.machine import Machine
    from repro.params import t3d_machine_params

    rng = random.Random(trial)
    num_pes = rng.choice([2, 3, 4])
    g = make_graph(num_pes, rng.randrange(1, 30), rng.randrange(1, 7),
                   rng.choice([0.0, 0.1, 0.5, 0.9, 1.0]),
                   seed=rng.randrange(10_000))
    old_max = 1
    for direction, plan in (("e", g.e_plan), ("h", g.h_plan)):
        needed, ghost_slot, senders = _old_plan(_adj(g, direction), num_pes)
        assert plan.needed == needed
        assert plan.ghost_slot == ghost_slot
        assert plan.senders == senders
        for consumer in range(num_pes):
            old_max = max(old_max, len(ghost_slot[consumer]))
            assert plan.ghost_count(consumer) == len(ghost_slot[consumer])
            for source in range(num_pes):
                if source in needed[consumer]:
                    assert plan.slot_base(consumer, source) == \
                        _old_slot_base(needed, consumer, source)
                else:
                    with pytest.raises(KeyError):
                        plan.slot_base(consumer, source)
    shape = {2: (2, 1, 1), 3: (3, 1, 1), 4: (2, 2, 1)}[num_pes]
    layout = _setup(Machine(t3d_machine_params(shape)), g, "bulk")
    assert layout.max_ghosts == old_max


def test_initial_values_deterministic_and_distinct():
    g = make_graph(2, 5, 2, 0.0)
    e1 = initial_values(g, "e", seed=3)
    e2 = initial_values(g, "e", seed=3)
    h1 = initial_values(g, "h", seed=3)
    assert e1 == e2
    assert e1 != h1


def test_validation():
    with pytest.raises(ValueError):
        make_graph(0, 10, 3, 0.0)
    with pytest.raises(ValueError):
        make_graph(2, 10, 3, 1.5)
    with pytest.raises(ValueError):
        make_graph(1, 10, 3, 0.5)      # remote edges need >= 2 PEs
