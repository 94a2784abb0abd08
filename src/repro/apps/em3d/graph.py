"""Synthetic EM3D graphs (paper section 8).

The paper evaluates synthetic bipartite graphs with a fixed number of
nodes per processor, fixed degree, and a tunable fraction of edges
whose endpoints live on different processors.  The generator here is
deterministic (seeded) and replicated: every SPMD thread builds the
same global graph and extracts its own slice, which is how the real
program's preprocessing step distributed the structure.

Each direction's edges are stored per processor as three flat arrays in
edge order (node ``i``'s edges are entries ``i * degree`` on): the
owning processor and index of the neighbor, and the weight.

Besides adjacency, the generator emits the **communication plan** the
optimized versions share: for every (consumer, source) processor pair,
the sorted list of distinct source-node indices the consumer needs.
Consumers allocate their ghost slots contiguously per source — which
is exactly what makes the Bulk version's per-pair buffers contiguous.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["CommPlan", "EdgeArrays", "Em3dGraph", "make_graph"]


class EdgeArrays(NamedTuple):
    """One processor's edges of one direction, in edge order."""

    #: int64: the processor owning each edge's neighbor.
    owner: np.ndarray
    #: int64: the neighbor's index on its owner.
    idx: np.ndarray
    #: float64: the edge weight.
    weight: np.ndarray


@dataclass
class CommPlan:
    """Who needs which values, for one leapfrog direction.

    ``needed[c][s]`` lists the distinct node indices on source
    processor ``s`` whose values consumer ``c`` reads; ghost slots on
    ``c`` are numbered contiguously in that order, source by source.
    """

    needed: list[dict[int, list[int]]]
    #: ghost_slot[c][(s, idx)] -> slot number on consumer c.
    ghost_slot: list[dict[tuple[int, int], int]]
    #: senders[s] -> [(consumer, idxs, slot_base)] for every consumer
    #: that reads from source ``s`` (consumer-ascending).  The inverse
    #: of ``needed``: producers iterate their own consumer list instead
    #: of scanning all N processors per fill phase.  ``idxs`` aliases
    #: ``needed[consumer][s]`` and the consumer's ghost slots for this
    #: source are ``slot_base + k`` in that order.
    senders: list[list[tuple[int, list[int], int]]]
    #: ghost_src[c], ghost_idx[c] -> int64 arrays: the source processor
    #: and index of each of consumer c's ghost slots, in slot order.
    ghost_src: list[np.ndarray]
    ghost_idx: list[np.ndarray]
    #: edge_slot[c] -> int64 array: the ghost slot each of c's edges
    #: reads (in edge order; -1 for a local edge).
    edge_slot: list[np.ndarray]
    #: bases[c][s] -> the first ghost slot on c assigned to source s.
    bases: list[dict[int, int]]

    def ghost_count(self, consumer: int) -> int:
        return len(self.ghost_src[consumer])

    def slot_base(self, consumer: int, source: int) -> int:
        """First ghost slot on ``consumer`` assigned to ``source``."""
        try:
            return self.bases[consumer][source]
        except KeyError:
            raise KeyError(f"consumer {consumer} needs nothing from "
                           f"{source}") from None


@dataclass
class Em3dGraph:
    """A distributed bipartite EM3D graph.

    ``e_edges[p]`` holds the edges of processor p's E nodes (each to an
    H node), ``h_edges[p]`` those of its H nodes; see
    :class:`EdgeArrays` and :meth:`adjacency`.
    """

    num_pes: int
    nodes_per_pe: int
    degree: int
    remote_fraction: float
    e_edges: list[EdgeArrays]
    h_edges: list[EdgeArrays]
    e_plan: CommPlan = field(default=None)
    h_plan: CommPlan = field(default=None)

    @property
    def edges_per_pe(self) -> int:
        """Directed edges processed per processor per whole time step."""
        return 2 * self.nodes_per_pe * self.degree

    def adjacency(self, direction: str, pe: int):
        """Processor ``pe``'s edges of ``direction`` ("e" or "h") as
        lists: ``[node][k] -> (owner, idx, weight)``.  Built on each
        call from the arrays (for the sequential reference and tests)."""
        edges = self.e_edges[pe] if direction == "e" else self.h_edges[pe]
        flat = list(zip(edges.owner.tolist(), edges.idx.tolist(),
                        edges.weight.tolist()))
        d = self.degree
        return [flat[i:i + d] for i in range(0, len(flat), d)]

    def remote_edge_fraction(self) -> float:
        """The realized fraction of edges that cross processors."""
        remote = sum(int((edges.owner != pe).sum())
                     for adj in (self.e_edges, self.h_edges)
                     for pe, edges in enumerate(adj))
        total = 2 * self.num_pes * self.nodes_per_pe * self.degree
        return remote / total


def _build_plan(adj: list[EdgeArrays], nodes_per_pe: int) -> CommPlan:
    """Communication plan for one direction (who reads what).

    A consumer's ghost slots are its distinct remote ``(source, idx)``
    pairs in ascending order, so ``np.unique`` of ``source * n + idx``
    numbers them and its inverse maps each edge to its slot.
    """
    num_pes = len(adj)
    n = nodes_per_pe
    needed, ghost_slot, bases = [], [], []
    ghost_src, ghost_idx, edge_slot = [], [], []
    senders: list[list[tuple[int, list[int], int]]] = [
        [] for _ in range(num_pes)]
    for consumer, edges in enumerate(adj):
        remote = edges.owner != consumer
        keys, inverse = np.unique(edges.owner[remote] * n
                                  + edges.idx[remote], return_inverse=True)
        slot = np.full(len(edges.owner), -1, dtype=np.int64)
        slot[remote] = inverse
        src, idx = keys // n, keys % n
        sources, starts = np.unique(src, return_index=True)
        idx_list = idx.tolist()
        stops = [*starts.tolist()[1:], len(keys)]
        by_src = {}
        base_of = {}
        for s, lo, hi in zip(sources.tolist(), starts.tolist(), stops):
            by_src[s] = idx_list[lo:hi]
            base_of[s] = lo
            senders[s].append((consumer, by_src[s], lo))
        needed.append(by_src)
        bases.append(base_of)
        ghost_slot.append(dict(zip(zip(src.tolist(), idx_list),
                                   range(len(keys)))))
        ghost_src.append(src)
        ghost_idx.append(idx)
        edge_slot.append(slot)
    return CommPlan(needed=needed, ghost_slot=ghost_slot, senders=senders,
                    ghost_src=ghost_src, ghost_idx=ghost_idx,
                    edge_slot=edge_slot, bases=bases)


def randbelow(rng: random.Random, n: int):
    """A function that draws ``rng.randrange(n)`` (``n > 0``) call for
    call: the ``getrandbits`` rejection loop ``random.Random`` runs,
    with the bit count bound once, so it consumes the same stream."""
    getrandbits = rng.getrandbits
    k = n.bit_length()

    def below() -> int:
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def make_graph(num_pes: int, nodes_per_pe: int, degree: int,
               remote_fraction: float, seed: int = 1995) -> Em3dGraph:
    """Generate the synthetic kernel graph of section 8.

    Every edge endpoint is remote with probability ``remote_fraction``;
    remote endpoints are spread uniformly over the other processors.
    Weights are deterministic in the seed.
    """
    if num_pes < 1 or nodes_per_pe < 1 or degree < 1:
        raise ValueError("num_pes, nodes_per_pe, degree must be positive")
    if not 0.0 <= remote_fraction <= 1.0:
        raise ValueError("remote_fraction must be within [0, 1]")
    if remote_fraction > 0 and num_pes < 2:
        raise ValueError("remote edges need at least two processors")
    rng = random.Random(seed)
    draw = rng.random
    other_pe = randbelow(rng, num_pes - 1) if num_pes > 1 else None
    node = randbelow(rng, nodes_per_pe)
    nedges = nodes_per_pe * degree

    def one_direction():
        adj = []
        for pe in range(num_pes):
            owners, idxs, draws = [], [], []
            for _ in range(nedges):
                if num_pes > 1 and draw() < remote_fraction:
                    owner = other_pe()
                    owners.append(owner + (owner >= pe))
                else:
                    owners.append(pe)
                idxs.append(node())
                draws.append(draw())
            # rng.uniform(0.1, 1.0) is 0.1 + (1.0 - 0.1) * random().
            adj.append(EdgeArrays(
                np.array(owners, dtype=np.int64),
                np.array(idxs, dtype=np.int64),
                0.1 + (1.0 - 0.1) * np.array(draws)))
        return adj

    e_edges = one_direction()
    h_edges = one_direction()
    return Em3dGraph(
        num_pes=num_pes, nodes_per_pe=nodes_per_pe, degree=degree,
        remote_fraction=remote_fraction, e_edges=e_edges, h_edges=h_edges,
        e_plan=_build_plan(e_edges, nodes_per_pe),
        h_plan=_build_plan(h_edges, nodes_per_pe))


def initial_values(graph: Em3dGraph, kind: str, seed: int = 7):
    """Deterministic initial field values: ``values[pe][idx]``."""
    rng = random.Random(seed + (0 if kind == "e" else 1))
    return [
        [rng.uniform(-1.0, 1.0) for _ in range(graph.nodes_per_pe)]
        for _ in range(graph.num_pes)
    ]
