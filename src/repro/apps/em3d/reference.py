"""Sequential reference for EM3D: the oracle the parallel versions are
verified against."""

from __future__ import annotations

from repro.apps.em3d.graph import Em3dGraph

__all__ = ["reference_step", "reference_run"]


def reference_step(graph: Em3dGraph, e_values, h_values):
    """One full leapfrog step, sequentially.

    E nodes are updated from the *current* H values, then H nodes from
    the *new* E values — the order the parallel phases enforce with
    barriers.  Returns ``(new_e, new_h)``.
    """
    new_e = [
        [
            sum(w * h_values[owner][idx] for owner, idx, w in edges)
            for edges in graph.adjacency("e", pe)
        ]
        for pe in range(graph.num_pes)
    ]
    new_h = [
        [
            sum(w * new_e[owner][idx] for owner, idx, w in edges)
            for edges in graph.adjacency("h", pe)
        ]
        for pe in range(graph.num_pes)
    ]
    return new_e, new_h


def reference_run(graph: Em3dGraph, e_values, h_values, steps: int):
    """Run ``steps`` leapfrog steps; returns final ``(e, h)``."""
    for _ in range(steps):
        e_values, h_values = reference_step(graph, e_values, h_values)
    return e_values, h_values
