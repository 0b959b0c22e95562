"""Small reference complexes and stacks used by tests and the CLI `gen`
command."""

from __future__ import annotations

from itertools import combinations

from .complexes import Complex, Face, closure
from .stacks import Stack

# 6-cycle: vertices 0..5, edges between consecutive vertices
CYC6_EDGES = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]


def cyc6_host() -> Complex:
    return closure(CYC6_EDGES)


def cyc6_stack() -> Stack:
    """The running 6-cycle example: two basins and a two-vertex cut."""
    alt: dict[Face, int] = {
        (0, 1): 0, (1, 2): 1, (2, 3): 2, (3, 4): 0, (4, 5): 1, (0, 5): 2,
        (0,): 2, (1,): 1, (2,): 2, (3,): 3, (4,): 1, (5,): 3,
    }
    return Stack(cyc6_host(), alt)


def wedge() -> Complex:
    """Two tetrahedron boundaries glued at vertex 0: pure, non-branching,
    connected, but not strongly connected (the pinch breaks normality)."""
    return closure([*combinations((0, 1, 2, 3), 3), *combinations((0, 4, 5, 6), 3)])


def branching_triangles() -> Complex:
    """Three triangles sharing the edge (0, 1): non-branching fails."""
    return closure([(0, 1, 2), (0, 1, 3), (0, 1, 4)])


def tetrahedron_boundary() -> Complex:
    return closure(combinations((0, 1, 2, 3), 3))


def branching_collapse_counterexample() -> tuple[Stack, tuple[Face, Face]]:
    """A stack on a branching 1-complex with three minima, plus a free pair
    whose collapse merges two of them (the minima-extension property needs
    a pseudomanifold host)."""
    host = closure([(0, 1), (0, 2), (0, 3), (3, 4)])
    alt: dict[Face, int] = {
        (0, 1): 0, (0, 2): 0, (0, 3): 1, (3, 4): 0,
        (0,): 1, (1,): 0, (2,): 0, (3,): 1, (4,): 0,
    }
    return Stack(host, alt), ((0,), (0, 3))
