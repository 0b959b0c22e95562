"""Exponential reference checks, kept out of the production modules.

`strictly_connected_oracle` decides strict connectivity by enumerating
every open subset, and `enumerate_msfs` / `msf_oracle` list every minimum
spanning forest of a facet graph.  Both are exact but exponential and
guarded by a size limit; the tests compare the linear-time checks of
`manifolds.validate` and `forest.verify_msf_theorem` against them.  No
other module of the package imports this one.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from .complexes import Complex, Face, connected_components, face_key, strong_connected_components
from .forest import Edge, WeightedFacetGraph, _UnionFind, msf_weight


def _is_strongly_connected_subset(X: Complex, S: set[Face]) -> bool:
    facets = [x for x in S if not any(y in S for y in X.cofaces[x])]
    if len(facets) <= 1:
        return True
    dims = {len(x) - 1 for x in facets}
    if len(dims) > 1:
        return False  # strong paths need a pure facet set
    comps = strong_connected_components(X, S, d=dims.pop())
    tops = [c for c in comps if any(x in facets for x in c)]
    return len(tops) <= 1


def strictly_connected_oracle(X: Complex, max_faces: int = 25) -> bool:
    """Enumerate all open subsets; each connected one must be strongly
    connected.  Exponential; test oracle only."""
    if len(X.faces) > max_faces:
        raise ValueError(f"complex too large for enumeration ({len(X.faces)} faces)")
    # open subsets are up-closed in the face poset: decide faces from the
    # top dimension down, a face may enter only if all its cofaces did
    order = sorted(X.faces, key=face_key, reverse=True)

    def rec(i: int, chosen: set[Face]) -> bool:
        if i == len(order):
            if chosen and len(connected_components(X, chosen)) == 1:
                return _is_strongly_connected_subset(X, chosen)
            return True
        x = order[i]
        if not rec(i + 1, chosen):
            return False
        if all(y in chosen for y in X.cofaces[x]):
            chosen.add(x)
            ok = rec(i + 1, chosen)
            chosen.discard(x)
            if not ok:
                return False
        return True

    return rec(0, set())


def enumerate_msfs(
    G: WeightedFacetGraph, roots: frozenset[Face], max_vertices: int = 12
) -> tuple[int, list[frozenset[Edge]]]:
    """All minimum spanning forests, by exhaustion.  Exact but exponential;
    guarded by `max_vertices`."""
    if len(G.vertices) > max_vertices:
        raise ValueError("facet graph too large for exhaustive enumeration")
    need = len(G.vertices) - len(roots)
    best_weight = msf_weight(G, roots)
    out: list[frozenset[Edge]] = []
    for sub in combinations(sorted(G.edges), need):
        if sum(G.edges[e] for e in sub) != best_weight:
            continue
        uf = _UnionFind(G.vertices)
        if not all(uf.union(a, b) for a, b in sub):
            continue
        # acyclic with |V| - |roots| edges: exactly |roots| components;
        # each must contain exactly one root
        if len({uf.find(r) for r in roots}) == len(roots):
            out.append(frozenset(sub))
    return best_weight, out


def msf_oracle(
    G: WeightedFacetGraph, roots: frozenset[Face], max_vertices: int = 12
) -> tuple[int, Optional[list[frozenset[Edge]]]]:
    """Greedy optimum weight, plus the exhaustive list of all minimum
    spanning forests when the graph is small enough to enumerate (None
    otherwise)."""
    if len(G.vertices) > max_vertices:
        return msf_weight(G, roots), None
    return enumerate_msfs(G, roots, max_vertices)
