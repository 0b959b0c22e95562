"""Reference checks, kept out of the production modules.

`strictly_connected_oracle` decides strict connectivity by enumerating
every open subset, and `enumerate_msfs` / `msf_oracle` list every minimum
spanning forest of a facet graph.  Both are exact but exponential and
guarded by a size limit.  `is_rooted_forest` (leaf peeling), `msf_weight`
(Kruskal), `msf_is_unique` (a tie test on the greedy run) and
`_lightest_at_an_endpoint` decide the MSF checks on the tuple-keyed
graph, with a dict-based union-find.  The tests compare the linear-time
checks of `manifolds.validate` and `forest.verify_msf_theorem` against
them.  Of the package, only its root imports this module; the paper's
definitions on face tuples, the tests' other references, are in
`definitions`.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations
from typing import Optional

from .complexes import Complex, Face, connected_components, face_key, strong_connected_components
from .forest import Edge, WeightedFacetGraph, _edge


def is_rooted_forest(
    vertices: set[Face], edges: set[Edge], roots: set[Face]
) -> bool:
    """Inductive leaf-peeling: repeatedly delete a non-root leaf with its
    edge; accept iff exactly the roots remain, edgeless."""
    if not roots <= vertices:
        raise ValueError("roots must be vertices of the graph")
    adj: dict[Face, set[Face]] = {v: set() for v in vertices}
    for a, b in edges:
        adj[a].add(b)
        adj[b].add(a)
    work = deque(v for v in vertices if len(adj[v]) == 1 and v not in roots)
    alive = set(vertices)
    while work:
        v = work.popleft()
        if v not in alive or len(adj[v]) != 1 or v in roots:
            continue
        (u,) = adj[v]
        alive.discard(v)
        adj[u].discard(v)
        adj[v].clear()
        if len(adj[u]) == 1 and u not in roots:
            work.append(u)
    return alive == set(roots) and all(not adj[v] for v in alive)


class _UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        p = self.parent
        while p[x] != x:
            p[x] = p[p[x]]
            x = p[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def _contracted(G: WeightedFacetGraph, roots: frozenset[Face]):
    """Vertices with all roots merged into one super-vertex; self-loops on
    the super-vertex dropped."""
    ROOT = ("__root__",)
    verts = [ROOT] + [v for v in G.vertices if v not in roots]

    def rep(v):
        return ROOT if v in roots else v

    edges = []
    for (a, b), w in sorted(G.edges.items()):
        ra, rb = rep(a), rep(b)
        if ra != rb:
            edges.append((w, (a, b), ra, rb))
    return ROOT, verts, edges


def msf_weight(G: WeightedFacetGraph, roots: frozenset[Face]) -> int:
    """Greedy (Kruskal) weight of a minimum spanning forest rooted in `roots`,
    computed as an MST of the root-contracted graph; 0 on a graph with no
    vertices."""
    if not roots and G.vertices:
        raise ValueError("at least one root is required")
    ROOT, verts, edges = _contracted(G, roots)
    uf = _UnionFind(verts)
    total = 0
    taken = 0
    for w, _, ra, rb in sorted(edges, key=lambda t: t[0]):
        if uf.union(ra, rb):
            total += w
            taken += 1
    if taken != len(verts) - 1:
        raise ValueError("graph is disconnected after root contraction")
    return total


def msf_is_unique(G: WeightedFacetGraph, roots: frozenset[Face]) -> bool:
    """Sufficient-and-necessary tie test: the MSF is unique iff, within
    every weight class of the greedy run, the usable edges form a forest
    on the current components.  A graph with no vertices has one MSF, the
    empty one."""
    ROOT, verts, edges = _contracted(G, roots)
    uf = _UnionFind(verts)
    edges = sorted(edges, key=lambda t: t[0])
    i = 0
    while i < len(edges):
        j = i
        while j < len(edges) and edges[j][0] == edges[i][0]:
            j += 1
        group = [
            (uf.find(ra), uf.find(rb))
            for _, _, ra, rb in edges[i:j]
            if uf.find(ra) != uf.find(rb)
        ]
        probe = _UnionFind({c for pair in group for c in pair})
        for ca, cb in group:
            if not probe.union(ca, cb):
                return False  # two candidates tie across the same cut
        for ca, cb in group:
            uf.union(ca, cb)
        i = j
    return True


def _lightest_at_an_endpoint(G: WeightedFacetGraph, edges) -> bool:
    """Every edge in `edges` is strictly lighter than every other edge of G
    at one of its two endpoints."""
    incident: dict[Face, list[tuple[int, Edge]]] = {v: [] for v in G.vertices}
    for e, w in G.edges.items():
        for v in e:
            incident[v].append((w, e))
    for a, b in edges:
        ab = _edge(a, b)
        w_ab = G.edges[ab]
        if not any(
            all(w_ab < w for w, e in incident[v] if e != ab) for v in (a, b)
        ):
            return False
    return True


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
