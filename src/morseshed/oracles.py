"""Reference checks and the tuple objects they read, kept out of the
production modules.

`WeightedFacetGraph` and `Forest` hold the facet graph and a rooted
forest on face tuples; `build_facet_graph` and `watershed_forest` fill
them from the packed host's edge list and from the masks of
`watershed._forest_masks`, and `_msf_checks` maps a tuple forest back
onto those masks for the certificate.  `strictly_connected_oracle`
decides strict connectivity by enumerating every open subset, and
`enumerate_msfs` / `msf_oracle` list every minimum spanning forest of a
facet graph.  Both are exact but exponential and guarded by a size
limit.  `is_rooted_forest` (leaf peeling), `msf_weight` (Kruskal),
`msf_is_unique` (a tie test on the greedy run) and
`_lightest_at_an_endpoint` decide the MSF checks on the tuple-keyed
graph, with a dict-based union-find, which also groups a `Forest` into
its trees, so the references share no `_kernels` labeller with the
engine they check.  The tests compare
the linear-time checks of `manifolds.validate` and
`watershed.verify_msf_theorem` against them.  Of the package, only its
root imports this module; the paper's definitions on face tuples, the
tests' other references, are in `definitions`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

from .complexes import Complex, Face, connected_components, face_key, strong_connected_components
from .stacks import Stack, _facet_adjacency
from .watershed import _forest_masks, _msf_certificate, _top_rows

Edge = tuple[Face, Face]  # unordered; stored with the smaller face first


def _edge(x: Face, y: Face) -> Edge:
    return (x, y) if face_key(x) <= face_key(y) else (y, x)


def _tops(pk) -> list[Face]:
    """The d-faces of a packed host as tuples, in canonical order."""
    return list(map(tuple, _top_rows(pk).tolist()))


def _edge_tuples(pk, tops, mask=None) -> list[Edge]:
    """The edges (tops[lo[k]], tops[hi[k]]) of a packed host as face
    tuples, for the k that `mask` keeps (all when it is None); lo < hi, so
    the smaller face comes first."""
    lo, hi = pk.facet_graph
    if mask is not None:
        lo, hi = lo[mask], hi[mask]
    return list(zip(map(tops.__getitem__, lo.tolist()), map(tops.__getitem__, hi.tolist())))


@dataclass(frozen=True)
class WeightedFacetGraph:
    """The facet graph with its edge weights and shared (d-1)-faces."""

    vertices: tuple[Face, ...]
    edges: dict[Edge, int]  # edge -> weight F(x & y)
    shared: dict[Edge, Face]  # edge -> the shared (d-1)-face

    def degree(self, x: Face) -> int:
        return sum(1 for e in self.edges if x in e)


def build_facet_graph(F: Stack) -> WeightedFacetGraph:
    """The dual graph of the d-faces, its edges in canonical order of the
    shared (d-1)-faces.  The host must pass the check both watershed
    routes run first (`_facet_adjacency`)."""
    _facet_adjacency(F)
    pk = F.host.packed()
    tops = _tops(pk)
    ends = _edge_tuples(pk, tops)
    seps = map(tuple, pk.rows[-2].tolist()) if ends else ()  # no edge below d = 1
    weights = F.alt_array()[pk.seps].tolist()
    return WeightedFacetGraph(tuple(tops), dict(zip(ends, weights)), dict(zip(ends, seps)))


@dataclass(frozen=True)
class Forest:
    """A spanning forest of a facet graph, rooted."""

    vertices: frozenset[Face]
    edges: frozenset[Edge]
    roots: frozenset[Face]

    def weight(self, G: WeightedFacetGraph) -> int:
        return sum(G.edges[e] for e in self.edges)

    def trees(self) -> list[frozenset[Face]]:
        """Vertex sets of the connected components, in canonical order of
        their smallest vertex."""
        uf = _UnionFind(self.vertices)
        for a, b in self.edges:
            uf.union(a, b)
        trees: dict[Face, list[Face]] = {}
        for v in sorted(self.vertices, key=face_key):  # a tree first met at its smallest vertex
            trees.setdefault(uf.find(v), []).append(v)
        return list(map(frozenset, trees.values()))


def watershed_forest(F: Stack) -> Forest:
    """The watershed forest of F (`watershed._forest_masks`) on face
    tuples: the dual edges whose one endpoint descends into the shared
    face's flat partner, rooted in the minima.  F must be a Morse stack on
    a host that passes the check of `build_facet_graph`."""
    in_y, is_root = _forest_masks(F)
    pk = F.host.packed()
    tops = _tops(pk)
    return Forest(
        frozenset(tops),
        frozenset(_edge_tuples(pk, tops, in_y)),
        frozenset(map(tops.__getitem__, np.flatnonzero(is_root).tolist())),
    )


def _msf_checks(F: Stack, Y: Forest) -> dict[str, bool]:
    """`watershed._msf_certificate` for a tuple forest Y, mapped onto the
    host's edge list and d-faces by its face tuples; its edges and roots
    must be among them (ValueError)."""
    _facet_adjacency(F)
    pk = F.host.packed()
    tops = _tops(pk)
    ends = _edge_tuples(pk, tops)
    in_y = np.fromiter(map(Y.edges.__contains__, ends), dtype=np.bool_, count=len(ends))
    is_root = np.fromiter(map(Y.roots.__contains__, tops), dtype=np.bool_, count=len(tops))
    if in_y.sum() != len(Y.edges) or is_root.sum() != len(Y.roots):
        raise ValueError("the forest is not on the facet graph")
    return _msf_certificate(F, in_y, is_root)


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
