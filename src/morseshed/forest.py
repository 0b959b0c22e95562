"""Facet graphs, rooted spanning forests and the watershed forest.

The facet graph is the dual graph on d-faces, weighted by the altitude
of the shared (d-1)-face; its edges are the pairs (lo, hi) that the host
check `_kernels.top_adjacency` returns, the edge list the watershed
routes and checks read.  The watershed forest (one differential step
then one flat step between two facets) is, for Morse stacks, the unique
minimum spanning forest rooted in the minima; `verify_msf_theorem`
checks this against the greedy optimum and a tie test (the exhaustive
baselines live in `oracles`).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .complexes import Face, face_key
from .morse import is_morse
from .stacks import Stack, StackError, _facet_adjacency

Edge = tuple[Face, Face]  # unordered; stored with the smaller face first


def _edge(x: Face, y: Face) -> Edge:
    return (x, y) if face_key(x) <= face_key(y) else (y, x)


@dataclass(frozen=True)
class WeightedFacetGraph:
    vertices: tuple[Face, ...]
    edges: dict[Edge, int]  # edge -> weight F(x & y)
    shared: dict[Edge, Face]  # edge -> the shared (d-1)-face

    def degree(self, x: Face) -> int:
        return sum(1 for e in self.edges if x in e)


def _facet_graph(F: Stack):
    """(pk, sep_lo, top_lo, lo, hi): the packed host, where its (d-1)-faces
    and its d-faces start, and its facet graph.  A host of dimension
    d >= 1 must pass the check both watershed routes run first
    (`_facet_adjacency`), so every (d-1)-face is one edge; below, there is
    no edge."""
    X = F.host
    pk = X.packed()
    if X.dim < 1:
        no_edges = np.zeros(0, dtype=np.int64)
        return pk, 0, 0, no_edges, no_edges
    return (pk, *pk.dim_offset[X.dim - 1:X.dim + 1].tolist(), *_facet_adjacency(F))


def _ends(tops: list[Face], lo, hi) -> list[Edge]:
    """The edges (tops[lo[k]], tops[hi[k]]) as face tuples."""
    return list(zip(map(tops.__getitem__, lo.tolist()), map(tops.__getitem__, hi.tolist())))


def build_facet_graph(F: Stack) -> WeightedFacetGraph:
    """The dual graph of the d-faces, its edges in canonical order of the
    shared (d-1)-faces."""
    pk, sep_lo, top_lo, lo, hi = _facet_graph(F)
    tops = pk.faces[top_lo:]
    ends = _ends(tops, lo, hi)  # lo < hi, so the smaller face comes first
    weights = F.alt_array()[sep_lo:top_lo].tolist()
    return WeightedFacetGraph(
        tuple(tops), dict(zip(ends, weights)), dict(zip(ends, pk.faces[sep_lo:top_lo]))
    )


@dataclass(frozen=True)
class Forest:
    vertices: frozenset[Face]
    edges: frozenset[Edge]
    roots: frozenset[Face]

    def weight(self, G: WeightedFacetGraph) -> int:
        return sum(G.edges[e] for e in self.edges)

    def trees(self) -> list[frozenset[Face]]:
        """Vertex sets of the connected components, in canonical order of
        their smallest vertex."""
        verts = sorted(self.vertices, key=face_key)
        index = {v: i for i, v in enumerate(verts)}
        ends = np.array([[index[a], index[b]] for a, b in self.edges], dtype=np.int64)
        root = _kernels.components(*ends.reshape(-1, 2).T, len(verts)).tolist()
        trees: dict[int, set[Face]] = {}  # keyed by root, which comes first
        for v, r in zip(verts, root):
            trees.setdefault(r, set()).add(v)
        return [frozenset(t) for t in trees.values()]


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


def watershed_forest(F: Stack) -> Forest:
    """Dual edges {x, y} such that one endpoint descends into the shared
    face's flat partner: (x, x&y) differential and (x&y, y) flat, either
    way around.  The host is checked as in `build_facet_graph`.  The roots
    are the minima, each a single d-face on a Morse stack."""
    pk, sep_lo, top_lo, lo, hi = _facet_graph(F)
    ok, witness = is_morse(F)
    if not ok:
        raise StackError(f"not a Morse stack (witness {witness})")
    alt = F.alt_array()
    fz, fx, fy = alt[sep_lo:top_lo], alt[top_lo:][lo], alt[top_lo:][hi]
    keep = ((fz > fx) & (fz == fy)) | ((fz > fy) & (fz == fx))
    tops = pk.faces[top_lo:]
    rank = _kernels.flat_zones(pk.sub, pk.sup, alt, len(pk))[1][top_lo:]
    roots = map(tops.__getitem__, np.flatnonzero(rank).tolist())
    return Forest(frozenset(tops), frozenset(_ends(tops, lo[keep], hi[keep])), frozenset(roots))


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


def verify_msf_theorem(F: Stack) -> dict[str, bool]:
    """Check the MSF characterization of the watershed forest.

    Returns per-check flags: rooted (spanning forest rooted in the
    minima), weight (matches the greedy optimum), unique (singleton MSF,
    by the tie test `msf_is_unique`), basins (forest trees match the
    watershed basins on d-faces), and min_edge (every forest edge is the
    unique lightest edge at one endpoint).
    """
    return _msf_checks(F, build_facet_graph(F), watershed_forest(F))


def _msf_checks(F: Stack, G: WeightedFacetGraph, Y: Forest) -> dict[str, bool]:
    """The checks of `verify_msf_theorem`, given the facet graph G and the
    watershed forest Y of F."""
    from .watershed import WATERSHED_LABEL, morse_watershed

    checks: dict[str, bool] = {}
    checks["rooted"] = is_rooted_forest(set(Y.vertices), set(Y.edges), set(Y.roots))
    w = Y.weight(G)
    checks["weight"] = w == msf_weight(G, Y.roots)
    checks["unique"] = msf_is_unique(G, Y.roots)
    # the trees must partition the d-faces as the basins do: read on the
    # label array, each tree carries one basin id and no two trees share one
    X = F.host
    top_lo = int(X.packed().dim_offset[X.dim])
    label = morse_watershed(F)._label[top_lo:].tolist()  # the d-faces, in order
    index = {x: i for i, x in enumerate(X.faces_of_dim(X.dim))}
    ids = [{label[index[x]] for x in members} for members in Y.trees()]
    checks["basins"] = (
        WATERSHED_LABEL not in label
        and all(len(s) == 1 for s in ids)
        and len(set().union(*ids)) == len(ids)
    )
    checks["min_edge"] = _lightest_at_an_endpoint(G, Y.edges)
    return checks
