"""The tests' references on face tuples, kept out of the production
modules.

The paper's definitions face by face: covering and free pairs,
collapses, and open and closed subsets of a complex; free pairs and
unit or batch collapses of a stack; gradient paths, the trace of each
d-face to its minimum, separating and biconnected faces; the dual of a
Morse stack (`dmf_dual_check`, which reads `validate_stack` and
`is_morse`, the checks it is compared with).  `WeightedFacetGraph` and
`Forest` hold the facet graph and a rooted forest on face tuples,
filled from the packed host's edge list and the masks of
`watershed._forest_masks` (`build_facet_graph`, `watershed_forest`);
`_msf_checks` maps a tuple forest back onto those masks for the
certificate.  `is_rooted_forest` (leaf peeling), `msf_weight`
(Kruskal), `msf_is_unique` (a tie test on the greedy run) and
`_lightest_at_an_endpoint` decide the MSF checks on the tuple graph;
`strictly_connected_oracle` (every open subset) and `enumerate_msfs` /
`msf_oracle` (every minimum spanning forest) are exact but exponential
and guarded by a size limit.  A dict-based union-find over the tuple
views groups a `Forest` into its trees and an open subset into its
components, so neither reaches the engine's `_kernels` labeller.
The tests compare the linear-time checks of the engine against these.
Only the package root imports this module at load;
`watershed.morse_watershed_direct` imports it when it runs.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from typing import Mapping, Optional

import numpy as np

from .complexes import Complex, Face, face_key, proper_subfaces
from .morse import is_morse
from .stacks import Stack, StackError, _facet_adjacency, validate_stack
from .watershed import _forest_masks, _msf_certificate, _top_rows


def covering_pairs(X: Complex) -> set[tuple[Face, Face]]:
    """All ordered pairs (x, y) with x a codim-1 face of y."""
    return {(x, y) for y in X.faces for x in X.boundary[y]}


def is_free_pair(X: Complex, x: Face, y: Face) -> bool:
    """True iff y is the only face of X strictly containing x.

    Equivalent check on the incidence index: x has y as sole codim-1
    coface and y is a facet (closedness rules out higher cofaces).
    """
    return X.cofaces.get(x) == (y,) and not X.cofaces[y]


def free_pairs(X: Complex) -> set[tuple[Face, Face]]:
    return {(x, c[0]) for x, c in X.cofaces.items() if len(c) == 1 and not X.cofaces[c[0]]}


def collapse(X: Complex, pair: tuple[Face, Face]) -> Complex:
    """Elementary collapse: remove a free pair (x, y)."""
    x, y = pair
    if not is_free_pair(X, x, y):
        raise ValueError(f"({x}, {y}) is not a free pair")
    return Complex(X.faces - {x, y})


def ultimate_collapse(X: Complex, p: int | None = None, seed: int = 0) -> Complex:
    """Collapse through free (p-)pairs until none remains.

    Free-pair selection is "arbitrary" in principle; here a worklist is
    seeded in canonical face order permuted by `seed`, so runs are
    reproducible.
    """
    remaining = set(X.faces)
    # mutable coface sets for incremental updates
    cof: dict[Face, set[Face]] = {x: set(c) for x, c in X.cofaces.items()}
    order = list(X.sorted_faces())
    random.Random(seed).shuffle(order)
    work = deque(order)
    in_work = set(order)

    def free_partner(x: Face) -> Face | None:
        if len(cof[x]) != 1:
            return None
        (y,) = cof[x]
        return None if cof[y] or (p is not None and len(y) - 1 != p) else y

    while work:
        x = work.popleft()
        in_work.discard(x)
        if x not in remaining:
            continue
        y = free_partner(x)
        if y is None:
            continue
        remaining -= {x, y}
        for u in (x, y):
            for z in X.boundary[u]:
                cof[z].discard(u)
                if z in remaining and z not in in_work:
                    work.append(z)
                    in_work.add(z)
    return Complex(remaining)


def is_closed_subset(X: Complex, S: frozenset[Face] | set[Face]) -> bool:
    """S is closed for X iff S is itself a complex."""
    return all(y in S for x in S for y in proper_subfaces(x))


def is_open_subset(X: Complex, S: frozenset[Face] | set[Face]) -> bool:
    """S is open for X iff S contains every coface of each of its members."""
    return all(y in S for x in S for y in X.star(x) if y != x)


@dataclass(frozen=True)
class FaceSubset:
    """A subset of the faces of a host complex, with open/closed flags."""

    host: Complex
    members: frozenset[Face]
    closed: bool = field(init=False)
    open: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "closed", is_closed_subset(self.host, self.members))
        object.__setattr__(self, "open", is_open_subset(self.host, self.members))


def _flat_cofaces(F: Stack, x: Face) -> list[Face]:
    fx = F.altitude[x]
    return [y for y in F.host.cofaces[x] if F.altitude[y] == fx]


def is_stack_free_pair(F: Stack, x: Face, y: Face) -> bool:
    """(x, y) is free for F iff it is free in the section at F(x) > lambda_min.

    On the incidence index: y is x's only flat codim-1 coface and y has
    no flat coface of its own (so y is a facet of the section).
    """
    if F.altitude[x] <= F.lambda_min:
        return False
    return _flat_cofaces(F, x) == [y] and not _flat_cofaces(F, y)


def stack_free_pairs(F: Stack, p: int | None = None) -> set[tuple[Face, Face]]:
    """All free (p-)pairs of the stack."""
    return {
        (x, y) for x in F.host.faces for y in _flat_cofaces(F, x)
        if (p is None or len(y) - 1 == p) and is_stack_free_pair(F, x, y)
    }


def stack_collapse(F: Stack, pair: tuple[Face, Face], mode: str = "unit") -> Stack:
    """Elementary collapse of F through a free pair.

    unit mode decrements both altitudes by one.  batch mode jumps both
    altitudes to the level where the pair stops being free -- valid only
    for d-pairs on a normal d-pseudomanifold host, where the freeness
    characterization F(x) = F(y) > F(z) (z the other coface of x) makes
    the target max(F(z), lambda_min).
    """
    x, y = pair
    if not is_stack_free_pair(F, x, y):
        raise StackError(f"({x}, {y}) is not a free pair of the stack")
    if mode == "unit":
        v = F.altitude[x] - 1
        return F.with_altitudes({x: v, y: v})
    if mode == "batch":
        d = F.host.dim
        if len(y) - 1 != d:
            raise StackError("batch collapse applies to d-pairs only")
        cof = F.host.cofaces[x]
        if len(cof) != 2:
            raise StackError("batch collapse requires a non-branching host")
        z = cof[0] if cof[1] == y else cof[1]
        v = max(F.altitude[z], F.lambda_min)
        return F.with_altitudes({x: v, y: v})
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class LambdaPath:
    """Alternating flat/differential sequence in dimension p.

    `faces` runs in the forward (ascending) direction; a reversed
    (descending) traversal is marked by `reverse`.
    """

    faces: tuple[Face, ...]
    p: int
    reverse: bool = False

    def check(self, F: Stack) -> None:
        """Assert the gradient-path invariants: dimensions alternate between
        p and p-1 and steps are flat or differential pairs.  Flat steps (equal
        altitudes) and differential ones (rising) then alternate too, so the
        altitudes strictly increase every two steps and no path is closed."""
        fs = tuple(reversed(self.faces)) if self.reverse else self.faces
        for i, (a, b) in enumerate(zip(fs, fs[1:])):
            da, db = len(a) - 1, len(b) - 1
            if da == self.p - 1 and db == self.p:
                if a not in set(F.host.boundary[b]) or F.altitude[a] != F.altitude[b]:
                    raise ValueError(f"step {i} is not a flat pair")
            elif da == self.p and db == self.p - 1:
                if b not in set(F.host.boundary[a]) or F.altitude[b] <= F.altitude[a]:
                    raise ValueError(f"step {i} is not a differential pair")
            else:
                raise ValueError(f"step {i} breaks the dimension alternation")


@dataclass(frozen=True)
class Extended:
    face: Face


class AtMinimum:
    pass


@dataclass(frozen=True)
class Blocked:
    separating: Face


def extend_path(F: Stack, path: LambdaPath):
    """One-step extension per the reversed-path dichotomy.

    For a reversed path ending at y: AtMinimum iff y is a minimum, else
    the unique extension exists.  For a forward path with no extension,
    the endpoint is separating.
    """
    d = F.host.dim
    if path.p != d:
        raise ValueError("extension is defined for top-dimension paths")
    if path.reverse:
        y = path.faces[0]
        if len(y) - 1 == d:
            step = _trace_step(F, y)
            return AtMinimum() if step is None else Extended(step[0])
        # y is a (d-1)-face with flat partner = previous path element
        prev = path.faces[1]
        cof = F.host.cofaces[y]
        z = cof[0] if cof[1] == prev else cof[1]
        return Extended(z)
    y = path.faces[-1]
    if len(y) - 1 == d:
        # forward steps leaving a d-face are differential; several may
        # exist (forward branching), the canonical smallest is returned
        fy = F.altitude[y]
        ups = [z for z in F.host.boundary[y] if F.altitude[z] > fy]
        return Extended(min(ups, key=face_key))
    prev = path.faces[-2]
    cof = F.host.cofaces[y]
    z = cof[0] if cof[1] == prev else cof[1]
    fy = F.altitude[y]
    if F.altitude[z] == fy:
        return Extended(z)
    return Blocked(y)


def _trace_step(F: Stack, x: Face) -> Optional[tuple[Face, Face]]:
    """Backward step from a non-minimum d-face: its flat partner z and the
    unique lower coface on the other side of z; None at a minimum."""
    fx = F.altitude[x]
    for z in F.host.boundary[x]:
        if F.altitude[z] == fx:
            cof = F.host.cofaces[z]
            return z, cof[0] if cof[1] == x else cof[1]
    return None


def trace_to_minimum(F: Stack, x: Face) -> tuple[Face, LambdaPath]:
    """Unique minimum linked to the d-face x by a gradient path, plus the path."""
    rev = [x]
    while (step := _trace_step(F, rev[-1])) is not None:
        rev += step
    return rev[-1], LambdaPath(tuple(reversed(rev)), p=F.host.dim)


def trace_all(F: Stack) -> dict[Face, Face]:
    """Minimum reached by the backward trace, for every d-face.  Each face
    is stepped from once: a trace stops at the first face already traced."""
    tops = F.host.faces_of_dim(F.host.dim)
    minimum: dict[Face, Face] = {}
    for x in tops:
        chain, cur = [], x
        while cur not in minimum and (step := _trace_step(F, cur)) is not None:
            chain.append(cur)
            cur = step[1]
        m = minimum.setdefault(cur, cur)  # cur is traced already, or a minimum
        for c in chain:
            minimum[c] = m
    return {x: minimum[x] for x in tops}


def separating_faces(F: Stack) -> set[Face]:
    """(d-1)-faces strictly above both of their cofaces."""
    X, alt = F.host, F.altitude
    return {z for z in X.faces_of_dim(X.dim - 1)
            if len(cof := X.cofaces[z]) == 2 and all(alt[y] < alt[z] for y in cof)}


def biconnected_faces(F: Stack) -> set[Face]:
    """(d-1)-faces whose two cofaces trace to distinct minima."""
    X, mins = F.host, trace_all(F)
    return {z for z in X.faces_of_dim(X.dim - 1)
            if len(cof := X.cofaces[z]) == 2 and mins[cof[0]] != mins[cof[1]]}


def _is_flat_dmf(X: Complex, G: Mapping[Face, int]) -> bool:
    """Flat discrete Morse function test, written against the negated map
    directly (covering pairs non-decreasing upward, flat pairs a matching)."""
    uses: dict[Face, int] = {}
    for y in X.faces:
        for x in X.boundary[y]:
            if G[x] > G[y]:
                return False
            if G[x] == G[y]:
                uses[x] = uses.get(x, 0) + 1
                uses[y] = uses.get(y, 0) + 1
    return all(c <= 1 for c in uses.values())


def dmf_dual_check(F: Stack) -> bool:
    """Morse stack iff the negated map is a flat discrete Morse function."""
    lhs = validate_stack(F)[0] and is_morse(F)[0]
    rhs = _is_flat_dmf(F.host, F.negate())
    return lhs == rhs


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


def is_rooted_forest(vertices: set[Face], edges: set[Edge], roots: set[Face]) -> bool:
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


def _n_classes(items, pairs) -> int:
    """The number of classes of `items` once the two ends of each pair are
    joined."""
    uf = _UnionFind(items)
    for a, b in pairs:
        uf.union(a, b)
    return len({uf.find(x) for x in items})


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
    # the facets are the d-faces of S; a strong step joins the d-cofaces
    # of a (d-1)-face of S
    d = dims.pop()
    return _n_classes(facets, (
        (a, b) for z in S if len(z) == d
        for a, b in combinations([y for y in X.cofaces[z] if y in S], 2))) == 1


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
            # chosen is open, so covering pairs join what inclusions join
            pairs = ((x, y) for x in chosen for y in X.cofaces[x] if y in chosen)
            if chosen and _n_classes(chosen, pairs) == 1:
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
