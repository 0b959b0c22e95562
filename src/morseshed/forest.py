"""Facet graphs, rooted spanning forests and the watershed forest.

The facet graph is the dual graph on d-faces, weighted by the altitude
of the shared (d-1)-face; its edges are the pairs (lo, hi) that the host
check `_kernels.top_adjacency` returns, the edge list the watershed
routes and checks read.  The watershed forest (one differential step
then one flat step between two facets) is, for Morse stacks, the unique
minimum spanning forest rooted in the minima; `verify_msf_theorem`
checks this by a certificate read in one pass over the edge list (the
greedy, tie-test and exhaustive references live in `oracles`).
"""

from __future__ import annotations

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


def verify_msf_theorem(F: Stack) -> dict[str, bool]:
    """Check the MSF characterization of the watershed forest.

    Returns per-check flags: rooted (spanning forest rooted in the
    minima), weight (a minimum spanning forest rooted in the minima),
    unique (the only one), basins (forest trees match the watershed basins
    on d-faces), and min_edge (every forest edge is the unique lightest
    edge at one endpoint).  See `_msf_checks` for how each is decided.
    """
    return _msf_checks(F, build_facet_graph(F), watershed_forest(F))


def _msf_checks(F: Stack, G: WeightedFacetGraph, Y: Forest) -> dict[str, bool]:
    """The checks of `verify_msf_theorem` for a forest Y on the facet graph
    G = build_facet_graph(F), in one pass over the edge list of G.

    rooted: Y has facets - trees edges (so no cycle) and every tree holds
    one root, its trees read from one `_kernels.components` labelling.

    weight and unique, by the cycle property (King, Algorithmica 1997): a
    spanning tree of the graph with all roots merged into one vertex is a
    minimum one iff every other edge weighs at least the heaviest tree
    edge on the path between its ends, and the only one iff every other
    edge weighs strictly more.  Orient each edge of Y from its higher to
    its lower d-face, from its larger to its smaller index on a tie: a
    strict order, so parent edges never close a cycle.  If every non-root
    has one parent edge, the roots have none, and the weight w(u) of u's
    parent edge never increases toward the root, then Y is such a
    spanning tree and the heaviest edge on the path between u and v is
    max(w(u), w(v)), with w = -inf on a root (a root-to-root edge, a
    loop once the roots are merged, always passes).  On a Morse stack
    the watershed forest always has this orientation: a facet's parent
    edge crosses its one flat face, so w(u) = F(u), which falls toward
    the root.  Without it (a facet with two parent edges, a root with
    one, a weight rising toward a root) the path maximum is not one
    parent edge, and finding it would need a path-maximum structure; the
    check then reaches no verdict and both flags are False, so it never
    accepts a forest the greedy optimum rejects.

    basins: every tree carries one basin label on `morse_watershed`'s
    label array, none of them the cut label, and there are as many labels
    as trees.

    min_edge: each edge of Y is the only edge of least weight at one of
    its ends.

    Y's edges and roots must be edges and vertices of G (ValueError).
    """
    from .watershed import WATERSHED_LABEL, morse_watershed

    _, sep_lo, top_lo, lo, hi = _facet_graph(F)
    n = len(G.vertices)  # the d-faces, in canonical order
    if len(G.edges) != lo.size:
        raise ValueError("G is not the facet graph of the stack")
    # G lists its edges in the order of the edge list (lo, hi)
    in_y = np.fromiter(map(Y.edges.__contains__, G.edges), dtype=np.bool_, count=lo.size)
    is_root = np.fromiter(map(Y.roots.__contains__, G.vertices), dtype=np.bool_, count=n)
    if in_y.sum() != len(Y.edges) or is_root.sum() != len(Y.roots):
        raise ValueError("the forest is not on the facet graph")
    alt = F.alt_array()
    w, ta = alt[sep_lo:top_lo], alt[top_lo:]
    a, b = lo[in_y], hi[in_y]
    tree = _kernels.components(a, b, n)
    first = tree == np.arange(n)  # one per tree
    checks = {
        "rooted": bool(
            a.size == n - first.sum()
            and (np.bincount(tree[is_root], minlength=n)[first] == 1).all()
        )
    }
    child = np.where(ta[a] > ta[b], a, b)  # a < b: b on a tie
    parent = a + b - child
    up = np.full(n, np.iinfo(np.int64).min)  # w(u); -inf on a root
    up[child] = w[in_y]
    oriented = np.array_equal(
        np.bincount(child, minlength=n), (~is_root).astype(np.int64)
    ) and (up[parent] <= up[child]).all()
    # a root-to-root edge meets -inf on both ends and passes: on a Morse
    # stack no weight is the int64 minimum, or both its d-faces would be
    # flat with its (d-1)-face
    path_max = np.maximum(up[lo], up[hi])[~in_y]
    checks["weight"] = bool(oriented and (w[~in_y] >= path_max).all())
    checks["unique"] = bool(oriented and (w[~in_y] > path_max).all())
    label = morse_watershed(F)._label[top_lo:]  # the d-faces, in order
    low, high = _kernels.low_high(tree, label, n)
    checks["basins"] = bool(
        (label != WATERSHED_LABEL).all()
        and (low[first] == high[first]).all()
        and np.count_nonzero(np.bincount(label, minlength=1)) == first.sum()
    )
    least = np.full(n, np.iinfo(np.int64).max)
    np.minimum.at(least, lo, w)
    np.minimum.at(least, hi, w)
    at_lo, at_hi = w == least[lo], w == least[hi]
    ties = np.bincount(lo[at_lo], minlength=n) + np.bincount(hi[at_hi], minlength=n)
    alone = (at_lo & (ties[lo] == 1)) | (at_hi & (ties[hi] == 1))
    checks["min_edge"] = bool(alone[in_y].all())
    return checks


