"""Facet graphs, rooted spanning forests and the watershed forest.

The facet graph is the dual graph on d-faces, weighted by the altitude
of the shared (d-1)-face; its edges are the pairs (lo, hi) of the packed
host's `facet_graph`, which the host check `_kernels.top_adjacency`
builds once per host: the edge list the watershed routes and checks
read.  The watershed forest (one differential step then one flat step
between two facets) is, for Morse stacks, the unique minimum spanning
forest rooted in the minima; `verify_msf_theorem` checks this by a
certificate read in one pass over the edge list (the greedy, tie-test
and exhaustive references live in `oracles`).

`build_facet_graph` and `watershed_forest` return array-backed objects
that hold the packed host, whose edge list (lo, hi) they read: the graph
with the edge weights, the forest with a mask of its edges over that
edge list and a mask of its roots over the d-faces.  Their tuple fields
(`vertices`, `edges`, `shared`, `roots`) are views, built from the
vertex rows of the host on first read by `complexes._LazyViews`, the
one helper behind every such view of the package; construction from
the fields, equality and hashing are those of the plain dataclasses.
`_msf_checks` and `morseshed msf` read the arrays, so neither builds a
face tuple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .complexes import Face, _LazyViews, _from_arrays, _grouped, face_key
from .morse import _require_morse
from .stacks import Stack, _facet_adjacency
from .watershed import WATERSHED_LABEL

Edge = tuple[Face, Face]  # unordered; stored with the smaller face first


def _edge(x: Face, y: Face) -> Edge:
    return (x, y) if face_key(x) <= face_key(y) else (y, x)


def _top_rows(pk):
    """The vertex rows of the d-faces of a packed host, in canonical order
    (no row, in one column, for the empty host)."""
    return pk.rows[-1] if pk.rows else np.zeros((0, 1), dtype=np.int64)


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


def _shared_view(G) -> dict[Edge, Face]:
    seps = map(tuple, G._pk.rows[-2].tolist()) if G._ends else ()  # no edge below d = 1
    return dict(zip(G._ends, seps))


@dataclass(frozen=True)
class WeightedFacetGraph(_LazyViews):
    """The facet graph with its edge weights and shared (d-1)-faces.

    `build_facet_graph` returns a graph that holds the packed host (`_pk`),
    whose `facet_graph` is its edge list, and the weights in edge-list
    order (`_weights`); its three fields are views built from them on
    first read.  A graph built from its fields holds no arrays.
    """

    vertices: tuple[Face, ...]
    edges: dict[Edge, int]  # edge -> weight F(x & y)
    shared: dict[Edge, Face]  # edge -> the shared (d-1)-face

    _pk = _weights = None
    _VIEWS = {
        "_tops": lambda G: _tops(G._pk),
        "_ends": lambda G: _edge_tuples(G._pk, G._tops),
        "vertices": lambda G: tuple(G._tops),
        "edges": lambda G: dict(zip(G._ends, G._weights.tolist())),
        "shared": _shared_view,
    }

    def degree(self, x: Face) -> int:
        return sum(1 for e in self.edges if x in e)


def build_facet_graph(F: Stack) -> WeightedFacetGraph:
    """The dual graph of the d-faces, its edges in canonical order of the
    shared (d-1)-faces.  The host must pass the check both watershed
    routes run first (`_facet_adjacency`)."""
    _facet_adjacency(F)
    pk = F.host.packed()
    return _from_arrays(WeightedFacetGraph, _pk=pk, _weights=F.alt_array()[pk.seps])


@dataclass(frozen=True)
class Forest(_LazyViews):
    """A spanning forest of a facet graph, rooted.

    `watershed_forest` returns a forest that holds the packed host
    (`_pk`), a mask of its edges over the host's edge list (`_in_y`) and
    a mask of its roots over the d-faces (`_is_root`); its three fields
    are views built from them on first read.  A forest built from its
    fields holds no arrays.
    """

    vertices: frozenset[Face]
    edges: frozenset[Edge]
    roots: frozenset[Face]

    _pk = _in_y = _is_root = None
    _VIEWS = {
        "_tops": lambda Y: _tops(Y._pk),
        "vertices": lambda Y: frozenset(Y._tops),
        "edges": lambda Y: frozenset(_edge_tuples(Y._pk, Y._tops, Y._in_y)),
        "roots": lambda Y: frozenset(map(Y._tops.__getitem__, np.flatnonzero(Y._is_root).tolist())),
    }

    def weight(self, G: WeightedFacetGraph) -> int:
        return sum(G.edges[e] for e in self.edges)

    def trees(self) -> list[frozenset[Face]]:
        """Vertex sets of the connected components, in canonical order of
        their smallest vertex."""
        verts = sorted(self.vertices, key=face_key)
        index = {v: i for i, v in enumerate(verts)}
        ends = np.array([[index[a], index[b]] for a, b in self.edges], dtype=np.int64)
        root = _kernels.components(*ends.reshape(-1, 2).T, len(verts))
        return list(map(frozenset, _grouped(verts, root)[1]))  # root: the smallest vertex


def watershed_forest(F: Stack) -> Forest:
    """Dual edges {x, y} such that one endpoint descends into the shared
    face's flat partner: (x, x&y) differential and (x&y, y) flat, either
    way around.  The host is checked as in `build_facet_graph`.  The roots
    are the minima: on a Morse stack, the d-faces with no flat (d-1)-face,
    as in the flood."""
    lo, hi = _facet_adjacency(F)
    _require_morse(F)
    pk, alt = F.host.packed(), F.alt_array()
    sa, ta = alt[pk.seps], alt[pk.tops]
    down, up = ta[lo] == sa, ta[hi] == sa
    is_root = np.ones(ta.size, dtype=np.bool_)
    is_root[lo[down]] = is_root[hi[up]] = False
    return _from_arrays(Forest, _pk=pk, _in_y=down | up, _is_root=is_root)


def verify_msf_theorem(F: Stack) -> dict[str, bool]:
    """Check the MSF characterization of the watershed forest.

    Returns per-check flags: rooted (spanning forest rooted in the
    minima), weight (a minimum spanning forest rooted in the minima),
    unique (the only one), basins (forest trees match the watershed basins
    on d-faces), and min_edge (every forest edge is the unique lightest
    edge at one endpoint).  See `_msf_checks` for how each is decided.
    """
    return _msf_checks(F, watershed_forest(F))


def _msf_checks(F: Stack, Y: Forest) -> dict[str, bool]:
    """The checks of `verify_msf_theorem` for a forest Y on the facet graph
    of F (`build_facet_graph(F)`), in one pass over the host's edge list,
    weighted by the altitudes of F.

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

    basins: every tree carries one basin label, none of them the cut
    label, and there are as many labels as trees.  The labels are those
    `morse_watershed` gives the d-faces: `_kernels.flood` over the same
    edge list, so F must be a Morse stack, as `watershed_forest` checks.

    min_edge: each edge of Y is the only edge of least weight at one of
    its ends.

    A forest that `watershed_forest` built on F's host is read as its
    arrays.  Any other forest is mapped onto the host's edge list and
    d-faces by its face tuples; its edges and roots must be among them
    (ValueError).
    """
    lo, hi = _facet_adjacency(F)
    pk = F.host.packed()
    n = len(pk) - pk.tops.start  # the d-faces, in canonical order
    if Y._pk is pk:
        in_y, is_root = Y._in_y, Y._is_root
    else:
        tops = _tops(pk)
        ends = _edge_tuples(pk, tops)
        in_y = np.fromiter(map(Y.edges.__contains__, ends), dtype=np.bool_, count=lo.size)
        is_root = np.fromiter(map(Y.roots.__contains__, tops), dtype=np.bool_, count=n)
        if in_y.sum() != len(Y.edges) or is_root.sum() != len(Y.roots):
            raise ValueError("the forest is not on the facet graph")
    alt = F.alt_array()
    w, ta = alt[pk.seps], alt[pk.tops]
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
    label = _kernels.flood(lo, hi, ta, w)[0]  # the d-faces, in order
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


