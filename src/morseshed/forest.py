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

The engine reads the watershed forest as two masks over the packed
host, one over its edge list (lo, hi) and one over its d-faces
(`_forest_masks`), and certifies it on them (`_msf_certificate`);
`verify_msf_theorem` and `morseshed msf` build no face tuple.
`WeightedFacetGraph` and `Forest` are plain tuple objects for the
references in `oracles` and for the tests: `build_facet_graph` and
`watershed_forest` fill them from the same arrays, and `_msf_checks`
maps a tuple forest back onto the masks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .complexes import Face, _grouped, face_key
from .morse import _require_morse
from .stacks import Stack, _facet_adjacency
from .watershed import WATERSHED_LABEL, _facet_labels

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
        verts = sorted(self.vertices, key=face_key)
        index = {v: i for i, v in enumerate(verts)}
        ends = np.array([[index[a], index[b]] for a, b in self.edges], dtype=np.int64)
        root = _kernels.components(*ends.reshape(-1, 2).T, len(verts))
        return list(map(frozenset, _grouped(verts, root)[1]))  # root: the smallest vertex


def _forest_masks(F: Stack) -> tuple[np.ndarray, np.ndarray]:
    """The watershed forest of F as (in_y, is_root): a mask of its edges
    over the host's edge list and a mask of its roots over the d-faces.
    See `watershed_forest`."""
    lo, hi = _facet_adjacency(F)
    _require_morse(F)
    pk, alt = F.host.packed(), F.alt_array()
    sa, ta = alt[pk.seps], alt[pk.tops]
    down, up = ta[lo] == sa, ta[hi] == sa
    is_root = np.ones(ta.size, dtype=np.bool_)
    is_root[lo.compress(down)] = is_root[hi.compress(up)] = False
    return down | up, is_root


def watershed_forest(F: Stack) -> Forest:
    """Dual edges {x, y} such that one endpoint descends into the shared
    face's flat partner: (x, x&y) differential and (x&y, y) flat, either
    way around.  The host is checked as in `build_facet_graph`.  The roots
    are the minima: on a Morse stack, the d-faces with no flat (d-1)-face,
    as in the flood."""
    in_y, is_root = _forest_masks(F)
    pk = F.host.packed()
    tops = _tops(pk)
    return Forest(
        frozenset(tops),
        frozenset(_edge_tuples(pk, tops, in_y)),
        frozenset(map(tops.__getitem__, np.flatnonzero(is_root).tolist())),
    )


def verify_msf_theorem(F: Stack) -> dict[str, bool]:
    """Check the MSF characterization of the watershed forest.

    Returns per-check flags: rooted (spanning forest rooted in the
    minima), weight (a minimum spanning forest rooted in the minima),
    unique (the only one), basins (forest trees match the watershed basins
    on d-faces), and min_edge (every forest edge is the unique lightest
    edge at one endpoint).  See `_msf_certificate` for how each is decided.
    """
    return _msf_certificate(F, *_forest_masks(F))


def _msf_checks(F: Stack, Y: Forest) -> dict[str, bool]:
    """`_msf_certificate` for a tuple forest Y, mapped onto the host's edge
    list and d-faces by its face tuples; its edges and roots must be among
    them (ValueError)."""
    _facet_adjacency(F)
    pk = F.host.packed()
    tops = _tops(pk)
    ends = _edge_tuples(pk, tops)
    in_y = np.fromiter(map(Y.edges.__contains__, ends), dtype=np.bool_, count=len(ends))
    is_root = np.fromiter(map(Y.roots.__contains__, tops), dtype=np.bool_, count=len(tops))
    if in_y.sum() != len(Y.edges) or is_root.sum() != len(Y.roots):
        raise ValueError("the forest is not on the facet graph")
    return _msf_certificate(F, in_y, is_root)


def _is_facet_graph(pk, lo, hi) -> bool:
    """Whether lo[j] < hi[j] for every edge j and the boundary rows of both
    d-faces hold (d-1)-face j, read from `pk.bd`, not from the edge list."""
    rows, j = pk.bd[pk.dim], np.arange(pk.seps.start, pk.seps.stop)[:, None]
    # a boundary row holds a face at most once: one match per end
    held = sum(np.count_nonzero(rows.take(end, axis=0) == j) for end in (lo, hi))
    return bool((lo < hi).all() and held == 2 * j.size)


def _msf_certificate(F: Stack, in_y: np.ndarray, is_root: np.ndarray) -> dict[str, bool]:
    """The checks of `verify_msf_theorem` for the forest Y with edge mask
    `in_y` over the host's edge list and root mask `is_root` over its
    d-faces (as `_forest_masks` gives them), in one pass over the edge
    list, weighted by the altitudes of F.

    rooted: Y has facets - trees edges (so no cycle) and every tree holds
    one root.  Its trees are read by one pointer-jumping pass
    (`_kernels._jump`) over the parent edges when Y is oriented as below,
    else from one `_kernels.components` labelling.

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
    `morse_watershed` gives the d-faces (`watershed._facet_labels`), so F
    must be a Morse stack, as `watershed_forest` checks.

    min_edge: each edge of Y is the only edge of least weight at one of
    its ends.

    Every flag is False unless the edge list is the facet graph of the
    host: edge j joins d-faces lo[j] < hi[j] whose boundary rows
    (`Complex.bd`) both hold (d-1)-face j, so a fault in the kernel that
    builds the graph fails the certificate instead of passing it.
    """
    lo, hi = _facet_adjacency(F)
    pk = F.host.packed()
    if not _is_facet_graph(pk, lo, hi):
        return dict.fromkeys(("rooted", "weight", "unique", "basins", "min_edge"), False)
    n = is_root.size  # the d-faces, in canonical order
    alt = F.alt_array()
    w, ta = alt[pk.seps], alt[pk.tops]
    k = np.flatnonzero(in_y)  # the edges of Y
    a, b = lo[k], hi[k]
    child = np.where(ta[a] > ta[b], a, b)  # a < b: b on a tie
    parent = a + b - child
    up = np.full(n, np.iinfo(np.int64).min)  # w(u); -inf on a root
    up[child] = w[k]
    oriented = ((np.bincount(child, minlength=n) == ~is_root).all()
                and (up[parent] <= up[child]).all())
    if oriented:  # one parent edge per child, in a strict order: a forest
        tree = np.arange(n)
        tree[child] = parent
        tree = _kernels._jump(tree)
    else:
        tree = _kernels.components(a, b, n)
    first = tree == np.arange(n)  # one per tree
    checks = {
        "rooted": bool(
            a.size == n - first.sum()
            and (np.bincount(tree.compress(is_root), minlength=n)[first] == 1).all()
        )
    }
    # a root-to-root edge meets -inf on both ends and passes: on a Morse
    # stack no weight is the int64 minimum, or both its d-faces would be
    # flat with its (d-1)-face
    path_max = np.maximum(up[lo], up[hi])  # read off Y only
    checks["weight"] = bool(oriented and ((w >= path_max) | in_y).all())
    checks["unique"] = bool(oriented and ((w > path_max) | in_y).all())
    label = _facet_labels(F)[0]  # the d-faces, in order
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
    checks["min_edge"] = bool(alone[k].all())
    return checks


