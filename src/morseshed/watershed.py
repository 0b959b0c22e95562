"""Watersheds of stacks on normal pseudomanifolds.

Three routes to the same object: the generic collapse procedure (any
stack), the pointer-jumping flood for Morse stacks, and the
definitional construction (closure of the biconnected faces of the
traced minima) used as an oracle.  The flood is the collapse behind a
Morse check: both run the same host check first (pure of dimension d,
two d-faces on every (d-1)-face), which returns the facet graph that
the packed host keeps (one edge per (d-1)-face, joining its two
d-faces), take the labels of the d-faces and the cut flags of the
(d-1)-faces from one function (`_facet_labels`), and share one label
assembly, which closes the cut downward and gives every other face the
label of its smallest d-coface.  The split follows what a stack
changes: the smallest d-cofaces and the covering-pair blocks that close
a cut are the host's (`Complex.assembly_map`, built once per host), so
a stack pays the cut closure and one gather of its d-face labels.
Where `stacks._inert_forest`, from one gather of F across the covering
pairs, finds F(x) >= F(y) on every covering pair and the ties inert
(every Morse stack), the labels come from
the roots of the flat-link forest, with no collapsed stack H and no
flat-zone labelling: (1) a non-root d-face is strictly above the d-face
across its flat (d-1)-face, and the faces below dimension d-1 strictly
above what their d-cofaces sink to, so each minimum of H is one tree
and its flat (d-1)-faces; (2) the minima of F are the roots; (3) so
each minimum of H holds one minimum of F, its root.  Other arrays,
Morse arrays that are no stack among them, keep the seeded collapse
and two flat-zone labellings.  Every `WatershedResult` holds the packed
host and one label array in packed order; its tuple views (`labels`,
`watershed`, `basins`) are built on first read by
`complexes._LazyViews`, so a caller that reads the array builds none.
`verify_cut` and `verify_drop_of_water` check the watershed axioms
directly on a boolean face mask of W in packed order.  The public
functions find the mask from the vertex rows of W (`_subcomplex_mask`,
ValueError for a W that is not a subcomplex of the host);
`_verify_watershed` takes a mask the caller already has, such as the cut
label mask of a result, and gives both verdicts and, where the cut
holds, the classes the cut check found, against which `_labels_hold`
checks a result's labels: each d-face must carry the rank of its
minimum and each other face outside W the label of its d-cofaces.
Where F(x) >= F(y) on
every covering pair, the ties are inert, W holds no d-face and no
(d-1)-face of W is flat with a d-face (every Morse cut), both checks
read the flat-link roots (`_root_classes`): (1) a strong step from a
d-face x to a d-face y across z, off W, needs F(z) <= F(x), and a stack
has F(z) >= F(x), so z is a flat (d-1)-face of x; on a tie-inert stack
x has at most one, with a strictly lower d-face across it, so every
path follows the flat links to a root; (2) the minima of F are exactly
the roots, as a root's faces are all strictly higher, a non-root has a
lower d-face flat-linked to it, and every minimum holds a d-face, since
altitudes never rise from a face to its d-cofaces; (3) no link crosses W, so each root class is
joined off W, and the components of X \\ W are the root classes iff
every face outside W has all its d-cofaces in one class (this holds on
hosts that are not normal too, as every face below dimension d lies in
a d-face).  So the cut holds iff every face below dimension d outside
W sees one root among its d-cofaces and every face of W two, and the
drop of water iff every face of W sees two: one pointer-jumping pass
and one pass down the covering pairs (`complexes._coface_range`).  The
check builds that forest from the altitudes itself, not through
`stacks._inert_forest`, which both routes read, so a fault there fails
the check.  Other inputs take one flat-zone rank (`stacks._flat_zones`),
a labelling of X \\ W and a pass in ascending altitude (`_cut_classes`,
`_drop_holds`), which read the covering pairs too: linear in the size
of the host plus one sort by altitude.  The public functions add one
binary search per dimension for each face of W.

The watershed forest (one differential step then one flat step between
two facets) is, for Morse stacks, the unique minimum spanning forest
rooted in the minima.  The engine holds it as two masks over the packed
host, one over the facet graph's edges and one over the d-faces
(`_forest_masks`), and `verify_msf_theorem` certifies it on them in one
pass over the edge list (`_msf_certificate`).  Its tuple objects and the
greedy, tie-test and exhaustive references are in `oracles`, the one
module of the tests' references, which this module imports only inside
`morse_watershed_direct`.
"""

from __future__ import annotations

import operator
from numbers import Integral

import numpy as np

from .complexes import (
    _INT64_MAX, _INT64_MIN, Complex, Face, _LazyViews, _coface_range, _from_arrays, _grouped,
    _masked_complex, _subcomplex_mask, closure,
)
from .morse import _require_morse
from .stacks import Stack, _facet_adjacency, _flat_zones, _inert_forest, ultimate_d_collapse
from . import _kernels

WATERSHED_LABEL = 0


def _basins_view(r) -> tuple[tuple[int, frozenset[Face]], ...]:
    labels, groups = _grouped(r._pk.face_list, r._label)
    return tuple((b, frozenset(g)) for b, g in zip(labels, groups) if b != WATERSHED_LABEL)


def _label_error(labels, x: Face, v) -> ValueError:
    """The error of the bad label `v` of face x, keyed in ascending vertex
    order; a face that has a label only under a key in another vertex
    order is named with that key."""
    if x not in labels:
        other = next((k for k in labels if tuple(sorted(k)) == x), None)
        if other is not None:
            return ValueError(f"label None of {x}: the face is keyed only as {other!r}, "
                              "in another vertex order")
    return ValueError(f"label {v!r} of {x} is not an int64 >= 0")


class WatershedResult(_LazyViews):
    """A watershed: `labels` maps each face of the host to WATERSHED_LABEL
    (on the cut) or its basin id >= 1, in canonical order; `watershed` is
    the cut W as a complex; `basins` lists (id, faces) by ascending id.

    Every result holds the packed host and one int64 label array in packed
    order, which the views are built from on first read.  Built from a
    labels map (the faces of a complex, each label an int64 >= 0), a
    result checks and converts it once and keeps it as `labels`."""

    __slots__ = ("labels", "watershed", "basins", "_pk", "_label")
    _VIEWS = {
        "labels": lambda r: dict(zip(r._pk.face_list, r._label.tolist())),
        "watershed": lambda r: _masked_complex(r._pk, r._label == WATERSHED_LABEL),
        "basins": _basins_view,
    }

    def __init__(self, labels: dict[Face, int]):
        pk = Complex(labels).packed()
        try:
            label = np.fromiter(map(operator.index, map(labels.get, pk.face_list)),
                                dtype=np.int64, count=len(pk))
        except (TypeError, OverflowError):  # no label, or one that is no int64
            label = None
        if label is None or (label < 0).any() or len(labels) != len(pk):
            for x in pk.face_list:
                if not (isinstance(v := labels.get(x), Integral) and 0 <= v < 2**63):
                    raise _label_error(labels, x, v)
            raise ValueError("a face is labelled twice, in two vertex orders")
        self.labels, self._pk, self._label = labels, pk, label

    def __eq__(self, other) -> bool:
        """Equal hosts and labels, compared as packed arrays."""
        if not isinstance(other, WatershedResult):
            return False
        return self._pk == other._pk and np.array_equal(self._label, other._label)

    __hash__ = None

    def basin_sizes(self) -> dict[int, int]:
        return {bid: len(fs) for bid, fs in self.basins}


def _assemble(pk, B, cut) -> WatershedResult:
    """Label the packed host from the labels B of its d-faces and the cut
    flags of its (d-1)-faces.

    The cut is the flagged (d-1)-faces closed downward; every other face
    takes the label of its smallest top coface (the top itself for a top
    face, `lo` of the facet graph for a (d-1)-face).  Both maps are the
    host's (`Complex.assembly_map`), so a stack pays only the cut closure,
    one pass per dimension, and one gather of B.  The host must pass the
    host check of the routes (`_facet_adjacency`).
    """
    owner, blocks = pk.assembly_map
    in_cut = np.zeros(len(pk), dtype=np.bool_)
    in_cut[pk.seps] = cut
    for sub, sup in blocks:
        in_cut[sub.compress(in_cut[sup])] = True
    label = np.where(in_cut, WATERSHED_LABEL, B[owner])
    return _from_arrays(WatershedResult, _pk=pk, _label=label)


def _facet_labels(F: Stack, seed: int = 0):
    """The labels B of the d-faces and the cut flags of the (d-1)-faces
    that `watershed_collapse` assembles: each (d-1)-face whose two d-faces
    lie in different minima of the ultimate d-collapse H is cut, and the
    basin of an H-minimum is numbered by the smallest minimum of F among
    its d-faces (0 where there is none).

    When `_inert_forest` finds that F is a stack whose ties are inert, the
    labels come from the flat-link roots without H
    (`_kernels.forest_basins`), by the three facts of the module
    docstring: each minimum of H is one flat-link tree, the minima of F
    are the roots, so each H-minimum takes the rank of its root.  Other
    inputs keep the seeded collapse and two flat-zone labellings."""
    lo, hi = _facet_adjacency(F)
    if (parent := _inert_forest(F)) is not None:
        return _kernels.forest_basins(parent, lo, hi)
    H = ultimate_d_collapse(F, seed=seed)
    pk = F.host.packed()
    n = len(pk)
    f_rank = _flat_zones(F)[1][pk.tops]
    h_root = _flat_zones(H)[0][pk.tops]
    # an H-minimum takes the smallest rank of an F-minimum among its d-faces
    best = np.full(n, n + 1)
    np.minimum.at(best, h_root, np.where(f_rank > 0, f_rank, n + 1))
    B = best[h_root] % (n + 1)  # 0 where there is none
    return B, h_root[lo] != h_root[hi]


def watershed_collapse(F: Stack, seed: int = 0) -> WatershedResult:
    """WatershedCollapse: ultimate d-collapse to H, then the (d-1)-faces
    whose two d-faces lie in different minima of H, closed downward.  The
    basin of an H-minimum is numbered by the smallest minimum of F among
    its d-faces.  On a tie-inert stack (every Morse stack) the labels come
    from the flat-link roots, with no H (`_facet_labels`)."""
    return _assemble(F.host.packed(), *_facet_labels(F, seed))


def morse_watershed(F: Stack) -> WatershedResult:
    """Flood over the facet graph of a Morse stack: the collapse's root
    path behind the Morse check.

    After the host and Morse checks, every non-minimum facet drains across
    its one flat (d-1)-face to a strictly lower facet; pointer jumping
    along these links labels each facet with the rank of its minimum in
    canonical order, which is the basin numbering of minima(F).  The cut
    is the (d-1)-faces whose two facets carry different labels, closed
    downward; every remaining lower face joins the basin of its smallest
    top coface.  These are the labels of `watershed_collapse`
    (`_facet_labels`), which on a Morse array that is no stack come from
    its seeded collapse; `labels` lists the faces in canonical order.
    """
    _facet_adjacency(F)
    _require_morse(F)
    return _assemble(F.host.packed(), *_facet_labels(F))


def morse_watershed_direct(F: Stack) -> Complex:
    """Definitional construction: closure of the faces whose two cofaces
    trace to distinct minima.  Oracle for the two algorithms, after their checks."""
    from .oracles import biconnected_faces  # oracles imports this module at load

    _facet_adjacency(F)
    _require_morse(F)
    return closure(biconnected_faces(F))


# -- verification oracles -----------------------------------------------------


def verify_cut(F: Stack, W: Complex) -> bool:
    """Cut axioms: X \\ W is an extension of min(F), and W is minimal.

    W is closed, so X \\ W is open and its components are those of the
    covering pairs with both ends outside W: one labelling decides the
    extension (every minimum outside W, one minimum in each component).
    W is then minimal exactly when no face x of W has st(x) \\ W
    non-empty and inside one component of X \\ W.  If such an x exists,
    W \\ st(x) is a smaller subcomplex whose complement is still an
    extension.  Conversely, the complement of a smaller such subcomplex
    Y holds a face x of W with st(x) \\ W non-empty; the faces of
    st(x) \\ W are joined through x outside Y, and each component there
    holds one minimum, so they lie in one component of X \\ W.

    Where `_root_classes` applies (a tie-inert stack, W with no d-face
    and no flat (d-1)-face), the components are the flat-link root
    classes and one pointer-jumping pass and one pass down the covering
    pairs decide the check.  Elsewhere it takes one flat-zone labelling
    and one labelling of X \\ W (`_cut_classes`).
    """
    in_w = _subcomplex_mask(F.host.packed(), W)
    if (found := _root_classes(F, in_w)) is not None:
        return found[0]
    return _cut_classes(F, in_w, _flat_zones(F)[1]) is not None


def verify_drop_of_water(F: Stack, W: Complex) -> bool:
    """Each face of W must see two descending strong paths, starting in its
    d-cofaces and staying off W, that end in distinct minima of F.

    A step from a d-face x to a d-face y crosses their shared (d-1)-face
    z, off W, with F(y) <= F(z) <= F(x): an edge of the facet graph, taken
    one way or both.  The faces joined by steps both ways (all three
    altitudes equal) form groups that reach the same minima, and the
    other steps go strictly down, so one pass over them in ascending
    altitude of their source finds what each group reaches.  A set of
    minimum ids (the rank of `flat_zones`) is kept as its smallest and
    largest member, as only whether it has two members is asked.

    Where `_root_classes` applies, every path follows the flat links to
    a root, and the check reads the root classes of the d-cofaces of
    each face of W, with no flat-zone labelling and no Python loop.
    """
    in_w = _subcomplex_mask(F.host.packed(), W)
    if (found := _root_classes(F, in_w)) is not None:
        return found[1]
    return _drop_holds(F, in_w, _flat_zones(F)[1])


def _verify_watershed(F: Stack, in_w):
    """(verify_cut(F, W), verify_drop_of_water(F, W), classes) for the W
    whose faces the boolean mask `in_w` marks in packed order: from the
    flat-link roots where `_root_classes` applies, else from one
    flat-zone rank.

    Where the cut holds, `classes` is (cls, cls_rank), the classes that
    the cut check read, each holding one minimum: a flat-link root class,
    whose minimum is its root, or a component of X \\ W, whose minimum
    has a flat-zone rank; cls[i] is the class of face i, cls_rank[c] the
    rank of the minimum of class c.  `_labels_hold` checks the labels of
    a result against them.  Elsewhere `classes` is None."""
    if (found := _root_classes(F, in_w)) is not None:
        cut, drop, classes = found
        return cut, drop, classes if cut else None
    rank = _flat_zones(F)[1]
    classes = _cut_classes(F, in_w, rank)
    return classes is not None, _drop_holds(F, in_w, rank), classes


def _labels_hold(label, in_w, cls, cls_rank) -> bool:
    """Whether `label` holds the cut label on the faces of W and, on every
    other face i, the rank cls_rank[cls[i]] of the minimum of its class:
    then each d-face carries the rank of its minimum, and each face
    outside W the label of its d-cofaces."""
    return bool((label == np.where(in_w, WATERSHED_LABEL, cls_rank[cls])).all())


def _root_classes(F: Stack, in_w):
    """(cut, drop, (cls, cls_rank)) for the face mask `in_w` of W from the
    flat-link roots, or None unless F(x) >= F(y) on every covering pair,
    the ties are inert (as `stacks._inert_forest` decides), W holds no
    d-face and no (d-1)-face of W is flat with a d-face of its own (then
    `_cut_classes` and `_drop_holds` decide).  By the three facts of the
    module docstring, the cut holds iff every face below dimension d
    outside W has the d-cofaces of one root and every face of W those of
    two, and the drop of water iff the latter holds.  cls[i] is the root
    of a d-face i, or for a face i below dimension d the least root of
    its d-cofaces; cls_rank[r] is the rank of root r among the roots by
    local id, which is the rank of its minimum.

    The flat-link forest is built here from the altitudes, not by
    `stacks._inert_forest`, which both routes read, so that a fault there
    moves the answer and not the check: each flat (d-1)-face sends its
    flat d-face to the d-face across it, which must be strictly lower
    (so no (d-1)-face is flat with both), and no d-face may be sent
    twice."""
    pk, alt = F.host.packed(), F.alt_array()
    try:
        lo, hi = pk.facet_graph
    except ValueError:  # the host is no pseudomanifold: no flat-link forest
        return None
    if in_w[pk.tops].any() or (alt[pk.sub] < alt[pk.sup]).any():
        return None
    v, ta = alt[pk.seps], alt[pk.tops]
    a = ta[lo]
    flat = np.flatnonzero((a == v) | (ta[hi] == v))  # the flat (d-1)-faces
    s_lo, s_hi = lo[flat], hi[flat]
    y = np.where(a[flat] == v[flat], s_lo, s_hi)  # the flat d-face
    z = s_lo + s_hi - y  # the d-face across
    if ((ta[z] >= ta[y]).any() or np.bincount(y).max(initial=0) > 1
            or in_w[pk.seps.start + flat].any()):
        return None
    parent = np.arange(ta.size)
    parent[y] = z
    root = _kernels._jump(parent)
    low, high = np.full(len(pk), _INT64_MAX), np.full(len(pk), _INT64_MIN)
    low[pk.tops] = high[pk.tops] = root
    _coface_range(pk, low, high)
    two = low < high  # sees two roots; every face below d sees one at least
    drop = bool((two | ~in_w).all())
    classes = low, np.cumsum(root == np.arange(ta.size))
    return drop and bool((two == in_w).all()), drop, classes


def _cut_classes(F: Stack, in_w, rank):
    """(root, low) where `verify_cut` holds on the face mask `in_w` of W,
    else None: root[i] labels the component of X \\ W that holds face i
    (`_kernels.components`), and low[root[i]] is the flat-zone rank of
    its one minimum.  W is closed, so for y outside W, st(y) lies outside
    W in the component of y: the pass down the covering pairs gives each
    face of W the components around it, on a host that need not be pure."""
    pk = F.host.packed()
    n = len(pk)
    if (in_w & (rank > 0)).any():
        return None
    out = ~in_w
    both = np.flatnonzero(out[pk.sub] & out[pk.sup])
    root = _kernels.components(pk.sub[both], pk.sup[both], n)
    in_min = np.flatnonzero(rank)  # all outside W by now
    low, high = _kernels.low_high(root[in_min], rank[in_min], n)
    if not ((low == high)[root] | in_w).all():
        return None
    x_low, x_high = _coface_range(pk, np.where(in_w, _INT64_MAX, root),
                                  np.where(in_w, _INT64_MIN, root))
    return None if (in_w & (x_low == x_high)).any() else (root, low)


def _drop_holds(F: Stack, in_w, rank) -> bool:
    """`verify_drop_of_water` on the face mask `in_w` of W."""
    lo, hi = _facet_adjacency(F)
    pk, alt = F.host.packed(), F.alt_array()
    ta = alt[pk.tops]
    off_w = np.flatnonzero(~in_w[pk.seps])  # then its two d-faces are off W, as W is closed
    lo, hi, sa = lo[off_w], hi[off_w], alt[pk.seps][off_w]
    down = (ta[hi] <= sa) & (sa <= ta[lo])  # a step lo -> hi
    up = (ta[lo] <= sa) & (sa <= ta[hi])  # a step hi -> lo
    both = np.flatnonzero(down & up)
    root = _kernels.components(lo[both], hi[both], ta.size)
    down, up = np.flatnonzero(down & ~up), np.flatnonzero(up & ~down)  # one way only
    src = np.concatenate([lo[down], hi[up]])
    dst = np.concatenate([hi[down], lo[up]])
    if in_w[pk.tops].any():
        return False  # a d-face of W starts no path
    rank = rank[pk.tops]  # 0 off the minima
    mins = np.flatnonzero(rank)
    low, high = (a.tolist() for a in _kernels.low_high(root[mins], rank[mins], ta.size))
    order = np.argsort(ta[src], kind="stable")
    for s, t in zip(root[src[order]].tolist(), root[dst[order]].tolist()):
        if low[t] < low[s]:
            low[s] = low[t]
        if high[t] > high[s]:
            high[s] = high[t]
    # every d-face is off W: each face of W takes the ends of all its d-cofaces
    x_low, x_high = np.full(len(pk), _INT64_MAX), np.full(len(pk), _INT64_MIN)
    x_low[pk.tops], x_high[pk.tops] = np.array(low)[root], np.array(high)[root]
    _coface_range(pk, x_low, x_high)
    return bool(((x_low < x_high) | ~in_w).all())


# -- the MSF certificate ------------------------------------------------------


def _top_rows(pk):
    """The vertex rows of the d-faces of a packed host, in canonical order
    (no row, in one column, for the empty host)."""
    return pk.rows[-1] if pk.rows else np.zeros((0, 1), dtype=np.int64)


def _forest_masks(F: Stack) -> tuple[np.ndarray, np.ndarray]:
    """The watershed forest of F as (in_y, is_root): a mask of its edges
    over the host's edge list and a mask of its roots over the d-faces.
    Its edges are the dual edges {x, y} such that one endpoint descends
    into the shared face's flat partner: (x, x&y) differential and
    (x&y, y) flat, either way around.  The roots are the minima: on a
    Morse stack, the d-faces with no flat (d-1)-face, as in the flood."""
    lo, hi = _facet_adjacency(F)
    _require_morse(F)
    pk, alt = F.host.packed(), F.alt_array()
    sa, ta = alt[pk.seps], alt[pk.tops]
    down, up = ta[lo] == sa, ta[hi] == sa
    is_root = np.ones(ta.size, dtype=np.bool_)
    is_root[lo.compress(down)] = is_root[hi.compress(up)] = False
    return down | up, is_root


def verify_msf_theorem(F: Stack) -> dict[str, bool]:
    """Check the MSF characterization of the watershed forest.

    Returns per-check flags: rooted (spanning forest rooted in the
    minima), weight (a minimum spanning forest rooted in the minima),
    unique (the only one), basins (forest trees match the watershed basins
    on d-faces), and min_edge (every forest edge is the unique lightest
    edge at one endpoint).  See `_msf_certificate` for how each is decided.
    """
    return _msf_certificate(F, *_forest_masks(F))


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
    `morse_watershed` gives the d-faces (`_facet_labels`), so F
    must be a Morse stack, as `_forest_masks` checks.

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
