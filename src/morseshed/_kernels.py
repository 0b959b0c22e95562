"""Array kernels behind the watershed routes.

Numpy functions on the integer arrays of a packed complex (see
Complex.packed()): the component labeller that answers every static
connectivity question, the flat-pair matching check that decides the
Morse property, the flat-zone labelling that finds the regional minima,
the facet graph of a non-branching pure complex (one edge per
(d-1)-face; the packed host builds it once and keeps it for every route
and check), the basin labels and cut flags of a flat-link forest over it
(the forest is `stacks._inert_forest`; both watershed routes read the
labels), and the smallest and largest value per index that the facet
graph and the watershed checks read.

Indexing rule: a gather or scatter through a boolean mask that selects
scattered entries goes through their positions (`np.flatnonzero`, found
once and shared by every array it indexes) or through `compress` when it
is read once, as numpy indexes a random mask several times slower than
either; a mask that selects a contiguous range is a slice; a mask that
selects nearly everything stays a mask, where the order reverses.
"""

from __future__ import annotations

import numpy as np


class ConvergenceError(RuntimeError):
    """A kernel ran past the round bound that its proof gives, which only
    a faulty kernel does."""


def _jump(parent):
    """Pointer jumping, parent = parent[parent], until every tree is a star;
    at most n.bit_length() + 1 rounds, as 2**rounds > n > any tree depth."""
    for _ in range(parent.size.bit_length() + 1):
        jumped = parent[parent]
        if (jumped == parent).all():
            break
        parent = jumped
    return parent


def low_high(at, value, n: int):
    """For each index i < n, the smallest and largest value[k] with
    at[k] == i.  The values lie in 0..n and an index without one gets
    n + 1 and -1, so the two agree exactly where some values meet and
    all are equal."""
    low, high = np.full(n, n + 1), np.full(n, -1)
    np.minimum.at(low, at, value)
    np.maximum.at(high, at, value)
    return low, high


def flat_matching_offender(sub, sup, alt, n_faces) -> int:
    """Index of the smallest face lying in two flat covering pairs, or -1
    when the flat pairs form a matching (the Morse condition)."""
    flat = np.flatnonzero(alt[sub] == alt[sup])
    if not flat.size:
        return -1
    cnt = np.bincount(sub[flat], minlength=n_faces)
    cnt += np.bincount(sup[flat], minlength=n_faces)
    bad = np.flatnonzero(cnt > 1)
    return int(bad[0]) if bad.size else -1


def components(a, b, n):
    """Connected components of the graph on nodes 0..n-1 with edges
    (a[k], b[k]): root[i] is the smallest node in the component of i.

    Each round hooks every root onto the smallest smaller root across its
    edges, then pointer-jumps to stars (Shiloach & Vishkin, J. Algorithms
    1982).  A tree with an edge out that neither hooks nor is hooked in
    one round has only larger neighbours, each of which hooks onto a
    smaller root, so it hooks in the next: the trees with an edge out at
    least halve every two rounds.  So at most 2 * n.bit_length() rounds
    hook and one more finds no edge left; an edge left after that bound
    means a faulty kernel, and raises ConvergenceError rather than return
    trees that have not met.
    """
    parent = np.arange(n)
    for _ in range(2 * parent.size.bit_length() + 1):
        pa, pb = parent[a], parent[b]
        split = pa != pb
        if not split.any():
            return parent
        a, b, pa, pb = a[split], b[split], pa[split], pb[split]
        np.minimum.at(parent, np.maximum(pa, pb), np.minimum(pa, pb))
        parent = _jump(parent)
    raise ConvergenceError("components: edges left after the round bound")


def flat_zones(sub, sup, alt, n_faces):
    """Flat zones (components of equal-altitude faces under covering
    adjacency) and regional minima, from the covering pairs (sub, sup).

    Returns (root, rank): root[i] is the smallest index in the zone of
    face i; rank[i] is the 1-based rank of that zone among the minima by
    root, or 0 when a member of the zone has a strictly lower covering
    neighbour.
    """
    a, b = alt[sub], alt[sup]
    flat = np.flatnonzero(a == b)
    parent = components(sub[flat], sup[flat], n_faces)
    higher = np.where(a > b, sub, sup).compress(a != b)  # has a lower neighbour
    is_min = parent == np.arange(n_faces)
    is_min[parent[higher]] = False
    rank = np.where(is_min, np.cumsum(is_min), 0)[parent]
    return parent, rank


def top_adjacency(pk):
    """The facet graph of a non-branching pure complex: one edge for each
    (d-1)-face, joining its two d-faces; no edge below dimension 1.

    Returns (lo, hi): for the (d-1)-face number j in canonical order,
    lo[j] < hi[j] are the local ids of its two d-faces (d-face i is face
    pk.tops.start + i).  Raises ValueError when some (d-1)-face does not
    have exactly two cofaces, or some face lies in no d-face.  The host
    keeps the result as `Complex.facet_graph`, which every route,
    check and writer reads.
    """
    sep_lo, top_lo = pk.seps.start, pk.tops.start
    if (pk.n_cofaces[pk.seps] != 2).any():
        raise ValueError("complex is not a non-branching pseudomanifold")
    if not pk.n_cofaces[:top_lo].all():
        raise ValueError("complex is not pure of top dimension")
    t = pk.top_pairs()  # the ((d-1)-face, d-face) pairs (none for d <= 0)
    return low_high(pk.sub[t] - sep_lo, pk.sup[t] - top_lo, top_lo - sep_lo)


def forest_basins(parent, lo, hi):
    """Labels B of the facets and cut flags of the (d-1)-faces from a
    flat-link forest over (lo, hi) (`stacks._inert_forest`): B is the
    1-based rank, in ascending local id, of the root that pointer jumping
    sends a facet to, and a (d-1)-face is cut when its two facets carry
    different labels."""
    is_root = parent == np.arange(parent.size)
    B = np.where(is_root, np.cumsum(is_root), 0)[_jump(parent)]
    return B, B[lo] != B[hi]
