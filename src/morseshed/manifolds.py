"""Pseudomanifold and normal-pseudomanifold validation.

Normality is checked two ways: through strict connectivity (every
connected open subset strongly connected) and through the classical link
condition.  The two routes are provably equivalent on pseudomanifolds;
`validate` computes both and asserts they agree.  The links of all
faces are labelled at once from the covering pairs and the `bd` rows
(`_split_links`, `_split_strong_links`), with no link complex built.
Strict connectivity is never decided by subset enumeration in
production -- the exponential enumeration lives in
`oracles.strictly_connected_oracle`, a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from . import _kernels
from .complexes import (
    Complex, Face, _closure, _pair_cut, _strong_labels, face_key,
)


def link(x: Face, X: Complex) -> Complex:
    """lk(x, X) = {y : x and y disjoint, their union a face of X}.

    Each such union is a face of the star of x, and y is what remains of
    it once x is removed."""
    xs = set(x)
    return Complex({tuple(v for v in y if v not in xs) for y in X.star(x) if y != x})


def open_star(x: Face, X: Complex) -> frozenset[Face]:
    """st*(x, X) = st(x, X) minus x itself."""
    return X.star(x) - {x}


@dataclass
class ValidationReport:
    dim: int
    pure: bool
    connected: bool
    non_branching: bool
    strongly_connected: bool
    link_condition: bool
    strictly_connected: bool
    is_pseudomanifold: bool
    is_normal: bool
    witnesses: dict[str, object] = field(default_factory=dict)

    def as_lines(self) -> list[str]:
        keys = (
            "dim pure connected non_branching strongly_connected "
            "link_condition strictly_connected is_pseudomanifold is_normal"
        ).split()
        lines = [f"{k}={getattr(self, k)}" for k in keys]
        for k, w in sorted(self.witnesses.items()):
            lines.append(f"witness_{k}={w}")
        return lines


def _check_non_branching(X: Complex) -> Optional[Face]:
    """First (d-1)-face without exactly two cofaces, if any."""
    pk = X.packed()
    bad = np.flatnonzero(pk.n_cofaces[pk.seps] != 2)
    return pk.face_list[pk.seps.start + bad[0]] if bad.size else None


def _count_components(X: Complex) -> int:
    """The number of connected components of X: those of its 1-skeleton,
    as every face is joined to its vertices through its edges."""
    pk, nv = X.packed(), len(X.vertex_ids)
    a, b = pk.bd[1].T if X.dim >= 1 else np.zeros((2, 0), dtype=np.int64)
    return int(np.count_nonzero(_kernels.components(a, b, nv) == np.arange(nv)))


def _count_strong_components(X: Complex) -> int:
    """The number of strong components of the d-faces of a pure X: on a
    non-branching X, the components of its facet graph, one edge per
    (d-1)-face; else the roots of `_strong_labels` over every face."""
    pk = X.packed()
    if (pk.n_cofaces[pk.seps] == 2).all():
        lo, hi = pk.facet_graph
        n = len(pk) - pk.tops.start
        return int(np.count_nonzero(_kernels.components(lo, hi, n) == np.arange(n)))
    every = np.ones(len(pk), dtype=np.bool_)
    return int(np.count_nonzero(_strong_labels(pk, every, X.dim) == np.arange(len(pk))))


def _split_links(X: Complex):
    """Indexes, ascending, of the p-faces x (p <= d-2) whose link, or its
    1-skeleton, is disconnected.  Its vertices are the `bd` slots (y, k),
    x = bd row y at k, numbered as the covering pairs; a face z of which x
    is a face of codimension 2, x = z less vertices i < j, joins the
    slots (z less i, j - 1) and (z less j, i).  A face whose slots have
    two roots is split."""
    pk = X.packed()
    off, cut = pk.dim_offset.tolist(), _pair_cut(pk)
    a, b = [], []
    for q in range(2, X.dim + 1):
        i, j = np.array(list(combinations(range(q + 1), 2))).T
        slot = cut[q - 1] + (pk.bd[q] - off[q - 1]) * q  # slot (y, 0) of each y
        a.append((slot[:, i] + j - 1).ravel())
        b.append((slot[:, j] + i).ravel())
    root = _kernels.components(np.concatenate(a), np.concatenate(b), pk.sub.size)
    roots = np.bincount(pk.sub[root == np.arange(pk.sub.size)], minlength=len(pk))
    return np.flatnonzero(roots[:pk.seps.start] > 1)


def _split_strong_links(X: Complex):
    """Indexes, ascending, of the p-faces x (p <= d-2) whose link is not
    strongly connected: the nodes (c, t), c the set of positions of x in
    the d-face t, and (c', s), c' those in the (d-1)-face s, where
    (c', bd[d][t, i]) joins (c' with a 0 bit inserted at i, t), have two
    roots.  Each x is reached from c by dropping the other positions in
    descending order through `bd`."""
    pk, d = X.packed(), X.dim
    off = pk.dim_offset.tolist()
    # the sets c of 1 to d - 1 positions in a p-face, p = d - 1 or d, as bit masks
    sets = {p: [c for c in range(1, 2 << p) if c.bit_count() < d] for p in (d - 1, d)}
    first = {d: 0, d - 1: (off[d + 1] - off[d]) * len(sets[d])}

    def node(p, f, j):  # the node (sets[p][j], f) of the p-face f
        return first[p] + (f - off[p]) * len(sets[p]) + j

    rank = np.zeros(2 << d, dtype=np.int64)
    rank[sets[d]] = np.arange(len(sets[d]))
    cs, t = np.array(sets[d - 1]), np.arange(off[d], off[d + 1])[:, None]
    a = [node(d - 1, s[:, None], np.arange(cs.size)) for s in pk.bd[d].T]
    b = [node(d, t, rank[(cs >> i << (i + 1)) | (cs & ((1 << i) - 1))]) for i in range(d + 1)]
    root = _kernels.components(np.concatenate(a).ravel(), np.concatenate(b).ravel(),
                               node(d - 1, off[d], 0))
    roots = np.zeros(len(pk), dtype=np.int64)
    for p in (d - 1, d):
        f = np.arange(off[p], off[p + 1])
        for j, c in enumerate(sets[p]):
            x, drops = f, [k for k in range(p, -1, -1) if not c >> k & 1]
            for q, k in zip(range(p, 0, -1), drops):  # descending: k is still a position in x
                x = pk.bd[q][x - off[q], k]
            at = node(p, f, j)
            roots += np.bincount(x[root[at] == at], minlength=len(pk))
    return np.flatnonzero(roots > 1)


def _check_link_condition(X: Complex) -> Optional[Face]:
    """First p-face (p <= d-2) whose link is disconnected, if any."""
    if X.dim < 2:
        return None
    bad = _split_links(X)
    return X.packed().face_list[bad[0]] if bad.size else None


def validate(X: Complex) -> ValidationReport:
    """Fill every flag of the report; never raises on bad topology.

    strictly_connected is computed via the link condition for d >= 2 and
    equals strongly_connected for d <= 1 (where strong paths reduce to
    ordinary ones).
    """
    d = X.dim
    witnesses: dict[str, object] = {}

    pure = X.is_pure() and len(X) > 0
    if not pure and len(X) > 0:
        witnesses["pure"] = min(
            (x for x in X.facets() if len(x) - 1 != d), key=face_key
        )

    comps = _count_components(X)
    connected = comps == 1
    if not connected and comps:
        witnesses["connected"] = f"{comps} components"

    branch_witness = _check_non_branching(X)
    non_branching = d >= 1 and branch_witness is None
    if branch_witness is not None:
        witnesses["non_branching"] = branch_witness

    strong = _count_strong_components(X) if pure else 0
    strongly_connected = pure and strong <= 1
    if pure and strong > 1:
        witnesses["strongly_connected"] = f"{strong} strong components"

    lc_witness = _check_link_condition(X)
    link_condition = lc_witness is None
    if lc_witness is not None:
        witnesses["link_condition"] = lc_witness

    strictly_connected = strongly_connected if d <= 1 else link_condition

    is_pseudomanifold = pure and non_branching and strongly_connected
    is_normal = connected and pure and non_branching and strictly_connected and d >= 1
    normal_via_link = is_pseudomanifold and link_condition and connected
    assert is_normal == normal_via_link, (
        "normality routes disagree",
        is_normal,
        normal_via_link,
    )
    return ValidationReport(
        dim=d,
        pure=pure,
        connected=connected,
        non_branching=non_branching,
        strongly_connected=strongly_connected,
        link_condition=link_condition,
        strictly_connected=strictly_connected,
        is_pseudomanifold=is_pseudomanifold,
        is_normal=is_normal,
        witnesses=witnesses,
    )


def links_are_pseudomanifolds(X: Complex) -> tuple[bool, list[Face]]:
    """Check lk(x, X) is a pseudomanifold for every p-face, p <= d-2.

    Precondition: X itself is a pseudomanifold.  Then every such link is
    pure and non-branching, so it is a pseudomanifold exactly when it is
    strongly connected.
    """
    if not (len(X) and X.is_pure() and X.dim >= 1 and _check_non_branching(X) is None
            and _count_strong_components(X) <= 1):  # `validate`'s is_pseudomanifold
        raise ValueError("input is not a pseudomanifold")
    if X.dim < 2:
        return (True, [])
    faces = X.packed().face_list
    bad = [faces[i] for i in _split_strong_links(X).tolist()]
    return (not bad, bad)


def generate_torus(n: int, m: int) -> Complex:
    """Grid triangulation of the torus: n*m vertices, 3nm edges, 2nm triangles."""
    if n < 3 or m < 3:
        raise ValueError("torus grid needs n, m >= 3")

    i, j = np.divmod(np.arange(n * m), m)

    def vid(di: int, dj: int):  # the vertex ids of grid point (i + di, j + dj)
        return (i + di) % n * m + (j + dj) % m

    tris = [vid(0, 0), vid(1, 0), vid(0, 1), vid(1, 0), vid(0, 1), vid(1, 1)]
    tris = np.sort(np.stack(tris, axis=1).reshape(-1, 3), axis=1)
    return _closure([np.zeros((0, 1), dtype=np.int64), np.zeros((0, 2), dtype=np.int64), tris])
