"""Pseudomanifold and normal-pseudomanifold validation.

Normality is checked two ways: through strict connectivity (every
connected open subset strongly connected) and through the classical link
condition.  The two routes are provably equivalent on pseudomanifolds;
`validate` computes both and asserts they agree.  Strict connectivity is
never decided by subset enumeration in production -- the exponential
enumeration lives in `oracles.strictly_connected_oracle`, a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import _kernels
from .complexes import (
    Complex,
    Face,
    _closure,
    _connected_labels,
    _strong_labels,
    face_key,
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


def _split_links(X: Complex, strong: bool = False):
    """Indexes, ascending, of the p-faces x (p <= d-2) whose link is
    disconnected or, with `strong`, not strongly connected.

    lk(x) is connected exactly when the faces strictly containing x are
    connected along covering pairs, so every link is labelled in one
    pass: the nodes are the inclusion pairs (x, y) with dim x <= d-2, and
    (x, y) meets (x, w) when w is a boundary face of y.  With `strong`,
    only the pairs with dim y >= d-1 are nodes: the d-faces around x
    joined through the (d-1)-faces around x.  A face whose nodes have two
    roots is split.
    """
    pk = X.packed()
    n, off = len(pk), pk.dim_offset.tolist()
    sub, sup = pk.inclusion_pairs
    low = sub < pk.seps.start
    if strong:
        low &= sup >= pk.seps.start
    key = np.sort(sub[low] * n + sup[low])  # node i is the pair key[i]
    x, y = np.divmod(key, n)
    a, b = [], []
    for q, bd in enumerate(pk.bd[1:], start=1):
        at = np.flatnonzero((y >= off[q]) & (y < off[q + 1]))
        cand = x[at, None] * n + bd[y[at] - off[q]]
        pos = np.minimum(np.searchsorted(key, cand), key.size - 1)
        hit = key[pos] == cand
        a.append(pos[hit])
        b.append(np.broadcast_to(at[:, None], cand.shape)[hit])
    root = _kernels.components(np.concatenate(a), np.concatenate(b), key.size)
    roots = np.bincount(x[root == np.arange(key.size)], minlength=n)
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
    d, pk = X.dim, X.packed()
    witnesses: dict[str, object] = {}
    every = np.ones(len(pk), dtype=np.bool_)
    faces = np.arange(len(pk))  # a component is labelled by one of its faces

    pure = X.is_pure() and len(X) > 0
    if not pure and len(X) > 0:
        witnesses["pure"] = min(
            (x for x in X.facets() if len(x) - 1 != d), key=face_key
        )

    comps = int(np.count_nonzero(_connected_labels(pk, every) == faces))
    connected = comps == 1
    if not connected and comps:
        witnesses["connected"] = f"{comps} components"

    branch_witness = _check_non_branching(X)
    non_branching = d >= 1 and branch_witness is None
    if branch_witness is not None:
        witnesses["non_branching"] = branch_witness

    strong = int(np.count_nonzero(_strong_labels(pk, every, d) == faces)) if pure else 0
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
    rep = validate(X)
    if not rep.is_pseudomanifold:
        raise ValueError("input is not a pseudomanifold")
    if X.dim < 2:
        return (True, [])
    faces = X.packed().face_list
    bad = [faces[i] for i in _split_links(X, strong=True).tolist()]
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
