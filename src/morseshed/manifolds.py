"""Pseudomanifold and normal-pseudomanifold validation.

Normality is checked two ways: through strict connectivity (every
connected open subset strongly connected) and through the classical link
condition.  The two routes are provably equivalent on pseudomanifolds;
`validate` computes both and asserts they agree.  Strict connectivity is
never decided by subset enumeration in production -- the exponential
enumeration lives in `strictly_connected_oracle`, a test-only oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .complexes import (
    Complex,
    Face,
    closure,
    connected_components,
    face_key,
    strong_connected_components,
)


def link(x: Face, X: Complex) -> Complex:
    """lk(x, X) = {y : x and y disjoint, their union a face of X}.

    Each such union is a face of the star of x, and y is what remains of
    it once x is removed."""
    xs = set(x)
    return Complex(
        {tuple(v for v in y if v not in xs) for y in X.star(x) if y != x},
        _trusted=True,
    )


def star(x: Face, X: Complex) -> frozenset[Face]:
    """st(x, X): all faces containing x (an open subset of X)."""
    return X.star(x)


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
    d = X.dim
    for z in X.faces_of_dim(d - 1):
        if len(X.cofaces[z]) != 2:
            return z
    return None


def _check_link_condition(X: Complex) -> Optional[Face]:
    """First p-face (p <= d-2) whose link is disconnected, if any."""
    d = X.dim
    for p in range(0, d - 1):
        for x in X.faces_of_dim(p):
            lk = link(x, X)
            if len(connected_components(lk)) > 1:
                return x
    return None


def validate(X: Complex) -> ValidationReport:
    """Fill every flag of the report; never raises on bad topology.

    strictly_connected is computed via the link condition for d >= 2 and
    equals strongly_connected for d <= 1 (where strong paths reduce to
    ordinary ones).
    """
    d = X.dim
    witnesses: dict[str, object] = {}

    pure = X.is_pure() and len(X.faces) > 0
    if not pure and len(X.faces) > 0:
        witnesses["pure"] = min(
            (x for x in X.facets() if len(x) - 1 != d), key=face_key
        )

    comps = connected_components(X)
    connected = len(comps) == 1
    if not connected and comps:
        witnesses["connected"] = f"{len(comps)} components"

    branch_witness = _check_non_branching(X) if d >= 1 else None
    non_branching = d >= 1 and branch_witness is None
    if branch_witness is not None:
        witnesses["non_branching"] = branch_witness

    strong = strong_connected_components(X, d=d) if pure else []
    strongly_connected = pure and len(strong) <= 1
    if pure and len(strong) > 1:
        witnesses["strongly_connected"] = f"{len(strong)} strong components"

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

    Precondition: X itself is a pseudomanifold.
    """
    rep = validate(X)
    if not rep.is_pseudomanifold:
        raise ValueError("input is not a pseudomanifold")
    bad: list[Face] = []
    for p in range(0, X.dim - 1):
        for x in X.faces_of_dim(p):
            if not validate(link(x, X)).is_pseudomanifold:
                bad.append(x)
    return (not bad, bad)


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
    result = True

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


def generate_torus(n: int, m: int) -> Complex:
    """Grid triangulation of the torus: n*m vertices, 3nm edges, 2nm triangles."""
    if n < 3 or m < 3:
        raise ValueError("torus grid needs n, m >= 3")

    def vid(i: int, j: int) -> int:
        return (i % n) * m + (j % m)

    tris = []
    for i in range(n):
        for j in range(m):
            tris.append((vid(i, j), vid(i + 1, j), vid(i, j + 1)))
            tris.append((vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
    return closure(tris)
