"""The paper's definitions, face by face on tuples: the tests' references.

Covering and free pairs, collapses, and open and closed subsets of a
complex; free pairs and unit or batch collapses of a stack; gradient
paths, the trace of each d-face to its minimum, separating and
biconnected faces; the dual of a Morse stack.  The engine modules
compute on the packed arrays only.  Of the package, only the root and
`watershed` (for the direct route) import this module.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

from .complexes import Complex, Face, face_key, proper_subfaces
from .morse import is_morse
from .stacks import Stack, StackError, validate_stack


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
        p and p-1, steps are flat or differential pairs, altitudes ascend
        and strictly increase every two steps."""
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
        for i in range(len(fs) - 2):
            if F.altitude[fs[i]] >= F.altitude[fs[i + 2]]:
                raise ValueError(f"altitudes not strictly increasing at {i}")
        if len(fs) > 1 and fs[0] == fs[-1]:
            raise ValueError("gradient paths cannot be closed")


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
