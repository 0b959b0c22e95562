"""Simplicial stacks: integer altitudes monotone under face inclusion.

A stack is a map F from the faces of a host complex to Z whose upper
level sets F[lambda] are all subcomplexes, i.e. F(x) >= F(y) on every
covering pair (x, y).  Stacks are immutable; collapses return new stacks
sharing the host complex.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Mapping, Optional

import numpy as np

from .complexes import Complex, Face, face_key


class StackError(ValueError):
    pass


_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


@dataclass(frozen=True)
class Stack:
    host: Complex
    altitude: Mapping[Face, int]
    lambda_min: int = field(init=False)

    def __post_init__(self):
        missing = self.host.faces - self.altitude.keys()
        if missing:
            raise StackError(f"altitude missing on {min(missing, key=face_key)}")
        lam = min(self.altitude.values(), default=0)
        if lam < _INT64_MIN or max(self.altitude.values(), default=0) > _INT64_MAX:
            # alt_array() stores altitudes as int64
            bad = min(
                (x for x, v in self.altitude.items()
                 if not _INT64_MIN <= v <= _INT64_MAX),
                key=face_key,
            )
            raise StackError(
                f"altitude {self.altitude[bad]} of {bad} is outside the int64 range"
            )
        object.__setattr__(self, "lambda_min", lam)

    def __call__(self, x: Face) -> int:
        return self.altitude[x]

    def alt_array(self):
        """Altitudes as an int64 array aligned with host.sorted_faces()
        (and hence with host.packed()); built once and cached."""
        arr = getattr(self, "_alt_array", None)
        if arr is None:
            arr = np.fromiter(
                map(self.altitude.__getitem__, self.host.sorted_faces()),
                dtype=np.int64,
                count=len(self.host.faces),
            )
            object.__setattr__(self, "_alt_array", arr)
        return arr

    def with_altitudes(self, updates: Mapping[Face, int]) -> "Stack":
        alt = dict(self.altitude)
        alt.update(updates)
        return Stack(self.host, alt)

    def negate(self) -> dict[Face, int]:
        return {x: -v for x, v in self.altitude.items()}


def validate_stack(F: Stack) -> tuple[bool, Optional[tuple[Face, Face]]]:
    """Check F(x) >= F(y) on every covering pair; witness the first violation
    in packed order (y canonical, then x in drop-vertex-i order)."""
    pk = F.host.packed()
    alt = F.alt_array()
    bad = np.flatnonzero(alt[pk.sub] < alt[pk.sup])
    if bad.size == 0:
        return True, None
    k = bad[0]
    return False, (pk.faces[pk.sub[k]], pk.faces[pk.sup[k]])


def section(F: Stack, lam: int) -> Complex:
    """The lambda-section {x : F(x) >= lambda}, a subcomplex of the host."""
    return Complex(
        {x for x, v in F.altitude.items() if v >= lam}, _trusted=True
    )


@dataclass(frozen=True)
class MinimaDecomposition:
    minima: tuple[tuple[frozenset[Face], int], ...]
    divide: frozenset[Face]

    @property
    def union(self) -> frozenset[Face]:
        out: set[Face] = set()
        for faces, _ in self.minima:
            out |= faces
        return frozenset(out)


def minima(F: Stack) -> MinimaDecomposition:
    """Regional minima and divide of F.

    A flat zone (component of equal-altitude faces under covering
    adjacency) is a minimum iff no member has a lower covering
    neighbour; this matches the level-set definition and is linear in
    the incidence relations.
    """
    X = F.host
    alt = F.altitude
    parent: dict[Face, Face] = {x: x for x in X.faces}

    def find(x: Face) -> Face:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    lower_faces: set[Face] = set()  # faces with a strictly lower covering neighbour
    for y in X.faces:
        fy = alt[y]
        for x in X.boundary[y]:
            fx = alt[x]
            if fx == fy:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
            elif fx > fy:
                lower_faces.add(x)
            else:  # cannot happen on a valid stack
                lower_faces.add(y)

    zones: dict[Face, set[Face]] = {}
    for x in X.faces:
        zones.setdefault(find(x), set()).add(x)

    has_lower = {find(x) for x in lower_faces}

    mins: list[tuple[frozenset[Face], int]] = []
    divide: set[Face] = set()
    for root, zone in zones.items():
        if root in has_lower:
            divide |= zone
        else:
            mins.append((frozenset(zone), alt[root]))
    mins.sort(key=lambda mz: min(map(face_key, mz[0])))
    return MinimaDecomposition(tuple(mins), frozenset(divide))


def _flat_cofaces(F: Stack, x: Face) -> list[Face]:
    fx = F.altitude[x]
    return [y for y in F.host.cofaces[x] if F.altitude[y] == fx]


def is_stack_free_pair(F: Stack, x: Face, y: Face) -> bool:
    """(x, y) is free for F iff it is free in the section at F(x) > lambda_min.

    On the incidence index: y is x's only flat codim-1 coface and y has
    no flat coface of its own (so y is a facet of the section).
    """
    fx = F.altitude[x]
    if fx <= F.lambda_min or F.altitude.get(y) != fx:
        return False
    if y not in F.host.cofaces[x]:
        return False
    return _flat_cofaces(F, x) == [y] and not _flat_cofaces(F, y)


def stack_free_pairs(F: Stack, p: int | None = None) -> set[tuple[Face, Face]]:
    """All free (p-)pairs of the stack."""
    out: set[tuple[Face, Face]] = set()
    lam_m = F.lambda_min
    for x in F.host.faces:
        fx = F.altitude[x]
        if fx <= lam_m:
            continue
        flats = _flat_cofaces(F, x)
        if len(flats) != 1:
            continue
        y = flats[0]
        if p is not None and len(y) - 1 != p:
            continue
        if not _flat_cofaces(F, y):
            out.add((x, y))
    return out


def stack_collapse(
    F: Stack, pair: tuple[Face, Face], mode: str = "unit"
) -> Stack:
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


def ultimate_d_collapse(F: Stack, seed: int = 0, mode: str = "batch") -> Stack:
    """Collapse through free d-pairs until none remains.

    The worklist holds (d-1)-faces in canonical order shuffled by
    `seed`; a face is re-examined whenever a neighbouring altitude
    drops.  batch and unit modes reach the same ultimate stack for the
    same seed.
    """
    X = F.host
    d = X.dim
    alt = dict(F.altitude)
    lam_m = F.lambda_min
    order = list(X.faces_of_dim(d - 1))
    random.Random(seed).shuffle(order)
    work = deque(order)
    in_work = set(order)
    while work:
        x = work.popleft()
        in_work.discard(x)
        if alt[x] <= lam_m:
            continue
        cof = X.cofaces[x]
        if len(cof) != 2:
            raise StackError("host must be a non-branching pseudomanifold")
        y, z = cof
        if alt[y] != alt[x] and alt[z] != alt[x]:
            continue
        if alt[y] == alt[x] == alt[z]:
            continue  # two flat cofaces: not free
        if alt[z] == alt[x]:
            y, z = z, y
        if mode == "batch":
            v = max(alt[z], lam_m)
        else:
            v = alt[x] - 1
        alt[x] = alt[y] = v
        for w in X.boundary[y]:
            if w not in in_work:
                work.append(w)
                in_work.add(w)
        if mode == "unit" and x not in in_work:
            work.appendleft(x)
            in_work.add(x)
    return Stack(X, alt)


def complete_from_facets(host: Complex, facet_values: Mapping[Face, int]) -> Stack:
    """Extend facet values downward by maxima: F(x) = max over facets containing x."""
    facets = host.facets()
    missing = [x for x in facets if x not in facet_values]
    if missing:
        raise StackError(f"missing facet value for {missing[0]}")
    alt: dict[Face, int] = {x: facet_values[x] for x in facets}
    for p in range(host.dim - 1, -1, -1):
        for x in host.faces_of_dim(p):
            vals = [alt[y] for y in host.cofaces[x]]
            if x in facet_values:
                vals.append(facet_values[x])
            alt[x] = max(vals)
    return Stack(host, alt)


def random_stack(host: Complex, seed: int, low: int = 0, high: int = 5) -> Stack:
    """Uniform random facet values completed downward by maxima."""
    rng = random.Random(seed)
    vals = {x: rng.randint(low, high) for x in host.facets()}
    return complete_from_facets(host, vals)
