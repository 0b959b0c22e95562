"""Morse stacks: flat pairs, gradient fields, generation.

A Morse stack is a simplicial stack where every face belongs to at most
one flat pair (covering pair of equal altitude).  The flat pairs form
the gradient vector field; faces outside it are critical.  Backward
gradient-path steps are deterministic on normal pseudomanifolds, which
the watershed routes exploit; the gradient paths, the traces along them
and the dual check are in `definitions`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from . import _kernels
from .complexes import Complex, Face, face_key
from .stacks import Stack, StackError


@dataclass(frozen=True)
class GradientField:
    """An acyclic partial matching of covering pairs (x, y), x below y."""

    pairs: frozenset[tuple[Face, Face]]


def flat_pairs(F: Stack) -> set[tuple[Face, Face]]:
    """All covering pairs with equal altitude."""
    pk, alt = F.host.packed(), F.alt_array()
    flat = alt[pk.sub] == alt[pk.sup]
    faces = pk.face_list
    return {(faces[x], faces[y]) for x, y in zip(pk.sub[flat].tolist(), pk.sup[flat].tolist())}


def is_morse(F: Stack) -> tuple[bool, Optional[Face]]:
    """True iff no face lies in two flat pairs; witness the smallest
    offender in canonical order."""
    pk = F.host.packed()
    i = _kernels.flat_matching_offender(pk.sub, pk.sup, F.alt_array(), len(pk))
    return (True, None) if i < 0 else (False, pk.face_list[i])


def _require_morse(F: Stack) -> None:
    """Raise StackError, naming `is_morse`'s witness, unless F is Morse."""
    ok, witness = is_morse(F)
    if not ok:
        raise StackError(f"not a Morse stack (witness {witness})")


def gradient(F: Stack) -> GradientField:
    _require_morse(F)
    return GradientField(frozenset(flat_pairs(F)))


@dataclass(frozen=True)
class CriticalReport:
    regular: frozenset[Face]
    critical: frozenset[Face]

    def critical_of_dim(self, p: int) -> list[Face]:
        return sorted((x for x in self.critical if len(x) - 1 == p), key=face_key)


def classify(F: Stack) -> CriticalReport:
    """Split faces into regular (in a flat pair) and critical."""
    grad = gradient(F)
    regular = frozenset(f for pair in grad.pairs for f in pair)
    return CriticalReport(regular, frozenset(F.host.faces) - regular)


def random_morse_stack(X: Complex, seed: int = 0, n_minima: int = 1) -> Stack:
    """Morse stack by random free-pair removal.

    Repeatedly remove a uniformly random free pair of the remaining
    complex when one exists, otherwise a uniformly random facet; the
    altitude of a face is its removal step index.  The gradient of the
    result is exactly the set of removed pairs.

    On a closed pseudomanifold this process gets stuck at the top
    dimension exactly once (a proper subcomplex always has a free
    d-pair), so the output has a single minimum and an empty watershed.
    Passing n_minima > 1 removes that many uniformly random d-faces up
    front instead (every d-face when there are fewer), which on a closed
    pseudomanifold yields one regional minimum per removed d-face;
    n_minima = 1 is the plain process, and n_minima < 1 raises ValueError.
    """
    if n_minima < 1:
        raise ValueError(f"n_minima must be >= 1, not {n_minima}")
    if not X.faces:
        return Stack(X, {})
    rng = random.Random(seed)
    ncof = {x: len(X.cofaces[x]) for x in X.faces}
    remaining = set(X.faces)

    def unique_coface(x: Face) -> Optional[Face]:
        live = [y for y in X.cofaces[x] if y in remaining]
        return live[0] if len(live) == 1 else None

    def is_free(x: Face) -> bool:
        if x not in remaining or ncof[x] != 1:
            return False
        y = unique_coface(x)
        return y is not None and ncof[y] == 0

    # candidate pools: a list for O(1) uniform sampling plus a set marking
    # which list entries are live (stale duplicates are skipped on pop)
    free = sorted((x for x in X.faces if is_free(x)), key=face_key)
    free_set = set(free)
    facets = sorted((x for x in X.faces if ncof[x] == 0), key=face_key)
    facet_set = set(facets)

    def sample(pool: list[Face], pool_set: set[Face]) -> Face:
        while True:
            i = rng.randrange(len(pool))
            pool[i], pool[-1] = pool[-1], pool[i]
            x = pool.pop()
            if x in pool_set:
                pool_set.discard(x)
                return x

    def add_free(z: Face) -> None:
        if z not in free_set and is_free(z):
            free_set.add(z)
            free.append(z)

    alt: dict[Face, int] = {}
    step = 0

    def drop(x: Face) -> None:
        remaining.discard(x)
        free_set.discard(x)
        facet_set.discard(x)
        for z in X.boundary[x]:
            if z in remaining:
                ncof[z] -= 1
                if ncof[z] == 0:
                    facet_set.add(z)
                    facets.append(z)
                    free_set.discard(z)
                    # z just became a facet: its boundary faces may now
                    # form free pairs with it
                    for w in X.boundary[z]:
                        add_free(w)
                elif ncof[z] == 1:
                    add_free(z)

    if n_minima > 1:
        # forced removals stay in the top dimension: a lower face promoted
        # to facet by earlier removals would not become a regional minimum
        tops = [x for x in X.by_dim.get(X.dim, []) if x in facet_set]
        rng.shuffle(tops)
        for x in tops[:n_minima]:
            step += 1
            alt[x] = step
            drop(x)

    while remaining:
        step += 1
        if free_set:
            x = sample(free, free_set)
            y = unique_coface(x)
            alt[x] = alt[y] = step
            drop(y)
            drop(x)
        else:
            x = sample(facets, facet_set)
            alt[x] = step
            drop(x)
    return Stack(X, alt)


def stack_from_gradient(X: Complex, V: GradientField) -> Stack:
    """Morse stack realizing a given acyclic matching as its gradient.

    Matched pairs are contracted to one node; every unmatched covering
    pair (x, y) contributes an arc node(y) -> node(x) (x needs the
    strictly larger altitude).  Longest-path layering over the
    contracted DAG assigns the altitudes.
    """
    partner: dict[Face, Face] = {}
    for x, y in V.pairs:
        if x in partner or y in partner:
            raise ValueError("gradient pairs must form a matching")
        if y not in X.faces or x not in set(X.boundary[y]):
            raise ValueError(f"({x}, {y}) is not a covering pair of the complex")
        partner[x] = y
        partner[y] = x

    def node(f: Face) -> Face:
        p = partner.get(f)
        return min(f, p, key=face_key) if p is not None else f

    succs: dict[Face, set[Face]] = {node(f): set() for f in X.faces}
    indeg: dict[Face, int] = {n: 0 for n in succs}
    for y in X.faces:
        for x in X.boundary[y]:
            if partner.get(x) == y:
                continue
            ny, nx = node(y), node(x)
            if nx not in succs[ny]:
                succs[ny].add(nx)
                indeg[nx] += 1

    # Kahn layering; a leftover node means the matching has a V-cycle
    value: dict[Face, int] = {}
    ready = sorted((n for n, k in indeg.items() if k == 0), key=face_key)
    order = []
    while ready:
        n = ready.pop()
        order.append(n)
        for m in succs[n]:
            indeg[m] -= 1
            if indeg[m] == 0:
                ready.append(m)
    if len(order) != len(succs):
        raise ValueError("gradient field contains a cycle")
    for n in order:
        value.setdefault(n, 1)
        for m in succs[n]:
            value[m] = max(value.get(m, 1), value[n] + 1)
    alt = {f: value[node(f)] for f in X.faces}
    return Stack(X, alt)
