"""Morse stacks: flat pairs, gradient fields, generation.

A Morse stack is a simplicial stack where every face belongs to at most
one flat pair (covering pair of equal altitude).  The flat pairs form
the gradient vector field; faces outside it are critical.  Backward
gradient-path steps are deterministic on normal pseudomanifolds, which
the watershed routes exploit; the gradient paths, the traces along them
and the dual check are in `definitions`.

`random_morse_stack`, the seeded generator behind the tests, the
benchmark and `morseshed gen random-morse`, removes random free pairs on
the packed host: integer face indexes, the boundary rows `bd` and the
coface counts, with no face tuple.  `stack_from_gradient` still walks
the tuple-keyed views.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .complexes import Complex, Face, face_key
from .stacks import Stack, StackError, _stack_from_array


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

    The process runs on the packed host, faces named by their index.  Each
    face keeps its number of remaining cofaces and the sum of their
    indexes, so a face with one remaining coface reads that coface off the
    sum.  The free faces and the facets are two candidate lists, drawn
    from uniformly: a face leaves a list lazily, so a drawn entry counts
    only when a membership mask still marks it.  The lists start in
    packed order and grow in boundary order, the order of `pk.bd`.
    """
    if n_minima < 1:
        raise ValueError(f"n_minima must be >= 1, not {n_minima}")
    pk = X.packed()
    n = len(pk)
    rng = random.Random(seed)
    cofsum = np.zeros(n, dtype=np.int64)
    np.add.at(cofsum, pk.sub, pk.sup)
    one, none = pk.n_cofaces == 1, pk.n_cofaces == 0
    is_free = one & none[np.where(one, cofsum, 0)]
    # pool[x]: FREE while x is in the free list, FACET in the facet list
    FREE, FACET = 1, 2
    pool = bytearray((is_free * FREE + none * FACET).astype(np.uint8))
    free = np.flatnonzero(is_free).tolist()
    facets = np.flatnonzero(none).tolist()
    ncof = pk.n_cofaces.tolist()
    cofsum = cofsum.tolist()  # of a face with one remaining coface: that coface
    bd = [()] * len(pk.vertex_ids)
    for rows in pk.bd[1:]:
        bd += rows.tolist()
    n_free = len(free)

    def sample(entries: list[int], mark: int) -> int:
        while True:
            i = rng.randrange(len(entries))
            entries[i], entries[-1] = entries[-1], entries[i]
            x = entries.pop()
            if pool[x] == mark:
                pool[x] = 0
                return x

    def add_free(z: int) -> None:
        nonlocal n_free
        if pool[z] != FREE and ncof[z] == 1 and ncof[cofsum[z]] == 0:
            pool[z] = FREE
            n_free += 1
            free.append(z)

    def drop(x: int) -> None:
        # the remaining faces stay closed, so every boundary face of x remains
        nonlocal n_free
        if pool[x] == FREE:
            n_free -= 1
        pool[x] = 0
        for z in bd[x]:
            ncof[z] -= 1
            cofsum[z] -= x
            if ncof[z] == 0:
                if pool[z] == FREE:
                    n_free -= 1
                pool[z] = FACET
                facets.append(z)
                # z just became a facet: its boundary faces may now
                # form free pairs with it
                for w in bd[z]:
                    add_free(w)
            elif ncof[z] == 1:
                add_free(z)

    alt = [0] * n
    step = 0
    if n_minima > 1:
        # forced removals stay in the top dimension: a lower face promoted
        # to facet by earlier removals would not become a regional minimum
        tops = list(range(pk.tops.start, pk.tops.stop))
        rng.shuffle(tops)
        for x in tops[:n_minima]:
            step += 1
            alt[x] = step
            drop(x)
    removed = step
    while removed < n:
        step += 1
        if n_free:
            x = sample(free, FREE)
            n_free -= 1
            y = cofsum[x]
            alt[x] = alt[y] = step
            drop(y)
            drop(x)
            removed += 2
        else:
            x = sample(facets, FACET)
            alt[x] = step
            drop(x)
            removed += 1
    return _stack_from_array(X, np.array(alt, dtype=np.int64))


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
