"""Morse stacks: flat pairs, gradient fields, gradient paths.

A Morse stack is a simplicial stack where every face belongs to at most
one flat pair (covering pair of equal altitude).  The flat pairs form
the gradient vector field; faces outside it are critical.  Backward
gradient-path steps are deterministic on normal pseudomanifolds, which
is what the tracing and watershed algorithms exploit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional

from . import _kernels
from .complexes import Complex, Face, face_key
from .stacks import Stack, StackError


@dataclass(frozen=True)
class GradientField:
    """An acyclic partial matching of covering pairs (x, y), x below y."""

    pairs: frozenset[tuple[Face, Face]]

    def partner(self) -> dict[Face, Face]:
        out: dict[Face, Face] = {}
        for x, y in self.pairs:
            out[x] = y
            out[y] = x
        return out


def flat_pairs(F: Stack) -> set[tuple[Face, Face]]:
    """All covering pairs with equal altitude."""
    pk, alt = F.host.packed(), F.alt_array()
    flat = alt[pk.sub] == alt[pk.sup]
    faces = pk.faces
    return {(faces[x], faces[y]) for x, y in zip(pk.sub[flat].tolist(), pk.sup[flat].tolist())}


def is_morse(F: Stack) -> tuple[bool, Optional[Face]]:
    """True iff no face lies in two flat pairs; witness the smallest
    offender in canonical order."""
    pk = F.host.packed()
    i = _kernels.flat_matching_offender(pk.sub, pk.sup, F.alt_array(), len(pk))
    return (True, None) if i < 0 else (False, pk.faces[i])


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


# -- gradient paths ----------------------------------------------------------


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
    out = set()
    for z in F.host.faces_of_dim(F.host.dim - 1):
        cof = F.host.cofaces[z]
        if len(cof) == 2 and all(F.altitude[y] < F.altitude[z] for y in cof):
            out.add(z)
    return out


def biconnected_faces(F: Stack) -> set[Face]:
    """(d-1)-faces whose two cofaces trace to distinct minima."""
    mins = trace_all(F)
    out = set()
    for z in F.host.faces_of_dim(F.host.dim - 1):
        cof = F.host.cofaces[z]
        if len(cof) == 2 and mins[cof[0]] != mins[cof[1]]:
            out.add(z)
    return out


# -- generation and the discrete-Morse bridge --------------------------------


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
    from .stacks import validate_stack

    lhs = validate_stack(F)[0] and is_morse(F)[0]
    rhs = _is_flat_dmf(F.host, F.negate())
    return lhs == rhs
