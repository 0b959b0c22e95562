"""Simplicial stacks: integer altitudes monotone under face inclusion.

A stack is a map F from the faces of a host complex to Z whose upper
level sets F[lambda] are all subcomplexes, i.e. F(x) >= F(y) on every
covering pair (x, y).  A `Stack` holds F as one int64 array aligned with
the packed order of its host, which every route reads (`alt_array()`).
Its face-keyed map `altitude` is the mapping the stack was built from,
or, for a stack built from an array, a dict built on first read by
`complexes._LazyViews`.  Stacks are immutable; collapses return new
stacks sharing the host complex.  Free pairs and elementary collapses
of a stack are in `definitions`.

What no stack changes belongs to the host, which builds it once (the
facet graph, and the smallest d-cofaces that the watershed routes'
label assembly reads), and the stack parser keeps the hosts it packed
(`io`), so the stacks it reads on one host in one thread share that
host and build these once between them; what a stack changes is read
from F per call.
`_inert_forest` reads it with one gather of F across all covering
pairs, which decides whether F is a stack and, on the (d-1, d) pairs
that end the list, whether its ties are inert, and gives the flat-link
forest that the collapse and both watershed routes follow.
"""

from __future__ import annotations

import math
import operator
import random
from collections.abc import Mapping
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Optional

import numpy as np

from . import _kernels
from .complexes import (
    _INT64_MAX, _INT64_MIN, Complex, Face, _LazyViews, _from_arrays, _grouped, _masked_complex,
    face_key,
)


class StackError(ValueError):
    pass


def _altitude_error(host: Complex, altitude: Mapping[Face, int]) -> StackError:
    """The error of an altitude map that no stack on `host` has: a missing
    face, else an extra one, else the first bad value in canonical order."""
    missing = host.faces - altitude.keys()
    if missing:
        return StackError(f"altitude missing on {min(missing, key=face_key)}")
    if len(altitude) != len(host):
        extra = min(altitude.keys() - host.faces, key=face_key)
        return StackError(f"altitude on {extra}, which is not a face of the host")
    for x in host.sorted_faces():
        v = altitude[x]
        try:
            operator.index(v)
        except TypeError:
            return StackError(f"altitude {v!r} of {x} is not an integer")
        if not _INT64_MIN <= v <= _INT64_MAX:
            return StackError(f"altitude {v} of {x} is outside the int64 range")
    raise AssertionError("a valid altitude map has no error")


@dataclass(frozen=True, eq=False)
class Stack(_LazyViews):
    """One int64 altitude per face of `host`, least `lambda_min` (0 on the
    empty host).  Built from a mapping, a stack checks it once (every face
    and no other, integers in the int64 range) and converts it in one pass.
    Two stacks are equal when their hosts and altitude arrays are."""

    host: Complex
    altitude: Mapping[Face, int]
    lambda_min: int = field(init=False)

    _VIEWS = {"altitude": lambda F: _altitude_view(F)}

    def __post_init__(self):
        X, alt = self.host, self.altitude
        values = map(operator.index, map(alt.__getitem__, X.sorted_faces()))
        try:
            arr = np.fromiter(values, dtype=np.int64, count=len(X))
        except (KeyError, TypeError, OverflowError):
            arr = None
        if arr is None or len(alt) != len(X):
            raise _altitude_error(X, alt)
        object.__setattr__(self, "_alt", arr)
        object.__setattr__(self, "lambda_min", int(arr.min()) if arr.size else 0)

    def __eq__(self, other) -> bool:
        return isinstance(other, Stack) and (
            self.host == other.host and np.array_equal(self._alt, other._alt))

    __hash__ = None

    def __call__(self, x: Face) -> int:
        return self.altitude[x]

    def alt_array(self):
        """Altitudes as an int64 array aligned with host.sorted_faces()
        (and hence with host.packed())."""
        return self._alt

    def with_altitudes(self, updates: Mapping[Face, int]) -> "Stack":
        alt = dict(self.altitude)
        alt.update(updates)
        return Stack(self.host, alt)

    def negate(self) -> dict[Face, int]:
        return {x: -v for x, v in self.altitude.items()}


def _value_table(values, lo: int):
    """(table, index) with `table[index]` equal to the int64 array `values`,
    none of whose entries is below `lo`: the values lo..hi and values - lo
    when that range has at most one entry per value, else the values
    themselves and 0..n-1.  The writers format only the table, and the
    altitude view makes one int object per table entry."""
    hi = int(values.max(initial=lo))
    if hi - lo <= values.size:
        return np.arange(lo, hi + 1, dtype=np.int64), values - lo if lo else values
    return values, np.arange(values.size)


def _altitude_view(F: Stack) -> dict[Face, int]:
    """The face-keyed altitudes of F, the faces of one altitude sharing one
    int object (as the two faces removed at one step of
    `random_morse_stack` do) when `_value_table` gives a table of lo..hi."""
    table, index = _value_table(F._alt, F.lambda_min)
    return dict(zip(F.host.sorted_faces(), map(table.tolist().__getitem__, index.tolist())))


def validate_stack(F: Stack) -> tuple[bool, Optional[tuple[Face, Face]]]:
    """Check F(x) >= F(y) on every covering pair; witness the first violation
    in packed order (y canonical, then x in drop-vertex-i order)."""
    pk = F.host.packed()
    alt = F.alt_array()
    bad = np.flatnonzero(alt[pk.sub] < alt[pk.sup])
    if bad.size == 0:
        return True, None
    k = bad[0]
    return False, (pk.face_list[pk.sub[k]], pk.face_list[pk.sup[k]])


def section(F: Stack, lam: int) -> Complex:
    """The lambda-section {x : F(x) >= lambda}, a subcomplex of the host."""
    return _masked_complex(F.host.packed(), F.alt_array() >= lam)


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


def _flat_zones(F: Stack):
    """(root, rank) of `_kernels.flat_zones` on the packed host of F: each
    face's flat-zone root, and the rank of its minimum (0 off the minima)."""
    pk = F.host.packed()
    return _kernels.flat_zones(pk.sub, pk.sup, F.alt_array(), len(pk))


def minima(F: Stack) -> MinimaDecomposition:
    """Regional minima and divide of F.

    A flat zone (component of equal-altitude faces under covering
    adjacency) is a minimum iff no member has a lower covering
    neighbour; this matches the level-set definition.  One array
    labelling of the packed host finds the zones, numbered by their
    smallest face in canonical order.
    """
    pk, alt = F.host.packed(), F.alt_array()
    root, rank = _flat_zones(F)
    ranks, groups = _grouped(pk.face_list, rank)
    divide = groups.pop(0) if ranks[:1] == [0] else ()
    levels = alt[(rank > 0) & (root == np.arange(len(pk)))].tolist()  # by root, so by rank
    return MinimaDecomposition(tuple(zip(map(frozenset, groups), levels)), frozenset(divide))


def _facet_adjacency(F: Stack):
    """The facet graph (lo, hi) of the host, which it builds once and
    keeps (`Complex.facet_graph`): the check both watershed routes
    run first.  A host of dimension d >= 1 must be pure of dimension d
    with exactly two d-faces on every (d-1)-face."""
    try:
        return F.host.packed().facet_graph
    except ValueError as exc:
        raise StackError(str(exc)) from exc


def ultimate_d_collapse(F: Stack, seed: int = 0) -> Stack:
    """Collapse through free d-pairs until none remains.

    Where `_inert_forest` shows that F is a stack on which no tie can
    change the result, the collapse is fixed before any pair is popped:
    each d-face sinks to the altitude of the root of its flat-link forest,
    and so does its flat (d-1)-face.  One pointer-jumping pass
    (`_kernels._jump`) finds the roots in O(n log depth) numpy work on n
    d-faces; no heap, Python loop or generator runs.  The test is
    sufficient, not necessary, and holds on every Morse stack; an array
    that is no stack takes the heap, whose result no tie order changes
    there either when its (d-1, d) ties are inert.

    On any other stack the seed picks one valid collapse: `_heap_collapse`
    pops the free pairs lowest first, ties broken by a permutation of the
    (d-1)-faces shuffled by `seed`, in O(n log n) time.  The host check and
    the facet graph are those of the host (`_facet_adjacency`), built once
    for every stack on it.  Collapses that lower a pair one level a step
    are `definitions.stack_collapse`.
    """
    return _ultimate_d_collapse(F, seed)[0]


def _inert_forest(F: Stack):
    """The flat-link parent array of the d-faces of F where F is a stack
    and no tie order can change its collapse, else None: each d-face
    points across a flat (d-1)-face to the d-face on its other side, and
    a d-face with no flat (d-1)-face points to itself.  The ties are inert
    when no (d-1)-face is flat with both its d-faces and no d-face has two
    flat (d-1)-faces; on a stack every parent is then strictly lower, so
    the links form a forest, which `_kernels._jump` resolves.

    Then each d-face y has at most one pair (s, y) that can lower it: its
    one flat (d-1)-face s, whose other d-face z is lower than y.  A
    collapse leaves its (d-1)-face flat with both d-faces, so it frees no
    new pair on y unless a d-face is lowered twice.  The heap pops targets
    lowest first, so z is final when y is lowered: the target strictly
    decreases along the chain y, z, ..., and y is lowered once, to the
    final altitude of z, which is that of the chain's last d-face (a root
    of the flat-link forest).  The heap then receives the same entries for
    every tie order, so H, the collapse count and the pop count are the
    same for every permutation of the ranks.

    One gather of F across all covering pairs decides all of it: F is a
    stack when no pair rises, and the (d-1, d) pairs (`Complex.top_pairs`)
    give the flat pairs, the tie test (a d-face repeated among them, which
    come by d-face, or a (d-1)-face counted twice) and the parents."""
    (lo, hi), pk, arr = _facet_adjacency(F), F.host.packed(), F.alt_array()
    below, above = arr[pk.sub], arr[pk.sup]
    if (below < above).any():
        return None
    t = pk.top_pairs()
    k = np.flatnonzero(below[t] == above[t])
    y = pk.sup[t][k] - pk.tops.start  # the d-face of each flat pair, ascending
    s = pk.sub[t][k] - pk.seps.start  # and its (d-1)-face
    if (y[1:] == y[:-1]).any() or np.bincount(s).max(initial=0) > 1:
        return None
    parent = np.arange(len(pk) - pk.tops.start)
    parent[y] = lo[s] + hi[s] - y
    return parent


def _ultimate_d_collapse(F: Stack, seed: int) -> tuple[Stack, int, int]:
    """ultimate_d_collapse, plus its numbers of collapses and heap pops
    (no pops where the ties are inert)."""
    lo, hi = _facet_adjacency(F)
    if (parent := _inert_forest(F)) is None:
        rank = list(range(lo.size))
        random.Random(seed).shuffle(rank)
        return _heap_collapse(F, rank)
    pk, arr = F.host.packed(), F.alt_array()
    v, ta = arr[pk.seps], arr[pk.tops]
    sunk = ta[_kernels._jump(parent)]  # the altitude of its root
    flat = (ta[lo] == v) | (ta[hi] == v)  # one per non-root d-face, which it lowers
    arr = arr.copy()
    arr[pk.tops] = sunk
    arr[pk.seps] = np.where(flat, sunk[lo], v)
    return _stack_from_array(F.host, arr), int(np.count_nonzero(flat)), 0


def _heap_collapse(F: Stack, rank) -> tuple[Stack, int, int]:
    """The ultimate d-collapse of F from a binary heap, ties broken by
    `rank`, a permutation of 0..n-1 over the n (d-1)-faces; with its
    numbers of collapses and heap pops.

    The heap holds the free pairs, lowest first, under one int key
    target * n + r, where r ranks the pair's (d-1)-face; the keys sort as
    (target, r).  A live-key list holds the key under which each pair is
    queued, or None when it is not free.  A collapse lowers a pair to the
    altitude of its other coface and re-keys the pairs on the lowered
    facet, so a popped key that is no longer live is stale.
    """
    lo, hi = _facet_adjacency(F)
    X = F.host
    pk = X.packed()
    arr = F.alt_array().copy()
    n, lam = lo.size, F.lambda_min
    rank = np.asarray(rank, dtype=np.int64)
    # the pair on (d-1)-face s is free when s is above lam and exactly one of
    # its d-faces is flat with it; no altitude falls below lam, F's least, so
    # the target max(other d-face, lam) is the other d-face
    v, a, b = arr[pk.seps], arr[pk.tops][lo], arr[pk.tops][hi]
    free = np.flatnonzero((v > lam) & ((a == v) != (b == v)))
    v, a, b, r = v[free], a[free], b[free], rank[free]
    t = np.where(a == v, b, a)
    heap = [ts * n + rs for ts, rs in zip(t.tolist(), r.tolist())]  # t * n overflows int64
    code = np.full(n, None, dtype=object)
    code[r] = heap
    code = code.tolist()  # the live key of each pair, by rank
    heapify(heap)
    # from here a (d-1)-face is named by its rank: key t * n + r is face r
    by_rank = np.argsort(rank)
    lo, hi = lo[by_rank].tolist(), hi[by_rank].tolist()  # its two d-faces
    bd = rank[pk.bd[X.dim] - pk.seps.start].tolist()  # the (d-1)-faces of each d-face
    sa, ta = arr[pk.seps][by_rank].tolist(), arr[pk.tops].tolist()
    collapses = pops = 0
    while heap:
        key = heappop(heap)
        pops += 1
        s = key % n
        if code[s] != key:  # not free, or queued again under another key
            continue
        y = lo[s] if ta[lo[s]] == sa[s] else hi[s]  # the flat coface
        sa[s] = ta[y] = key // n
        collapses += 1
        for w in bd[y]:  # every pair that reads ta[y]
            v, a, b = sa[w], ta[lo[w]], ta[hi[w]]
            if v <= lam or (a == v) == (b == v):
                code[w] = None
            else:
                code[w] = k = (b if a == v else a) * n + w
                heappush(heap, k)
    arr[pk.seps] = np.array(sa, dtype=np.int64)[rank]
    arr[pk.tops] = ta
    return _stack_from_array(X, arr), collapses, pops


def _stack_from_array(host: Complex, arr) -> Stack:
    """The stack with the int64 altitudes `arr` in the packed order of
    `host`: alt_array() returns `arr`, and `altitude` is built on read."""
    lam = int(arr.min()) if arr.size else 0
    return _from_arrays(Stack, host=host, _alt=arr, lambda_min=lam)


def complete_from_facets(host: Complex, facet_values: Mapping[Face, int]) -> Stack:
    """Extend values downward by maxima: a face keeps its value in
    `facet_values`, and any other face takes the maximum over its cofaces.
    Every facet needs a value.

    One `np.maximum.at` per dimension, from the top down, runs over the
    covering pairs whose lower face has no value of its own, and the
    values are converted to int64 once (`_altitude_error` on a failure)."""
    pk = host.packed()
    faces = pk.face_list
    listed = list(map(facet_values.get, faces))
    given = np.array([v is not None for v in listed], dtype=np.bool_)
    missing = np.flatnonzero(~given & (pk.n_cofaces == 0))
    if missing.size:
        raise StackError(f"no altitude for facet {faces[missing[0]]}")
    # the values as given, so that a value that is no int64 is named; every
    # face without one takes a value from a coface
    alt = np.full(len(pk), -math.inf, dtype=object)
    alt[given] = [v for v in listed if v is not None]
    keep = ~given[pk.sub]
    sub, sup = pk.sub[keep], pk.sup[keep]
    cut = np.searchsorted(sup, pk.dim_offset).tolist()  # sup is ascending
    for p in range(host.dim, 0, -1):
        np.maximum.at(alt, sub[cut[p]:cut[p + 1]], alt[sup[cut[p]:cut[p + 1]]])
    try:
        arr = np.fromiter(map(operator.index, alt.tolist()), dtype=np.int64, count=len(pk))
    except (TypeError, OverflowError):
        raise _altitude_error(host, dict(zip(faces, alt.tolist()))) from None
    return _stack_from_array(host, arr)


def random_stack(host: Complex, seed: int, low: int = 0, high: int = 5) -> Stack:
    """Uniform random facet values completed downward by maxima."""
    rng = random.Random(seed)
    vals = {x: rng.randint(low, high) for x in host.facets()}
    return complete_from_facets(host, vals)
