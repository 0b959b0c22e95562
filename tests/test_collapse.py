"""The collapse route against the FIFO worklist collapse and the dict label
assembly it replaced."""

import heapq
import random
from collections import deque
from itertools import combinations
from typing import Optional

import numpy as np
import pytest

from morseshed import _kernels, complexes, stacks, watershed
from morseshed.complexes import Complex, closure, connected_components
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import is_morse, random_morse_stack
from morseshed.oracles import stack_free_pairs
from morseshed.stacks import (
    Stack,
    StackError,
    _facet_adjacency,
    _flat_zones,
    _heap_collapse,
    _inert_forest,
    _stack_from_array,
    _ultimate_d_collapse,
    minima,
    random_stack,
    ultimate_d_collapse,
    validate_stack,
)
from morseshed.watershed import (
    WATERSHED_LABEL,
    morse_watershed,
    verify_cut,
    verify_drop_of_water,
    watershed_collapse,
)


def _ref_ultimate_d_collapse(F, seed=0, mode="batch"):
    """Reference: the FIFO worklist of (d-1)-faces in canonical order
    shuffled by `seed`, re-examining a face whenever a neighbouring
    altitude drops."""
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
            continue
        if alt[z] == alt[x]:
            y, z = z, y
        v = max(alt[z], lam_m) if mode == "batch" else alt[x] - 1
        alt[x] = alt[y] = v
        for w in X.boundary[y]:
            if w not in in_work:
                work.append(w)
                in_work.add(w)
        if mode == "unit" and x not in in_work:
            work.appendleft(x)
            in_work.add(x)
    return Stack(X, alt)


def _shuffled_ranks(n, seed):
    """The ranks of n (d-1)-faces shuffled by `seed`, as the collapse
    draws them where ties can act."""
    rank = list(range(n))
    random.Random(seed).shuffle(rank)
    return rank


def _ref_heap_collapse(F, seed, adjacency=None):
    """Reference: the heap loop of (target, rank, face) tuples that
    re-derives a pair's target at every push and pop; the same pops, keys
    and result as `stacks._heap_collapse` under `_shuffled_ranks`."""
    X = F.host
    arr = F.alt_array().copy()
    if X.dim < 1:  # no (d-1)-faces
        return _stack_from_array(X, arr), 0, 0
    if adjacency is None:
        adjacency = _facet_adjacency(F)
    pk = X.packed()
    sep_lo, top_lo = pk.dim_offset[X.dim - 1:X.dim + 1].tolist()
    lo, hi = adjacency
    cof = list(zip(lo.tolist(), hi.tolist()))  # the two d-faces of each (d-1)-face
    bd = (pk.bd[X.dim] - sep_lo).tolist()  # the (d-1)-faces of each d-face
    sa, ta = arr[sep_lo:top_lo].tolist(), arr[top_lo:].tolist()
    lam = F.lambda_min
    rank = _shuffled_ranks(len(sa), seed)

    def target(s: int) -> Optional[int]:
        """The level the pair on (d-1)-face s collapses to; None if not free."""
        v = sa[s]
        y, z = cof[s]
        if v <= lam or (ta[y] == v) == (ta[z] == v):
            return None
        return max(ta[y] if ta[z] == v else ta[z], lam)

    heap = [(t, rank[s], s) for s in range(len(sa)) if (t := target(s)) is not None]
    heapq.heapify(heap)
    collapses = pops = 0
    while heap:
        key, _, s = heapq.heappop(heap)
        pops += 1
        if target(s) != key:  # not free, or stale
            continue
        y, z = cof[s]
        y = y if ta[y] == sa[s] else z  # the flat coface
        sa[s] = ta[y] = key
        collapses += 1
        for w in bd[y]:
            if (t := target(w)) is not None:
                heapq.heappush(heap, (t, rank[w], w))
    arr[sep_lo:top_lo] = sa
    arr[top_lo:] = ta
    return _stack_from_array(X, arr), collapses, pops


def _ref_assemble_result(F, cut_faces):
    """Reference (labels, W, basins): W is the closure of the cut, basins
    are the connected components of its complement, numbered by their
    minimum of F."""
    X = F.host
    W = closure(cut_faces) if cut_faces else Complex(())
    comps = connected_components(X, X.faces - W.faces)
    min_index = {f: i for i, (zone, _) in enumerate(minima(F).minima, start=1) for f in zone}
    labels = {x: WATERSHED_LABEL for x in W.faces}
    basins = []
    for comp in comps:
        ids = {min_index[f] for f in comp if f in min_index}
        bid = min(ids) if ids else 0
        for f in comp:
            labels[f] = bid
        basins.append((bid, frozenset(comp)))
    basins.sort(key=lambda b: b[0])
    return labels, W, tuple(basins)


def _ref_watershed_collapse(F, seed=0):
    """Reference: FIFO collapse, cut where the two d-faces of a (d-1)-face
    lie in different minima of H, then the dict assembly."""
    H = _ref_ultimate_d_collapse(F, seed=seed)
    X = F.host
    label = {f: i for i, (zone, _) in enumerate(minima(H).minima, start=1) for f in zone}
    cut = {
        z for z in X.faces_of_dim(X.dim - 1)
        if label[X.cofaces[z][0]] != label[X.cofaces[z][1]]
    }
    return _ref_assemble_result(F, cut)


def _same_result(r, ref):
    labels, W, basins = ref
    assert r.labels == labels
    assert r.watershed == W
    assert r.basins == basins


def _non_morse_stacks():
    hosts = [generate_torus(n, n) for n in (3, 4, 5)] + [tetrahedron_boundary(), cyc6_host()]
    out = []
    for X in hosts:
        for s in range(12):
            out.append(random_stack(X, seed=s, high=3))
    assert sum(not is_morse(F)[0] for F in out) >= 50
    return out


def test_collapse_matches_fifo_on_morse_stacks():
    for n in range(3, 9):
        X = generate_torus(n, n)
        for s in range(3):
            F = random_morse_stack(X, seed=s, n_minima=1 + 2 * s)
            for seed in range(5):
                H = ultimate_d_collapse(F, seed=seed)
                assert dict(H.altitude) == dict(_ref_ultimate_d_collapse(F, seed).altitude)
                assert H.alt_array().tolist() == [H.altitude[x] for x in X.sorted_faces()]
                _same_result(watershed_collapse(F, seed=seed), _ref_watershed_collapse(F, seed))


def _shifted(F, to):
    """F with every altitude moved by the same amount, so that its lowest
    altitude becomes `to`."""
    arr = F.alt_array()
    return _stack_from_array(F.host, arr - arr.min() + np.int64(to))


def _inert(F):
    """Whether `_inert_forest` sends the collapse of F to its flat-link
    forest rather than to the seeded heap."""
    return _inert_forest(F) is not None


def _check_against_the_tuple_heap(F, seed):
    """`_heap_collapse` under the reference's ranks gives its H, collapse
    and pop counts; `_ultimate_d_collapse` gives its H and collapse count,
    with no pop on the forest path and the reference's pops on the heap.
    Returns (H, collapses, pops) of `_heap_collapse`."""
    ref, ref_collapses, ref_pops = _ref_heap_collapse(F, seed)
    n = F.host.packed().facet_graph[0].size
    H, collapses, pops = _heap_collapse(F, _shuffled_ranks(n, seed))
    assert H.alt_array().tolist() == ref.alt_array().tolist()
    assert (collapses, pops) == (ref_collapses, ref_pops)
    G, g_collapses, g_pops = _ultimate_d_collapse(F, seed)
    assert G.alt_array().tolist() == ref.alt_array().tolist()
    assert (g_collapses, g_pops) == (ref_collapses, 0 if _inert(F) else ref_pops)
    return H, collapses, pops


def test_heap_collapse_matches_the_tuple_heap():
    # int64 keys would overflow on the shifted stacks
    hosts = [generate_torus(n, n) for n in range(3, 9)]
    hosts += [tetrahedron_boundary(), cyc6_host()]
    cases = []
    for X in hosts:
        for s in range(3):
            F = random_morse_stack(X, seed=s, n_minima=1 + s)
            cases += [F, _shifted(F, -2**63 + 10), random_stack(X, seed=s, high=4)]
            arr = np.random.default_rng(s).integers(-3, 4, size=len(X))
            cases.append(_stack_from_array(X, arr))
        cases.append(_shifted(F, 2**62))
    assert sum(F.lambda_min == 2**62 for F in cases) == len(hosts)
    assert 0 < sum(map(_inert, cases)) < len(cases)  # both paths
    for F in cases:
        for seed in range(5):
            _check_against_the_tuple_heap(F, seed)


def test_collapse_is_valid_on_non_morse_stacks():
    for F in _non_morse_stacks():
        d = F.host.dim
        for seed in range(2):
            H = ultimate_d_collapse(F, seed=seed)
            assert validate_stack(H) == (True, None)
            assert stack_free_pairs(H, p=d) == set()
            W = watershed_collapse(F, seed=seed).watershed
            assert verify_cut(F, W)
            assert verify_drop_of_water(F, W)


def test_assembly_matches_dict_assembly_on_fifo_collapse(monkeypatch):
    # the packed assembly applied to the FIFO collapse gives the old labels
    monkeypatch.setattr(watershed, "ultimate_d_collapse", _ref_ultimate_d_collapse)
    for F in _non_morse_stacks():
        for seed in range(2):
            r = watershed.watershed_collapse(F, seed=seed)
            _same_result(r, _ref_watershed_collapse(F, seed))


def test_batch_and_unit_modes_agree_on_cyc6():
    F = cyc6_stack()
    for seed in range(10):
        batch, n_batch, _ = _ultimate_d_collapse(F, seed)
        unit = _ref_ultimate_d_collapse(F, seed, "unit")
        assert dict(batch.altitude) == dict(unit.altitude)
        # the engine lowers each of the 4 non-minimum edges once
        assert n_batch == 4


_SMALL_HOSTS = {  # name: (d, host)
    "cycle-50": (1, lambda: closure((i, (i + 1) % 50) for i in range(50))),
    "sphere-3": (3, lambda: closure(combinations(range(5), 4))),  # the boundary of the 4-simplex
    "sphere-4": (4, lambda: closure(combinations(range(6), 5))),  # and of the 5-simplex
}


@pytest.mark.parametrize("host", ["25", "50", "100", *_SMALL_HOSTS])
def test_each_non_minimum_facet_collapses_once(host):
    if host in _SMALL_HOSTS:  # 150 Morse stacks, 50 each with 1, 2 and 3 minima
        d, build = _SMALL_HOSTS[host]
        X = build()
        assert X.dim == d
        cases = [random_morse_stack(X, seed=s, n_minima=m) for m in (1, 2, 3) for s in range(50)]
    else:  # one Morse stack with 10 minima on TOR(n)
        n = int(host)
        cases = [random_morse_stack(generate_torus(n, n), seed=n, n_minima=10)]
    for F in cases:
        d = F.host.dim
        facets = len(F.host.faces_of_dim(d))
        non_minimum = facets - len(minima(F).minima)
        H, collapses, pops = _heap_collapse(F, np.arange(F.host.packed().facet_graph[0].size))
        assert collapses == non_minimum
        assert pops <= (d + 2) * facets
        assert len(minima(H).minima) == len(minima(F).minima)
        # the flat-link forest lowers each non-minimum facet once, without a pop
        G, g_collapses, g_pops = _ultimate_d_collapse(F, 0)
        assert (g_collapses, g_pops) == (non_minimum, 0)
        assert np.array_equal(G.alt_array(), H.alt_array())


def test_watershed_collapse_builds_no_dict_components(monkeypatch):
    calls = {"connected_components": 0, "closure": 0, "minima": 0}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [
        (complexes, "connected_components"),
        (complexes, "closure"), (watershed, "closure"),
        (stacks, "minima"),
    ]:
        counting(module, name)
    F = random_morse_stack(generate_torus(8, 8), seed=2, n_minima=5)
    r = watershed_collapse(F, seed=3)
    assert calls == {"connected_components": 0, "closure": 0, "minima": 0}
    assert len(r.basins) == 5


def test_watershed_collapse_computes_the_facet_adjacency_once(monkeypatch):
    calls = []
    original = stacks._kernels.top_adjacency

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(stacks._kernels, "top_adjacency", counting)
    # the host keeps its facet graph: once per host, for every stack and call on it
    for n, seed in ((4, 0), (6, 1), (8, 2)):
        calls.clear()
        F = random_morse_stack(generate_torus(n, n), seed=seed, n_minima=3)
        for cseed in range(2):
            r = watershed_collapse(F, seed=cseed)
            assert len(calls) == 1
            assert len(r.basins) == 3
        ultimate_d_collapse(random_stack(F.host, seed=seed))  # another stack, the same host
        assert len(calls) == 1


def test_watershed_collapse_builds_the_assembly_map_once_per_host(monkeypatch):
    calls = []
    build = complexes.Complex._VIEWS["assembly_map"]

    def counting(X):
        calls.append(1)
        return build(X)

    monkeypatch.setitem(complexes.Complex._VIEWS, "assembly_map", counting)
    # 25 stacks on one host, each collapsed under its own seed
    X = generate_torus(12, 12)
    cases = [random_morse_stack(X, seed=s, n_minima=1 + s % 5) for s in range(20)]
    cases += [random_stack(X, seed=s, high=3) for s in range(5)]  # the heap path
    for seed, F in enumerate(cases):
        r = watershed_collapse(F, seed=seed)
        assert np.array_equal(r._label, _ref_two_zone_labels(F, seed))
    assert len(calls) == 1


def _tie_heavy_array(X, seed):
    """Altitudes with many equal d-faces on which no tie order can change
    the collapse: each (d-1)-face lies above both of its d-faces or, at
    random, flat with the higher of two unequal ones that has no flat
    (d-1)-face yet; lower faces are arbitrary."""
    pk = X.packed()
    lo, hi = pk.facet_graph
    rng = np.random.default_rng(seed)
    arr = rng.integers(-3, 4, size=len(pk))
    top = rng.integers(0, 3, size=pk.tops.stop - pk.tops.start)
    sep = np.maximum(top[lo], top[hi]) + 1 + rng.integers(0, 2, size=lo.size)
    flat = set()
    for i in rng.permutation(lo.size).tolist():
        y = lo[i] if top[lo[i]] > top[hi[i]] else hi[i]
        if top[lo[i]] != top[hi[i]] and y not in flat and rng.random() < 0.7:
            flat.add(y)
            sep[i] = top[y]
    arr[pk.tops], arr[pk.seps] = top, sep
    return _stack_from_array(X, arr)


def _tie_free_cases():
    """Stacks and arrays on which no tie order can change the collapse:
    Morse stacks, their copies shifted to the ends of the int64 range, the
    same (d-1)- and d-face altitudes under arbitrary lower faces, and
    tie-heavy arrays."""
    hosts = [generate_torus(n, n) for n in (3, 4, 6)]
    hosts += [tetrahedron_boundary(), _SMALL_HOSTS["sphere-3"][1](), cyc6_host()]
    cases = []
    for X in hosts:
        below = X.packed().seps.start
        for s in range(3):
            F = random_morse_stack(X, seed=s, n_minima=1 + s)
            arr = F.alt_array().copy()
            arr[:below] = np.random.default_rng(s).integers(-5, 5, size=below)
            cases += [F, _shifted(F, -2**63 + 10), _shifted(F, 2**62), _stack_from_array(X, arr)]
            cases.append(_tie_heavy_array(X, s))
    assert sum(not is_morse(F)[0] for F in cases) >= len(hosts)
    return cases


def test_the_seed_cannot_change_a_collapse_where_ties_are_inert():
    # the arrays that are no stack take the heap, under every seed alike
    for F in _tie_free_cases():
        assert _inert(F) == validate_stack(F)[0]
        runs = set()
        for seed in range(8):
            H, collapses, pops = _check_against_the_tuple_heap(F, seed)
            runs.add((tuple(H.alt_array().tolist()), collapses, pops))
        assert len(runs) == 1


def test_the_collapse_builds_no_generator_where_ties_are_inert(monkeypatch):
    cases = [G for G in _tie_free_cases() if validate_stack(G)[0]]  # the rest take the heap
    F = random_stack(generate_torus(4, 4), seed=0, high=3)
    built = []

    class CountingRandom(random.Random):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(random, "Random", CountingRandom)
    for G in cases:
        _ultimate_d_collapse(G, 3)
    assert built == []
    _ultimate_d_collapse(F, 3)
    assert built == [(3,)]


def test_the_seed_still_picks_the_watershed_of_a_random_stack():
    F = random_stack(generate_torus(4, 4), seed=0, high=3)
    labels = {tuple(watershed_collapse(F, seed=seed).labels.items()) for seed in range(8)}
    assert len(labels) == 8


def _ref_two_zone_labels(F, seed):
    """Reference: the label array from two flat-zone labellings, of F for
    the ranks of its minima and of the collapsed H for its zone roots; an
    H-minimum takes the smallest rank of an F-minimum among its d-faces."""
    lo, hi = _facet_adjacency(F)
    H = ultimate_d_collapse(F, seed=seed)
    pk = F.host.packed()
    n = len(pk)
    f_rank = _flat_zones(F)[1][pk.tops]
    h_root = _flat_zones(H)[0][pk.tops]
    best = np.full(n, n + 1)
    np.minimum.at(best, h_root, np.where(f_rank > 0, f_rank, n + 1))
    B = best[h_root] % (n + 1)  # 0 where there is none
    return watershed._assemble(pk, B, h_root[lo] != h_root[hi])._label


def _reset_below(F, seed):
    """F with every face below dimension d-1 set to the maximum of its
    cofaces, from the top down, plus 0 or 1 at random when `seed` is not
    None: still a stack, with the (d-1)- and d-face altitudes of F."""
    pk = F.host.packed()
    off = pk.dim_offset.tolist()
    arr = F.alt_array().copy()
    rng = np.random.default_rng(seed)
    for p in range(F.host.dim - 2, -1, -1):
        at = (pk.sub >= off[p]) & (pk.sub < off[p + 1])
        arr[off[p]:off[p + 1]] = np.iinfo(np.int64).min
        np.maximum.at(arr, pk.sub[at], arr[pk.sup[at]])
        if seed is not None:
            arr[off[p]:off[p + 1]] += rng.integers(0, 2, size=off[p + 1] - off[p])
    return _stack_from_array(F.host, arr)


def _morse_cases():
    hosts = [generate_torus(n, n) for n in range(3, 9)] + [tetrahedron_boundary()]
    hosts += [build() for _, build in _SMALL_HOSTS.values()]
    return [random_morse_stack(X, seed=s, n_minima=1 + s) for X in hosts for s in range(4)]


def _count_flat_zones(monkeypatch):
    """Patch `_kernels.flat_zones` to count its calls; returns the list
    that receives one entry per call."""
    calls = []
    original = _kernels.flat_zones

    def counting(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(_kernels, "flat_zones", counting)
    return calls


def test_the_collapse_labels_from_the_roots_as_from_two_flat_zone_labellings():
    morse = _morse_cases()
    reset = [_reset_below(F, seed) for F in morse for seed in (None, 0, 1)]
    assert all(is_morse(F)[0] for F in morse)
    assert all(validate_stack(F)[0] and _inert_forest(F) is not None for F in morse + reset)
    assert sum(not is_morse(F)[0] for F in reset) >= len(reset) // 2
    for F in morse + reset:
        for seed in (0, 1):
            ref = _ref_two_zone_labels(F, seed)
            assert np.array_equal(watershed_collapse(F, seed=seed)._label, ref)


def test_arrays_that_are_no_stack_and_tied_stacks_keep_the_two_labellings(monkeypatch):
    # arrays that fail F(x) >= F(y) on a covering pair, though their ties
    # are inert, and stacks on which ties act: `_inert_forest` takes neither
    cases = [F for F in _tie_free_cases() if not validate_stack(F)[0]]
    assert len(cases) == 30 and all(_inert_forest(F) is None for F in cases)
    tied = _non_morse_stacks()
    assert all(_inert_forest(F) is None for F in tied)
    cases = [(F, seed) for F in cases + tied for seed in (0, 1)]
    refs = [_ref_two_zone_labels(F, seed) for F, seed in cases]
    calls = _count_flat_zones(monkeypatch)
    for (F, seed), ref in zip(cases, refs):
        calls.clear()
        assert np.array_equal(watershed_collapse(F, seed=seed)._label, ref)
        assert len(calls) == 2


def _ring():
    """Altitudes on the 6-cycle that pair every face once but are no stack:
    each edge is flat with its second vertex, which is higher than the
    next edge, so the flat links close one cycle."""
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    alt = {e: i for i, e in enumerate(ring)}
    alt.update({(v,): i for i, v in enumerate((1, 2, 3, 4, 5, 0))})
    return Stack(cyc6_host(), alt)


def test_the_morse_route_gives_the_labels_of_the_collapse():
    # Morse arrays that are no stack take the seeded collapse on both
    # routes, and Morse stacks the flat-link roots
    cases = [F for F in _tie_free_cases() if is_morse(F)[0]] + [_ring()]
    no_stack = [F for F in cases if not validate_stack(F)[0]]
    assert (len(no_stack), len(cases) - len(no_stack)) == (10, 60)
    for F in cases:
        assert np.array_equal(morse_watershed(F)._label, watershed_collapse(F)._label)
    assert len(morse_watershed(_ring()).basins) == 1


def test_the_collapse_of_a_morse_stack_runs_no_flat_zone_labelling(monkeypatch):
    F = random_morse_stack(generate_torus(6, 6), seed=3, n_minima=4)
    G = random_stack(generate_torus(4, 4), seed=0, high=3)  # ties act here
    calls = _count_flat_zones(monkeypatch)
    assert len(watershed_collapse(F, seed=1).basins) == 4
    assert calls == []
    watershed_collapse(G, seed=1)
    assert len(calls) == 2
