from collections import deque
from itertools import combinations

import numpy as np

from morseshed import _kernels, watershed
from morseshed.complexes import Complex, closure
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.stacks import _inert_forest, _stack_from_array, random_stack
from test_complexes import _inclusion_pairs


def _graph(F):
    """The facet graph (lo, hi) and the d- and (d-1)-face altitudes."""
    pk = F.host.packed()
    sep_lo, top_lo = pk.dim_offset[F.host.dim - 1:F.host.dim + 1].tolist()
    alt = F.alt_array()
    return (*_kernels.top_adjacency(pk), alt[top_lo:], alt[sep_lo:top_lo])


def test_top_adjacency_cyc6():
    F = cyc6_stack()
    X = F.host
    lo, hi = _kernels.top_adjacency(X.packed())
    assert lo.shape == hi.shape == (6,)
    assert (lo < hi).all()
    # edge j joins the two cofaces of the (d-1)-face number j, in order
    tops = X.faces_of_dim(1)
    for j, z in enumerate(X.faces_of_dim(0)):
        assert (tops[lo[j]], tops[hi[j]]) == X.cofaces[z]
    # every facet has d + 1 = 2 edges
    assert np.bincount(np.concatenate([lo, hi])).tolist() == [2] * 6


def _rows(lo, hi, n_facets):
    """The per-facet layout the flood once read: row i lists the facets
    next to facet i and, in sep_ids, the (d-1)-faces shared with them."""
    src, dst = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    via = np.tile(np.arange(lo.size), 2)
    order = np.argsort(src, kind="stable")
    return dst[order].reshape(n_facets, -1), via[order].reshape(n_facets, -1)


def _queue_flood(nbr, sep_ids, facet_alt, sep_alt):
    """Reference flood: seed each facet without a flat boundary face with
    its 1-based rank, then spread labels breadth-first across flat faces."""
    flat = facet_alt[:, None] == sep_alt[sep_ids]
    B = np.zeros(nbr.shape[0], dtype=np.int64)
    queue = deque()
    for label, i in enumerate(np.nonzero(~flat.any(axis=1))[0], start=1):
        B[i] = label
        queue.append(i)
    while queue:
        x = queue.popleft()
        for y, z in zip(nbr[x], sep_ids[x]):
            if B[y] == 0 and facet_alt[y] == sep_alt[z]:
                B[y] = B[x]
                queue.append(y)
    W = np.zeros(sep_alt.shape[0], dtype=np.bool_)
    W[sep_ids[B[:, None] != B[nbr]]] = True
    return B, W


def test_flood_kernels_agree():
    stacks = [random_morse_stack(generate_torus(4, 4), seed=s) for s in range(10)]
    # one minimum on TOR(40,40): all 3200 facets in one tree, 73 links deep
    stacks.append(random_morse_stack(generate_torus(40, 40), seed=0, n_minima=1))
    for F in stacks:
        lo, hi, facet_alt, sep_alt = _graph(F)
        B, W = watershed._facet_labels(F)
        B_ref, W_ref = _queue_flood(*_rows(lo, hi, facet_alt.size), facet_alt, sep_alt)
        assert (B_ref > 0).all()  # every facet drains to some minimum
        assert np.array_equal(B, B_ref)
        assert np.array_equal(W, W_ref)


def test_flat_matching_offender():
    F = cyc6_stack()
    pk = F.host.packed()
    assert _kernels.flat_matching_offender(
        pk.sub, pk.sup, F.alt_array(), len(pk.faces)
    ) == -1
    flat = F.with_altitudes({x: 0 for x in F.host.faces})
    assert _kernels.flat_matching_offender(
        pk.sub, pk.sup, flat.alt_array(), len(pk.faces)
    ) >= 0


def _bfs_zones(pk, alt):
    """Reference: breadth-first flat zones; root = smallest member, and a
    zone is a minimum iff no member has a strictly lower covering
    neighbour, ranked by root."""
    n = len(pk.faces)
    nbrs = [[] for _ in range(n)]
    lower = set()
    for a, b in zip(pk.sub.tolist(), pk.sup.tolist()):
        if alt[a] == alt[b]:
            nbrs[a].append(b)
            nbrs[b].append(a)
        else:
            lower.add(a if alt[a] > alt[b] else b)
    root = [-1] * n
    for s in range(n):
        if root[s] >= 0:
            continue
        zone, queue = [s], deque([s])
        root[s] = s
        while queue:
            for v in nbrs[queue.popleft()]:
                if root[v] < 0:
                    root[v] = s
                    zone.append(v)
                    queue.append(v)
        if lower.intersection(zone):
            lower.add(s)
    ranks = {}
    for s in sorted(set(root)):
        if s not in lower:
            ranks[s] = len(ranks) + 1
    return root, [ranks.get(r, 0) for r in root]


def test_flat_zones_match_bfs():
    # arbitrary altitudes, stacks or not, including few levels (large zones)
    rng = np.random.default_rng(5)
    pks = [generate_torus(n, n).packed() for n in (3, 4, 6, 9)] + [cyc6_stack().host.packed()]
    for pk in pks:
        n = len(pk.faces)
        for levels in (1, 2, 3, 8, n):
            alt = rng.integers(0, levels, n)
            root, rank = _kernels.flat_zones(pk.sub, pk.sup, alt, n)
            ref_root, ref_rank = _bfs_zones(pk, alt.tolist())
            assert root.tolist() == ref_root
            assert rank.tolist() == ref_rank


def test_jump_meets_its_round_bound_on_paths():
    # a path i -> i - 1 down to the root 0 is the deepest tree on n nodes;
    # pointer jumping halves its depth each round, so the n.bit_length() + 1
    # rounds `_jump` allows send every node to 0, while one round fewer
    # than the ceil(log2(n - 1)) halvings a depth of n - 1 needs would not
    for n in (1, 2, 3, 5, 17, 1025, 4097):
        path = np.maximum(np.arange(n) - 1, 0)
        assert (_kernels._jump(path) == 0).all(), n
        short = path
        for _ in range(max((n - 2).bit_length() - 1, 0)):
            short = short[short]
        assert (short == 0).all() == (n <= 2), n


# -- the position-indexed kernels against their boolean-mask forms ------------


def _ref_flat_matching_offender(sub, sup, alt, n_faces):
    """Reference: the flat pairs by a boolean mask."""
    eq = alt[sub] == alt[sup]
    if not eq.any():
        return -1
    cnt = np.bincount(sub[eq], minlength=n_faces) + np.bincount(sup[eq], minlength=n_faces)
    bad = np.nonzero(cnt > 1)[0]
    return int(bad[0]) if bad.size else -1


def _ref_top_adjacency(pk):
    """Reference: the pairs on d-faces by a mask over every covering pair
    (the host checks are those of `top_adjacency`)."""
    sep_lo, top_lo = pk.seps.start, pk.tops.start
    top = pk.sup >= top_lo
    return _kernels.low_high(pk.sub[top] - sep_lo, pk.sup[top] - top_lo, top_lo - sep_lo)


def _ref_flat_links(lo, hi, facet_alt, sep_alt):
    """Reference: the flat-link parent array from two boolean masks."""
    parent = np.arange(facet_alt.size)
    down = facet_alt[lo] == sep_alt
    parent[lo[down]] = hi[down]
    up = facet_alt[hi] == sep_alt
    parent[hi[up]] = lo[up]
    return parent


def _ref_inert_forest(F):
    """Reference: the stack test, the tie test on boolean masks, then
    `_ref_flat_links`."""
    pk, arr = F.host.packed(), F.alt_array()
    lo, hi = pk.facet_graph
    v, ta = arr[pk.seps], arr[pk.tops]
    a, b = ta[lo], ta[hi]
    flat_a, flat_b = a == v, b == v
    if (arr[pk.sub] < arr[pk.sup]).any() or (flat_a & flat_b).any():
        return None
    if np.bincount(np.concatenate((lo[flat_a], hi[flat_b]))).max(initial=0) > 1:
        return None
    return _ref_flat_links(lo, hi, ta, v)


def _ref_assemble(pk, B, cut):
    """Reference: the label assembly with one `minimum.at` and one masked
    cut propagation per dimension, the top one included."""
    n, top_lo = len(pk), pk.tops.start
    in_cut = np.zeros(n, dtype=np.bool_)
    in_cut[pk.seps] = cut
    owner = np.full(n, n, dtype=np.int64)
    owner[pk.tops] = np.arange(top_lo, n)
    pairs_lo = np.searchsorted(pk.sup, pk.dim_offset)
    for p in range(len(pk.rows) - 1, 0, -1):
        sub = pk.sub[pairs_lo[p]:pairs_lo[p + 1]]
        sup = pk.sup[pairs_lo[p]:pairs_lo[p + 1]]
        np.minimum.at(owner, sub, owner[sup])
        in_cut[sub[in_cut[sup]]] = True
    return np.where(in_cut, watershed.WATERSHED_LABEL, B[owner - top_lo])


def _hosts():
    """Hosts of dimension 1, 2 and 3: the 6-cycle, TOR(3..8), the
    boundaries of the 3- and 4-simplex."""
    return ([cyc6_host()] + [generate_torus(n, n) for n in range(3, 9)]
            + [tetrahedron_boundary(), closure(combinations(range(5), 4))])


def _stacks(X):
    """Morse stacks, stacks on which ties act, and arrays that are no stack."""
    out = [random_morse_stack(X, seed=s, n_minima=1 + s) for s in range(3)]
    out += [random_stack(X, seed=s, high=high) for s in range(2) for high in (1, 3, 40)]
    rng = np.random.default_rng(len(X))
    out += [_stack_from_array(X, rng.integers(-3, 4, size=len(X))) for _ in range(2)]
    return out


def test_top_adjacency_slice_matches_the_mask():
    hosts = [Complex([(0,), (1,), (5,)]), Complex(())] + _hosts()
    assert {X.dim for X in hosts} == {-1, 0, 1, 2, 3}
    for X in hosts:
        pk = X.packed()
        got, ref = _kernels.top_adjacency(pk), _ref_top_adjacency(pk)
        assert all(np.array_equal(g, r) for g, r in zip(got, ref)), X


def _tied_pair_stack():
    """A stack on the 6-cycle whose only tie that can act is vertex 1, flat
    with both its edges; every edge has one flat vertex."""
    # vertices 0..5, then the edges 01, 05, 12, 23, 34, 45
    return _stack_from_array(cyc6_host(), np.array([1, 0, 5, 4, 3, 2, 0, 1, 0, 4, 3, 2]))


def test_flat_kernels_match_their_mask_forms():
    inert = 0
    for X in _hosts():
        pk = X.packed()
        for F in _stacks(X):
            alt = F.alt_array()
            assert _kernels.flat_matching_offender(pk.sub, pk.sup, alt, len(pk)) == (
                _ref_flat_matching_offender(pk.sub, pk.sup, alt, len(pk)))
            got, ref = _inert_forest(F), _ref_inert_forest(F)
            assert (got is None) == (ref is None), F.altitude
            if got is not None:  # `ref` is `_ref_flat_links` there
                inert += 1
                assert np.array_equal(got, ref)
    assert 0 < inert < len(_hosts()) * len(_stacks(cyc6_host()))  # both outcomes
    assert _inert_forest(_tied_pair_stack()) is _ref_inert_forest(_tied_pair_stack()) is None
    # a Morse stack with one vertex lowered below its cofaces is no stack
    for X in _hosts():
        arr = _stacks(X)[0].alt_array().copy()
        arr[0] = arr.min() - 1
        G = _stack_from_array(X, arr)
        assert _inert_forest(G) is _ref_inert_forest(G) is None


def test_the_assembly_map_holds_each_smallest_d_coface_and_the_closing_blocks():
    for X in _hosts():
        pk = X.packed()
        owner, blocks = pk.assembly_map
        top_lo, n = pk.tops.start, len(pk)
        sub, sup = _inclusion_pairs(pk)
        above = sup >= top_lo  # x a proper face of the d-face y
        ref = np.full(n, n)
        ref[pk.tops] = np.arange(n - top_lo)
        np.minimum.at(ref, sub[above], sup[above] - top_lo)
        assert np.array_equal(owner, ref), X
        dim = np.repeat(np.arange(X.dim + 1), np.diff(pk.dim_offset))
        for p, (b_sub, b_sup) in zip(range(X.dim - 1, 0, -1), blocks, strict=True):
            at = dim[pk.sup] == p
            assert np.array_equal(b_sub, pk.sub[at]) and np.array_equal(b_sup, pk.sup[at]), X
        assert X.assembly_map is X.assembly_map  # built once


def test_assemble_matches_the_per_dimension_loop():
    rng = np.random.default_rng(7)
    for X in _hosts():
        pk = X.packed()
        lo, hi = pk.facet_graph
        n_top, n_sep = len(pk) - pk.tops.start, lo.size
        cases = [watershed._facet_labels(F)
                 for F in _stacks(X)[:3]]  # the routes' outputs on Morse stacks
        cases += [(rng.integers(0, 5, n_top), rng.random(n_sep) < p) for p in (0, 0.1, 0.5, 1)]
        for B, cut in cases:
            got = watershed._assemble(pk, B, cut)._label
            assert np.array_equal(got, _ref_assemble(pk, B, cut)), X
