from collections import deque

import numpy as np

from morseshed import _kernels
from morseshed.fixtures import cyc6_stack
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack


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
        B, W = _kernels.flood(lo, hi, facet_alt, sep_alt)
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
