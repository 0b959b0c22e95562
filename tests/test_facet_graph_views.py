"""The facet graph and the watershed forest as masks and as tuples.

`_ref_build_facet_graph` and `_ref_watershed_forest` are the builders as
they were while they filled the tuple fields at once, from the same edge
list; they are kept here as references for the builders.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from morseshed.complexes import closure
from morseshed.fixtures import cyc6_host, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.oracles import (
    Forest,
    WeightedFacetGraph,
    _edge_tuples,
    _msf_checks,
    _tops,
    build_facet_graph,
    watershed_forest,
)
from morseshed.stacks import _facet_adjacency
from morseshed import _kernels
from morseshed.watershed import _forest_masks, _msf_certificate


def _host_graph(F):
    """(pk, sep_lo, top_lo, lo, hi): the packed host, where its (d-1)-faces
    and its d-faces start, and its facet graph."""
    pk = F.host.packed()
    return (pk, pk.seps.start, pk.tops.start, *_facet_adjacency(F))


def _ref_build_facet_graph(F):
    pk, sep_lo, top_lo, lo, hi = _host_graph(F)
    tops = pk.face_list[top_lo:]
    ends = list(zip(map(tops.__getitem__, lo.tolist()), map(tops.__getitem__, hi.tolist())))
    weights = F.alt_array()[sep_lo:top_lo].tolist()
    return WeightedFacetGraph(
        tuple(tops), dict(zip(ends, weights)), dict(zip(ends, pk.face_list[sep_lo:top_lo]))
    )


def _ref_watershed_forest(F):
    pk, sep_lo, top_lo, lo, hi = _host_graph(F)
    alt = F.alt_array()
    fz, fx, fy = alt[sep_lo:top_lo], alt[top_lo:][lo], alt[top_lo:][hi]
    keep = ((fz > fx) & (fz == fy)) | ((fz > fy) & (fz == fx))
    tops = pk.face_list[top_lo:]
    rank = _kernels.flat_zones(pk.sub, pk.sup, alt, len(pk))[1][top_lo:]
    ends = zip(map(tops.__getitem__, lo[keep].tolist()), map(tops.__getitem__, hi[keep].tolist()))
    roots = map(tops.__getitem__, np.flatnonzero(rank).tolist())
    return Forest(frozenset(tops), frozenset(ends), frozenset(roots))


def _corpus():
    """The Morse stacks of `test_certificate_matches_the_oracles`."""
    hosts = [generate_torus(n, n) for n in range(3, 9)]
    hosts += [tetrahedron_boundary(), closure(combinations(range(5), 4)), cyc6_host()]
    return [random_morse_stack(X, seed=s, n_minima=1 + s % 5) for X in hosts for s in range(34)]


def test_views_match_the_eager_builders():
    stacks = _corpus()
    assert len(stacks) == 306
    for F in stacks:
        G, Y = build_facet_graph(F), watershed_forest(F)
        G_ref, Y_ref = _ref_build_facet_graph(F), _ref_watershed_forest(F)
        assert G == G_ref and Y == Y_ref and hash(Y) == hash(Y_ref)
        assert list(G.edges.items()) == list(G_ref.edges.items())  # the same order
        assert list(G.shared.items()) == list(G_ref.shared.items())
        assert G.vertices is G.vertices  # built once


def test_msf_checks_read_the_arrays_as_the_tuples():
    # the watershed forest, and the same edge list with one edge flipped,
    # as masks and as tuples
    rng = random.Random(7)
    rejected = 0
    for F in _corpus():
        in_y, is_root = _forest_masks(F)
        flipped = in_y.copy()
        flipped[rng.randrange(flipped.size)] ^= True
        pk = F.host.packed()
        tops = _tops(pk)
        roots = frozenset(map(tops.__getitem__, np.flatnonzero(is_root).tolist()))
        for mask in (in_y, flipped):
            Z = Forest(frozenset(tops), frozenset(_edge_tuples(pk, tops, mask)), roots)
            assert _msf_certificate(F, mask, is_root) == _msf_checks(F, Z)
        assert all(_msf_certificate(F, in_y, is_root).values())
        rejected += not all(_msf_certificate(F, flipped, is_root).values())
    assert rejected == 306


def test_msf_checks_reject_a_forest_off_the_graph():
    F = random_morse_stack(generate_torus(4, 4), seed=1, n_minima=2)
    Y = watershed_forest(F)
    off = ((0, 1, 99), (0, 2, 99))
    with pytest.raises(ValueError, match="not on the facet graph"):
        _msf_checks(F, Forest(Y.vertices, Y.edges | {off}, Y.roots))
    # a watershed forest on another host is read by its tuples
    other = watershed_forest(random_morse_stack(cyc6_host(), seed=0, n_minima=2))
    with pytest.raises(ValueError, match="not on the facet graph"):
        _msf_checks(F, other)


def test_hand_built_graph_and_forest_hold_no_arrays():
    G = WeightedFacetGraph(((0, 1), (1, 2)), {((0, 1), (1, 2)): 3}, {((0, 1), (1, 2)): (1,)})
    Y = Forest(frozenset(G.vertices), frozenset(G.edges), frozenset([(0, 1)]))
    assert Y.weight(G) == 3
    for obj in (G, Y):
        with pytest.raises(AttributeError):
            obj.missing
