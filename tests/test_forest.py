import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshed.complexes import Complex, closure
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.oracles import (
    Forest,
    WeightedFacetGraph,
    _edge,
    _lightest_at_an_endpoint,
    _msf_checks,
    build_facet_graph,
    enumerate_msfs,
    is_rooted_forest,
    msf_is_unique,
    msf_oracle,
    msf_weight,
    watershed_forest,
)
from morseshed.stacks import Stack, StackError, complete_from_facets, minima, random_stack
from morseshed.watershed import morse_watershed, verify_msf_theorem, watershed_collapse

FIX_WEIGHTS = {
    ((0, 1), (1, 2)): 1,
    ((1, 2), (2, 3)): 2,
    ((2, 3), (3, 4)): 3,
    ((3, 4), (4, 5)): 1,
    ((4, 5), (0, 5)): 3,
    ((0, 1), (0, 5)): 2,
}

FIX_FOREST_EDGES = {
    ((0, 1), (0, 5)),
    ((0, 1), (1, 2)),
    ((1, 2), (2, 3)),
    ((3, 4), (4, 5)),
}


def _norm(e):
    a, b = e
    return (a, b) if (len(a), a) <= (len(b), b) else (b, a)


def test_build_facet_graph_fixture():
    G = build_facet_graph(cyc6_stack())
    assert set(G.vertices) == set(FIX_WEIGHTS_VERTICES())
    assert {e: w for e, w in G.edges.items()} == {
        _norm(e): w for e, w in FIX_WEIGHTS.items()
    }
    # the shared face of a dual edge is the vertex between the two edges
    assert G.shared[_norm(((0, 1), (1, 2)))] == (1,)


def FIX_WEIGHTS_VERTICES():
    return [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]


def test_build_facet_graph_tetrahedron_is_complete():
    F = complete_from_facets(
        tetrahedron_boundary(), {x: 0 for x in tetrahedron_boundary().facets()}
    )
    G = build_facet_graph(F)
    assert len(G.vertices) == 4
    assert len(G.edges) == 6  # K4


def test_build_facet_graph_torus_counts():
    F = random_morse_stack(generate_torus(3, 3), seed=0)
    G = build_facet_graph(F)
    assert len(G.vertices) == 18
    assert len(G.edges) == 27
    assert all(G.degree(v) == 3 for v in G.vertices)


def _ref_build_facet_graph(F):
    """Reference: one edge per (d-1)-face, read off its two cofaces."""
    X = F.host
    d = X.dim
    edges, shared = {}, {}
    for z in X.faces_of_dim(d - 1):
        e = _edge(*X.cofaces[z])
        edges[e] = F.altitude[z]
        shared[e] = z
    return WeightedFacetGraph(tuple(X.faces_of_dim(d)), edges, shared)


def _ref_watershed_forest(F):
    """Reference: the differential-then-flat edges found face by face,
    rooted at one face of each minimum."""
    X = F.host
    d = X.dim
    alt = F.altitude
    edges = set()
    for z in X.faces_of_dim(d - 1):
        x, y = X.cofaces[z]
        fz, fx, fy = alt[z], alt[x], alt[y]
        if (fz > fx and fz == fy) or (fz > fy and fz == fx):
            edges.add(_edge(x, y))
    roots = frozenset(next(iter(zone)) for zone, _ in minima(F).minima)
    return Forest(frozenset(X.faces_of_dim(d)), frozenset(edges), roots)


def test_facet_graph_and_forest_match_the_face_loops():
    hosts = [cyc6_host(), tetrahedron_boundary()]
    hosts += [closure(combinations(range(k), k - 1)) for k in (5, 6)]  # boundaries of 4-, 5-simplex
    hosts += [generate_torus(n, n) for n in range(3, 9)]
    stacks = [cyc6_stack(), Stack(Complex(()), {}), Stack(closure([(0,), (2,)]), {(0,): 1, (2,): 0})]
    stacks += [random_morse_stack(X, seed=s, n_minima=1 + 2 * s) for X in hosts for s in range(2)]
    stacks.append(random_morse_stack(generate_torus(40, 40), seed=0, n_minima=1))
    for F in stacks:
        G, G_ref = build_facet_graph(F), _ref_build_facet_graph(F)
        assert G == G_ref
        assert list(G.edges.items()) == list(G_ref.edges.items())  # the same order
        assert list(G.shared.items()) == list(G_ref.shared.items())
        assert watershed_forest(F) == _ref_watershed_forest(F)


def test_is_rooted_forest():
    verts = set(FIX_WEIGHTS_VERTICES())
    roots = {(0, 1), (3, 4)}
    assert is_rooted_forest(roots, set(), roots)
    assert is_rooted_forest(verts, set(FIX_FOREST_EDGES), roots)
    # a cycle can never be peeled
    cycle = {_norm(e) for e in FIX_WEIGHTS}
    assert not is_rooted_forest(verts, cycle, roots)
    with pytest.raises(ValueError):
        is_rooted_forest(verts, set(), {(9, 9)})


def test_watershed_forest_fixture():
    F = cyc6_stack()
    Y = watershed_forest(F)
    assert Y.edges == {_norm(e) for e in FIX_FOREST_EDGES}
    assert Y.roots == {(0, 1), (3, 4)}
    G = build_facet_graph(F)
    assert Y.weight(G) == 6
    assert {frozenset(t) for t in Y.trees()} == {
        frozenset({(0, 1), (0, 5), (1, 2), (2, 3)}),
        frozenset({(3, 4), (4, 5)}),
    }


def test_watershed_forest_rejects_non_morse():
    F = complete_from_facets(
        tetrahedron_boundary(), {x: 0 for x in tetrahedron_boundary().facets()}
    )
    with pytest.raises(StackError):
        watershed_forest(F)


def test_watershed_forest_single_minimum_spans():
    for seed in range(10):
        F = random_morse_stack(tetrahedron_boundary(), seed=seed)
        if len(minima(F).minima) != 1:
            continue
        Y = watershed_forest(F)
        assert len(Y.edges) == 3  # spanning tree on 4 facets
        assert is_rooted_forest(set(Y.vertices), set(Y.edges), set(Y.roots))


def test_msf_oracle_fixture():
    F = cyc6_stack()
    G = build_facet_graph(F)
    roots = frozenset({(0, 1), (3, 4)})
    weight, forests = msf_oracle(G, roots)
    assert weight == 6
    assert forests == [watershed_forest(F).edges]
    assert msf_is_unique(G, roots)


def test_msf_oracle_roots_only():
    G = WeightedFacetGraph(((0, 1), (3, 4)), {}, {})
    weight, forests = msf_oracle(G, frozenset({(0, 1), (3, 4)}))
    assert weight == 0
    assert forests == [frozenset()]


def test_msf_multiple_on_tied_cycle():
    # 4-cycle a-b-c-d, all weights 1, roots {a, c}: b and d can attach
    # to either side, so 4 minimum forests exist
    a, b, c, d = (0,), (1,), (2,), (3,)
    edges = {(a, b): 1, (b, c): 1, (c, d): 1, (a, d): 1}
    G = WeightedFacetGraph((a, b, c, d), edges, {e: e[0] for e in edges})
    roots = frozenset({a, c})
    weight, forests = msf_oracle(G, roots)
    assert weight == 2
    assert len(forests) == 4
    assert not msf_is_unique(G, roots)


def test_msf_weight_guards():
    a, b = (0,), (1,)
    G = WeightedFacetGraph((a, b), {}, {})
    with pytest.raises(ValueError):
        msf_weight(G, frozenset())
    with pytest.raises(ValueError):
        msf_weight(G, frozenset({a}))  # b unreachable


def test_enumerate_msfs_size_guard():
    F = random_morse_stack(generate_torus(3, 3), seed=0)
    G = build_facet_graph(F)
    with pytest.raises(ValueError):
        enumerate_msfs(G, frozenset({G.vertices[0]}), max_vertices=12)


def test_verify_msf_theorem_fixture():
    checks = verify_msf_theorem(cyc6_stack())
    assert checks == {
        "rooted": True,
        "weight": True,
        "unique": True,
        "basins": True,
        "min_edge": True,
    }


@given(st.integers(0, 300))
@settings(max_examples=25, deadline=None)
def test_verify_msf_theorem_fuzz(seed):
    F = random_morse_stack(generate_torus(3, 3), seed=seed, n_minima=1 + seed % 4)
    assert all(verify_msf_theorem(F).values())


def test_forest_weight_and_trees_consistency():
    F = random_morse_stack(generate_torus(3, 3), seed=11)
    G = build_facet_graph(F)
    Y = watershed_forest(F)
    assert Y.weight(G) == msf_weight(G, Y.roots)
    assert sum(len(t) for t in Y.trees()) == len(Y.vertices)


def _ref_lightest_at_an_endpoint(G, edges):
    """Reference: rescan every edge of G at both endpoints of each edge."""
    ok = True
    for a, b in edges:
        w_ab = G.edges[_edge(a, b)]
        unique_at_endpoint = False
        for v in (a, b):
            incident = [w for e, w in G.edges.items() if v in e and e != _edge(a, b)]
            if all(w_ab < w for w in incident):
                unique_at_endpoint = True
        if not unique_at_endpoint:
            ok = False
    return ok


def test_min_edge_check_matches_reference():
    rng = random.Random(5)
    verdicts = []
    for seed in range(40):
        n = 3 + seed % 3
        X = generate_torus(n, n)
        F = random_morse_stack(X, seed=seed, n_minima=1 + seed % 4)
        G = build_facet_graph(F)
        # weights 0..2 on a random stack tie often
        H = build_facet_graph(random_stack(X, seed=seed, low=0, high=2))
        cases = [(G, watershed_forest(F).edges), (G, rng.sample(sorted(G.edges), 6))]
        cases += [(H, rng.sample(sorted(H.edges), k)) for k in (1, 2)]
        for graph, edges in cases:
            got = _lightest_at_an_endpoint(graph, edges)
            assert got == _ref_lightest_at_an_endpoint(graph, edges)
            verdicts.append(got)
    assert verdicts.count(True) >= 45 and verdicts.count(False) >= 100


def test_certificate_on_forests_the_watershed_never_gives():
    # every edge of the 6-cycle at 0 and every vertex at 1: each facet is
    # a minimum, every dual edge weighs 1, and every facet meets two
    X = cyc6_host()
    F = Stack(X, {x: 1 - len(x) // 2 for x in X.faces})
    G = build_facet_graph(F)
    a, b, c, d, e, f = [(0, 1), (0, 5), (1, 2), (2, 3), (3, 4), (4, 5)]  # by index
    cases = {
        # rooted at a, five flat edges oriented away from a by index: a
        # minimum spanning forest, one of six
        "tied": (frozenset([a]), [(a, b), (a, c), (c, d), (d, e), (b, f)], True),
        # the path a, c, d, e, f, b has f with two parent edges (from e
        # and from b) and b none: no verdict
        "unoriented": (frozenset([a]), [(a, c), (c, d), (d, e), (e, f), (b, f)], False),
        # rooted at all six, the empty forest is the only minimum one
        "roots only": (frozenset(G.vertices), [], True),
    }
    for name, (roots, edges, verdict) in cases.items():
        Z = Forest(frozenset(G.vertices), frozenset(_edge(x, y) for x, y in edges), roots)
        got = _msf_checks(F, Z)
        assert got["rooted"] and got["min_edge"] == _lightest_at_an_endpoint(G, Z.edges)
        assert got["min_edge"] == (not edges), name  # two lightest edges at every facet
        weight, unique = Z.weight(G) == msf_weight(G, roots), msf_is_unique(G, roots)
        assert weight and unique == (name == "roots only")
        assert (got["weight"], got["unique"]) == (verdict, verdict and unique), name
    with pytest.raises(ValueError):
        _msf_checks(F, Forest(frozenset(G.vertices), frozenset(), frozenset([(0, 2)])))


def test_certificate_needs_weights_falling_toward_the_root():
    # a Morse stack on the 6-cycle, minima (0,1) and (3,4).  In the forest
    # (1,2) -> (0,1) across vertex 1 (weight 10), (2,3) -> (1,2) across
    # vertex 2 (weight 3), (4,5) -> (3,4) and (0,5) -> (0,1) (weight 1),
    # the weight rises from (2,3) toward its root; the non-tree edge from
    # (2,3) to the root (3,4) weighs 5, less than 10 on the tree path, so
    # the forest is not minimum, which max(w(u), w(v)) = 3 would miss
    X = cyc6_host()
    alt = {(0, 1): 0, (1, 2): 1, (2, 3): 2, (3, 4): 0, (4, 5): 1, (0, 5): 1}
    alt.update({(0,): 1, (1,): 10, (2,): 3, (3,): 5, (4,): 1, (5,): 7})
    F = Stack(X, alt)
    G = build_facet_graph(F)
    edges = [((0, 1), (1, 2)), ((1, 2), (2, 3)), ((3, 4), (4, 5)), ((0, 1), (0, 5))]
    Z = Forest(frozenset(G.vertices), frozenset(edges), frozenset([(0, 1), (3, 4)]))
    assert Z.weight(G) == 15 and msf_weight(G, Z.roots) == 10
    got = _msf_checks(F, Z)
    assert got["rooted"] and not got["weight"] and not got["unique"]


def _ref_trees_are_basins(F, Y):
    """Reference: the basins check on the basin frozensets."""
    d = F.host.dim
    basin_tops = {
        frozenset(f for f in fs if len(f) - 1 == d) for _, fs in morse_watershed(F).basins
    }
    return set(Y.trees()) == basin_tops


def test_basins_check_matches_frozenset_reference():
    rng = random.Random(9)
    verdicts = []
    for seed in range(30):
        n = 3 + seed % 4
        F = random_morse_stack(generate_torus(n, n), seed=seed, n_minima=1 + seed % 5)
        G, Y = build_facet_graph(F), watershed_forest(F)
        edges = sorted(Y.edges)
        across = rng.choice([e for e in G.edges if e not in Y.edges])
        forests = [
            Y,
            Forest(Y.vertices, Y.edges | {across}, Y.roots),  # two basins joined
        ]
        if edges:  # a tree split in two, and one half joined to another tree
            forests.append(Forest(Y.vertices, frozenset(edges[1:]), Y.roots))
            forests.append(Forest(Y.vertices, frozenset(edges[1:]) | {across}, Y.roots))
        for Z in forests:
            got = _msf_checks(F, Z)["basins"]
            assert got == _ref_trees_are_basins(F, Z)
            verdicts.append(got)
    assert verdicts.count(True) >= 30 and verdicts.count(False) >= 60
    # altitudes that are not monotone but pair every face once: each edge
    # of the 6-cycle drains into the next, so the flat links find no root;
    # the Morse route takes the collapse's labels, one basin over every
    # edge, which one tree over all edges matches
    X = cyc6_host()
    ring = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5)]
    alt = {e: i for i, e in enumerate(ring)}
    alt.update({(v,): i for i, v in enumerate((1, 2, 3, 4, 5, 0))})
    F = Stack(X, alt)
    G = build_facet_graph(F)
    path = frozenset(_edge(a, b) for a, b in zip(ring, ring[1:]))
    Z = Forest(frozenset(ring), path, frozenset(ring[:1]))
    assert morse_watershed(F) == watershed_collapse(F)
    assert _msf_checks(F, Z)["basins"] is _ref_trees_are_basins(F, Z) is True
