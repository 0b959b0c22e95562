"""The exponential oracles: kept apart from the production modules, and in
agreement with the linear-time checks that replaced them there."""

import ast
import random
from itertools import combinations
from pathlib import Path

import morseshed
from morseshed.complexes import Complex, closure
from morseshed.fixtures import cyc6_stack, tetrahedron_boundary
from morseshed.forest import (
    WeightedFacetGraph,
    _edge,
    _lightest_at_an_endpoint,
    build_facet_graph,
    is_rooted_forest,
    msf_is_unique,
    msf_weight,
    verify_msf_theorem,
    watershed_forest,
)
from morseshed.morse import random_morse_stack
from morseshed.oracles import enumerate_msfs
from morseshed.stacks import Stack
from morseshed.watershed import WATERSHED_LABEL, morse_watershed


def _ref_verify_msf_theorem(F):
    """verify_msf_theorem as it was while `unique` was decided by listing
    every minimum spanning forest of a facet graph of at most 12 vertices."""
    G, Y = build_facet_graph(F), watershed_forest(F)
    checks = {}
    checks["rooted"] = is_rooted_forest(set(Y.vertices), set(Y.edges), set(Y.roots))
    checks["weight"] = Y.weight(G) == msf_weight(G, Y.roots)
    _, all_msfs = enumerate_msfs(G, Y.roots, 12)
    checks["unique"] = all_msfs == [Y.edges]
    X = F.host
    top_lo = int(X.packed().dim_offset[X.dim])
    label = morse_watershed(F)._label[top_lo:].tolist()
    index = {x: i for i, x in enumerate(X.faces_of_dim(X.dim))}
    ids = [{label[index[x]] for x in members} for members in Y.trees()]
    checks["basins"] = (
        WATERSHED_LABEL not in label
        and all(len(s) == 1 for s in ids)
        and len(set().union(*ids)) == len(ids)
    )
    checks["min_edge"] = _lightest_at_an_endpoint(G, Y.edges)
    return checks


def _small_hosts():
    """Closed pseudomanifolds with at most 12 facets."""
    for n in range(3, 13):  # cycles
        yield closure([(i, (i + 1) % n) for i in range(n)])
    yield tetrahedron_boundary()
    yield closure([(0, 1, 2), (0, 1, 3), (0, 2, 3), (4, 1, 2), (4, 1, 3), (4, 2, 3)])
    yield closure(  # octahedron
        [(a, b, c) for a in (0, 1) for b in (2, 3) for c in (4, 5)]
    )
    yield closure(combinations(range(5), 4))  # boundary of the 4-simplex


def test_msf_checks_match_the_enumeration():
    stacks = [cyc6_stack(), Stack(Complex(()), {})]
    for X in _small_hosts():
        stacks += [
            random_morse_stack(X, seed=s, n_minima=k) for s in range(4) for k in (1, 2, 3)
        ]
    for F in stacks:
        assert len(build_facet_graph(F).vertices) <= 12
        checks = verify_msf_theorem(F)
        assert checks == _ref_verify_msf_theorem(F)
        assert all(checks.values())
    assert len(stacks) == 2 + 14 * 12


def test_tie_test_matches_the_enumeration():
    rng = random.Random(11)
    verdicts = set()
    for _ in range(300):
        n = rng.randint(1, 8)
        vs = [(i,) for i in range(n)]
        edges = {}
        for i in range(1, n):  # a random spanning tree keeps G connected
            edges[_edge(vs[rng.randrange(i)], vs[i])] = rng.randint(1, 2)
        for a, b in combinations(vs, 2):
            if rng.random() < 0.3:
                edges[_edge(a, b)] = rng.randint(1, 2)
        G = WeightedFacetGraph(tuple(vs), edges, {e: e[0] for e in edges})
        roots = frozenset(rng.sample(vs, rng.randint(1, min(3, n))))
        unique = msf_is_unique(G, roots)
        assert unique == (len(enumerate_msfs(G, roots)[1]) == 1)
        verdicts.add(unique)
    assert verdicts == {True, False}
    empty = WeightedFacetGraph((), {}, {})
    assert msf_weight(empty, frozenset()) == 0 and msf_is_unique(empty, frozenset())


def test_only_the_package_root_imports_the_oracles():
    src = Path(morseshed.__file__).parent
    importers = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [
                    f"{node.module}.{a.name}" if node.module else a.name for a in node.names
                ]
            elif isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            else:
                continue
            if any(name.split(".")[-1] == "oracles" for name in names):
                importers.add(path.name)
    assert importers == {"__init__.py"}
    assert {"enumerate_msfs", "msf_oracle"} <= set(morseshed.__all__)
