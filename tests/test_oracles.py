"""The exponential oracles: kept apart from the production modules, and in
agreement with the linear-time checks that replaced them there."""

import ast
import importlib.util
import random
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest

import morseshed
from morseshed import _kernels
from morseshed.complexes import Complex, closure, face_key
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.oracles import (
    Forest,
    WeightedFacetGraph,
    _edge,
    _msf_checks,
    build_facet_graph,
    enumerate_msfs,
    msf_is_unique,
    msf_weight,
    watershed_forest,
)
from morseshed.stacks import Stack
from morseshed.watershed import morse_watershed, verify_msf_theorem
from test_cli_golden import _ref_msf_checks


def _ref_verify_msf_theorem(F):
    """verify_msf_theorem as it was while `unique` was decided by listing
    every minimum spanning forest of a facet graph of at most 12 vertices."""
    G, Y = build_facet_graph(F), watershed_forest(F)
    checks = _ref_msf_checks(F, G, Y)
    _, all_msfs = enumerate_msfs(G, Y.roots, 12)
    checks["unique"] = all_msfs == [Y.edges]
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


def test_certificate_matches_the_oracles():
    # Morse stacks on TOR(3..8), the boundaries of the 3- and 4-simplex and
    # the 6-cycle; each with its watershed forest, that forest with one
    # tree edge swapped for another edge, and with one edge dropped or added
    hosts = [generate_torus(n, n) for n in range(3, 9)]
    hosts += [tetrahedron_boundary(), closure(combinations(range(5), 4)), cyc6_host()]
    rng = random.Random(3)
    stacks = [
        random_morse_stack(X, seed=s, n_minima=1 + s % 5) for X in hosts for s in range(34)
    ]
    seen = {"unrooted": 0, "rooted, not minimum": 0, "basins": 0, "min_edge": 0}
    for i, F in enumerate(stacks):
        G, Y = build_facet_graph(F), watershed_forest(F)
        checks = _msf_checks(F, Y)
        assert checks == _ref_msf_checks(F, G, Y) and all(checks.values())
        tree, other = sorted(Y.edges), sorted(set(G.edges) - Y.edges)
        swapped = set(Y.edges) | {rng.choice(other)}
        if tree:
            swapped.discard(rng.choice(tree))
        if i % 2 and tree:
            changed = set(Y.edges) - {rng.choice(tree)}
        else:
            changed = set(Y.edges) | {rng.choice(other)}
        for edges in (swapped, changed):
            Z = Forest(Y.vertices, frozenset(edges), Y.roots)
            got, ref = _msf_checks(F, Z), _ref_msf_checks(F, G, Z)
            for k in ("rooted", "basins", "min_edge"):
                assert got[k] == ref[k], (i, k)
            seen["basins"] += not ref["basins"]
            seen["min_edge"] += not ref["min_edge"]
            for k in ("weight", "unique"):
                assert ref[k] or not got[k], (i, k)  # never accepts what the oracle rejects
            if not ref["rooted"]:
                seen["unrooted"] += 1
            elif not ref["weight"]:
                seen["rooted, not minimum"] += 1
    assert len(stacks) >= 300
    assert min(seen.values()) >= 50, seen  # every check rejects some forests


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


MOVED = {  # the definitions the engine modules held before `definitions` did
    "complexes": ["covering_pairs", "is_free_pair", "free_pairs", "collapse", "ultimate_collapse",
                  "is_closed_subset", "is_open_subset", "FaceSubset"],
    "stacks": ["_flat_cofaces", "is_stack_free_pair", "stack_free_pairs", "stack_collapse"],
    "morse": ["LambdaPath", "Extended", "AtMinimum", "Blocked", "extend_path", "_trace_step",
              "trace_to_minimum", "trace_all", "separating_faces", "biconnected_faces",
              "_is_flat_dmf", "dmf_dual_check"],
}


def _imports(path):
    """The modules, and module.name for each name taken from one, that the
    source file at `path` imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            yield node.module or ""
            yield from (f"{node.module}.{a.name}" if node.module else a.name for a in node.names)
        elif isinstance(node, ast.Import):
            yield from (a.name for a in node.names)


@pytest.mark.parametrize("module, allowed", [
    ("oracles", {"__init__.py"}),
    ("definitions", {"__init__.py", "watershed.py"}),
])
def test_only_the_package_root_imports_the_oracles(module, allowed):
    src = Path(morseshed.__file__).parent
    importers = {path.name for path in src.glob("*.py")
                 if any(name.split(".")[-1] == module for name in _imports(path))}
    assert importers == allowed
    # the references share no array kernel with the engine they check
    assert all(name.split(".")[-1] != "_kernels" for name in _imports(src / "oracles.py"))
    assert {"enumerate_msfs", "msf_oracle", "stack_collapse", "trace_all"} <= set(morseshed.__all__)
    for engine, names in MOVED.items():
        assert [name for name in names if hasattr(getattr(morseshed, engine), name)] == []
        assert all(hasattr(morseshed.definitions, name) for name in names)


TUPLE_OBJECTS = ["WeightedFacetGraph", "Forest", "build_facet_graph", "watershed_forest"]


def test_only_the_oracles_hold_the_tuple_objects():
    # the face-tuple graph and forest are the references': no engine module
    # defines or imports them, and the module that held them is gone
    src = Path(morseshed.__file__).parent
    names = {*TUPLE_OBJECTS, "_msf_checks"}
    holders = set()
    for path in src.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                held = {node.name}
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                held = {part for a in node.names for part in (a.name, a.asname)}
            else:
                continue
            if held & names:
                holders.add(path.name)
    assert holders == {"oracles.py", "__init__.py"}
    assert importlib.util.find_spec("morseshed.forest") is None
    # the root keeps every name; `_msf_checks` is private and stays out
    assert {*TUPLE_OBJECTS, "verify_msf_theorem"} <= set(morseshed.__all__)
    assert all(getattr(morseshed, name) is getattr(morseshed.oracles, name)
               for name in TUPLE_OBJECTS)
    assert morseshed.verify_msf_theorem is morseshed.watershed.verify_msf_theorem


def test_forest_trees_read_no_engine_kernel(monkeypatch):
    # `Forest.trees` groups by the oracles' own union-find: with a
    # components labeller that merges nothing, the trees are still the
    # route's basins on the d-faces, in canonical order of their smallest
    cases = [cyc6_stack(), random_morse_stack(generate_torus(6, 6), seed=4, n_minima=3)]
    refs = []
    for F in cases:
        d = F.host.dim
        tops = [frozenset(x for x in fs if len(x) == d + 1) for _, fs in morse_watershed(F).basins]
        refs.append(sorted(tops, key=lambda t: face_key(min(t, key=face_key))))
    monkeypatch.setattr(_kernels, "components", lambda a, b, n: np.arange(n))
    for F, ref in zip(cases, refs):
        assert len(ref) > 1 and watershed_forest(F).trees() == ref
