import random
from itertools import combinations
from typing import Iterable

import numpy as np
import pytest

from morseshed import _kernels, complexes, manifolds
from morseshed.complexes import (
    Complex,
    Face,
    _connected_labels,
    closure,
    connected_components,
    face_key,
    make_face,
    strong_connected_components,
)
from morseshed.fixtures import (
    branching_collapse_counterexample,
    branching_triangles,
    cyc6_host,
    tetrahedron_boundary,
    wedge,
)
from morseshed.manifolds import (
    _check_link_condition,
    _split_links,
    _split_strong_links,
    generate_torus,
    link,
    links_are_pseudomanifolds,
    open_star,
    validate,
)
from morseshed.oracles import strictly_connected_oracle
from test_complexes import _inclusion_pairs, _random_complexes


def test_link_of_cycle_vertex():
    lk = link((1,), cyc6_host())
    assert lk.faces == {(0,), (2,)}


def test_link_of_wedge_apex_is_disconnected():
    lk = link((0,), wedge())
    # two disjoint 3-cycles on {1,2,3} and {4,5,6}
    assert lk.faces == closure([(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]).faces
    assert len(connected_components(lk)) == 2


def test_link_of_edge_in_tetrahedron_boundary():
    lk = link((0, 1), tetrahedron_boundary())
    assert lk.faces == {(2,), (3,)}


def test_star_variants():
    X = closure([(0, 1, 2)])
    assert X.star((0, 1)) == {(0, 1), (0, 1, 2)}
    assert open_star((0, 1), X) == {(0, 1, 2)}


def test_validate_cyc6_is_normal():
    rep = validate(cyc6_host())
    assert rep.dim == 1
    assert rep.pure and rep.connected and rep.non_branching
    assert rep.strongly_connected and rep.strictly_connected
    assert rep.is_pseudomanifold and rep.is_normal


def test_validate_branching():
    rep = validate(branching_triangles())
    assert not rep.non_branching
    assert rep.witnesses["non_branching"] == (0, 1)
    assert not rep.is_pseudomanifold and not rep.is_normal


def test_validate_wedge():
    rep = validate(wedge())
    assert rep.pure and rep.connected and rep.non_branching
    assert not rep.strongly_connected
    assert not rep.link_condition
    assert rep.witnesses["link_condition"] == (0,)
    assert not rep.is_pseudomanifold and not rep.is_normal


def test_validate_tetrahedron_and_torus():
    for X in (tetrahedron_boundary(), generate_torus(3, 3)):
        rep = validate(X)
        assert rep.is_pseudomanifold and rep.is_normal


def test_validate_counts_the_components_that_the_lists_hold():
    # validate counts labels; the component lists are the reference
    hosts = [
        closure([(0, 1, 2), (3, 4, 5)]),
        closure([(0, 1, 2), (0, 3, 4), (5, 6, 7)]),
        closure([(0, 1, 2), (2, 3)]),
        closure([(0, 1, 2), (4,)]),
        closure(generate_torus(3, 3).faces_of_dim(2) + [(9, 10)]),
        wedge(), cyc6_host(), Complex(()),
    ]
    for X in hosts:
        rep = validate(X)
        comps = len(connected_components(X))
        assert rep.connected == (comps == 1)
        assert rep.witnesses.get("connected") == (f"{comps} components" if comps > 1 else None)
        strong = len(strong_connected_components(X, d=X.dim)) if rep.pure else 0
        assert rep.strongly_connected == (rep.pure and strong <= 1)
        assert rep.witnesses.get("strongly_connected") == (
            f"{strong} strong components" if strong > 1 else None
        )
    assert [validate(X).witnesses.get("connected") for X in hosts[:5]] == [
        "2 components", "2 components", None, "2 components", "2 components"
    ]


def _ref_component_count(X):
    """The components of X by the generic labeller over every face."""
    pk = X.packed()
    every = np.ones(len(pk), dtype=np.bool_)
    return int(np.count_nonzero(_connected_labels(pk, every) == np.arange(len(pk))))


def test_validate_counts_the_components_of_the_1_skeleton(monkeypatch):
    hosts = [
        cyc6_host(), wedge(), branching_triangles(), tetrahedron_boundary(),
        branching_collapse_counterexample()[0].host, _pinched_torus(),
        *(generate_torus(n, n) for n in (3, 4, 7)),
        closure([(0, 1, 2), (4,), (7,)]),  # isolated vertices
        closure([(3,), (5,), (9,)]),
        closure(generate_torus(3, 3).faces_of_dim(2) + [(20,), (21, 22)]),
        Complex(()),
        *_random_complexes(5, 30),
    ]
    want = [_ref_component_count(X) for X in hosts]
    assert {0, 1, 2, 3} <= set(want)

    def generic(*args):
        raise AssertionError("validate labelled every face")

    monkeypatch.setattr(complexes, "_connected_labels", generic)
    assert not hasattr(manifolds, "_connected_labels")
    for X, comps in zip(hosts, want):
        rep = validate(X)
        assert rep.connected == (comps == 1)
        assert rep.witnesses.get("connected") == (f"{comps} components" if comps > 1 else None)


def test_links_precondition_is_the_pseudomanifold_test(monkeypatch):
    # pure, non-branching and strongly connected, as validate decides it,
    # without the component count or the link condition
    hosts = [
        wedge(), branching_triangles(), branching_collapse_counterexample()[0].host,
        cyc6_host(), tetrahedron_boundary(), generate_torus(3, 3), _pinched_torus(),
        closure([(0, 1, 2), (3, 4, 5)]), closure([(0, 1, 2), (2, 3)]), closure([(0,), (1,)]),
        Complex(()), *_random_complexes(7, 40),
    ]
    want = [validate(X).is_pseudomanifold for X in hosts]
    assert want[:3] == [False, False, False] and want[3:7] == [True] * 4

    def unread(*args):
        raise AssertionError("the precondition ran more than the pseudomanifold test")

    for name in ("validate", "_count_components", "_split_links", "_check_link_condition"):
        monkeypatch.setattr(manifolds, name, unread)
    for X, ok in zip(hosts, want):
        if ok:
            assert links_are_pseudomanifolds(X)[0] in (True, False)
        else:
            with pytest.raises(ValueError, match="^input is not a pseudomanifold$"):
                links_are_pseudomanifolds(X)


def _tetrahedron_boundaries(seed, count):
    """Closures of the boundaries of one to three tetrahedra on eight
    vertices: those that share no edge are non-branching."""
    rng = random.Random(seed)
    for _ in range(count):
        quads = [rng.sample(range(8), 4) for _ in range(rng.randint(1, 3))]
        yield closure(t for q in quads for t in combinations(sorted(q), 3))


def _ref_strong_count(X):
    """The roots of `_strong_labels` over every face of a pure X."""
    pk = X.packed()
    every = np.ones(len(pk), dtype=np.bool_)
    return int(np.count_nonzero(complexes._strong_labels(pk, every, X.dim) == np.arange(len(pk))))


def test_strong_components_of_a_non_branching_host_are_its_facet_graphs(monkeypatch):
    hosts = [
        wedge(), branching_triangles(), _pinched_torus(), tetrahedron_boundary(), cyc6_host(),
        *(generate_torus(n, n) for n in (3, 4, 7, 12)),
        closure([(0, 1, 2), (3, 4, 5)]), closure([(0,), (1,), (2,)]),
        closure([(0, 1, 2), (0, 1, 3), (0, 1, 4), (5, 6, 7)]),  # branching, two parts
        _suspension(wedge()),
        *(X for X in _random_complexes(11, 100) if X.is_pure()),
        *_tetrahedron_boundaries(12, 60),
    ]
    want = [_ref_strong_count(X) for X in hosts]
    assert want[:13] == [2, 1, 1, 1, 1, 1, 1, 1, 1, 2, 3, 2, 2]
    branching = [bool((X.n_cofaces[X.seps] != 2).any()) for X in hosts]
    assert sum(branching) > 30 and len(hosts) - sum(branching) > 30
    assert {1, 2, 3} <= {n for n, b in zip(want, branching) if not b}
    real = manifolds._strong_labels

    def branching_only(pk, member, d):
        assert (pk.n_cofaces[pk.seps] != 2).any(), "a non-branching host labelled every face"
        return real(pk, member, d)

    monkeypatch.setattr(manifolds, "_strong_labels", branching_only)
    for X, n in zip(hosts, want):
        assert manifolds._count_strong_components(X) == n
        rep = validate(X)
        assert rep.strongly_connected == (n <= 1)
        assert rep.witnesses.get("strongly_connected") == (f"{n} strong components" if n > 1 else None)


def test_validate_report_lines():
    lines = validate(cyc6_host()).as_lines()
    assert "is_normal=True" in lines
    assert any(line.startswith("dim=1") for line in lines)


def _pinched_torus():
    """TOR(6,6) with the vertices (0,0) and (3,3), ids 0 and 21, made one:
    a pseudomanifold, but not normal, since the link of 0 is two hexagons."""
    tris = generate_torus(6, 6).faces_of_dim(2)
    return closure(tuple(0 if v == 21 else v for v in t) for t in tris)


def _suspension(X):
    """X joined with two new vertices: the link of each apex is X."""
    top = max(v for (v,) in X.faces_of_dim(0)) + 1
    return closure(f + (apex,) for f in X.faces_of_dim(X.dim) for apex in (top, top + 1))


def _ref_links_are_pseudomanifolds(X):
    """The per-face loop: one link complex and one validate per face."""
    if not validate(X).is_pseudomanifold:
        raise ValueError("input is not a pseudomanifold")
    bad = []
    for p in range(0, X.dim - 1):
        for x in X.faces_of_dim(p):
            if not validate(link(x, X)).is_pseudomanifold:
                bad.append(x)
    return (not bad, bad)


def test_links_are_pseudomanifolds():
    ok, bad = links_are_pseudomanifolds(tetrahedron_boundary())
    assert ok and bad == []
    ok, bad = links_are_pseudomanifolds(generate_torus(3, 3))
    assert ok
    with pytest.raises(ValueError):
        links_are_pseudomanifolds(wedge())
    pinched = _pinched_torus()
    rep = validate(pinched)
    assert rep.is_pseudomanifold and not rep.is_normal
    assert links_are_pseudomanifolds(pinched) == (False, [(0,)])


def test_batched_links_match_per_face_validate():
    hosts = [
        cyc6_host(),
        tetrahedron_boundary(),
        generate_torus(3, 3),
        generate_torus(4, 5),
        _pinched_torus(),
        closure(combinations(range(5), 4)),  # the 3-sphere
        closure(combinations(range(6), 5)),  # the 4-sphere
        _suspension(generate_torus(3, 3)),
        _suspension(_pinched_torus()),
    ]
    bad_seen = 0
    for X in hosts:
        result = links_are_pseudomanifolds(X)
        assert result == _ref_links_are_pseudomanifolds(X)
        bad_seen += len(result[1])
    assert bad_seen >= 3


def test_strictly_connected_oracle_on_4_cycle():
    X = closure([(0, 1), (1, 2), (2, 3), (0, 3)])
    assert strictly_connected_oracle(X)


def test_strictly_connected_oracle_guards_size():
    with pytest.raises(ValueError):
        strictly_connected_oracle(wedge())


def test_strictly_connected_oracle_pinched_triangles():
    # two triangles sharing one vertex: the open star around the pinch
    # vertex is connected but not strongly connected
    X = closure([(0, 1, 2), (2, 3, 4)])
    assert not strictly_connected_oracle(X)
    assert not validate(X).strictly_connected


def test_oracle_agrees_with_validate_on_small_fixtures():
    for X in (
        cyc6_host(),
        tetrahedron_boundary(),
        branching_triangles(),
        closure([(0, 1), (1, 2), (2, 3), (0, 3)]),
        closure([(0, 1, 2), (2, 3, 4)]),
    ):
        rep = validate(X)
        normal_by_def = (
            rep.is_pseudomanifold and rep.connected and strictly_connected_oracle(X)
        )
        assert normal_by_def == rep.is_normal


def test_generate_torus_counts():
    X = generate_torus(3, 3)
    assert len(X.faces_of_dim(0)) == 9
    assert len(X.faces_of_dim(1)) == 27
    assert len(X.faces_of_dim(2)) == 18
    assert X.euler_characteristic() == 0
    Y = generate_torus(4, 3)
    assert len(Y.faces_of_dim(0)) == 12
    assert len(Y.faces_of_dim(1)) == 36
    assert len(Y.faces_of_dim(2)) == 24
    assert Y.euler_characteristic() == 0


def test_generate_torus_is_the_closure_of_its_triangles():
    # the grid square at (i, j) splits along its anti-diagonal into two triangles
    for n, m in ((3, 3), (3, 5), (4, 3), (7, 6), (12, 12)):
        def vid(i, j):
            return i % n * m + j % m

        tris = [
            t
            for i in range(n)
            for j in range(m)
            for t in ((vid(i, j), vid(i + 1, j), vid(i, j + 1)),
                      (vid(i + 1, j), vid(i, j + 1), vid(i + 1, j + 1)))
        ]
        X = generate_torus(n, m)
        assert X == closure(tris)
        assert X.sorted_faces() == closure(tris).sorted_faces()


def test_generate_torus_guards():
    with pytest.raises(ValueError):
        generate_torus(2, 3)
    with pytest.raises(ValueError):
        generate_torus(3, 2)


# -- references: the face-scanning versions ------------------------------------


def _ref_star(x, X):
    xs = set(x)
    return frozenset(y for y in X.faces if xs.issubset(y))


def _ref_link(x, X):
    xs = set(x)
    return Complex(
        [y for y in X.faces if xs.isdisjoint(y) and make_face(set(y) | xs) in X.faces]
    )


def _ref_facets_of_subset(X: Complex, members: set[Face]) -> list[Face]:
    return sorted(
        (x for x in members if not any(y in members for y in X.cofaces[x])),
        key=face_key,
    )


def _ref_strong_connected_components(
    X: Complex, S: Iterable[Face] | None = None, d: int | None = None
) -> list[set[Face]]:
    """The face-scanning version: each non-facet member scans every
    placed d-face for a container."""
    members = set(X.faces) if S is None else set(S)
    facets = _ref_facets_of_subset(X, members)
    if d is None:
        d = max((len(x) - 1 for x in facets), default=-1)
    top = [x for x in facets if len(x) - 1 == d]
    parent: dict[Face, Face] = {x: x for x in top}

    def find(x: Face) -> Face:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: Face, b: Face) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    for z in X.by_dim.get(d - 1, []) if d >= 1 else []:
        if z not in members:
            continue
        tops = [y for y in X.cofaces[z] if y in parent]
        for a, b in zip(tops, tops[1:]):
            union(a, b)

    groups: dict[Face, set[Face]] = {}
    for x in top:
        groups.setdefault(find(x), set()).add(x)
    comps = sorted(groups.values(), key=lambda c: min(map(face_key, c)))
    # attach remaining members to the component of a containing facet
    placed = {x: i for i, comp in enumerate(comps) for x in comp}
    for x in sorted(members, key=face_key):
        if x in placed:
            continue
        owners = sorted(
            (i for y, i in placed.items() if len(y) - 1 == d and set(x) <= set(y)),
        )
        if owners:
            comps[owners[0]].add(x)
        else:
            comps.append({x})
    return sorted(comps, key=lambda c: min(map(face_key, c)))


def _reference_hosts():
    yield from (cyc6_host(), wedge(), branching_triangles(), tetrahedron_boundary())
    yield branching_collapse_counterexample()[0].host
    yield closure([(0, 1, 2), (2, 3, 4)])
    for n in range(3, 9):
        yield generate_torus(n, n)


def test_link_and_star_match_face_scans():
    for X in _reference_hosts():
        for x in X.sorted_faces():
            assert X.star(x) == _ref_star(x, X)
            assert link(x, X) == _ref_link(x, X)
    with pytest.raises(KeyError):
        link((99,), cyc6_host())


def test_strong_components_match_face_scan():
    rng = random.Random(7)
    for X in _reference_hosts():
        subsets = [None, X.faces - {X.sorted_faces()[0]}]
        faces = X.sorted_faces()
        for _ in range(4):  # random open subsets: unions of stars
            S = set()
            for x in rng.sample(faces, max(1, len(faces) // 8)):
                S |= X.star(x)
            subsets.append(S)
        subsets.append(set(rng.sample(faces, len(faces) // 2)))  # any subset
        for S in subsets:
            for d in (None, X.dim - 1):
                assert strong_connected_components(X, S, d) == (
                    _ref_strong_connected_components(X, S, d)
                )


def _ref_check_link_condition(X):
    """The per-face loop: one link complex and one labelling per face."""
    for p in range(0, X.dim - 1):
        for x in X.faces_of_dim(p):
            if len(connected_components(link(x, X))) > 1:
                return x
    return None


def _sphere3(vs):
    """Boundary of the 4-simplex on five vertices."""
    return list(combinations(vs, 4))


def test_batched_link_check_matches_per_face_loop():
    glued_at_vertex = closure(_sphere3(range(5)) + _sphere3((0, 5, 6, 7, 8)))
    glued_along_edge = closure(_sphere3(range(5)) + _sphere3((0, 1, 5, 6, 7)))
    assert _check_link_condition(glued_at_vertex) == (0,)
    assert _check_link_condition(glued_along_edge) == (0, 1)
    hosts = [
        glued_at_vertex,
        glued_along_edge,
        closure(_sphere3(range(5)) + _sphere3((0, 1, 2, 5, 6))),  # along a triangle
        closure(_sphere3(range(5))),
        closure(combinations(range(6), 5)),  # the 4-sphere
        closure([(0, 1, 2, 3), (0, 4, 5, 6), (1, 2, 7)]),  # not pure
        closure([(0, 1, 2), (3,)]),
    ]
    hosts += list(_reference_hosts())
    witnesses = []
    for X in hosts:
        witnesses.append(_check_link_condition(X))
        assert witnesses[-1] == _ref_check_link_condition(X)
        assert validate(X).link_condition == (witnesses[-1] is None)
    assert sum(w is not None for w in witnesses) >= 4


def _ref_split_links(X, strong=False):
    """The faces x (p <= d-2) whose link is disconnected or, with `strong`,
    not strongly connected, from the inclusion pairs: the nodes are the
    pairs (x, y), with dim y >= d-1 under `strong`, and (x, y) meets (x, w)
    when w is a boundary face of y.  Keys are sorted, and each boundary
    face is found by binary search."""
    pk = X.packed()
    n, off = len(pk), pk.dim_offset.tolist()
    sub, sup = _inclusion_pairs(pk)
    low = sub < pk.seps.start
    if strong:
        low &= sup >= pk.seps.start
    key = np.sort(sub[low] * n + sup[low])  # node i is the pair key[i]
    x, y = np.divmod(key, n)
    a, b = [], []
    for q, bd in enumerate(pk.bd[1:], start=1):
        at = np.flatnonzero((y >= off[q]) & (y < off[q + 1]))
        cand = x[at, None] * n + bd[y[at] - off[q]]
        pos = np.minimum(np.searchsorted(key, cand), key.size - 1)
        hit = key[pos] == cand
        a.append(pos[hit])
        b.append(np.broadcast_to(at[:, None], cand.shape)[hit])
    root = _kernels.components(np.concatenate(a), np.concatenate(b), key.size)
    roots = np.bincount(x[root == np.arange(key.size)], minlength=n)
    return np.flatnonzero(roots > 1)


def _join(X, Y):
    """The join of X and Y, the vertices of Y shifted past those of X."""
    shift = max(v for (v,) in X.faces_of_dim(0)) + 1
    return closure(x + tuple(v + shift for v in y)
                   for x in X.faces_of_dim(X.dim) for y in Y.faces_of_dim(Y.dim))


def test_link_labellers_match_the_inclusion_pair_labeller():
    # both labellers as full index lists, on random complexes of dimension
    # 2 to 4 and on pseudomanifolds, among them hosts whose strong and
    # plain lists differ: the suspension of the pinched torus, whose
    # apexes have the pinched torus as link, and a join of dimension 4
    hosts = list(_random_complexes(9, 150))
    hosts += [tetrahedron_boundary(), generate_torus(4, 5), _pinched_torus(), wedge()]
    hosts += [closure(combinations(range(6), 5)), _suspension(_pinched_torus())]
    hosts += [_join(_pinched_torus(), closure([(0, 1), (1, 2), (0, 2)]))]
    hosts += [_join(cyc6_host(), tetrahedron_boundary())]
    assert sorted({X.dim for X in hosts}) == [2, 3, 4]
    split = strong_only = 0
    for X in hosts:
        plain, strong = _split_links(X).tolist(), _split_strong_links(X).tolist()
        assert plain == _ref_split_links(X).tolist(), X
        assert strong == _ref_split_links(X, strong=True).tolist(), X
        split += bool(plain)
        strong_only += bool(set(strong) - set(plain))
    assert split >= 20 and strong_only >= 2
