import random
from itertools import combinations
from typing import Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshed import io
from morseshed.complexes import Complex, Face, closure, face_key
from morseshed.definitions import (
    AtMinimum,
    Blocked,
    Extended,
    LambdaPath,
    biconnected_faces,
    dmf_dual_check,
    extend_path,
    separating_faces,
    stack_free_pairs,
    trace_all,
    trace_to_minimum,
)
from morseshed.fixtures import branching_triangles, cyc6_host, cyc6_stack, tetrahedron_boundary, wedge
from morseshed.manifolds import generate_torus
from morseshed.morse import (
    GradientField,
    classify,
    flat_pairs,
    gradient,
    is_morse,
    random_morse_stack,
    stack_from_gradient,
)
from morseshed.stacks import Stack, StackError, random_stack, validate_stack


def constant_stack(X, value=0):
    return Stack(X, {x: value for x in X.faces})


def strictly_decreasing_stack(X):
    return Stack(X, {x: -len(x) for x in X.faces})


FIX_FLAT_PAIRS = {
    ((0,), (0, 5)),
    ((1,), (1, 2)),
    ((2,), (2, 3)),
    ((4,), (4, 5)),
}


def test_flat_pairs_fixture():
    assert flat_pairs(cyc6_stack()) == FIX_FLAT_PAIRS


def test_is_morse():
    assert is_morse(cyc6_stack()) == (True, None)
    ok, witness = is_morse(constant_stack(tetrahedron_boundary()))
    assert not ok and witness is not None
    assert is_morse(strictly_decreasing_stack(cyc6_host())) == (True, None)


def test_gradient():
    assert gradient(cyc6_stack()).pairs == frozenset(FIX_FLAT_PAIRS)
    assert gradient(strictly_decreasing_stack(cyc6_host())).pairs == frozenset()
    with pytest.raises(StackError):
        gradient(constant_stack(tetrahedron_boundary()))


def test_classify_fixture():
    rep = classify(cyc6_stack())
    assert rep.critical == {(0, 1), (3, 4), (3,), (5,)}
    assert len(rep.regular) == 8
    assert rep.critical_of_dim(0) == [(3,), (5,)]
    assert rep.critical_of_dim(1) == [(0, 1), (3, 4)]


def test_classify_all_critical_when_no_flat_pair():
    F = strictly_decreasing_stack(cyc6_host())
    assert classify(F).critical == F.host.faces


def test_free_pairs_equal_flat_pairs_on_morse_stacks():
    F = cyc6_stack()
    assert stack_free_pairs(F) == flat_pairs(F)
    for seed in range(10):
        G = random_morse_stack(generate_torus(3, 3), seed=seed)
        assert stack_free_pairs(G) == flat_pairs(G)


def test_extend_path_reversed_walk_to_minimum():
    F = cyc6_stack()
    faces = [(2, 3)]
    expected = [(2,), (1, 2), (1,), (0, 1)]
    for want in expected:
        step = extend_path(F, LambdaPath(tuple(faces), p=1, reverse=True))
        assert step == Extended(want)
        faces.insert(0, want)
    assert isinstance(
        extend_path(F, LambdaPath(tuple(faces), p=1, reverse=True)), AtMinimum
    )


def test_extend_path_forward_blocked_at_separating_vertex():
    F = cyc6_stack()
    path = LambdaPath(((3, 4), (4,), (4, 5), (5,)), p=1)
    path.check(F)
    assert extend_path(F, path) == Blocked((5,))


def test_extend_path_reversed_at_minimum():
    F = cyc6_stack()
    assert isinstance(
        extend_path(F, LambdaPath(((0, 1),), p=1, reverse=True)), AtMinimum
    )


def test_lambda_path_check_rejects_bad_paths():
    F = cyc6_stack()
    with pytest.raises(ValueError):
        LambdaPath(((0, 1), (3,)), p=1).check(F)  # not a covering pair
    with pytest.raises(ValueError):
        LambdaPath(((2, 3), (2,), (1, 2)), p=1).check(F)  # descending order


def test_trace_to_minimum_fixture():
    F = cyc6_stack()
    m, path = trace_to_minimum(F, (2, 3))
    assert m == (0, 1)
    assert path.faces == ((0, 1), (1,), (1, 2), (2,), (2, 3))
    path.check(F)
    m, path = trace_to_minimum(F, (4, 5))
    assert m == (3, 4)
    assert path.faces == ((3, 4), (4,), (4, 5))
    m, path = trace_to_minimum(F, (0, 1))
    assert m == (0, 1) and path.faces == ((0, 1),)


def test_trace_all_fixture():
    mins = trace_all(cyc6_stack())
    assert mins[(2, 3)] == (0, 1)
    assert mins[(4, 5)] == (3, 4)
    assert set(mins.values()) == {(0, 1), (3, 4)}


def _ref_trace_all(F):
    """Reference: every d-face walked down on its own, through the flat
    face of each d-face on the way, to a d-face with none."""
    X, alt = F.host, F.altitude
    out = {}
    for x in X.faces_of_dim(X.dim):
        m = x
        while flat := [z for z in X.boundary[m] if alt[z] == alt[m]]:
            (m,) = [y for y in X.cofaces[flat[0]] if y != m]
        out[x] = m
    return out


def _ref_flat_pairs(F):
    """Reference: the covering pairs read off the boundary dict."""
    out = set()
    for y in F.host.faces:
        fy = F.altitude[y]
        for x in F.host.boundary[y]:
            if F.altitude[x] == fy:
                out.add((x, y))
    return out


def _traced_stacks():
    hosts = [cyc6_host(), tetrahedron_boundary()]
    hosts += [closure(combinations(range(k), k - 1)) for k in (5, 6)]  # boundaries of 4-, 5-simplex
    hosts += [generate_torus(n, n) for n in range(3, 9)]
    stacks = [cyc6_stack(), Stack(Complex(()), {})]
    stacks += [random_morse_stack(X, seed=s, n_minima=1 + 2 * s) for X in hosts for s in range(2)]
    return stacks, hosts


def test_trace_all_matches_the_walk_from_each_face():
    stacks, _ = _traced_stacks()
    for F in stacks:
        ref = _ref_trace_all(F)
        assert list(trace_all(F).items()) == list(ref.items())
        for x in F.host.faces_of_dim(F.host.dim)[:20]:
            m, path = trace_to_minimum(F, x)
            assert m == ref[x] and path.faces[0] == m and path.faces[-1] == x
            path.check(F)
    # one minimum on TOR(40,40): every trace ends in the same facet
    F = random_morse_stack(generate_torus(40, 40), seed=0, n_minima=1)
    assert trace_all(F) == _ref_trace_all(F)


def test_flat_pairs_match_the_boundary_loop():
    stacks, hosts = _traced_stacks()
    stacks += [random_stack(X, seed=1, low=0, high=2) for X in hosts]  # not Morse, mostly
    stacks += [constant_stack(X) for X in hosts[:3]]
    for F in stacks:
        assert flat_pairs(F) == _ref_flat_pairs(F)


def test_biconnected_and_separating_fixture():
    F = cyc6_stack()
    assert biconnected_faces(F) == {(3,), (5,)}
    assert separating_faces(F) == {(3,), (5,)}


def test_single_minimum_has_no_biconnected_faces():
    F = random_morse_stack(tetrahedron_boundary(), seed=0)
    from morseshed.stacks import minima

    if len(minima(F).minima) == 1:
        assert biconnected_faces(F) == set()


@given(st.integers(0, 500))
@settings(max_examples=50, deadline=None)
def test_random_morse_stack_is_morse(seed):
    for host in (closure([(0, 1, 2)]), cyc6_host(), tetrahedron_boundary()):
        F = random_morse_stack(host, seed=seed)
        assert validate_stack(F) == (True, None)
        assert is_morse(F) == (True, None)


def test_random_morse_stack_critical_counts():
    for seed in range(30):
        F = random_morse_stack(closure([(0, 1, 2)]), seed=seed)
        crit = classify(F).critical
        assert len(crit) == 1 and len(next(iter(crit))) == 1  # one vertex
        G = random_morse_stack(cyc6_host(), seed=seed)
        assert len(classify(G).critical) == 2


def test_random_morse_stack_minima_count():
    from morseshed.stacks import minima

    host = tetrahedron_boundary()
    for seed in range(10):
        # the default process leaves exactly one minimum on a closed host
        assert len(minima(random_morse_stack(host, seed=seed)).minima) == 1
        for k in (2, 3):
            F = random_morse_stack(host, seed=seed, n_minima=k)
            assert is_morse(F) == (True, None)
            assert len(minima(F).minima) == k
        # n_minima=1 coincides with the default
        assert dict(random_morse_stack(host, seed=seed, n_minima=1).altitude) == dict(
            random_morse_stack(host, seed=seed).altitude
        )


def test_random_morse_stack_rejects_fewer_than_one_minimum():
    for host in (tetrahedron_boundary(), closure([])):
        for k in (0, -3):
            with pytest.raises(ValueError, match=f"n_minima must be >= 1, not {k}"):
                random_morse_stack(host, seed=0, n_minima=k)
    # a request above the number of d-faces gives one minimum per d-face
    from morseshed.stacks import minima

    assert len(minima(random_morse_stack(tetrahedron_boundary(), seed=1, n_minima=9)).minima) == 4


def _ref_random_morse_stack(X: Complex, seed: int = 0, n_minima: int = 1) -> Stack:
    """Reference for `random_morse_stack`: the same process and the same
    random draws on face tuples, through the host's tuple-keyed `cofaces`
    and `boundary` dicts and face sets."""
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


@pytest.mark.parametrize(
    "host",
    [generate_torus(n, n) for n in range(3, 14)] + [
        generate_torus(3, 7),
        cyc6_host(),
        tetrahedron_boundary(),
        closure(combinations(range(5), 4)),  # the boundary of the 4-simplex
        wedge(),
        branching_triangles(),
        closure([(0, 1, 2), (2, 3), (3, 4), (5,)]),  # not pure
        closure([(0,), (2,), (7,)]),  # vertices only
        closure([]),
    ],
    ids=repr,
)
def test_random_morse_stack_matches_the_tuple_process(host):
    d_faces = len(host.faces_of_dim(host.dim))
    for seed in range(4):
        for k in (1, 2, 5, d_faces + 1):
            F, ref = random_morse_stack(host, seed, k), _ref_random_morse_stack(host, seed, k)
            assert np.array_equal(F.alt_array(), ref.alt_array())
            assert dict(F.altitude) == dict(ref.altitude)


def test_random_morse_stack_matches_the_tuple_process_on_a_large_torus():
    X = generate_torus(60, 60)
    F, ref = random_morse_stack(X, 7, 20), _ref_random_morse_stack(X, 7, 20)
    assert np.array_equal(F.alt_array(), ref.alt_array()) and F == ref


def test_random_morse_stack_builds_no_face_tuple():
    X = generate_torus(6, 6)
    F = random_morse_stack(X, seed=2, n_minima=3)
    assert "altitude" not in vars(F)
    for view in ("face_list", "faces", "by_dim", "boundary", "cofaces"):
        with pytest.raises(AttributeError):
            Complex.__dict__[view].__get__(X)  # the slot is still unset


def test_random_morse_stack_empty_complex():
    F = random_morse_stack(closure([]), seed=0)
    assert dict(F.altitude) == {}


def test_stack_from_gradient_empty_matching_on_edge():
    X = closure([(0, 1)])
    F = stack_from_gradient(X, GradientField(frozenset()))
    assert F.altitude[(0, 1)] == 1
    assert F.altitude[(0,)] == 2 and F.altitude[(1,)] == 2
    assert classify(F).critical == X.faces


def test_stack_from_gradient_round_trip_fixture():
    F = cyc6_stack()
    V = gradient(F)
    G = stack_from_gradient(F.host, V)
    assert is_morse(G) == (True, None)
    assert gradient(G).pairs == V.pairs
    assert classify(G).critical == classify(F).critical


def test_stack_from_gradient_rejects_bad_matchings():
    X = closure([(0, 1, 2)])
    with pytest.raises(ValueError):
        stack_from_gradient(
            X,
            GradientField(frozenset({((0,), (0, 1)), ((0,), (0, 2))})),
        )
    with pytest.raises(ValueError):
        stack_from_gradient(X, GradientField(frozenset({((0,), (1, 2))})))


def test_stack_from_gradient_rejects_cycles():
    X = closure([(0, 1), (1, 2), (0, 2)])
    V = GradientField(
        frozenset({((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))})
    )
    with pytest.raises(ValueError):
        stack_from_gradient(X, V)


def _ref_stack_from_gradient(X: Complex, V: GradientField) -> Stack:
    """Reference for `stack_from_gradient`: the same contraction and
    longest-path layering on face tuples, through the host's tuple-keyed
    `faces` and `boundary` views, dicts of sets and a Kahn pass."""
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
    return Stack(X, {f: value[node(f)] for f in X.faces})


@pytest.mark.parametrize(
    "host",
    [generate_torus(n, n) for n in range(3, 14)] + [
        closure(combinations(range(5), 4)),  # the boundary of the 4-simplex
        closure(combinations(range(6), 5)),  # the boundary of the 5-simplex
        closure([(i, (i + 1) % 50) for i in range(50)]),  # a 50-cycle
        closure([(0,), (2,), (7,)]),  # isolated vertices
        closure([]),
    ],
    ids=repr,
)
def test_stack_from_gradient_matches_the_tuple_layering(host):
    for seed, k in ((0, 1), (1, 3), (2, 20)):
        V = gradient(random_morse_stack(host, seed, k))
        F, ref = stack_from_gradient(host, V), _ref_stack_from_gradient(host, V)
        assert np.array_equal(F.alt_array(), ref.alt_array())
        assert gradient(F) == V


def _outcome(build, X, V):
    try:
        return build(X, V).alt_array().tolist()
    except ValueError as exc:
        return str(exc)


def test_stack_from_gradient_names_the_fault_the_tuple_version_names():
    X = closure([(0, 1, 2), (1, 2, 3)])
    cases = {
        "a face in two pairs": {((0,), (0, 1)), ((0,), (0, 2))},
        "a pair that is not a covering pair": {((0,), (1, 2))},
        "a pair two dimensions apart": {((0,), (0, 1, 2))},
        "a face not in X": {((0,), (0, 9))},
        "a pair of faces not in X": {((8,), (8, 9))},
        "a V-cycle": {((0,), (0, 1)), ((1,), (1, 2)), ((2,), (0, 2))},
    }
    for name, V in cases.items():
        got = _outcome(stack_from_gradient, X, GradientField(frozenset(V)))
        assert isinstance(got, str), name
        assert got == _outcome(_ref_stack_from_gradient, X, GradientField(frozenset(V))), name
    # several faults: the one met first in V's iteration order is named
    pairs = [(x, y) for y in X.sorted_faces() for x in X.boundary[y]]
    pairs += [((0,), (1, 2)), ((3,), (0, 1, 2)), ((0,), (0, 9)), ((9,), (1, 9))]
    rng = random.Random(5)
    messages = set()
    for _ in range(400):
        V = GradientField(frozenset(rng.sample(pairs, rng.randint(0, 6))))
        got = _outcome(stack_from_gradient, X, V)
        assert got == _outcome(_ref_stack_from_gradient, X, V), V
        messages.add(got if isinstance(got, str) else "stack")
    assert len(messages) > 5  # stacks, cycles, matchings and several covering faults


def test_stack_from_gradient_builds_no_incidence_dict():
    text = io.serialize_stack(random_morse_stack(generate_torus(6, 6), seed=2, n_minima=3))
    X = io.parse_stack(text).host
    G = stack_from_gradient(X, gradient(io.parse_stack(text)))
    assert "altitude" not in vars(G)
    for view in ("faces", "by_dim", "boundary", "cofaces"):
        with pytest.raises(AttributeError):
            Complex.__dict__[view].__get__(X)  # the slot is still unset


def test_dmf_dual_check_examples():
    assert dmf_dual_check(cyc6_stack())
    assert dmf_dual_check(constant_stack(tetrahedron_boundary()))
    assert dmf_dual_check(strictly_decreasing_stack(cyc6_host()))


@given(st.integers(0, 300))
@settings(max_examples=40, deadline=None)
def test_dmf_dual_check_fuzz(seed):
    F = random_morse_stack(generate_torus(3, 3), seed=seed)
    assert dmf_dual_check(F)


def _ref_is_morse(F):
    """Reference: mark every face of every flat pair; a face marked twice
    offends, and the witness is the smallest offender."""
    seen, offenders = set(), []
    for y in F.host.faces:
        for x in F.host.boundary[y]:
            if F.altitude[x] != F.altitude[y]:
                continue
            for f in (x, y):
                if f in seen:
                    offenders.append(f)
                else:
                    seen.add(f)
    if offenders:
        return False, min(offenders, key=face_key)
    return True, None


def test_is_morse_matches_reference():
    from morseshed.fixtures import branching_triangles, wedge
    from morseshed.stacks import random_stack

    hosts = [cyc6_host(), tetrahedron_boundary(), wedge(), branching_triangles()]
    hosts += [generate_torus(n, n) for n in (3, 4, 5)]
    verdicts = []
    for X in hosts:
        stacks = [constant_stack(X), strictly_decreasing_stack(X)]
        stacks += [random_stack(X, seed=s, high=2 + s % 5) for s in range(10)]
        stacks += [random_morse_stack(X, seed=s, n_minima=1 + s % 3) for s in range(5)]
        for F in stacks:
            expected = _ref_is_morse(F)
            assert is_morse(F) == expected
            verdicts.append(expected[0])
    assert 30 < sum(verdicts) < len(verdicts) - 30
