from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshed.complexes import Complex, closure, face_key
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
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
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
