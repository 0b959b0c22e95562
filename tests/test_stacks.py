import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshed import io
from morseshed.complexes import Complex, closure, face_key
from morseshed.definitions import is_stack_free_pair, stack_collapse, stack_free_pairs
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import gradient, random_morse_stack, stack_from_gradient
from morseshed.stacks import (
    MinimaDecomposition,
    Stack,
    StackError,
    complete_from_facets,
    minima,
    random_stack,
    section,
    ultimate_d_collapse,
    _stack_from_array,
    validate_stack,
)
from test_collapse import _ref_ultimate_d_collapse


def constant_stack(X, value=0):
    return Stack(X, {x: value for x in X.faces})


def test_stack_requires_total_altitude():
    X = cyc6_host()
    with pytest.raises(StackError):
        Stack(X, {(0, 1): 0})


def test_stack_rejects_an_altitude_off_its_host():
    # an extra face would set lambda_min below the host's least altitude
    X = closure([(0, 1)])
    with pytest.raises(StackError, match=r"^altitude on \(5,\), which is not a face of the host$"):
        Stack(X, {(0,): 0, (1,): 1, (0, 1): 0, (5,): -1})
    with pytest.raises(StackError, match=r"altitude on \(2,\),"):  # the canonically first
        Stack(X, {(0,): 0, (1,): 1, (0, 1): 0, (0, 9): 5, (3, 4): 7, (2,): 9})
    with pytest.raises(StackError, match="not a face of the host"):
        Stack(X, {(0,): 0, (1,): 1, (0, 1): 0}).with_altitudes({(0, 2): 0})
    assert Stack(X, {(0,): 0, (1,): 1, (0, 1): 0}).lambda_min == 0


def test_stack_rejects_an_altitude_that_is_not_an_integer():
    # alt_array() and the altitude map hold the same integers: a float is
    # an error, not truncated, and the canonically first bad face is named
    X = closure([(0, 1)])
    for bad in (1.5, 2.0, np.float64(1.0), "1", None):
        message = rf"^altitude {re.escape(repr(bad))} of \(1,\) is not an integer$"
        with pytest.raises(StackError, match=message):
            Stack(X, {(0,): 0, (1,): bad, (0, 1): bad})
    with pytest.raises(StackError, match=r"^altitude 0.5 of \(0, 1\) is not an integer$"):
        Stack(X, {(0,): 1, (1,): 1, (0, 1): 0}).with_altitudes({(0, 1): 0.5})
    with pytest.raises(StackError, match=r"^altitude -9223372036854775809 of \(0,\) is outside"):
        Stack(X, {(0,): -(2**63) - 1, (1,): 0.5, (0, 1): 0})
    with pytest.raises(StackError, match=r"^altitude missing on \(1,\)$"):  # before a bad value
        Stack(X, {(0,): 1.5, (0, 1): 0})
    # values that operator.index accepts are kept as Python ints
    F = Stack(X, {(0,): np.int64(3), (1,): np.int32(2), (0, 1): np.uint8(1)})
    assert type(F.lambda_min) is int and F.lambda_min == 1
    assert F.alt_array().dtype == np.int64 and F.alt_array().tolist() == [3, 2, 1]


def test_validate_stack_fixture():
    assert validate_stack(cyc6_stack()) == (True, None)
    assert validate_stack(constant_stack(cyc6_host())) == (True, None)


def test_validate_stack_witness():
    F = cyc6_stack().with_altitudes({(1,): 0})
    ok, witness = validate_stack(F)
    assert not ok and witness == ((1,), (1, 2))


def test_lambda_min():
    assert cyc6_stack().lambda_min == 0
    assert constant_stack(cyc6_host(), 7).lambda_min == 7


def test_section():
    F = cyc6_stack()
    assert section(F, 3).faces == {(3,), (5,)}
    assert section(F, 0).faces == F.host.faces
    assert section(F, 99).faces == frozenset()
    G = random_morse_stack(generate_torus(6, 6), seed=2, n_minima=3)
    P = io.parse_stack(io.serialize_stack(G))
    for lam in range(P.lambda_min - 1, max(G.altitude.values()) + 2):
        S = section(P, lam)
        assert "altitude" not in vars(P)  # read from the altitude array
        assert S.faces == {x for x, v in G.altitude.items() if v >= lam}


def test_minima_fixture():
    dec = minima(cyc6_stack())
    assert [(set(z), a) for z, a in dec.minima] == [
        ({(0, 1)}, 0),
        ({(3, 4)}, 0),
    ]
    assert len(dec.divide) == 10
    assert dec.union == {(0, 1), (3, 4)}


def test_minima_constant_stack():
    X = tetrahedron_boundary()
    dec = minima(constant_stack(X))
    assert len(dec.minima) == 1
    assert dec.minima[0][0] == X.faces
    assert dec.divide == frozenset()


def test_stack_free_pairs_fixture():
    F = cyc6_stack()
    assert stack_free_pairs(F, p=1) == {
        ((1,), (1, 2)),
        ((2,), (2, 3)),
        ((0,), (0, 5)),
        ((4,), (4, 5)),
    }
    assert stack_free_pairs(constant_stack(cyc6_host())) == set()
    # v3 is not free: altitude 3 differs from both cofaces
    assert not is_stack_free_pair(F, (3,), (2, 3))
    assert not is_stack_free_pair(F, (3,), (3, 4))


def test_stack_collapse_unit_and_batch():
    F = cyc6_stack()
    b = stack_collapse(F, ((1,), (1, 2)), mode="batch")
    assert b.altitude[(1,)] == 0 and b.altitude[(1, 2)] == 0
    b2 = stack_collapse(F, ((0,), (0, 5)), mode="batch")
    assert b2.altitude[(0,)] == 0 and b2.altitude[(0, 5)] == 0
    u = stack_collapse(F, ((0,), (0, 5)), mode="unit")
    assert u.altitude[(0,)] == 1 and u.altitude[(0, 5)] == 1


def test_stack_collapse_batch_equals_iterated_unit():
    F = cyc6_stack()
    pair = ((0,), (0, 5))
    cur = F
    while is_stack_free_pair(cur, *pair):
        cur = stack_collapse(cur, pair, mode="unit")
    assert cur.altitude == stack_collapse(F, pair, mode="batch").altitude


def test_stack_collapse_rejects_non_free():
    F = cyc6_stack()
    with pytest.raises(StackError):
        stack_collapse(F, ((3,), (3, 4)))
    with pytest.raises(ValueError):
        stack_collapse(F, ((1,), (1, 2)), mode="bogus")


def test_ultimate_d_collapse_fixture():
    F = cyc6_stack()
    expected = {x: 0 for x in F.host.faces}
    expected[(3,)] = 3
    expected[(5,)] = 3
    for seed in range(10):
        assert dict(ultimate_d_collapse(F, seed=seed).altitude) == expected
        assert dict(_ref_ultimate_d_collapse(F, seed, "unit").altitude) == expected
    dec = minima(ultimate_d_collapse(F))
    assert {frozenset(z) for z, _ in dec.minima} == {
        frozenset({(3, 4), (4,), (4, 5)}),
        frozenset({(0, 5), (0,), (0, 1), (1,), (1, 2), (2,), (2, 3)}),
    }
    assert dec.divide == {(3,), (5,)}


def test_ultimate_d_collapse_constant_unchanged():
    F = constant_stack(cyc6_host(), 2)
    assert dict(ultimate_d_collapse(F).altitude) == dict(F.altitude)


def test_complete_from_facets_fixture_edges():
    edge_vals = {
        (0, 1): 0, (1, 2): 1, (2, 3): 2, (3, 4): 0, (4, 5): 1, (0, 5): 2,
    }
    F = complete_from_facets(cyc6_host(), edge_vals)
    assert [F.altitude[(v,)] for v in range(6)] == [2, 1, 2, 2, 1, 2]
    assert validate_stack(F) == (True, None)


def test_complete_from_facets_guards():
    with pytest.raises(StackError, match=r"^no altitude for facet \(0, 5\)$"):
        complete_from_facets(cyc6_host(), {(0, 1): 0})


def test_complete_from_facets_keeps_listed_values():
    # a listed non-facet keeps its value, even below the maximum over its
    # cofaces (it used to take that maximum); `parse_stack(complete="max")`
    # reads a text by this rule and then rejects the result as no stack
    X = closure([(0, 1, 2)])
    F = complete_from_facets(X, {(0, 1, 2): 4, (0,): 9, (0, 1): 2})
    assert F.altitude[(0,)] == 9 and F.altitude[(0, 1)] == 2
    assert F.altitude[(1,)] == F.altitude[(2,)] == F.altitude[(1, 2)] == 4
    assert validate_stack(F) == (False, ((0, 1), (0, 1, 2)))


def _ref_complete_from_facets(host, facet_values):
    """Reference for `complete_from_facets`: the maxima over the cofaces,
    face by face from the top dimension down."""
    alt = {}
    for p in range(host.dim, -1, -1):
        for x in host.faces_of_dim(p):
            alt[x] = facet_values[x] if x in facet_values else max(alt[y] for y in host.cofaces[x])
    return Stack(host, alt)


def test_complete_from_facets_matches_the_face_loop():
    hosts = [generate_torus(n, n) for n in (3, 4, 7)] + [
        cyc6_host(),
        tetrahedron_boundary(),
        closure([(0, 1, 2), (2, 3), (3, 4), (5,)]),  # not pure
        closure([(0,), (2,)]),
        closure([]),
    ]
    rng = random.Random(5)
    for X in hosts:
        for seed in range(3):
            F = random_stack(X, seed=seed, low=-4, high=6)
            assert F == _ref_complete_from_facets(X, {x: F(x) for x in X.facets()})
            # listed lower faces keep their values, also below their cofaces' maximum
            listed = {x: F(x) for x in X.facets()}
            listed.update((x, rng.randint(-9, 9)) for x in X.sorted_faces() if rng.random() < 0.3)
            G = complete_from_facets(X, listed)
            assert G == _ref_complete_from_facets(X, listed)
            assert dict(G.altitude) == dict(_ref_complete_from_facets(X, listed).altitude)


def test_complete_from_facets_names_a_value_outside_int64():
    # the first bad value in canonical order, which may be a completed face
    X = closure([(0, 1), (1, 2)])
    with pytest.raises(StackError, match=r"^altitude 9223372036854775808 of \(1,\) is outside"):
        complete_from_facets(X, {(0, 1): 0, (1, 2): 2**63})
    with pytest.raises(StackError, match=r"^altitude 1\.5 of \(0,\) is not an integer$"):
        complete_from_facets(X, {(0, 1): 1.5, (1, 2): 0})
    with pytest.raises(StackError, match=r"\(0,\) is outside the int64 range"):
        io.parse_stack("0 1 : 9223372036854775808\n", complete="max")


def test_complete_single_facet():
    X = closure([(0, 1, 2)])
    F = complete_from_facets(X, {(0, 1, 2): 4})
    assert set(F.altitude.values()) == {4}


@given(st.integers(0, 1000))
@settings(max_examples=30)
def test_random_stack_is_valid(seed):
    F = random_stack(tetrahedron_boundary(), seed=seed)
    assert validate_stack(F) == (True, None)


@given(st.integers(0, 200), st.integers(0, 5))
@settings(max_examples=30, deadline=None)
def test_ultimate_collapse_output_has_no_free_d_pairs(seed, cseed):
    from morseshed.manifolds import generate_torus

    F = random_stack(generate_torus(3, 3), seed=seed)
    H = ultimate_d_collapse(F, seed=cseed)
    assert validate_stack(H) == (True, None)
    assert stack_free_pairs(H, p=H.host.dim) == set()


def test_alt_array_alignment():
    F = cyc6_stack()
    arr = F.alt_array()
    faces = F.host.sorted_faces()
    assert [F.altitude[x] for x in faces] == list(arr)
    assert F.alt_array() is arr  # cached


def _loop_validate_stack(F):
    """Reference: the face-by-face check (canonical y, then x in boundary
    order), returning its first violation."""
    for y in F.host.sorted_faces():
        for x in F.host.boundary[y]:
            if F.altitude[x] < F.altitude[y]:
                return False, (x, y)
    return True, None


def test_validate_stack_witness_matches_loop():
    rng = random.Random(11)
    hosts = [cyc6_host(), tetrahedron_boundary()] + [generate_torus(n, n) for n in (3, 4, 5)]
    non_stacks = 0
    k = 0
    while non_stacks < 50:
        F = random_stack(hosts[k % len(hosts)], seed=k)
        k += 1
        alt = dict(F.altitude)
        for x in rng.sample(F.host.sorted_faces(), rng.randint(1, 4)):
            alt[x] = rng.randint(-3, 8)
        G = Stack(F.host, alt)
        expected = _loop_validate_stack(G)
        assert validate_stack(G) == expected
        non_stacks += not expected[0]


def _ref_minima(F):
    """Reference: dict union-find over the flat covering pairs; a zone is a
    minimum iff no member has a strictly lower covering neighbour."""
    X, alt = F.host, F.altitude
    parent = {x: x for x in X.faces}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    lower = set()
    for y in X.faces:
        for x in X.boundary[y]:
            if alt[x] == alt[y]:
                rx, ry = find(x), find(y)
                if rx != ry:
                    parent[rx] = ry
            else:
                lower.add(x if alt[x] > alt[y] else y)
    zones = {}
    for x in X.faces:
        zones.setdefault(find(x), set()).add(x)
    has_lower = {find(x) for x in lower}
    mins, divide = [], set()
    for root, zone in zones.items():
        if root in has_lower:
            divide |= zone
        else:
            mins.append((frozenset(zone), alt[root]))
    mins.sort(key=lambda mz: min(map(face_key, mz[0])))
    return MinimaDecomposition(tuple(mins), frozenset(divide))


def test_minima_matches_union_find_reference():
    from morseshed import fixtures
    from morseshed.morse import random_morse_stack

    hosts = [
        fixtures.cyc6_host(), fixtures.tetrahedron_boundary(), fixtures.wedge(),
        fixtures.branching_triangles(), generate_torus(3, 3),
    ] + [generate_torus(n, n) for n in (4, 5, 6)]
    stacks = [fixtures.cyc6_stack(), fixtures.branching_collapse_counterexample()[0]]
    stacks.append(Stack(Complex(()), {}))
    for X in hosts:
        stacks.append(constant_stack(X, 3))
        stacks += [random_stack(X, seed=s, high=s % 4) for s in range(8)]
        stacks += [random_morse_stack(X, seed=s, n_minima=1 + s) for s in range(3)]
    stacks.append(constant_stack(generate_torus(100, 100), -7))  # one zone of 60k faces
    for F in stacks:
        assert minima(F) == _ref_minima(F)


def test_collapsed_stack_builds_its_altitude_dict_on_read():
    for n, seed in ((3, 0), (5, 1), (8, 2)):
        F = random_morse_stack(generate_torus(n, n), seed=seed, n_minima=3)
        H = ultimate_d_collapse(F, seed=seed)
        assert "altitude" not in vars(H)  # nothing built yet
        ref = dict(zip(H.host.sorted_faces(), H.alt_array().tolist()))
        assert H.lambda_min == min(ref.values())
        assert len(H.altitude) == len(ref) and H.altitude == ref and ref == H.altitude
        assert list(H.altitude) == list(ref) and list(H.altitude.items()) == list(ref.items())
        assert H.host.faces - H.altitude.keys() == frozenset()
        x = H.host.sorted_faces()[-1]
        assert x in H.altitude and H(x) == H.altitude.get(x) == ref[x]
        assert (99, 100) not in H.altitude and H.altitude.get((99, 100)) is None
        assert H == Stack(H.host, ref)
        assert H.with_altitudes({x: 0}).altitude == {**ref, x: 0}
        assert H.negate() == {y: -v for y, v in ref.items()}
    # an empty host: lambda_min 0, as for a dict
    E = ultimate_d_collapse(Stack(Complex(()), {}))
    assert E.lambda_min == 0 and E.altitude == {}


def test_every_route_holds_one_int64_altitude_array():
    X = generate_torus(4, 4)
    F = random_morse_stack(X, seed=3, n_minima=2)
    text = io.serialize_stack(F)
    empty = Stack(Complex(()), {})
    by_mapping = [
        Stack(X, dict(F.altitude)),
        F.with_altitudes({X.sorted_faces()[0]: -5}),
        F,
        io.parse_stack("# a comment sends the text to the line loop\n" + text),
        empty,
        io.parse_stack(""),
    ]
    by_array = [
        io.parse_stack(text),
        ultimate_d_collapse(F, seed=1),
        ultimate_d_collapse(empty),
        complete_from_facets(X, {x: F.altitude[x] for x in X.facets()}),
        stack_from_gradient(X, gradient(F)),
    ]
    assert all("altitude" in vars(G) for G in by_mapping)  # the mapping it was built from
    assert not any("altitude" in vars(G) for G in by_array)  # not built yet
    for G in by_mapping + by_array:
        arr = G.alt_array()
        assert arr.dtype == np.int64 and arr.shape == (len(G.host),)
        assert arr.tolist() == [G.altitude[x] for x in G.host.sorted_faces()]
        assert type(G.lambda_min) is int and G.lambda_min == min(arr.tolist(), default=0)
    assert by_array[0].altitude == F.altitude and by_array[2].altitude == {}


def test_stacks_compare_on_their_arrays():
    text = io.serialize_stack(random_morse_stack(generate_torus(5, 5), seed=1, n_minima=3))
    F, G = io.parse_stack(text), io.parse_stack(text)
    alt = F.alt_array().copy()
    alt[7] += 1
    H = _stack_from_array(F.host, alt)  # one altitude changed
    assert F.host is G.host and F == G and G == F  # the second parse finds the kept host
    assert F != H and H != G and F in [H, G] and H not in [F, G]
    assert F != F.host and F != Stack(Complex([(0,)]), {(0,): 0})
    for S in (F, G, H):
        assert "altitude" not in vars(S)  # no face-keyed dict was built
        with pytest.raises(AttributeError):
            Complex.__dict__["faces"].__get__(S.host)  # the slot is still unset
    with pytest.raises(TypeError):
        hash(F)
