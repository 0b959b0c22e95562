import pytest

from morseshed.complexes import proper_subfaces
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshed.complexes import Complex, closure
from morseshed.fixtures import branching_triangles, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus, validate
from morseshed.morse import random_morse_stack
from morseshed.stacks import Stack, StackError, minima
from morseshed.watershed import (
    WATERSHED_LABEL,
    WatershedResult,
    _facet_labels,
    morse_watershed,
    morse_watershed_direct,
    verify_cut,
    verify_drop_of_water,
    verify_msf_theorem,
    watershed_collapse,
)

BASIN_E01 = frozenset({(0, 5), (0,), (0, 1), (1,), (1, 2), (2,), (2, 3)})
BASIN_E34 = frozenset({(3, 4), (4,), (4, 5)})


def constant_stack(X, value=0):
    return Stack(X, {x: value for x in X.faces})


def test_watershed_collapse_fixture_any_seed():
    F = cyc6_stack()
    for seed in range(20):
        r = watershed_collapse(F, seed=seed)
        assert r.watershed.faces == {(3,), (5,)}
        assert {fs for _, fs in r.basins} == {BASIN_E01, BASIN_E34}
        assert r.labels[(3,)] == WATERSHED_LABEL
        assert r.labels[(5,)] == WATERSHED_LABEL


def test_watershed_collapse_constant_stack():
    r = watershed_collapse(constant_stack(tetrahedron_boundary()))
    assert len(r.watershed.faces) == 0
    assert len(r.basins) == 1
    assert r.basins[0][1] == tetrahedron_boundary().faces


def test_morse_watershed_fixture():
    r = morse_watershed(cyc6_stack())
    assert r.watershed.faces == {(3,), (5,)}
    assert r.basin_sizes() == {1: 7, 2: 3}
    assert all(r.labels[x] == 1 for x in BASIN_E01)
    assert all(r.labels[x] == 2 for x in BASIN_E34)


def test_morse_watershed_single_minimum():
    for seed in range(5):
        F = random_morse_stack(tetrahedron_boundary(), seed=seed)
        if len(minima(F).minima) == 1:
            r = morse_watershed(F)
            assert len(r.watershed.faces) == 0
            assert len(r.basins) == 1


def test_morse_watershed_direct_fixture():
    assert morse_watershed_direct(cyc6_stack()).faces == {(3,), (5,)}


def test_morse_watershed_rejects_non_morse():
    with pytest.raises(StackError):
        morse_watershed(constant_stack(tetrahedron_boundary()))
    with pytest.raises(StackError):
        morse_watershed_direct(constant_stack(tetrahedron_boundary()))


def test_every_morse_route_rejects_a_non_morse_stack_alike():
    from morseshed.oracles import watershed_forest
    from morseshed.morse import gradient, is_morse

    F = constant_stack(tetrahedron_boundary())
    witness = is_morse(F)[1]
    for route in (morse_watershed, morse_watershed_direct, watershed_forest, gradient):
        with pytest.raises(StackError) as exc:
            route(F)
        assert str(exc.value) == f"not a Morse stack (witness {witness})", route


def test_every_route_rejects_a_bad_host_alike():
    from morseshed.oracles import watershed_forest

    hosts = [branching_triangles(), closure([(0, 1, 2), (2, 3)])]  # branching, not pure
    checks = (morse_watershed, morse_watershed_direct, watershed_collapse, watershed_forest,
              lambda F: verify_drop_of_water(F, Complex(())))
    for X in hosts:
        for F in (random_morse_stack(X, seed=0), constant_stack(X)):  # Morse, and not
            for check in checks:
                with pytest.raises(StackError) as exc:
                    check(F)
                assert str(exc.value) == "complex is not a non-branching pseudomanifold"


def test_morse_watershed_rejects_branching_host():
    from morseshed.fixtures import branching_triangles

    X = branching_triangles()
    with pytest.raises(StackError):
        morse_watershed(random_morse_stack(X, seed=0))


def test_morse_watershed_empty_complex():
    r = morse_watershed(Stack(Complex(()), {}))
    assert r.labels == {} and r.basins == ()


@given(st.integers(0, 300))
@settings(max_examples=30, deadline=None)
def test_three_algorithms_agree(seed):
    F = random_morse_stack(generate_torus(3, 3), seed=seed, n_minima=1 + seed % 4)
    cut = morse_watershed_direct(F).faces
    assert morse_watershed(F).watershed.faces == cut
    for cseed in range(3):
        assert watershed_collapse(F, seed=cseed).watershed.faces == cut


def test_collapse_seed_independence_on_torus():
    F = random_morse_stack(generate_torus(3, 3), seed=7)
    cuts = {frozenset(watershed_collapse(F, seed=s).watershed.faces) for s in range(10)}
    assert len(cuts) == 1


def test_verify_cut_fixture():
    F = cyc6_stack()
    assert verify_cut(F, closure([(3,), (5,)]))
    assert not verify_cut(F, closure([(3,)]))
    assert not verify_cut(F, Complex(()))  # two minima, no cut


def test_verify_cut_rejects_foreign_subcomplex():
    F = cyc6_stack()
    with pytest.raises(ValueError):
        verify_cut(F, closure([(7, 8)]))


def test_verify_drop_of_water_rejects_foreign_subcomplex():
    F = cyc6_stack()
    with pytest.raises(ValueError, match="W is not a subcomplex of the host"):
        verify_drop_of_water(F, closure([(7, 8)]))


def test_verify_drop_of_water_fixture():
    F = cyc6_stack()
    assert verify_drop_of_water(F, closure([(3,), (5,)]))
    assert verify_drop_of_water(F, Complex(()))  # vacuous
    # vertex 1 descends only toward e01 on both sides: not a valid drop
    assert not verify_drop_of_water(F, closure([(1,)]))


@given(st.integers(0, 300))
@settings(max_examples=15, deadline=None)
def test_cut_is_pure_codimension_one(seed):
    F = random_morse_stack(generate_torus(3, 3), seed=seed)
    W = morse_watershed(F).watershed
    if W.faces:
        assert W.dim == F.host.dim - 1
        assert W.is_pure()
        rep = validate(F.host)
        assert rep.is_normal  # precondition of the purity statement


def test_labels_partition_the_host():
    F = random_morse_stack(generate_torus(4, 4), seed=3)
    r = morse_watershed(F)
    assert set(r.labels) == set(F.host.faces)
    basin_union = set()
    for _, fs in r.basins:
        assert not (fs & basin_union)
        basin_union |= fs
    assert basin_union | r.watershed.faces == set(F.host.faces)


def _loop_assembly(F):
    """Reference: the face-by-face label assembly of the flood (cut faces
    and their faces first, then each top face and its unlabelled faces in
    canonical order), with W as the closure of the cut."""
    pk = F.host.packed()
    sep_lo, top_lo = pk.dim_offset[F.host.dim - 1:F.host.dim + 1].tolist()
    B, W_flags = _facet_labels(F)
    faces = pk.face_list
    labels, cut = {}, set()
    for j in map(int, W_flags.nonzero()[0]):
        z = faces[sep_lo + j]
        cut.add(z)
        labels[z] = WATERSHED_LABEL
        for y in proper_subfaces(z):
            labels[y] = WATERSHED_LABEL
    for i in range(B.size):
        labels[faces[top_lo + i]] = int(B[i])
    for i in range(B.size):
        x = faces[top_lo + i]
        for y in proper_subfaces(x):
            if y not in labels:
                labels[y] = labels[x]
    basins = {}
    for f, lab in labels.items():
        if lab != WATERSHED_LABEL:
            basins.setdefault(lab, set()).add(f)
    W = closure(cut) if cut else Complex(())
    return labels, W, tuple((b, frozenset(fs)) for b, fs in sorted(basins.items()))


def test_results_compare_by_their_arrays():
    F = random_morse_stack(generate_torus(5, 5), seed=2, n_minima=3)
    r, s = morse_watershed(F), watershed_collapse(F, seed=1)
    twin = WatershedResult(dict(morse_watershed(F).labels))
    assert r == s and s == r and r == twin and twin == s
    for route in (r, s):
        with pytest.raises(AttributeError):
            WatershedResult.__dict__["labels"].__get__(route)  # the slot is still unset
    x = F.host.sorted_faces()[7]
    changed = WatershedResult({**twin.labels, x: twin.labels[x] + 1})
    assert r != changed and changed != twin
    assert r != morse_watershed(random_morse_stack(generate_torus(5, 4), seed=2, n_minima=3))
    assert r != morse_watershed(cyc6_stack()) and r != r.labels


def test_array_label_assembly_matches_loop():
    stacks = [cyc6_stack(), random_morse_stack(tetrahedron_boundary(), seed=1, n_minima=2)]
    for n in range(3, 9):
        for seed in range(4):
            stacks.append(random_morse_stack(generate_torus(n, n), seed=seed, n_minima=seed + 1))
    for F in stacks:
        r = morse_watershed(F)
        labels, W, basins = _loop_assembly(F)
        assert r.labels == labels
        assert r.watershed == W
        assert r.basins == basins
        # labels come in canonical order, so serializing them needs no reordering
        assert list(r.labels) == F.host.sorted_faces()


def test_morse_watershed_rejects_face_outside_every_top_face():
    # TOR(3,3) plus an isolated vertex: no top face to take a label from
    X = closure(list(generate_torus(3, 3).faces_of_dim(2)) + [(99,)])
    F = random_morse_stack(X, seed=1)
    with pytest.raises(StackError, match="not pure"):
        morse_watershed(F)


def _torus_with_isolated_vertex():
    return closure(list(generate_torus(3, 3).faces_of_dim(2)) + [(99,)])


@pytest.mark.parametrize("host, message", [
    (_torus_with_isolated_vertex, "complex is not pure of top dimension"),
    (branching_triangles, "complex is not a non-branching pseudomanifold"),
])
def test_routes_reject_the_same_hosts(host, message):
    X = host()
    # the host check runs before either route, so a non-Morse stack gets
    # the same message from the flood as a Morse one; the drop-of-water
    # check runs it too
    for F in (random_morse_stack(X, seed=1), constant_stack(X)):
        for route in (morse_watershed, watershed_collapse,
                      lambda G: verify_drop_of_water(G, Complex(()))):
            with pytest.raises(StackError) as exc:
                route(F)
            assert str(exc.value) == message


def test_routes_agree_on_isolated_vertices_and_the_empty_complex():
    X = closure([(0,), (3,), (5,)])
    F = Stack(X, {(0,): 4, (3,): 1, (5,): 2})
    for r in (morse_watershed(F), watershed_collapse(F, seed=2)):
        assert r.labels == {(0,): 1, (3,): 2, (5,): 3}
        assert r.watershed.faces == frozenset()
        assert r.basins == tuple((i, frozenset({x})) for i, x in enumerate(X.sorted_faces(), 1))
    empty = Stack(Complex(()), {})
    for r in (morse_watershed(empty), watershed_collapse(empty)):
        assert (r.labels, r.watershed.faces, r.basins) == ({}, frozenset(), ())
    # the checks run the general path on these hosts too: no edge, no cut
    for G in (F, empty):
        W = morse_watershed(G).watershed
        assert verify_cut(G, W) is True and verify_drop_of_water(G, W) is True
        checks = verify_msf_theorem(G)
        assert checks and all(v is True for v in checks.values()), checks
