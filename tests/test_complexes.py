import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morseshed import _kernels, io
from morseshed.complexes import (
    Complex,
    EMPTY_COMPLEX,
    InvalidSimplexError,
    _coface_range,
    _connected_labels,
    _strong_labels,
    _subcomplex_mask,
    closure,
    connected_components,
    face_dim,
    face_key,
    make_face,
    proper_subfaces,
    strong_connected_components,
)
from morseshed.fixtures import (
    branching_collapse_counterexample,
    branching_triangles,
    cyc6_host,
    tetrahedron_boundary,
    wedge,
)
from morseshed.manifolds import generate_torus
from morseshed.oracles import (
    FaceSubset,
    collapse,
    covering_pairs,
    free_pairs,
    is_closed_subset,
    is_free_pair,
    is_open_subset,
    ultimate_collapse,
)


def test_make_face_canonicalizes():
    assert make_face([2, 0, 1]) == (0, 1, 2)
    assert face_dim((0, 1, 2)) == 2


def test_make_face_rejects_bad_input():
    with pytest.raises(InvalidSimplexError):
        make_face([])
    with pytest.raises(InvalidSimplexError):
        make_face([0, 0, 1])
    with pytest.raises(InvalidSimplexError):
        make_face([-1, 2])
    with pytest.raises(InvalidSimplexError, match="outside the int64 range"):
        make_face([0, 2**63])
    assert make_face([2**63 - 1, 0]) == (0, 2**63 - 1)


def test_proper_subfaces_of_triangle():
    subs = set(proper_subfaces((0, 1, 2)))
    assert subs == {(0,), (1,), (2,), (0, 1), (0, 2), (1, 2)}


def test_closure_empty():
    X = closure([])
    assert len(X) == 0
    assert X.dim == -1
    assert X == EMPTY_COMPLEX


def test_closure_single_triangle():
    X = closure([(0, 1, 2)])
    assert len(X) == 7  # 3 vertices + 3 edges + 1 triangle
    assert X.dim == 2
    assert X.facets() == [(0, 1, 2)]
    assert X.is_pure()
    assert X.euler_characteristic() == 1


def test_closure_wedge_counts():
    X = wedge()
    assert len(X.faces_of_dim(0)) == 7
    assert len(X.faces_of_dim(1)) == 12
    assert len(X.faces_of_dim(2)) == 8


def test_complex_rejects_non_closed_family():
    with pytest.raises(InvalidSimplexError):
        Complex([(0, 1, 2)])


def test_complex_contains_iterates_and_hashes_its_faces():
    X, Y = closure([(0, 1), (1, 2)]), closure([(1, 2), (0, 1)])
    assert (0, 1) in X and (0, 2) not in X and (3,) not in X
    assert list(X) == [(0,), (1,), (2,), (0, 1), (1, 2)]
    assert X is not Y and X == Y and hash(X) == hash(Y) and len({X, Y}) == 1
    assert (X == 1) is False and (X == X.faces) is False


def test_incidence_indexes():
    X = closure([(0, 1, 2)])
    assert X.boundary[(0, 1, 2)] == ((1, 2), (0, 2), (0, 1))
    assert X.cofaces[(0, 1)] == ((0, 1, 2),)
    assert X.cofaces[(0,)] == ((0, 1), (0, 2))
    assert X.star((0,)) == {(0,), (0, 1), (0, 2), (0, 1, 2)}
    with pytest.raises(KeyError):
        X.star((9,))


def test_covering_pairs_counts():
    assert len(covering_pairs(closure([(0, 1, 2)]))) == 9
    assert covering_pairs(EMPTY_COMPLEX) == set()
    assert len(covering_pairs(cyc6_host())) == 12


def test_free_pairs_examples():
    X = closure([(0, 1, 2)])
    assert free_pairs(X) == {
        ((0, 1), (0, 1, 2)),
        ((0, 2), (0, 1, 2)),
        ((1, 2), (0, 1, 2)),
    }
    assert free_pairs(cyc6_host()) == set()
    path = closure([(0, 1), (1, 2)])
    assert free_pairs(path) == {((0,), (0, 1)), ((2,), (1, 2))}
    assert is_free_pair(path, (0,), (0, 1))
    assert not is_free_pair(path, (1,), (0, 1))


def test_collapse_rejects_non_free_pair():
    X = cyc6_host()
    with pytest.raises(ValueError):
        collapse(X, ((0,), (0, 1)))


def test_collapse_removes_exactly_the_pair():
    X = closure([(0, 1, 2)])
    Y = collapse(X, ((0, 1), (0, 1, 2)))
    assert Y.faces == X.faces - {(0, 1), (0, 1, 2)}


def test_ultimate_collapse_of_cone_is_a_point():
    for seed in range(5):
        Y = ultimate_collapse(closure([(0, 1, 2)]), seed=seed)
        assert len(Y) == 1 and Y.dim == 0


def test_ultimate_collapse_fixed_point_on_cycle():
    X = cyc6_host()
    assert ultimate_collapse(X).faces == X.faces


def test_ultimate_2_collapse_of_disk_drops_dimension():
    X = closure([(0, 1, 2), (1, 2, 3)])
    Y = ultimate_collapse(X, p=2, seed=0)
    assert Y.dim == 1


def test_connected_components_cyc6_minus_two_vertices():
    X = cyc6_host()
    S = X.faces - {(3,), (5,)}
    comps = sorted(connected_components(X, S), key=len)
    assert comps[0] == {(3, 4), (4,), (4, 5)}
    assert comps[1] == {(0, 5), (0,), (0, 1), (1,), (1, 2), (2,), (2, 3)}


def test_connected_components_trivial_cases():
    assert connected_components(cyc6_host(), set()) == []
    assert len(connected_components(closure([(0, 1, 2)]))) == 1


def test_strong_components():
    assert len(strong_connected_components(wedge())) == 2
    assert len(strong_connected_components(cyc6_host())) == 1
    assert len(strong_connected_components(tetrahedron_boundary())) == 1
    assert len(strong_connected_components(branching_triangles())) == 1


# -- the array labeller against the dict union-find it replaced ---------------


def _ref_connected_components(X, S=None):
    """The dict union-find connected_components ran before the array
    labeller; its components come in canonical order of their smallest
    member."""
    members = set(X.faces) if S is None else set(S)
    parent = {x: x for x in members}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for y in members:
        ry = find(y)
        for x in proper_subfaces(y):
            if x in parent:
                rx = find(x)
                if rx != ry:
                    parent[rx] = ry
    groups = {}
    for x in members:
        groups.setdefault(find(x), set()).add(x)
    return sorted(groups.values(), key=lambda c: min(map(face_key, c)))


def _labeller_hosts():
    yield closure([(0,), (3,), (5,)])  # dimension 0
    yield cyc6_host()
    yield branching_collapse_counterexample()[0].host
    yield from (wedge(), branching_triangles(), tetrahedron_boundary(), generate_torus(4, 4))
    yield closure([(0, 1, 2), (2, 3, 4), (5, 6)])
    yield closure(combinations(range(5), 4))  # the 3-sphere, boundary of a 4-simplex
    yield closure([(0, 1, 2, 3), (2, 3, 4, 5), (5, 6), (7,)])
    yield closure(combinations(range(6), 5))  # dimension 4
    yield closure([tuple(range(6))])  # dimension 5: inclusions down five levels


def test_connected_components_match_dict_union_find():
    rng = random.Random(3)
    checked = 0
    for X in _labeller_hosts():
        faces = X.sorted_faces()
        subsets = [None, set(), X.faces - {faces[0]}]
        for _ in range(6):
            picks = rng.sample(faces, max(1, len(faces) // 6))
            subsets.append(closure(picks).faces)  # closed
            subsets.append(set().union(*(X.star(x) for x in picks)))  # open
            subsets.append(set(rng.sample(faces, len(faces) // 3)))  # neither
        for S in subsets:
            comps = connected_components(X, S)
            assert comps == _ref_connected_components(X, S)
            smallest = [min(c, key=face_key) for c in comps]
            assert smallest == sorted(smallest, key=face_key)  # canonical order
            checked += 1
    assert checked == 12 * 21


def test_components_join_faces_across_dimensions():
    # a vertex and a tetrahedron containing it, without the faces between
    X = closure([(0, 1, 2, 3), (4, 5)])
    assert connected_components(X, {(4,), (0, 1, 2, 3), (0,), (5,)}) == [
        {(0,), (0, 1, 2, 3)}, {(4,)}, {(5,)},
    ]


def test_component_functions_reject_a_face_outside_the_host():
    for S in ({(0, 1), (0, 9)}, {(1, 0)}):
        with pytest.raises(ValueError, match="is not a face of the complex"):
            connected_components(cyc6_host(), S)
        with pytest.raises(ValueError, match="is not a face of the complex"):
            strong_connected_components(cyc6_host(), S)


def test_open_closed_subsets():
    X = closure([(0, 1, 2)])
    assert is_closed_subset(X, {(0,), (1,), (0, 1)})
    assert not is_closed_subset(X, {(0, 1)})
    assert is_open_subset(X, X.star((0,)))
    assert not is_open_subset(X, {(0,)})
    sub = FaceSubset(X, frozenset({(0, 1), (0, 1, 2)}))
    assert sub.open and not sub.closed


def test_packed_arrays_match_incidence():
    X = cyc6_host()
    pk = X.packed()
    pairs = {(pk.face_list[int(a)], pk.face_list[int(b)]) for a, b in zip(pk.sub, pk.sup)}
    assert pairs == covering_pairs(X)
    assert list(pk.dim_offset) == [0, 6, 12]
    assert X.packed() is pk is X  # the complex holds its arrays


def _dict_build(faces):
    """Reference: the incidence the complex was built with before its
    packed arrays (tuple-keyed dicts first, arrays derived from them)."""
    face_set = frozenset(faces)
    dim = max((len(x) for x in face_set), default=0) - 1
    by_dim = {p: [] for p in range(dim + 1)}
    for x in face_set:
        by_dim[len(x) - 1].append(x)
    for lst in by_dim.values():
        lst.sort()
    boundary = {}
    cof = {x: [] for x in face_set}
    for x in face_set:
        if len(x) == 1:
            boundary[x] = ()
            continue
        bd = tuple(x[:i] + x[i + 1:] for i in range(len(x)))
        boundary[x] = bd
        for y in bd:
            cof[y].append(x)
    cofaces = {y: tuple(sorted(c)) for y, c in cof.items()}
    ordered = sorted(face_set, key=face_key)
    index = {x: i for i, x in enumerate(ordered)}
    sub, sup = [], []
    for i, y in enumerate(ordered):
        for z in boundary[y]:
            sub.append(index[z])
            sup.append(i)
    dim_offset = [0]
    for p in range(dim + 1):
        dim_offset.append(dim_offset[-1] + len(by_dim[p]))
    return {
        "sorted_faces": ordered,
        "by_dim": by_dim,
        "boundary": boundary,
        "cofaces": cofaces,
        "facets": sorted((x for x in face_set if not cofaces[x]), key=face_key),
        "sub": sub,
        "sup": sup,
        "dim_offset": dim_offset,
    }


def _random_closure(rng):
    ids = rng.sample([0, 1, 2, 3, 5, 8, 13, 40, 10**6, 2**40, 2**63 - 1], 8)
    gens = [rng.sample(ids, rng.randint(1, 5)) for _ in range(rng.randint(1, 6))]
    return closure(gens)


def _build_inputs():
    yield EMPTY_COMPLEX
    yield from (cyc6_host(), wedge(), branching_triangles(), tetrahedron_boundary())
    yield branching_collapse_counterexample()[0].host
    for n in range(3, 9):
        yield generate_torus(n, n)
    rng = random.Random(5)
    for _ in range(50):
        yield _random_closure(rng)
    # 88 vertices and dimension 9: 88**10 > 2**63, so a key built as a
    # base-V number of the vertex ranks would overflow
    yield closure(
        facet
        for b in range(8)
        for facet in combinations(range(11 * b, 11 * b + 11), 10)
    )


def test_array_build_matches_dict_build():
    for X in _build_inputs():
        ref = _dict_build(X.faces)
        pk = X.packed()
        assert X.sorted_faces() == ref["sorted_faces"]
        assert X.by_dim == ref["by_dim"]
        assert X.boundary == ref["boundary"]
        assert X.cofaces == ref["cofaces"]
        assert X.facets() == ref["facets"]
        assert pk.sub.tolist() == ref["sub"]
        assert pk.sup.tolist() == ref["sup"]
        assert pk.dim_offset.tolist() == ref["dim_offset"]
        # the views hold the canonical face objects, not copies
        canonical = {id(x) for x in pk.faces}
        assert all(id(y) in canonical for bd in X.boundary.values() for y in bd)
        assert all(id(y) in canonical for cf in X.cofaces.values() for y in cf)


def test_views_are_built_once():
    X = generate_torus(4, 4)
    assert X.boundary is X.boundary
    assert X.cofaces is X.cofaces
    assert X.by_dim is X.by_dim
    with pytest.raises(AttributeError):
        X.no_such_view


@pytest.mark.parametrize(
    "faces",
    [
        [(0, 1, 2)],
        [(0,), (1,), (2,), (0, 1, 2)],
        [(0,), (1,), (0, 1), (0, 2)],
        [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 3)],
        [(0,), (1,), (2,), (3,), (0, 1), (0, 2), (1, 2), (0, 1, 2, 3)],
        [(2**63 - 1,), (0, 2**63 - 1), (0,), (0, 1)],
    ],
)
def test_non_closed_family_is_rejected(faces):
    missing = min(
        (y for x in faces for y in proper_subfaces(x) if y not in faces),
        key=face_key,
    )
    with pytest.raises(InvalidSimplexError, match=r"^not closed: ") as exc:
        Complex(faces)
    assert str(missing) in str(exc.value)


@pytest.mark.parametrize(
    "faces",
    [
        [(0, 1), ()],
        [(0,), (0, -1), (1,)],
        [(0, 1), (2, 1, 2), (0, -3)],
        [(0, 1), (0, 2**63)],
        [(0, 2**64), (0, -1)],
        [(1,), (0, 1, 1), (), (-1,)],
    ],
)
@pytest.mark.parametrize("build", [Complex, closure])
def test_malformed_face_raises_what_make_face_raises(build, faces):
    first_bad = None
    for x in faces:
        try:
            make_face(x)
        except InvalidSimplexError as exc:
            first_bad = exc
            break
    with pytest.raises(type(first_bad)) as exc:
        build(faces)
    assert str(exc.value) == str(first_bad)
    with pytest.raises(type(first_bad)) as exc:  # the same from a generator
        build(x for x in faces)
    assert str(exc.value) == str(first_bad)


@pytest.mark.parametrize(
    "faces",
    [
        [(1, 0), (0,), (1,)],  # unsorted
        [(0, 1), (0,), (1,), (1, 0), (0,)],  # repeated
        [frozenset({0, 1}), frozenset({0}), {1}, [1, 0]],  # set and list members
        [(2, 0, 1), (0, 1), (1, 2), (2, 0), (0,), (1,), (2,)],
    ],
)
def test_face_families_are_canonicalised(faces):
    want = {make_face(x) for x in faces}
    for X in (Complex(faces), Complex(x for x in faces), closure(faces), closure(iter(faces))):
        assert X.faces == want
        assert X.sorted_faces() == sorted(want, key=face_key)


def test_building_a_complex_builds_no_face_tuple():
    text = io.serialize_complex(generate_torus(4, 4))
    for X in (
        closure([(0, 1, 2), (1, 2, 3)]),
        generate_torus(5, 4),
        io.parse_complex(text),
        Complex([(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]),
    ):
        for view in ("faces", "face_list"):
            with pytest.raises(AttributeError):
                Complex.__dict__[view].__get__(X)  # the slot is still unset


# -- property tests -----------------------------------------------------------

tri_sets = st.lists(
    st.frozensets(st.integers(0, 7), min_size=1, max_size=3),
    min_size=0,
    max_size=6,
)


@given(tri_sets)
@settings(max_examples=60)
def test_closure_is_idempotent_and_closed(gens):
    X = closure(gens)
    assert is_closed_subset(X, X.faces)
    assert closure(X.faces).faces == X.faces


@given(tri_sets, tri_sets)
@settings(max_examples=60)
def test_closure_is_monotone(a, b):
    assert closure(a).faces <= closure(list(a) + list(b)).faces


@given(tri_sets)
@settings(max_examples=60)
def test_closed_iff_complement_open(gens):
    X = closure(gens)
    for x in X.faces:
        down = frozenset({x} | set(proper_subfaces(x)))
        assert is_closed_subset(X, down)
        assert is_open_subset(X, X.faces - down)


@given(tri_sets, st.integers(0, 5))
@settings(max_examples=60)
def test_collapse_preserves_euler_characteristic(gens, seed):
    X = closure(gens)
    fp = sorted(free_pairs(X))
    if not fp:
        return
    Y = collapse(X, fp[seed % len(fp)])
    assert Y.euler_characteristic() == X.euler_characteristic()
    assert is_closed_subset(X, Y.faces)


@given(tri_sets, st.integers(0, 5))
@settings(max_examples=40)
def test_ultimate_collapse_has_no_free_pairs(gens, seed):
    X = closure(gens)
    Y = ultimate_collapse(X, seed=seed)
    assert free_pairs(Y) == set()
    assert Y.euler_characteristic() == X.euler_characteristic()


@given(tri_sets)
@settings(max_examples=40)
def test_components_partition_the_faces(gens):
    X = closure(gens)
    comps = connected_components(X)
    seen = set()
    for c in comps:
        assert not (c & seen)
        seen |= c
    assert seen == set(X.faces)


def test_subcomplex_mask_finds_faces_by_their_rows():
    rng = random.Random(4)
    hosts = [generate_torus(4, 4), tetrahedron_boundary(), cyc6_host(), wedge()]
    hosts.append(closure(combinations(range(6), 5)))  # the 4-sphere
    for X in hosts:
        pk = X.packed()
        for k in (0, 1, 3, 8):
            W = closure(rng.sample(X.facets() + X.faces_of_dim(0), k)) if k else Complex(())
            mask = _subcomplex_mask(pk, W)
            assert [x for x, m in zip(pk.face_list, mask.tolist()) if m] == W.sorted_faces()
        v = max(x[0] for x in X.faces_of_dim(0))
        foreign = [
            closure([(v + 1,)]),  # a vertex the host lacks
            closure([(v, v + 1)]),
            closure([tuple(range(X.dim + 2))]),  # above the top dimension
        ]
        missing = [y for y in combinations(range(v + 1), 2) if y not in X.faces]
        foreign += [closure([y]) for y in missing[:1]]  # host vertices, not a host edge
        for W in foreign:
            with pytest.raises(ValueError, match="not a subcomplex of the host"):
                _subcomplex_mask(pk, W)
    assert not _subcomplex_mask(Complex(()).packed(), Complex(())).size
    with pytest.raises(ValueError):
        _subcomplex_mask(Complex(()).packed(), closure([(0,)]))


# -- the inclusion pairs, kept as references -----------------------------------


def _inclusion_pairs(pk):
    """(sub, sup) index arrays of every pair of faces x ⊊ y, 2**(p+1) - 2
    of them per p-face y, by the dimension of y.  The faces below y are its
    boundary faces, then theirs, and so on, each kept once per y."""
    off, bd = pk.dim_offset.tolist(), pk.bd
    subs, sups = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    for p in range(1, len(bd)):  # a complex has faces of every dimension up to its own
        n, below = len(bd[p]), bd[p]
        for q in range(p - 1, -1, -1):  # `below` holds the q-faces of each p-face
            subs.append(below.ravel())
            sups.append(np.repeat(np.arange(off[p], off[p + 1]), below.shape[1]))
            if q:
                below = np.sort(bd[q][below - off[q]].reshape(n, -1), axis=1)
                fresh = np.ones(below.shape, dtype=np.bool_)
                fresh[:, 1:] = below[:, 1:] != below[:, :-1]
                below = below[fresh].reshape(n, -1)
    return np.concatenate(subs), np.concatenate(sups)


def _ref_connected_labels(pk, member):
    """Each member labelled by the smallest member of its component, members
    x ⊊ y joined by their inclusion pair."""
    sub, sup = _inclusion_pairs(pk)
    both = member[sub] & member[sup]
    return _kernels.components(sub[both], sup[both], len(pk))


def _ref_strong_labels(pk, member, d):
    """`_strong_labels`, each member below a d-facet taking the least root
    of the d-facets above it through their inclusion pairs."""
    n, off = len(pk), pk.dim_offset.tolist()
    facet = member.copy()
    facet[pk.sub[member[pk.sub] & member[pk.sup]]] = False
    dim = np.repeat(np.arange(len(off) - 1), np.diff(off))
    if d is None:
        d = int(dim[facet].max(initial=-1))
    top = facet & (dim == d)
    pair = member[pk.sub] & top[pk.sup]
    order = np.argsort(pk.sub[pair], kind="stable")
    z, y = pk.sub[pair][order], pk.sup[pair][order]
    same = z[1:] == z[:-1]
    root = _kernels.components(y[:-1][same], y[1:][same], n)
    sub, sup = _inclusion_pairs(pk)
    above = member[sub] & ~top[sub] & top[sup]
    owner = np.full(n, n)
    np.minimum.at(owner, sub[above], root[sup[above]])
    label = np.where(owner < n, owner, root)
    index = np.flatnonzero(member)
    least = np.full(n, n)
    np.minimum.at(least, label[index], index)
    return least[label]


def _random_complexes(seed, count):
    """Closures of a few random faces on seven vertices, one of them of
    dimension 2 to 4: mostly neither pure nor non-branching."""
    rng = random.Random(seed)
    for _ in range(count):
        d = rng.randint(2, 4)
        gens = [rng.sample(range(7), rng.randint(1, d + 1)) for _ in range(rng.randint(1, 7))]
        yield closure(gens + [rng.sample(range(7), d + 1)])


def test_inclusion_pairs_reference_counts_every_pair():
    for X in [*_labeller_hosts(), *_random_complexes(1, 20)]:
        sub, sup = _inclusion_pairs(X.packed())
        ref = {(x, y) for y in X.faces for x in proper_subfaces(y)}
        faces = X.sorted_faces()
        assert {(faces[a], faces[b]) for a, b in zip(sub.tolist(), sup.tolist())} == ref
        dim = np.array([len(x) - 1 for x in faces])
        assert sub.size == len(ref) and (np.diff(dim[sup]) >= 0).all()


def test_coface_range_spans_every_face_above():
    # the least and greatest value over each face and the faces above it,
    # on values given on every face of hosts that need not be pure
    rng = np.random.default_rng(2)
    for X in [*_labeller_hosts(), *_random_complexes(2, 40)]:
        pk = X.packed()
        sub, sup = _inclusion_pairs(pk)
        a, b = rng.integers(-9, 9, size=(2, len(pk)))
        low, high = a.copy(), b.copy()
        assert _coface_range(pk, low, high) == (low, high)  # in place
        np.minimum.at(a, sub, a[sup])
        np.maximum.at(b, sub, b[sup])
        assert np.array_equal(low, a) and np.array_equal(high, b), X


def test_labellers_match_the_inclusion_pair_labellers():
    # both component labellers, on every face and on seeded subsets that
    # are neither open nor closed, against those on the inclusion pairs
    rng = random.Random(6)
    neither = 0
    for X in [*_labeller_hosts(), *_random_complexes(6, 60)]:
        pk = X.packed()
        masks = [np.ones(len(pk), dtype=np.bool_)]
        for _ in range(4):
            S = set(rng.sample(X.sorted_faces(), len(X) // 2))
            if not is_open_subset(X, S) and not is_closed_subset(X, S):
                neither += 1
                masks.append(np.array([x in S for x in pk.face_list]))
        for member in masks:
            at = np.flatnonzero(member)
            got, ref = _connected_labels(pk, member), _ref_connected_labels(pk, member)
            assert np.array_equal(got[at], ref[at]), X
            for d in (None, X.dim - 1):
                got, ref = _strong_labels(pk, member, d), _ref_strong_labels(pk, member, d)
                assert np.array_equal(got[at], ref[at]), X
    assert neither >= 200
