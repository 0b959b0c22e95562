"""Simplicial complexes as finite families of vertex sets.

A face is a tuple of strictly increasing non-negative int64 vertex ids.  A
:class:`Complex` holds its packed integer arrays: the vertex ids of the
faces in canonical order, every covering pair as a (sub, sup) pair of
indexes, and the index range of each dimension.  Every complex is built
one way, from the int64 vertex rows of each dimension; a family of faces
is first turned into those rows by one numpy pass per dimension.  The
face tuples, the views that the face-by-face algorithms walk (``faces``,
``by_dim``, ``boundary`` and ``cofaces``) and the derived index arrays
are built from the arrays on first access and are plain attributes
after that.  `_LazyViews` is the one helper that does this, for the
complex and the two other array-backed objects of the package (the stack
and the watershed result); `_from_arrays` builds such an object from its
arrays alone.  Complexes are immutable after construction: every array
a complex holds, packed or built as a view, is read-only (`_read_only`),
so one host can be shared by every stack on it, as the stack parser
shares the hosts it keeps (`io`); operations return new objects sharing
nothing mutable.
Connectivity (`_connected_labels`, `_strong_labels`) and the range of a
value over the faces above each face (`_coface_range`) read the covering
pairs and the `bd` rows alone.  Free pairs, collapses, and open and
closed subsets are in `oracles`.
"""

from __future__ import annotations

from itertools import chain, combinations
from typing import Iterable, Iterator

import numpy as np

from . import _kernels

Face = tuple[int, ...]

_INT64_MIN, _INT64_MAX = -(2**63), 2**63 - 1


class InvalidSimplexError(ValueError):
    pass


def make_face(vertices: Iterable[int]) -> Face:
    """Canonicalize a vertex collection into a face tuple."""
    vs = tuple(sorted(vertices))
    if not vs:
        raise InvalidSimplexError("a simplex must have at least one vertex")
    if any(v < 0 for v in vs):
        raise InvalidSimplexError(f"negative vertex id in {vs}")
    if vs[-1] > _INT64_MAX:  # the packed arrays store vertex ids as int64
        raise InvalidSimplexError(f"vertex id {vs[-1]} in {vs} is outside the int64 range")
    if any(vs[i] == vs[i + 1] for i in range(len(vs) - 1)):
        raise InvalidSimplexError(f"repeated vertex in {vs}")
    return vs


def face_dim(x: Face) -> int:
    return len(x) - 1


def proper_subfaces(x: Face) -> Iterator[Face]:
    """All non-empty proper subsets of x."""
    for k in range(1, len(x)):
        yield from combinations(x, k)


def face_key(x: Face) -> tuple[int, Face]:
    """Canonical ordering key: by dimension, then lexicographically."""
    return (len(x), x)


class _LazyViews:
    """An object whose views are built from the arrays it holds on first
    read.  A subclass maps each view's name to its builder in `_VIEWS`; the
    builder takes the object, and the view is stored as a plain attribute
    (a slot or an instance-dict entry, also on a frozen dataclass), so
    later reads find it without coming here.  The subclasses are
    `Complex`, `Stack` and `WatershedResult`."""

    __slots__ = ()
    _VIEWS: dict = {}

    def __getattr__(self, name: str):
        # only reached while the attribute is unset
        build = type(self)._VIEWS.get(name)
        if build is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        view = build(self)
        object.__setattr__(self, name, view)
        return view


def _from_arrays(cls, **arrays):
    """An instance of the `_LazyViews` subclass `cls` that holds `arrays`
    and none of its views, built without `cls.__init__`."""
    obj = cls.__new__(cls)
    for name, value in arrays.items():
        object.__setattr__(obj, name, value)
    return obj


def _by_dim_view(X) -> dict[int, list[Face]]:
    faces, off = X.face_list, X.dim_offset.tolist()
    return {p: faces[off[p]:off[p + 1]] for p in range(len(off) - 1)}


def _boundary_view(X) -> dict[Face, tuple[Face, ...]]:
    faces, off = X.face_list, X.dim_offset.tolist()
    out: dict[Face, tuple[Face, ...]] = dict.fromkeys(faces, ())
    for p, rows in enumerate(X.bd[1:], start=1):
        bd = map(faces.__getitem__, rows.ravel().tolist())  # p + 1 faces a row
        out.update(zip(faces[off[p]:off[p + 1]], zip(*[bd] * (p + 1))))
    return out


def _cofaces_view(X) -> dict[Face, tuple[Face, ...]]:
    faces = X.face_list
    subs, ups = _grouped(faces, X.sub, X.sup)  # keeps sup ascending per face
    out: dict[Face, tuple[Face, ...]] = dict.fromkeys(faces, ())
    out.update(zip(map(faces.__getitem__, subs), map(tuple, ups)))
    return out


def _pair_cut(X) -> list[int]:
    """Where the covering pairs of each dimension begin: the pairs whose
    larger face is a p-face are cut[p]:cut[p + 1], as sup is ascending,
    so those on the d-faces end the list."""
    return np.searchsorted(X.sup, X.dim_offset).tolist()


def _assembly_view(X):
    """(owner, blocks) of the label assembly of the watershed routes
    (`watershed._assemble`): owner[i] is the local id of the smallest
    d-coface of face i (the d-face itself for a d-face, `lo` of the facet
    graph for a (d-1)-face), and `blocks` the covering pairs (sub, sup)
    whose larger face has dimension p, for p from d - 1 down to 1, which
    close a cut downward.  Raises ValueError where `facet_graph` does."""
    lo = X.facet_graph[0]
    n, top_lo = len(X), X.tops.start
    owner = np.full(n, n - top_lo, dtype=np.int64)
    owner[X.tops] = np.arange(n - top_lo)
    owner[X.seps] = lo
    cut = _pair_cut(X)
    blocks = [(X.sub[cut[p]:cut[p + 1]], X.sup[cut[p]:cut[p + 1]])
              for p in range(X.dim - 1, 0, -1)]
    for sub, sup in blocks:
        np.minimum.at(owner, sub, owner[sup])
    return owner, blocks


def _read_only(a):
    """`a`, marked read-only: a host shares its arrays with every stack,
    route and check that reads it, and the parser with every stack it
    reads on a kept host."""
    a.flags.writeable = False
    return a


def _assembly_map(X):
    """`_assembly_view` with its owner array read-only (the blocks are
    views of the read-only covering pairs)."""
    owner, blocks = _assembly_view(X)
    return _read_only(owner), blocks


def _bd_view(X) -> list:
    cut = _pair_cut(X)
    return [_read_only(np.zeros((len(X.vertex_ids), 0), dtype=np.int64))] + [
        X.sub[cut[p]:cut[p + 1]].reshape(-1, p + 1) for p in range(1, len(cut) - 1)
    ]


class Complex(_LazyViews):
    """A finite simplicial complex, held as its packed integer arrays.

    `rows[p]` holds the vertex ids of the p-faces, one face per row in
    canonical order; the p-faces are the face numbers
    `dim_offset[p]:dim_offset[p+1]`, and `seps` and `tops` the ranges of
    the (d-1)-faces and the d-faces, d the top dimension (no (d-1)-face
    below dimension 1).  `(sub[k], sup[k])` enumerates every covering pair
    by index, sup ascending and then in drop-vertex-i order of the
    boundary.  `keys[p]` (p >= 1) holds the packer's ascending sort keys
    of the p-faces (see `_locate`), and `order[p]` the row of the packer's
    input each p-face came from, or None where that input was in
    canonical order already.

    The other attributes are views built from the arrays on first read and
    kept, so every route, check and writer on one host shares them:
    ``face_list[i]``, face number i as a tuple (`sorted_faces()`), and
    ``faces``, their frozenset; ``by_dim[p]``, the p-faces; ``boundary[x]``,
    the codim-1 faces of x in drop-vertex-i order (the face without
    ``x[i]`` at position i), and ``cofaces[x]``, the codim-1 cofaces in
    canonical order; ``bd[p][i]``, the indexes of the boundary of face
    number dim_offset[p] + i in drop-vertex order (an empty row per vertex
    for p = 0), a view of ``sub`` on the covering pairs of the p-faces
    (`_pair_cut`, and `top_pairs` for p = d); ``n_cofaces``, the number
    of codim-1 cofaces of each face; and ``facet_graph``, the
    two d-faces (lo, hi) of each (d-1)-face (`_kernels.top_adjacency`),
    which raises ValueError on every read when the complex is branching
    or not pure of its top dimension; and ``assembly_map``, the smallest
    d-coface of each face and the covering-pair blocks that close a cut
    downward (`_assembly_view`), which the watershed routes read and which
    raises as ``facet_graph`` does.
    """

    __slots__ = (
        "rows", "sub", "sup", "dim_offset", "seps", "tops", "keys", "order", "dim",
        "face_list", "faces", "by_dim", "boundary", "cofaces",
        "bd", "n_cofaces", "facet_graph", "assembly_map",
    )
    _VIEWS = {
        "face_list": lambda X: [x for r in X.rows for x in zip(*r.T.tolist())],
        "faces": lambda X: frozenset(X.face_list),
        "by_dim": _by_dim_view,
        "boundary": _boundary_view,
        "cofaces": _cofaces_view,
        "bd": _bd_view,
        "n_cofaces": lambda X: _read_only(np.bincount(X.sub, minlength=len(X))),
        # looked up at each build, so a patched function (a tracer, a test) is the one run
        "facet_graph": lambda X: tuple(map(_read_only, _kernels.top_adjacency(X))),
        "assembly_map": lambda X: _assembly_map(X),
    }

    def __init__(self, faces: Iterable[Iterable[int]] = (), _rows=None):
        """`faces` is a closed family of faces, each a collection of
        distinct non-negative int64 vertex ids in any order, listed once
        or more; a face that `make_face` rejects raises its error.
        `_rows`, given in place of `faces`, holds for each dimension p an
        (n, p + 1) int64 array whose rows are the p-faces (ascending
        non-negative vertex ids, in any order), and a repeated or missing
        face then raises InvalidSimplexError without naming it."""
        rows = _face_rows(faces) if _rows is None else list(_rows)
        while rows and not len(rows[-1]):
            rows.pop()  # the dimension is that of the largest face
        arrays = _pack(rows)
        if arrays is None:
            raise _not_closed(rows) if _rows is None else InvalidSimplexError(
                "the rows repeat a face or are not closed"
            )
        for name, value in arrays.items():
            setattr(self, name, value)
        self.dim = len(rows) - 1

    # -- basic protocol ----------------------------------------------------

    def __contains__(self, x) -> bool:
        return x in self.faces

    def __len__(self) -> int:
        return int(self.dim_offset[-1])

    def __iter__(self) -> Iterator[Face]:
        return iter(self.sorted_faces())

    def __eq__(self, other) -> bool:
        """Equal face sets: the packed rows of each dimension are canonical."""
        if not isinstance(other, Complex):
            return False
        a, b = self.rows, other.rows
        return len(a) == len(b) and all(map(np.array_equal, a, b))

    def __hash__(self) -> int:
        return hash(self.faces)

    def __repr__(self) -> str:
        return f"Complex(dim={self.dim}, faces={len(self.faces)})"

    @property
    def vertex_ids(self):
        """The vertex ids, ascending."""
        return self.rows[0][:, 0] if self.rows else np.zeros(0, dtype=np.int64)

    def sorted_faces(self) -> list[Face]:
        """All faces in canonical (dimension, lexicographic) order."""
        return self.face_list

    def faces_of_dim(self, p: int) -> list[Face]:
        return self.by_dim.get(p, [])

    def facets(self) -> list[Face]:
        """Inclusion-maximal faces, in canonical order."""
        return [self.face_list[i] for i in np.flatnonzero(self.n_cofaces == 0).tolist()]

    def is_pure(self) -> bool:
        """Every face below the top dimension lies in a larger face."""
        return bool(self.n_cofaces[:self.tops.start].all())

    def top_pairs(self) -> slice:
        """The covering pairs on the d-faces, as a slice of ``sub`` and
        ``sup``: they end the list, as sup is ascending (`_pair_cut`), and
        are the rows of ``bd[d]``, d + 1 to a d-face."""
        return slice(self.sub.size - (self.dim + 1) * (len(self) - self.tops.start), None)

    def euler_characteristic(self) -> int:
        return sum((-1) ** p * len(fs) for p, fs in self.by_dim.items())

    def star(self, x: Face) -> frozenset[Face]:
        """st(x) = all faces containing x; an open subset of the complex.

        Walks cofaces upward: in a closed family every face containing x
        is reached by adding one vertex at a time."""
        if x not in self.faces:
            raise KeyError(f"{x} is not a face of the complex")
        cofaces = self.cofaces
        out = {x}
        layer = [x]
        while layer:
            layer = {y for z in layer for y in cofaces[z]}
            out |= layer
        return frozenset(out)

    def packed(self) -> "Complex":
        """The complex itself: its integer-indexed incidence arrays are
        its attributes.  Faces are numbered in canonical order, so faces
        of one dimension occupy a contiguous index range.  Hot array-based
        algorithms read these instead of walking the tuple-keyed dicts.
        """
        return self


def _not_closed(rows: list) -> InvalidSimplexError:
    """The error for the first face of `_face_rows` missing a subface."""
    faces = [x for r in rows for x in map(tuple, r.tolist())]
    present = set(faces)
    x, y = next((x, y) for x in faces for y in proper_subfaces(x) if y not in present)
    return InvalidSimplexError(f"not closed: {x} present but its face {y} missing")


def _distinct_rows(rows):
    """The distinct rows of a 2-d array, in lexicographic order."""
    rows = rows[np.lexsort(rows.T[::-1])]
    fresh = np.ones(len(rows), dtype=np.bool_)
    fresh[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[fresh]


def _canonical_rows(faces: list) -> list:
    """For each dimension p, the distinct p-faces as an (n, p + 1) int64
    array of ascending vertex ids, rows in lexicographic order."""
    by_len: dict[int, list] = {}
    for x in faces:
        by_len.setdefault(len(x), []).append(x)
    rows = [np.zeros((0, p + 1), dtype=np.int64) for p in range(max(by_len, default=0))]
    for k, g in by_len.items():
        r = np.fromiter(chain.from_iterable(g), dtype=np.int64, count=len(g) * k)
        r = np.sort(r.reshape(len(g), k), axis=1)
        if not k or r[:, 0].min() < 0 or (r[:, 1:] <= r[:, :-1]).any():
            raise InvalidSimplexError("an empty face, a negative id or a repeated vertex")
        rows[k - 1] = _distinct_rows(r)
    return rows


def _face_rows(faces: Iterable[Iterable[int]]) -> list:
    """`_canonical_rows` of a family of faces; a face that `make_face`
    rejects raises its error, for the first bad face in input order."""
    faces = list(faces)
    try:
        return _canonical_rows(faces)
    except (TypeError, ValueError, OverflowError):  # also a face without len(), an id past int64
        pass
    return _canonical_rows([make_face(x) for x in faces])


def _vertex_ranks(vertex_ids, r):
    """Ranks of the vertex ids in `r` among the distinct ascending
    `vertex_ids`; None if one is absent.  When the vertex ids are exactly
    0..n-1, each id is its own rank and `r` itself is returned."""
    nv = vertex_ids.size
    if nv == 0:
        return None
    if vertex_ids[0] == 0 and vertex_ids[-1] == nv - 1:
        return r if not r.size or (r.min() >= 0 and r.max() < nv) else None
    ranks = np.minimum(np.searchsorted(vertex_ids, r), nv - 1)
    return ranks if (vertex_ids[ranks] == r).all() else None


def _locate(keys: list, n_vertices: int, ranks):
    """Local indexes of the faces whose vertex ranks are the rows of
    `ranks`, among the faces of their dimension; None if one is absent.

    A p-face is keyed by (index of its prefix (p-1)-face) * n_vertices +
    (rank of its last vertex), so a key stays below (faces * vertices)
    and sorting the keys of one dimension sorts its faces
    lexicographically.  `keys[p]` holds the sorted keys of the p-faces
    (p >= 1); a vertex is located by its rank.
    """
    idx = ranks[:, 0]
    for j in range(1, ranks.shape[1]):
        sorted_keys = keys[j]
        if sorted_keys.size == 0:
            return None
        key = idx * n_vertices + ranks[:, j]
        idx = np.minimum(np.searchsorted(sorted_keys, key), sorted_keys.size - 1)
        if not (sorted_keys[idx] == key).all():
            return None
    return idx


def _pack(rows: list) -> dict | None:
    """The `Complex` arrays, by name, of a family of faces given as the
    vertex rows of each dimension: its canonical order and covering pairs;
    None when the family repeats a face or is not closed.

    Each boundary face is found by binary search among the faces of the
    dimension below, so a failed lookup is a missing face.  Rows already
    in canonical order (ascending sort keys) are kept as given."""
    dim_offset = np.zeros(len(rows) + 1, dtype=np.int64)
    dim_offset[1:] = np.cumsum([len(r) for r in rows])
    subs, sups, keys, ordered, orders = [], [], [None], [], []
    for p, r in enumerate(rows):
        if p == 0:
            key = r[:, 0]
        else:
            ranks = _vertex_ranks(vertex_ids, r)
            if ranks is None:
                return None
            # one search for the faces of all p + 1 drops: query row
            # i * n + k holds face k less its vertex i, whose column j is
            # column j + (j >= i) of the face
            cols = range(p + 1)
            by_col = np.ascontiguousarray(ranks.T)
            drops = by_col[[[j + (j >= i) for i in cols] for j in range(p)]]
            found = _locate(keys, nv, drops.reshape(p, -1).T)
            if found is None:
                return None
            bd = np.empty((len(r), p + 1), dtype=np.int64)
            for i, faces in enumerate(found.reshape(p + 1, -1)):
                bd[:, i] = faces
            # the last column is the prefix face: drop vertex p
            key = bd[:, p] * nv + ranks[:, p]
        order = None
        if len(r) > 1 and not (key[1:] > key[:-1]).all():
            order = np.argsort(key)
            key, r = key[order], r[order]
            if not (key[1:] > key[:-1]).all():
                return None  # a repeated face
            if p:
                bd = bd[order]
        if p == 0:
            vertex_ids, nv = key, len(key)
        else:
            keys.append(key)
            subs.append((bd + dim_offset[p - 1]).ravel())
            sups.append(np.repeat(np.arange(dim_offset[p], dim_offset[p + 1]), p + 1))
        ordered.append(r)
        orders.append(order)
    empty = np.zeros(0, dtype=np.int64)
    off = [0, 0, *dim_offset.tolist()]  # two empty dimensions below 0
    return dict(
        # a view of each row array, so a caller's own array keeps its flag
        rows=[_read_only(r.view()) for r in ordered],
        sub=_read_only(np.concatenate(subs) if subs else empty),
        sup=_read_only(np.concatenate(sups) if sups else empty),
        dim_offset=_read_only(dim_offset),
        seps=slice(off[-3], off[-2]),
        tops=slice(off[-2], off[-1]),
        keys=[None, *map(_read_only, keys[1:])],
        order=[None if o is None else _read_only(o) for o in orders],
    )


EMPTY_COMPLEX = Complex(())


def closure(generators: Iterable[Iterable[int]]) -> Complex:
    """Smallest complex containing every generator simplex."""
    return _closure(_face_rows(generators))


def _closure(gens: list) -> Complex:
    """The closure of the faces whose vertex rows are `gens`: for each
    dimension p, an (n, p + 1) int64 array of ascending non-negative ids,
    rows in any order and possibly repeated.

    Its faces with k vertices are the k-column subsets of the generators'
    vertex rows, deduplicated by a lexicographic sort."""
    return Complex(_rows=[
        _distinct_rows(np.concatenate(
            [r[:, cols] for r in gens[k - 1:] for cols in combinations(range(r.shape[1]), k)]
        ))
        for k in range(1, len(gens) + 1)
    ])


def _masked_complex(pk: Complex, member) -> Complex:
    """The complex of the faces of pk where the boolean mask `member`
    holds, built from their vertex rows; the members must be closed."""
    off = pk.dim_offset.tolist()
    return Complex(_rows=[r[member[off[p]:off[p + 1]]] for p, r in enumerate(pk.rows)])


def _member_mask(pk: Complex, S: Iterable[Face] | None):
    """Boolean mask of the faces in S (all faces when S is None)."""
    if S is None:
        return np.ones(len(pk), dtype=np.bool_)
    index = dict(zip(pk.face_list, range(len(pk))))
    try:
        idx = [index[x] for x in S]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]} is not a face of the complex") from None
    member = np.zeros(len(pk), dtype=np.bool_)
    member[idx] = True
    return member


def _subcomplex_mask(pk: Complex, W: Complex):
    """Boolean mask of the faces of W in pk, each found from its vertex row
    by the packer's sort keys, so no face tuple or face set is built.
    Raises ValueError when W is not a subcomplex of pk."""
    member = np.zeros(len(pk), dtype=np.bool_)
    vertex_ids = pk.vertex_ids
    for p, r in enumerate(W.packed().rows):
        found = None
        if p < len(pk.rows) and (ranks := _vertex_ranks(vertex_ids, r)) is not None:
            found = _locate(pk.keys, vertex_ids.size, ranks)
        if found is None:
            raise ValueError("W is not a subcomplex of the host")
        member[found + pk.dim_offset[p]] = True
    return member


def _grouped(faces: list, label, index=None) -> tuple[list[int], list[list[Face]]]:
    """The faces grouped by equal label, by ascending label: the distinct
    labels, and the faces of each in their order.  `label[k]` labels
    `faces[index[k]]`, or `faces[k]` when `index` is None.  One stable
    argsort and no count per label, so a label may be any int64."""
    order = np.argsort(label, kind="stable")
    ranked = label[order]
    first = np.ones(ranked.size, dtype=np.bool_)
    first[1:] = ranked[1:] != ranked[:-1]
    bounds = [*np.flatnonzero(first).tolist(), ranked.size]
    members = list(map(faces.__getitem__, (order if index is None else index[order]).tolist()))
    return ranked[first].tolist(), [members[a:b] for a, b in zip(bounds, bounds[1:])]


def _coface_range(pk: Complex, least, most):
    """`least` and `most`, one value per face, lowered and raised in place
    to the least and the greatest over each face and the faces above it:
    one pass down the covering-pair blocks (`_pair_cut`) from the top
    dimension, as the faces above a face are those above its cofaces."""
    cut = _pair_cut(pk)
    for p in range(pk.dim, 0, -1):
        sub, sup = pk.sub[cut[p]:cut[p + 1]], pk.sup[cut[p]:cut[p + 1]]
        np.minimum.at(least, sub, least[sup])
        np.maximum.at(most, sub, most[sup])
    return least, most


def _connected_labels(pk: Complex, member):
    """Each member labelled by the smallest member of its component: the
    covering pairs join the faces that lie above one member and below
    another, which join members x ⊊ y through the faces between them,
    each to a smaller member below it."""
    off, bd = pk.dim_offset.tolist(), pk.bd
    below, above = member.copy(), member.copy()  # the faces below a member, above one
    for p in range(len(bd) - 1, 0, -1):
        below[bd[p][below[off[p]:off[p + 1]]]] = True
    for p in range(1, len(bd)):
        above[off[p]:off[p + 1]] |= above[bd[p]].any(axis=1)
    below &= above  # the faces between two members
    both = np.flatnonzero(below[pk.sub] & below[pk.sup])
    return _kernels.components(pk.sub[both], pk.sup[both], len(pk))


def connected_components(X: Complex, S: Iterable[Face] | None = None) -> list[set[Face]]:
    """Maximal path-connected parts of S, paths stepping along inclusions.

    Adjacency never leaves S: two faces are adjacent when one contains
    the other, both being members.  The components come in canonical
    order of their smallest member.  A member of S that is not a face of
    X raises ValueError.
    """
    pk = X.packed()
    member = _member_mask(pk, S)
    index = np.flatnonzero(member)
    return list(map(set, _grouped(pk.face_list, _connected_labels(pk, member)[index], index)[1]))


def strong_connected_components(
    X: Complex, S: Iterable[Face] | None = None, d: int | None = None
) -> list[set[Face]]:
    """Partition of S by strong-path reachability between its d-facets.

    A strong path alternates d-faces and shared (d-1)-faces, all lying in
    S.  A facet of S is a member with no codim-1 coface in S; d defaults
    to the largest facet dimension.  Every other member joins the first
    component, in order of smallest d-facet, that holds a d-face
    containing it, or stays alone when none does (unambiguous on open
    subsets of normal pseudomanifolds, where this matches plain
    connectivity).  The components come in canonical order of their
    smallest member.  A member of S that is not a face of X raises
    ValueError.
    """
    pk = X.packed()
    member = _member_mask(pk, S)
    index = np.flatnonzero(member)
    return list(map(set, _grouped(pk.face_list, _strong_labels(pk, member, d)[index], index)[1]))


def _strong_labels(pk: Complex, member, d: int | None):
    """Each member's label: the smallest member of the strong component it
    joins (that of the least d-facet containing it), or itself."""
    n, off = len(pk), pk.dim_offset.tolist()
    facet = member.copy()
    facet[pk.sub[member[pk.sub] & member[pk.sup]]] = False
    dim = np.repeat(np.arange(len(off) - 1), np.diff(off))
    if d is None:
        d = int(dim[facet].max(initial=-1))
    top = facet & (dim == d)
    # join the d-facets around each shared (d-1)-face of S
    pair = member[pk.sub] & top[pk.sup]
    order = np.argsort(pk.sub[pair], kind="stable")
    z, y = pk.sub[pair][order], pk.sup[pair][order]
    same = z[1:] == z[:-1]
    root = _kernels.components(y[:-1][same], y[1:][same], n)
    # each other member takes the least root among the d-facets above it
    owner = _coface_range(pk, np.where(top, root, n), np.zeros(n, dtype=np.int64))[0]
    label = np.where(owner < n, owner, root)
    index = np.flatnonzero(member)
    least = np.full(n, n)
    np.minimum.at(least, label[index], index)
    return least[label]
