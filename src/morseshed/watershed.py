"""Watersheds of stacks on normal pseudomanifolds.

Three routes to the same object: the generic collapse procedure (any
stack), the pointer-jumping flood for Morse stacks, and the
definitional construction (closure of the biconnected faces of the
traced minima) used as an oracle.  `verify_cut` and
`verify_drop_of_water` check the watershed axioms directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .complexes import (
    Complex,
    Face,
    closure,
    connected_components,
    face_key,
    proper_subfaces,
)
from .morse import biconnected_faces, is_morse
from .stacks import Stack, StackError, minima, ultimate_d_collapse
from . import _kernels

WATERSHED_LABEL = 0


@dataclass(frozen=True)
class WatershedResult:
    labels: dict[Face, int]  # WATERSHED_LABEL or basin id >= 1
    watershed: Complex
    basins: tuple[tuple[int, frozenset[Face]], ...]

    def basin_sizes(self) -> dict[int, int]:
        return {bid: len(fs) for bid, fs in self.basins}


def _assemble_result(F: Stack, cut_faces: set[Face]) -> WatershedResult:
    """Label the host given the (d-1) cut faces; basins are the connected
    components of the complement, numbered by their minimum of F."""
    X = F.host
    W = closure(cut_faces) if cut_faces else Complex(())
    outside = X.faces - W.faces
    comps = connected_components(X, outside)
    mins = minima(F)
    min_index = {}
    for i, (zone, _) in enumerate(mins.minima, start=1):
        for f in zone:
            min_index[f] = i
    labels: dict[Face, int] = {x: WATERSHED_LABEL for x in W.faces}
    basins = []
    for comp in comps:
        ids = {min_index[f] for f in comp if f in min_index}
        bid = min(ids) if ids else 0
        for f in comp:
            labels[f] = bid
        basins.append((bid, frozenset(comp)))
    basins.sort(key=lambda b: b[0])
    return WatershedResult(labels, W, tuple(basins))


def watershed_collapse(F: Stack, seed: int = 0) -> WatershedResult:
    """WatershedCollapse: ultimate d-collapse, then the closure of the
    faces biconnected for the collapsed stack."""
    H = ultimate_d_collapse(F, seed=seed)
    X = F.host
    d = X.dim
    mins = minima(H)
    label: dict[Face, int] = {}
    for i, (zone, _) in enumerate(mins.minima, start=1):
        for f in zone:
            label[f] = i
    cut: set[Face] = set()
    for z in X.faces_of_dim(d - 1):
        cof = X.cofaces[z]
        if len(cof) != 2:
            raise StackError("host must be a non-branching pseudomanifold")
        # after an ultimate d-collapse the divide has dimension < d, so
        # every d-face carries a minimum label
        if label[cof[0]] != label[cof[1]]:
            cut.add(z)
    return _assemble_result(F, cut)


def morse_watershed(F: Stack) -> WatershedResult:
    """Flood over the facet adjacency of a Morse stack.

    After the Morse check, every non-minimum facet drains across its one
    flat (d-1)-face to a strictly lower facet; pointer jumping along these
    links labels each facet with the rank of its minimum in canonical
    order, which is the basin numbering of minima(F).  The cut is the
    (d-1)-faces whose two facets carry different labels, closed downward;
    every remaining lower face joins the basin of its smallest labelled
    coface.  All heavy steps run on the packed integer arrays of the host.
    """
    X = F.host
    d = X.dim
    if not X.faces:
        return WatershedResult({}, Complex(()), ())
    pk = X.packed()
    alt = F.alt_array()
    offender = _kernels.flat_matching_offender(pk.sub, pk.sup, alt, len(pk.faces))
    if offender >= 0:
        raise StackError(f"not a Morse stack (witness {pk.faces[offender]})")
    if d == 0:  # isolated vertices: every face its own basin, empty cut
        return _assemble_result(F, set())
    try:
        nbr, sep_ids, facet_alt, sep_alt, top_lo, sep_lo = _kernels.top_adjacency(
            pk, alt
        )
    except ValueError as exc:
        raise StackError(str(exc)) from exc

    B, W_flags = _kernels.flood(nbr, sep_ids, facet_alt, sep_alt)

    faces = pk.faces
    labels: dict[Face, int] = {}
    cut: set[Face] = set()
    for j in map(int, W_flags.nonzero()[0]):
        z = faces[sep_lo + j]
        cut.add(z)
        labels[z] = WATERSHED_LABEL
        for y in proper_subfaces(z):
            labels[y] = WATERSHED_LABEL
    n_top = nbr.shape[0]
    for i in range(n_top):
        labels[faces[top_lo + i]] = int(B[i])
    for i in range(n_top):  # ascending canonical order fixes ties
        x = faces[top_lo + i]
        bx = labels[x]
        for y in proper_subfaces(x):
            if y not in labels:
                labels[y] = bx
    W = closure(cut) if cut else Complex(())
    basins: dict[int, set[Face]] = {}
    for f, lab in labels.items():
        if lab != WATERSHED_LABEL:
            basins.setdefault(lab, set()).add(f)
    basin_list = tuple(
        (bid, frozenset(fs)) for bid, fs in sorted(basins.items())
    )
    return WatershedResult(labels, W, basin_list)


def morse_watershed_direct(F: Stack) -> Complex:
    """Definitional construction: closure of the faces whose two cofaces
    trace to distinct minima.  Oracle for the two algorithms."""
    ok, witness = is_morse(F)
    if not ok:
        raise StackError(f"not a Morse stack (witness {witness})")
    bic = biconnected_faces(F)
    return closure(bic) if bic else Complex(())


# -- verification oracles -----------------------------------------------------


def _is_extension_of_minima(F: Stack, open_set: set[Face]) -> bool:
    """host \\ W is an extension of min(F): every minimum inside, and each
    component of the open set holds exactly one minimum."""
    mins = minima(F)
    min_id = {}
    for i, (zone, _) in enumerate(mins.minima):
        for f in zone:
            if f not in open_set:
                return False
            min_id[f] = i
    for comp in connected_components(F.host, open_set):
        ids = {min_id[f] for f in comp if f in min_id}
        if len(ids) != 1:
            return False
    return True


def verify_cut(F: Stack, W: Complex, exhaustive_limit: int = 12) -> bool:
    """Cut axioms: complement extends the minima and W is minimal.

    Minimality is checked by facet-removal necessity always, and by
    exhaustive enumeration of facet subsets when W is small.
    """
    X = F.host
    if not W.faces <= X.faces:
        raise ValueError("W is not a subcomplex of the host")
    if not _is_extension_of_minima(F, set(X.faces - W.faces)):
        return False
    facets = W.facets()
    for w in facets:
        smaller = closure(set(facets) - {w}) if len(facets) > 1 else Complex(())
        if _is_extension_of_minima(F, set(X.faces - smaller.faces)):
            return False
    if len(facets) <= exhaustive_limit:
        for k in range(len(facets)):
            for sub in combinations(facets, k):
                Z = closure(sub) if sub else Complex(())
                if Z.faces != W.faces and _is_extension_of_minima(
                    F, set(X.faces - Z.faces)
                ):
                    return False
    return True


def _descending_reach(F: Stack, forbidden: frozenset[Face]) -> dict[Face, frozenset[int]]:
    """For each d-face outside `forbidden`: ids of minima of F reachable by a
    descending strong path avoiding forbidden faces."""
    X = F.host
    d = X.dim
    mins = minima(F)
    seed: dict[Face, set[int]] = {}
    for i, (zone, _) in enumerate(mins.minima):
        for f in zone:
            if len(f) - 1 == d:
                seed.setdefault(f, set()).add(i)
    reach: dict[Face, set[int]] = {
        x: set(seed.get(x, ())) for x in X.faces_of_dim(d) if x not in forbidden
    }
    # descending edges may tie in altitude, so relax to a fixed point
    changed = True
    while changed:
        changed = False
        for x in reach:
            fx = F.altitude[x]
            acc = reach[x]
            before = len(acc)
            for z in X.boundary[x]:
                if z in forbidden or F.altitude[z] > fx:
                    continue
                for y in X.cofaces[z]:
                    if y != x and y in reach and F.altitude[y] <= F.altitude[z]:
                        acc |= reach[y]
            if len(acc) != before:
                changed = True
    return {x: frozenset(s) for x, s in reach.items()}


def verify_drop_of_water(F: Stack, W: Complex) -> bool:
    """Each face of W must see two descending strong paths, starting in its
    cofaces and staying off W, that end in distinct minima of F."""
    X = F.host
    d = X.dim
    reach = _descending_reach(F, frozenset(W.faces))
    for x in sorted(W.faces, key=face_key):
        xs = set(x)
        tops = [y for y in X.faces_of_dim(d) if xs <= set(y)]
        found: set[int] = set()
        for y in tops:
            if y in reach:
                found |= reach[y]
        if len(found) < 2:
            return False
    return True
