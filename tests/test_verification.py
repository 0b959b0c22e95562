"""The single-pass watershed checks against the direct definitions.

`_ref_verify_cut` applies the cut definition to a list of proper
subcomplexes of W: all of them on small hosts, and W minus the star of
each of its faces on the larger ones.  `_ref_verify_drop_of_water`
relaxes descending reachability to a fixed point and scans every d-face
for the tops of each face of W.  They are kept here as references.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from morseshed import _kernels, cli, complexes, io, watershed
from morseshed.complexes import Complex, closure, connected_components, face_key
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.oracles import build_facet_graph, watershed_forest
from morseshed.stacks import Stack, minima, random_stack
from morseshed.watershed import (
    WATERSHED_LABEL,
    morse_watershed,
    verify_cut,
    verify_drop_of_water,
    watershed_collapse,
)
from test_complexes import _inclusion_pairs


def _ref_is_extension_of_minima(F, open_set):
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


def _ref_verify_cut(F, W, smaller):
    """X \\ W is an extension of the minima, and no face set in
    smaller(X, W), proper subcomplexes of W, has a complement that is one."""
    X = F.host
    if not W.faces <= X.faces:
        raise ValueError("W is not a subcomplex of the host")
    if not _ref_is_extension_of_minima(F, set(X.faces - W.faces)):
        return False
    return not any(_ref_is_extension_of_minima(F, set(X.faces - Y)) for Y in smaller(X, W))


def _proper_subcomplexes(X, W):
    return (Y.faces for Y in _all_subcomplexes(W) if Y.faces != W.faces)


def _minus_each_star(X, W):
    return (W.faces - X.star(x) for x in W.faces)


def _ref_descending_reach(F, forbidden):
    X = F.host
    d = X.dim
    seed = {}
    for i, (zone, _) in enumerate(minima(F).minima):
        for f in zone:
            if len(f) - 1 == d:
                seed.setdefault(f, set()).add(i)
    reach = {x: set(seed.get(x, ())) for x in X.faces_of_dim(d) if x not in forbidden}
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


def _ref_verify_drop_of_water(F, W):
    X = F.host
    d = X.dim
    reach = _ref_descending_reach(F, frozenset(W.faces))
    for x in sorted(W.faces, key=face_key):
        xs = set(x)
        found = set()
        for y in X.faces_of_dim(d):
            if xs <= set(y) and y in reach:
                found |= reach[y]
        if len(found) < 2:
            return False
    return True


def _candidates(F, cut, rng):
    """The cut, the cut missing a facet, the cut plus an edge or a host
    facet, two random edge sets, a random vertex set and nothing."""
    X = F.host
    facets = cut.facets()
    edges = X.faces_of_dim(1)
    outside = [e for e in edges if e not in cut.faces]
    out = [cut, Complex(())]
    if facets:
        out.append(closure(f for f in facets if f != rng.choice(facets)))
    if outside:
        out.append(closure(facets + [rng.choice(outside)]))
    out.append(closure(facets + [rng.choice(X.faces_of_dim(X.dim))]))
    for k in (2, 5):
        out.append(closure(rng.sample(edges, min(k, len(edges)))))
    out.append(closure(rng.sample(X.faces_of_dim(0), 3)))
    return out


def _stacks_with_cuts(hosts):
    """Per host and seed 0-7, a Morse stack with its flood cut and a
    random stack with its collapse cut."""
    for X in hosts:
        for seed in range(8):
            F = random_morse_stack(X, seed=seed, n_minima=1 + seed % 5)
            yield F, morse_watershed(F).watershed
            G = random_stack(X, seed=seed, low=0, high=3)
            yield G, watershed_collapse(G, seed=seed).watershed


def _verdicts_on_candidates(hosts):
    """Both checks accept every cut a route returns, and agree with the
    references on the candidates around it, the cut reference dropping
    the star of each face of W in turn; returns all candidate verdicts."""
    rng = random.Random(7)
    verdicts = []
    for F, cut in _stacks_with_cuts(hosts):
        assert verify_cut(F, cut) and verify_drop_of_water(F, cut), F.altitude
        for W in _candidates(F, cut, rng):
            cut_ok = verify_cut(F, W)
            assert cut_ok == _ref_verify_cut(F, W, _minus_each_star), (F.altitude, W)
            drop = verify_drop_of_water(F, W)
            assert drop == _ref_verify_drop_of_water(F, W), (F.altitude, W)
            verdicts += [cut_ok, drop]
    return verdicts


def _all_subcomplexes(X):
    """Every subcomplex of X, by adding faces in canonical order."""
    out = [frozenset()]
    for x in X.sorted_faces():
        below = [y for y in X.faces if len(y) == len(x) - 1 and set(y) <= set(x)]
        out += [S | {x} for S in out if all(y in S for y in below)]
    return [Complex(S) for S in out]


def test_verdicts_match_references_on_tori():
    verdicts = _verdicts_on_candidates(generate_torus(n, n) for n in (3, 4, 5))
    assert verdicts.count(True) > 50 and verdicts.count(False) > 200


def test_verdicts_match_references_in_dimensions_3_and_4():
    # the boundaries of the 4- and 5-simplex: the 3-sphere and the 4-sphere
    hosts = [closure(combinations(range(k), k - 1)) for k in (5, 6)]
    verdicts = _verdicts_on_candidates(hosts)
    assert verdicts.count(True) > 20 and verdicts.count(False) > 50


def test_verdicts_match_references_on_every_subcomplex():
    # every subcomplex of small hosts, facets of the host included, each
    # judged against every proper subcomplex of it
    X = cyc6_host()
    stacks = [cyc6_stack(), Stack(X, {x: 0 for x in X.faces})]
    stacks += [random_stack(X, seed=s, low=0, high=3) for s in range(3)]
    T = tetrahedron_boundary()
    stacks += [random_stack(T, seed=s, low=0, high=2) for s in range(3)]
    stacks += [random_morse_stack(T, seed=s, n_minima=2) for s in range(2)]
    counts = {True: 0, False: 0}
    for F in stacks:
        for W in _all_subcomplexes(F.host):
            cut = verify_cut(F, W)
            assert cut == _ref_verify_cut(F, W, _proper_subcomplexes), (F.altitude, W.faces)
            drop = verify_drop_of_water(F, W)
            assert drop == _ref_verify_drop_of_water(F, W), (F.altitude, W.faces)
            counts[cut] += 1
            counts[drop] += 1
    assert counts[True] > 20 and counts[False] > 1000


def test_verify_cut_rejects_a_cut_that_holds_a_smaller_cut():
    # on the 6-cycle, {(2,), (5,)} and {(3,), (5,)} are cuts; a complex
    # that holds one of them and a host facet (an edge) is not minimal
    F = cyc6_stack()
    assert verify_cut(F, closure([(2,), (5,)])) and verify_cut(F, closure([(3,), (5,)]))
    assert not verify_cut(F, closure([(1, 2), (5,)]))
    assert not verify_cut(F, closure([(3,), (4, 5)]))


def test_verify_cut_labels_a_fixed_number_of_times(monkeypatch):
    # the 12-facet cut of 2 minima on TOR(6,6), seed 1, decided from the
    # flat-link roots with no labelling; the same cut plus a host
    # triangle and a cut on the 6-cycle plus a host edge, which hold a
    # d-face and so take the labellings, as many for each
    F = random_morse_stack(generate_torus(6, 6), seed=1, n_minima=2)
    W = morse_watershed(F).watershed
    assert len(W.facets()) == 12
    cases = [
        (F, W, True),
        (F, closure(W.facets() + [F.host.faces_of_dim(2)[0]]), False),
        (cyc6_stack(), closure([(3,), (4, 5)]), False),
    ]
    calls = []
    labeller = _kernels.components

    def counting(*args):
        calls[-1] += 1
        return labeller(*args)

    monkeypatch.setattr(_kernels, "components", counting)
    for G, V, expected in cases:
        calls.append(0)
        assert verify_cut(G, V) == expected
    assert calls[0] == 0 and calls[1] == calls[2] > 0, calls


def test_checks_on_a_parsed_stack_walk_no_tuple_view():
    # the watershed checks and the facet graph read the packed host and
    # the altitude array: no boundary or coface dict, no altitude dict,
    # and no face set of the host, as W is found by its vertex rows
    text = io.serialize_stack(random_morse_stack(generate_torus(6, 6), seed=4, n_minima=3))
    F = io.parse_stack(text)
    W = morse_watershed(F).watershed
    assert verify_cut(F, W) and verify_drop_of_water(F, W)
    edge = closure([F.host.faces_of_dim(1)[0]])
    assert not verify_cut(F, edge) and not verify_drop_of_water(F, edge)
    for check in (verify_cut, verify_drop_of_water):
        with pytest.raises(ValueError, match="W is not a subcomplex of the host"):
            check(F, closure([(0, 99)]))
    build_facet_graph(F)
    watershed_forest(F)
    for view in ("boundary", "cofaces", "faces"):
        with pytest.raises(AttributeError):
            Complex.__dict__[view].__get__(F.host)  # the slot is still unset
    assert "altitude" not in vars(F)


def test_mask_checks_match_the_public_verifiers():
    # the shared labelling on a face mask gives both verdicts of the public
    # checks on: the cut, the cut minus a facet, the cut plus a host facet,
    # the closure of one edge and the cut plus a (d-1)-face that is flat
    # with one of its d-faces (a W that crosses a flat link)
    from morseshed.complexes import _subcomplex_mask
    from morseshed.watershed import _labels_hold, _verify_watershed

    hosts = [cyc6_host(), tetrahedron_boundary(), closure(combinations(range(5), 4))]
    hosts += [generate_torus(n, n) for n in range(3, 7)]
    stacks = [cyc6_stack()]
    stacks += [random_morse_stack(X, seed=s, n_minima=1 + s) for X in hosts for s in range(3)]
    verdicts = []
    for F in stacks:
        X = F.host
        result = morse_watershed(F)
        W = result.watershed
        in_w = result._label == 0
        cut, _, classes = _verify_watershed(F, in_w)
        assert cut and _labels_hold(result._label, in_w, *classes)
        facets = W.facets()
        top = X.faces_of_dim(X.dim)[0]
        cases = [W, closure(facets + [top]), closure([X.faces_of_dim(1)[0]])]
        if facets:
            cases.append(closure(facets[1:]))
        link = next(z for z in X.faces_of_dim(X.dim - 1)
                    if any(F.altitude[y] == F.altitude[z] for y in X.cofaces[z]))
        cases.append(closure(facets + [link]))
        for V in cases:
            got = _verify_watershed(F, _subcomplex_mask(X.packed(), V))[:2]
            assert got == (verify_cut(F, V), verify_drop_of_water(F, V))
            verdicts.append(got)
    assert verdicts.count((True, True)) == len(stacks)
    # a host facet in W breaks both; a missing facet breaks the cut
    assert sum(not cut for cut, _ in verdicts) >= 2 * len(stacks)
    assert sum(not drop for _, drop in verdicts) >= len(stacks)



def _closed(pk, mask):
    """The mask with every face below a marked face marked too."""
    sub, sup = _inclusion_pairs(pk)
    mask = mask.copy()
    mask[sub[mask[sup]]] = True
    return mask


def _variants(F, rng):
    """W as face masks in packed order, each with whether the root path
    takes it on a tie-inert stack: the collapse's cut, no face, the cut
    less one (d-1)-face, the cut plus one closed (d-1)-face that is flat
    with none of its d-faces (taken) and one that is flat with one (not
    taken), the cut plus a d-face, the (d-1)-skeleton (taken when no
    (d-1)-face is flat) and the whole host."""
    pk, alt = F.host.packed(), F.alt_array()
    lo, hi = pk.facet_graph
    v, ta = alt[pk.seps], alt[pk.tops]
    flat = (ta[lo] == v) | (ta[hi] == v)
    cut = watershed_collapse(F)._label == WATERSHED_LABEL
    out = [(cut, True), (np.zeros(len(pk), dtype=np.bool_), True)]

    def toggle(base, faces, taken):  # base with one of `faces` flipped, closed
        if faces.size:
            m = base.copy()
            f = rng.choice(faces.tolist())
            m[f] = not m[f]
            out.append((_closed(pk, m), taken))

    seps = pk.seps.start + np.flatnonzero(cut[pk.seps])
    toggle(np.isin(np.arange(len(pk)), seps), seps, True)  # the cut less one
    off_cut = ~cut[pk.seps]
    toggle(cut, pk.seps.start + np.flatnonzero(off_cut & ~flat), True)
    toggle(cut, pk.seps.start + np.flatnonzero(off_cut & flat), False)
    toggle(cut, np.arange(pk.tops.start, len(pk)), False)
    out.append((np.arange(len(pk)) < pk.tops.start, not flat.any()))
    out.append((np.ones(len(pk), dtype=np.bool_), False))
    return out


def test_root_verdicts_match_the_labelling_checks():
    # the flat-link root path against the kept labelling checks: Morse
    # and random stacks on the 6-cycle, the boundaries of the 3-, 4- and
    # 5-simplex and TOR(3..10), and stacks on the wedge, whose pinch
    # makes the cut check reject some collapse cuts
    from morseshed.fixtures import wedge
    from morseshed.stacks import _flat_zones, _inert_forest, _stack_from_array
    from morseshed.watershed import _cut_classes, _drop_holds, _root_classes, _verify_watershed

    hosts = [cyc6_host(), tetrahedron_boundary()]
    hosts += [closure(combinations(range(k), k - 1)) for k in (5, 6)]
    hosts += [generate_torus(n, n) for n in range(3, 11)]
    stacks = [(random_morse_stack(X, seed=s, n_minima=1 + s), True) for X in hosts for s in range(3)]
    stacks += [(random_stack(X, seed=s, low=0, high=high), False)
               for X in hosts for s in range(2) for high in (2, 40)]
    stacks += [(random_morse_stack(wedge(), seed=s, n_minima=1 + s % 4), True) for s in range(40)]
    stacks += [(random_stack(wedge(), seed=s, low=0, high=20), False) for s in range(10)]
    # vertex 1 flat with both its edges, every edge with one flat vertex
    stacks.append((_stack_from_array(cyc6_host(), np.array([1, 0, 5, 4, 3, 2, 0, 1, 0, 4, 3, 2])),
                   False))
    rng = random.Random(3)
    seen = {True: {}, False: {}}
    for F, morse in stacks:
        inert = _inert_forest(F) is not None
        assert inert or not morse  # every Morse cut takes the root path
        rank = _flat_zones(F)[1]
        for in_w, taken in _variants(F, rng):
            ref = (_cut_classes(F, in_w, rank) is not None, _drop_holds(F, in_w, rank))
            got = None if (found := _root_classes(F, in_w)) is None else found[:2]
            assert (got is not None) == (inert and taken), F.altitude
            assert got in (None, ref) and _verify_watershed(F, in_w)[:2] == ref, F.altitude
            seen[got is not None][ref] = seen[got is not None].get(ref, 0) + 1
    assert set(seen[True]) == {(True, True), (False, True), (False, False)}, seen
    assert {(True, True), (False, True), (False, False)} <= set(seen[False]), seen



def _ref_top_inclusions(pk):
    """The (face, d-face) pairs x ⊊ y of a pure host, as the checks read
    them before the pass down the covering pairs: the tail of its
    inclusion pairs, which come by the dimension of their larger face, as
    each d-face has 2**(d+1) - 2 proper faces."""
    sub, sup = _inclusion_pairs(pk)
    at = sub.size - (len(pk) - pk.tops.start) * (2 ** (pk.dim + 1) - 2)
    return sub[at:], sup[at:]


def test_coface_range_matches_the_inclusion_pairs():
    # the least and greatest value over the d-cofaces of each face, from
    # the pass down the covering pairs, with the faces below d padded, and
    # from the (face, d-face) block of the inclusion pairs, on hosts of
    # dimension 1 to 4
    from morseshed.complexes import _INT64_MAX, _INT64_MIN, _coface_range

    hosts = [cyc6_host(), closure([(k, (k + 1) % 7) for k in range(7)])]
    hosts += [generate_torus(n, n) for n in range(3, 9)]
    hosts += [closure(combinations(range(k), k - 1)) for k in (5, 6)]
    assert sorted({X.dim for X in hosts}) == [1, 2, 3, 4]
    rng = np.random.default_rng(5)
    for X in hosts:
        pk = X.packed()
        top_lo = pk.tops.start
        sub, sup = _ref_top_inclusions(pk)
        for _ in range(3):
            # low_high takes values in 0..n, n the number of faces below d
            a, b = rng.integers(0, top_lo + 1, size=(2, len(pk) - top_lo))
            low, high = np.full(len(pk), _INT64_MAX), np.full(len(pk), _INT64_MIN)
            low[pk.tops], high[pk.tops] = a, b
            low, high = (v[:top_lo] for v in _coface_range(pk, low, high))
            assert np.array_equal(low, _kernels.low_high(sub, a[sup - top_lo], top_lo)[0])
            assert np.array_equal(high, _kernels.low_high(sub, b[sup - top_lo], top_lo)[1])


def _tor8(tmp_path):
    """A fixed TOR(8) Morse stack with four minima, the file it is written
    to, and the `watershed` command lines of both routes on it, which
    exit 0 as long as no kernel the routes share is faulty."""
    F = random_morse_stack(generate_torus(8, 8), seed=3, n_minima=4)
    path = tmp_path / "tor8.stack"
    path.write_text(io.serialize_stack(F))
    argv = [["watershed", str(path), "--algo", algo] for algo in ("morse", "collapse")]
    assert [cli.main(a) for a in argv] == [0, 0]
    return F, path, argv


def test_a_merging_fault_in_the_shared_flat_links_fails_the_cli_check(monkeypatch, tmp_path):
    # both routes read the flat-link forest of `stacks._inert_forest`; the
    # check builds its forest from the altitudes, so hanging one tree's
    # root under the facet across a basin boundary merges two basins in
    # the printed watershed, and the command exits 4 instead of 0
    F, _, argv = _tor8(tmp_path)
    real = watershed._inert_forest
    lo, hi = F.host.packed().facet_graph

    def merged(G):
        parent = real(G)
        root = _kernels._jump(parent)
        across = np.flatnonzero(root[lo] != root[hi])  # a basin boundary
        j = across[(parent[lo[across]] == lo[across]) | (parent[hi[across]] == hi[across])][0]
        r = lo[j] if parent[lo[j]] == lo[j] else hi[j]  # a root on it
        parent[r] = lo[j] + hi[j] - r
        return parent

    monkeypatch.setattr(watershed, "_inert_forest", merged)
    assert [cli.main(a) for a in argv] == [4, 4]


def test_a_merging_fault_in_forest_basins_fails_the_cli_checks(monkeypatch, tmp_path):
    # the two basins on either side of the first cut (d-1)-face take one
    # label, so that face leaves the printed cut; the basins flag of
    # `msf --verify` reads the same labels and fails too
    F, path, argv = _tor8(tmp_path)
    msf = ["msf", str(path), "--verify"]
    assert cli.main(msf) == 0
    real = _kernels.forest_basins

    def merged(parent, lo, hi):
        B, cut = real(parent, lo, hi)
        j = np.flatnonzero(cut)[0]
        B = np.where(B == B[hi[j]], B[lo[j]], B)
        return B, B[lo] != B[hi]

    monkeypatch.setattr(_kernels, "forest_basins", merged)
    assert [cli.main(a) for a in argv + [msf]] == [4, 4, 4]


@pytest.mark.parametrize("flag", [True, False])
def test_a_flipped_cut_flag_in_forest_basins_fails_the_cli_check(monkeypatch, tmp_path, flag):
    # the first (d-1)-face whose cut flag is `flag` leaves or joins the cut
    _, _, argv = _tor8(tmp_path)
    real = _kernels.forest_basins

    def flipped(parent, lo, hi):
        B, cut = real(parent, lo, hi)
        j = np.flatnonzero(cut == flag)[0]
        cut[j] = not flag
        return B, cut

    monkeypatch.setattr(_kernels, "forest_basins", flipped)
    assert [cli.main(a) for a in argv] == [4, 4]


def test_a_cut_face_dropped_by_the_label_assembly_fails_the_cli_check(monkeypatch, tmp_path):
    # the shared assembly closes the cut downward; without its first cut
    # (d-1)-face, that face joins two basins outside the printed cut
    _, _, argv = _tor8(tmp_path)
    real = watershed._assemble

    def dropped(pk, B, cut):
        cut = cut.copy()
        cut[np.flatnonzero(cut)[0]] = False
        return real(pk, B, cut)

    monkeypatch.setattr(watershed, "_assemble", dropped)
    assert [cli.main(a) for a in argv] == [4, 4]


def _relinked(real, fault):
    """An `_inert_forest` whose parent array `fault` edits in place, given
    the array and its first non-root d-face."""

    def faulty(G):
        parent = real(G).copy()
        fault(parent, np.flatnonzero(parent != np.arange(parent.size))[0])
        return parent

    return faulty


def _reroot(parent, _):
    # a child c of a root with another root between them takes its place,
    # so the ranks of the roots, and the printed basin ids, change
    ids = np.arange(parent.size)
    roots = np.flatnonzero(parent == ids)
    c = next(c for c in np.flatnonzero(parent != ids) if parent[c] in roots
             and ((roots > min(c, parent[c])) & (roots < max(c, parent[c]))).any())
    parent[parent[c]] = c
    parent[c] = c


def _drop(parent, y):
    parent[y] = y  # a non-root becomes a root


def _reverse(parent, y):
    parent[parent[y]] = y  # y and its parent point at each other


@pytest.mark.parametrize("fault, line", [
    (_reroot, "# verify_labels=False"),
    (_drop, "# verify_cut=False"),
    (_reverse, "# verify_cut=False"),
])
def test_a_relinked_flat_link_forest_fails_the_cli_check(
        monkeypatch, tmp_path, capsys, fault, line):
    # the check builds its own forest from the altitudes: a re-rooted tree
    # keeps the cut and renumbers the basins, which only the label check
    # sees; a dropped link splits a basin and a reversed one leaves a
    # 2-cycle with no root, and the cut check fails on both
    _, _, argv = _tor8(tmp_path)
    capsys.readouterr()
    monkeypatch.setattr(watershed, "_inert_forest", _relinked(watershed._inert_forest, fault))
    for a in argv:
        assert cli.main(a) == 4
        assert capsys.readouterr().out.endswith(f"\n{line}\n")


def _shifted_owner(X):
    """The host's assembly map with the owner of every face below
    dimension d-1 moved to the next d-face, mostly not a coface of it."""
    owner, blocks = complexes._assembly_view(X)
    below = X.seps.start
    owner[:below] = (owner[:below] + 1) % (len(X) - X.tops.start)
    return owner, blocks


def _no_closure(X):
    """The host's assembly map without the blocks that close the cut."""
    return complexes._assembly_view(X)[0], []


@pytest.mark.parametrize("view, line", [
    (_shifted_owner, "# verify_labels=False"),
    (_no_closure, "# verify_cut=False"),
])
def test_a_faulty_host_assembly_map_fails_the_cli_check(
        monkeypatch, tmp_path, capsys, view, line):
    # each command parses its own host, which builds the faulty map
    _, _, argv = _tor8(tmp_path)
    capsys.readouterr()
    monkeypatch.setitem(Complex._VIEWS, "assembly_map", view)
    for a in argv:
        assert cli.main(a) == 4
        assert capsys.readouterr().out.endswith(f"\n{line}\n")


def test_a_jump_one_round_short_fails_the_cli_checks_without_hanging(monkeypatch, tmp_path):
    # `_jump` returns while parent[parent] is a star; `components` raises
    # at its round bound, which the CLI reports as exit 4, and a call guard
    # turns a hang into a failure
    _, path, argv = _tor8(tmp_path)
    calls = []

    def short(parent):
        calls.append(1)
        if len(calls) > 10_000:
            raise RuntimeError("`_jump` called without end")
        for _ in range(parent.size.bit_length() + 1):
            jumped = parent[parent]
            if (jumped[jumped] == jumped).all():
                break
            parent = jumped
        return parent

    monkeypatch.setattr(_kernels, "_jump", short)
    with pytest.raises(_kernels.ConvergenceError):
        _kernels.components(np.array([1, 2, 3]), np.array([0, 1, 2]), 4)
    assert len(calls) <= 2 * (4).bit_length() + 1
    assert [cli.main(a) for a in argv + [["msf", str(path), "--verify"]]] == [4, 4, 4]


def test_a_failed_drop_of_water_check_exits_4(monkeypatch, tmp_path, capsys):
    # on a stack with ties that act, the collapse's cut is checked by the
    # flat-zone path; a drop-of-water check that rejects it, behind a cut
    # check that holds, ends the output with its line and exits 4
    from morseshed.watershed import _root_classes

    F = random_stack(generate_torus(6, 6), seed=1, high=3)
    path = tmp_path / "tied.stack"
    path.write_text(io.serialize_stack(F))
    argv = ["watershed", str(path), "--algo", "collapse"]
    assert cli.main(argv) == 0
    assert _root_classes(F, watershed_collapse(F)._label == WATERSHED_LABEL) is None
    monkeypatch.setattr(watershed, "_drop_holds", lambda F, in_w, rank: False)
    capsys.readouterr()
    assert cli.main(argv) == 4
    assert capsys.readouterr().out.endswith("\n# verify_drop_of_water=False\n")


def test_a_swapped_facet_graph_edge_fails_the_msf_certificate(monkeypatch, tmp_path, capsys):
    # the certificate reads the boundary rows of the host, not the edge
    # list it certifies; all five flags fail together
    _, path, _ = _tor8(tmp_path)
    real = _kernels.top_adjacency

    def swapped(pk):
        lo, hi = real(pk)
        lo[[0, 1]] = lo[[1, 0]]
        return lo, hi

    monkeypatch.setattr(_kernels, "top_adjacency", swapped)
    capsys.readouterr()
    assert cli.main(["msf", str(path), "--verify"]) == 4
    checks = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("check_")]
    assert len(checks) == 5 and all(ln.endswith("=False") for ln in checks)
