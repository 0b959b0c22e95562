"""The single-pass watershed checks against the direct definitions.

`_ref_verify_cut` re-runs the whole extension-of-minima check for every
dropped facet and every facet subset, and `_ref_verify_drop_of_water`
relaxes descending reachability to a fixed point and scans every d-face
for the tops of each face of W.  They are kept here as references.
"""

import random
from itertools import combinations

import pytest

from morseshed import watershed
from morseshed.complexes import Complex, closure, connected_components, face_key
from morseshed.fixtures import cyc6_host, cyc6_stack, tetrahedron_boundary
from morseshed.manifolds import generate_torus
from morseshed.morse import random_morse_stack
from morseshed.stacks import Stack, minima, random_stack
from morseshed.watershed import (
    morse_watershed,
    verify_cut,
    verify_drop_of_water,
    watershed_collapse,
)


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


def _ref_verify_cut(F, W, exhaustive_limit=12):
    X = F.host
    if not W.faces <= X.faces:
        raise ValueError("W is not a subcomplex of the host")
    if not _ref_is_extension_of_minima(F, set(X.faces - W.faces)):
        return False
    facets = W.facets()
    for w in facets:
        smaller = closure(set(facets) - {w}) if len(facets) > 1 else Complex(())
        if _ref_is_extension_of_minima(F, set(X.faces - smaller.faces)):
            return False
    if len(facets) <= exhaustive_limit:
        for k in range(len(facets)):
            for sub in combinations(facets, k):
                Z = closure(sub) if sub else Complex(())
                if Z.faces != W.faces and _ref_is_extension_of_minima(
                    F, set(X.faces - Z.faces)
                ):
                    return False
    return True


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
    triangle, two random edge sets, a random vertex set and nothing."""
    X = F.host
    facets = cut.facets()
    edges = X.faces_of_dim(1)
    outside = [e for e in edges if e not in cut.faces]
    out = [cut, Complex(())]
    if facets:
        out.append(closure(f for f in facets if f != rng.choice(facets)))
    if outside:
        out.append(closure(facets + [rng.choice(outside)]))
    if X.dim == 2:
        out.append(closure(facets + [rng.choice(X.faces_of_dim(2))]))
    for k in (2, 5):
        out.append(closure(rng.sample(edges, min(k, len(edges)))))
    out.append(closure(rng.sample(X.faces_of_dim(0), 3)))
    return out


def _torus_corpus():
    """Morse stacks (flood cut) and non-Morse random stacks (collapse cut)
    on TOR(3..5), each with its candidate complexes."""
    rng = random.Random(7)
    out = []
    for n in (3, 4, 5):
        X = generate_torus(n, n)
        for seed in range(8):
            F = random_morse_stack(X, seed=seed, n_minima=1 + seed % 5)
            out.append((F, morse_watershed(F).watershed))
            G = random_stack(X, seed=seed, low=0, high=3)
            out.append((G, watershed_collapse(G, seed=seed).watershed))
    return [(F, W) for F, cut in out for W in _candidates(F, cut, rng)]


def _all_subcomplexes(X):
    """Every subcomplex of X, by adding faces in canonical order."""
    out = [frozenset()]
    for x in X.sorted_faces():
        below = [y for y in X.faces if len(y) == len(x) - 1 and set(y) <= set(x)]
        out += [S | {x} for S in out if all(y in S for y in below)]
    return [Complex(S, _trusted=True) for S in out]


def test_verdicts_match_references_on_tori():
    # the reference enumerates 2^k facet subsets for a true verdict, so
    # the limit stays below the default: 9 on TOR(3,3), 6 on larger tori
    verdicts = []
    for F, W in _torus_corpus():
        limit = 9 if len(F.host.faces) <= 54 else 6
        cut = verify_cut(F, W, exhaustive_limit=limit)
        assert cut == _ref_verify_cut(F, W, exhaustive_limit=limit), (F.altitude, W)
        drop = verify_drop_of_water(F, W)
        assert drop == _ref_verify_drop_of_water(F, W), (F.altitude, W)
        verdicts += [cut, drop]
    assert verdicts.count(True) > 50 and verdicts.count(False) > 200


def test_verdicts_match_references_on_every_subcomplex():
    # every subcomplex of small hosts, so facets of the host lie in W and
    # the subset enumeration runs
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
            assert cut == _ref_verify_cut(F, W), (F.altitude, W.faces)
            drop = verify_drop_of_water(F, W)
            assert drop == _ref_verify_drop_of_water(F, W), (F.altitude, W.faces)
            counts[cut] += 1
            counts[drop] += 1
    assert counts[True] > 20 and counts[False] > 1000


class _Counting:
    def __init__(self, fn):
        self.fn = fn
        self.calls = 0

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.fn(*args, **kwargs)


@pytest.fixture
def counted(monkeypatch):
    """Count the calls verify_cut makes to minima, connected_components
    and closure."""
    out = {}
    for name in ("minima", "connected_components", "closure"):
        out[name] = _Counting(getattr(watershed, name))
        monkeypatch.setattr(watershed, name, out[name])
    return out


def test_verify_cut_labels_the_complement_once(counted):
    F = random_morse_stack(generate_torus(8, 8), seed=0, n_minima=5)
    W = morse_watershed(F).watershed
    for c in counted.values():
        c.calls = 0
    assert verify_cut(F, W)
    assert counted["minima"].calls == 1
    assert counted["connected_components"].calls == 1


def test_verify_cut_skips_the_enumeration_without_host_facets(counted):
    # 2 minima on TOR(6,6), seed 1: a 12-facet cut, inside the
    # exhaustive limit, but none of its edges is a facet of the host
    F = random_morse_stack(generate_torus(6, 6), seed=1, n_minima=2)
    W = morse_watershed(F).watershed
    assert len(W.facets()) == 12
    counted["closure"].calls = 0
    assert verify_cut(F, W)
    assert counted["closure"].calls == 0
    # the edge (4, 5) of the 6-cycle is a facet of the host: the
    # enumeration runs, and labels the complement once per facet subset
    counted["connected_components"].calls = 0
    assert verify_cut(cyc6_stack(), closure([(3,), (4, 5)]))
    assert counted["connected_components"].calls == 4
