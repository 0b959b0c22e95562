"""Every Morse stack on the smallest hosts, up to its watershed.

The watershed of a Morse stack depends only on its gradient, and
`stack_from_gradient` realises any acyclic matching of the covering
pairs; enumerating those matchings therefore checks the paper's theorems
on every Morse stack of the host rather than on a random sample.
"""

import numpy as np
import pytest

from morseshed.complexes import closure
from morseshed.fixtures import cyc6_host, tetrahedron_boundary
from morseshed.morse import GradientField, flat_pairs, is_morse, stack_from_gradient
from morseshed.oracles import dmf_dual_check
from morseshed.stacks import _heap_collapse, _ultimate_d_collapse
from morseshed.watershed import (
    morse_watershed,
    morse_watershed_direct,
    verify_cut,
    verify_drop_of_water,
    verify_msf_theorem,
    watershed_collapse,
)
from test_morse import _ref_stack_from_gradient


def _acyclic_matchings(X):
    """Every acyclic matching of the covering pairs of X, once each, as a
    frozenset of (x, y) pairs with x a face of y."""
    pairs = [(x, y) for y in X.sorted_faces() for x in X.boundary[y]]
    partner = {}

    def closes_cycle(x, y):
        # a V-path from y back to x: from a matched face z step down to a
        # face w of z other than its partner, then up to the partner of w
        seen, todo = {y}, [y]
        while todo:
            z = todo.pop()
            for w in X.boundary[z]:
                if w == x and z != y:
                    return True
                u = partner.get(w)
                if u is not None and len(u) > len(w) and u not in seen:
                    seen.add(u)
                    todo.append(u)
        return False

    def extend(i):
        if i == len(pairs):
            yield frozenset((x, y) for x, y in partner.items() if len(x) < len(y))
            return
        yield from extend(i + 1)
        x, y = pairs[i]
        if x not in partner and y not in partner:
            partner[x], partner[y] = y, x
            if not closes_cycle(x, y):
                yield from extend(i + 1)
            del partner[x], partner[y]

    return list(extend(0))


@pytest.mark.parametrize("host, count", [(cyc6_host, 320), (tetrahedron_boundary, 4333)])
def test_every_morse_stack_of_a_small_host(host, count):
    X = host()
    gradients = _acyclic_matchings(X)
    assert len(gradients) == len(set(gradients)) == count
    n_tops = len(X.faces_of_dim(X.dim))
    identity = np.arange(X.packed().facet_graph[0].size)
    for V in gradients:
        F = stack_from_gradient(X, GradientField(V))
        assert np.array_equal(F.alt_array(), _ref_stack_from_gradient(X, GradientField(V)).alt_array())
        assert flat_pairs(F) == V
        assert is_morse(F)[0] and dmf_dual_check(F)
        H, collapses, pops = _ultimate_d_collapse(F, 0)  # the flat-link forest
        heap, heap_collapses, _ = _heap_collapse(F, identity)
        assert np.array_equal(H.alt_array(), heap.alt_array())
        assert (collapses, pops) == (heap_collapses, 0)
        r = morse_watershed(F)
        W = r.watershed
        for seed in (0, 1):
            assert watershed_collapse(F, seed=seed) == r  # the cut and the basin ids
        assert morse_watershed_direct(F) == W
        assert verify_cut(F, W) and verify_drop_of_water(F, W)
        assert all(verify_msf_theorem(F).values())
        critical_tops = n_tops - sum(len(y) == X.dim + 1 for _, y in V)
        assert len(r.basins) == critical_tops


def test_eight_cycle_gradient_count():
    X = closure((i, (i + 1) % 8) for i in range(8))
    assert len(set(_acyclic_matchings(X))) == 2205


def test_tetrahedron_watershed_depends_on_its_top_pairs_only():
    # the gradients of the boundary of the tetrahedron fall into classes by
    # their (1, 2) pairs, and every gradient of a class gives one watershed
    X = tetrahedron_boundary()
    labels = {}
    for V in _acyclic_matchings(X):
        label = morse_watershed(stack_from_gradient(X, GradientField(V)))._label
        top = frozenset((x, y) for x, y in V if len(y) == X.dim + 1)
        assert np.array_equal(labels.setdefault(top, label), label), sorted(top)
    assert len(labels) == 125
