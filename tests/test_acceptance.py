"""End-to-end acceptance checks.

Each test prints a single PASS line naming the criterion; runtime budgets
are asserted with time.perf_counter.  Random instances are generated from
fixed seed ranges so reruns are reproducible.
"""

import time

import pytest

from morseshed.complexes import closure
from morseshed.fixtures import (
    branching_collapse_counterexample,
    branching_triangles,
    cyc6_host,
    cyc6_stack,
    tetrahedron_boundary,
    wedge,
)
from morseshed.manifolds import generate_torus, validate
from morseshed.morse import (
    flat_pairs,
    gradient,
    is_morse,
    random_morse_stack,
    stack_from_gradient,
)
from morseshed.oracles import (
    build_facet_graph,
    dmf_dual_check,
    enumerate_msfs,
    msf_weight,
    separating_faces,
    stack_collapse,
    stack_free_pairs,
    strictly_connected_oracle,
    watershed_forest,
)
from morseshed.stacks import (
    minima,
    random_stack,
)
from morseshed.watershed import (
    morse_watershed,
    morse_watershed_direct,
    verify_cut,
    verify_drop_of_water,
    watershed_collapse,
)

FIX_CUT = {(3,), (5,)}


@pytest.fixture(scope="module")
def fuzz_corpus():
    """Shared instances for criteria 2, 3, 4 and 5: 100 random Morse
    stacks on TOR(3,3) and 25 on TOR(5,5), with the outputs of all three
    watershed algorithms.  Minima counts cycle through 1..5 so both the
    empty and the nontrivial cut cases are exercised."""
    out = []
    elapsed = 0.0
    for host, n_seeds in ((generate_torus(3, 3), 100), (generate_torus(5, 5), 25)):
        for seed in range(n_seeds):
            F = random_morse_stack(host, seed=seed, n_minima=1 + seed % 5)
            t0 = time.perf_counter()
            direct = morse_watershed_direct(F)
            flood = morse_watershed(F)
            collapses = [watershed_collapse(F, seed=s) for s in range(5)]
            elapsed += time.perf_counter() - t0
            out.append((F, direct, flood, collapses))
    return out, elapsed


def test_criterion_1_fixture_end_to_end():
    t0 = time.perf_counter()
    F = cyc6_stack()
    r = morse_watershed(F)
    assert r.watershed.faces == FIX_CUT
    assert sorted(r.basin_sizes().values()) == [3, 7]
    for seed in range(20):
        assert watershed_collapse(F, seed=seed).watershed.faces == FIX_CUT
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"budget exceeded: {elapsed:.2f}s"
    print(f"\nPASS criterion 1: FIX-CYC6 cut {{v3,v5}}, basins 7/3, "
          f"20 collapse seeds agree ({elapsed:.3f}s < 1s)")


def test_criterion_2_three_algorithms_identical(fuzz_corpus):
    corpus, elapsed = fuzz_corpus
    for F, direct, flood, collapses in corpus:
        assert flood.watershed.faces == direct.faces
        for r in collapses:
            assert r.watershed.faces == direct.faces
    assert elapsed < 60.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\nPASS criterion 2: {len(corpus)} Morse stacks, collapse x5 seeds = "
          f"flood = direct cut ({elapsed:.1f}s < 60s)")


def test_criterion_3_cuts_satisfy_watershed_axioms(fuzz_corpus):
    corpus, gen_elapsed = fuzz_corpus
    t0 = time.perf_counter()
    for F, direct, flood, _ in corpus:
        assert verify_cut(F, flood.watershed)
        assert verify_drop_of_water(F, flood.watershed)
    elapsed = time.perf_counter() - t0
    assert gen_elapsed + elapsed < 60.0
    print(f"\nPASS criterion 3: verify_cut + verify_drop_of_water on all "
          f"{len(corpus)} cuts ({gen_elapsed + elapsed:.1f}s total < 60s)")


def test_criterion_4_cuts_are_pure_codim_1(fuzz_corpus):
    corpus, _ = fuzz_corpus
    checked = 0
    for F, _, flood, _ in corpus:
        W = flood.watershed
        if W.faces:
            assert W.is_pure() and W.dim == F.host.dim - 1
            checked += 1
    W = morse_watershed(cyc6_stack()).watershed
    assert W.is_pure() and W.dim == 0
    print(f"\nPASS criterion 4: every nonempty cut ({checked} + fixture) is a "
          f"pure (d-1)-complex")


def test_criterion_5_watershed_forest_is_the_unique_msf(fuzz_corpus):
    corpus, _ = fuzz_corpus
    t0 = time.perf_counter()
    F = cyc6_stack()
    G = build_facet_graph(F)
    Y = watershed_forest(F)
    assert Y.weight(G) == 6
    _, forests = enumerate_msfs(G, Y.roots)
    assert forests == [Y.edges]
    enumerated = 1
    for F, _, flood, _ in corpus:
        G = build_facet_graph(F)
        Y = watershed_forest(F)
        assert Y.weight(G) == msf_weight(G, Y.roots)
        d = F.host.dim
        basins = {
            frozenset(f for f in fs if len(f) - 1 == d) for _, fs in flood.basins
        }
        assert {frozenset(t) for t in Y.trees()} == basins
        if len(G.vertices) <= 12:
            _, forests = enumerate_msfs(G, Y.roots)
            assert forests == [Y.edges]
            enumerated += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"
    print(f"\nPASS criterion 5: forest weight = MSF weight and trees = basins on "
          f"{len(corpus)} instances; exhaustive uniqueness on {enumerated} small "
          f"instances; fixture weight 6 ({elapsed:.1f}s < 120s)")


def test_criterion_6_normality_routes_agree():
    import random

    fixtures = [
        cyc6_host(),
        tetrahedron_boundary(),
        generate_torus(3, 3),
        generate_torus(4, 4),
        wedge(),
        branching_triangles(),
    ]
    rng = random.Random(2024)
    for _ in range(50):
        k = rng.randint(1, 8)
        tris = [tuple(sorted(rng.sample(range(8), 3))) for _ in range(k)]
        fixtures.append(closure(tris))
    oracle_checked = 0
    for X in fixtures:
        rep = validate(X)
        via_link = (
            rep.is_pseudomanifold and rep.connected and rep.link_condition
        )
        assert rep.is_normal == via_link
        if len(X.faces) <= 25:
            via_def = (
                rep.is_pseudomanifold
                and rep.connected
                and strictly_connected_oracle(X)
            )
            assert via_def == rep.is_normal
            oracle_checked += 1
    print(f"\nPASS criterion 6: both normality routes agree on {len(fixtures)} "
          f"complexes ({oracle_checked} cross-checked by subset enumeration)")


def test_criterion_7_dual_check_and_gradient_round_trip():
    hosts = [generate_torus(3, 3), cyc6_host(), tetrahedron_boundary()]
    count = 0
    for seed in range(100):
        F = random_morse_stack(hosts[seed % len(hosts)], seed=seed)
        assert dmf_dual_check(F)
        V = gradient(F)
        G = stack_from_gradient(F.host, V)
        assert is_morse(G) == (True, None)
        assert gradient(G).pairs == V.pairs
        count += 1
    print(f"\nPASS criterion 7: negated-map duality and gradient round-trip on "
          f"{count} random Morse stacks")


def _minima_extend(before, after):
    """Each minimum of the original is inside exactly one minimum of the
    collapsed stack, and the counts agree."""
    if len(before.minima) != len(after.minima):
        return False
    zones_after = [set(z) for z, _ in after.minima]
    for zone, _ in before.minima:
        holders = [i for i, za in enumerate(zones_after) if set(zone) <= za]
        if len(holders) != 1:
            return False
    return True


def test_criterion_8_collapse_preserves_minima_except_on_branching_host():
    X = generate_torus(3, 3)
    steps = 0
    seed = 0
    while steps < 200:
        F = random_stack(X, seed=seed, low=0, high=4)
        seed += 1
        before = minima(F)
        for pair in sorted(stack_free_pairs(F)):
            G = stack_collapse(F, pair, mode="unit")
            assert _minima_extend(before, minima(G)), (seed, pair)
            steps += 1
            if steps >= 200:
                break
    F, pair = branching_collapse_counterexample()
    before = minima(F)
    assert len(before.minima) == 3
    after = minima(stack_collapse(F, pair, mode="unit"))
    assert len(after.minima) == 2
    assert not _minima_extend(before, after)
    print(f"\nPASS criterion 8: minima extension holds on {steps} sampled "
          f"collapses (pseudomanifold host) and fails on the branching "
          f"counterexample (3 minima -> 2)")


def test_criterion_9_linear_time_scaling():
    t_total = time.perf_counter()
    # warm up imports and first-call costs so they are not measured
    warm = random_morse_stack(generate_torus(5, 5), seed=0)
    morse_watershed(warm)
    stacks = {n: random_morse_stack(generate_torus(n, n), seed=0) for n in (50, 100, 200)}
    for F in stacks.values():
        morse_watershed(F)  # warm the packed-index caches
    # interleaved rounds, so a slow spell of the machine spreads over every
    # size instead of landing on one; each size keeps its best time
    times = dict.fromkeys(stacks, float("inf"))
    for _ in range(7):
        for n, F in stacks.items():
            times[n] = min(times[n], _timed(morse_watershed, F))
    r1 = times[100] / times[50]
    r2 = times[200] / times[100]
    elapsed = time.perf_counter() - t_total
    assert r1 <= 6.0, f"50->100 grew {r1:.1f}x"
    assert r2 <= 6.0, f"100->200 grew {r2:.1f}x"
    assert elapsed < 300.0
    print(f"\nPASS criterion 9: flood time {times[50]*1e3:.0f}ms -> "
          f"{times[100]*1e3:.0f}ms -> {times[200]*1e3:.0f}ms; growth "
          f"{r1:.1f}x, {r2:.1f}x per 4x faces (<= 6x; total {elapsed:.0f}s < 300s)")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_10_critical_separating_face_outside_the_cut():
    # frozen instance: TOR(3,3), seed 2, three minima -- edge (5, 7) is
    # critical and separating yet outside the (nonempty) watershed cut
    F = random_morse_stack(generate_torus(3, 3), seed=2, n_minima=3)
    regular = {f for pair in flat_pairs(F) for f in pair}
    cut = morse_watershed(F).watershed.faces
    witness = (5, 7)
    assert cut  # the phenomenon is witnessed on a nontrivial watershed
    assert witness in separating_faces(F)
    assert witness not in regular  # critical
    assert witness not in cut
    print(f"\nPASS criterion 10: TOR(3,3) seed 2 (3 minima) has critical "
          f"separating edge {witness} outside the nonempty watershed cut")
