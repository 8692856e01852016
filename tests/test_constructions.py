import hashlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from itertools import combinations, permutations

import numpy as np
import pytest

from gridcross import constructions, enumeration
from gridcross.constructions import (
    analytic_skip_bound,
    augment_matching_to_spanning_tree,
    layer_grid_vertices,
    layered_complete_bipartite,
    random_proper_graph,
    stack_layer_graphs,
    tile_bipartite,
)
from gridcross.counting import count_crossings_naive, count_crossings_pruned
from gridcross.errors import ValidationError
from gridcross.graph import make_grid_graph, validate_proper


def test_layered_bipartite_counts():
    for k, d, nv, ne in [(2, 3, 8, 16), (3, 3, 18, 81), (2, 4, 16, 64)]:
        g = layered_complete_bipartite(k, d)
        assert (len(g.vertices), len(g.edges)) == (nv, ne)
        assert validate_proper(g) == []


def test_tile_bipartite_crossings_scale_with_block_count():
    t = tile_bipartite(2, 4, 3)
    assert (len(t.vertices), len(t.edges)) == (32, 64)
    assert count_crossings_pruned(t).total == 4 * 10
    # k == side degenerates to the plain bipartite drawing, every bottom
    # point joined to every top point
    for k, d in ((3, 3), (2, 4)):
        g = layered_complete_bipartite(k, d)
        assert tile_bipartite(k, k, d) == g
        half = k ** (d - 1)
        assert g.edges == tuple((i, half + j) for i in range(half) for j in range(half))
    # k == 1: vertical unit edges only, crossing-free
    ones = tile_bipartite(1, 3, 3)
    assert len(ones.edges) == 9
    assert count_crossings_naive(ones).total == 0


def test_tile_bipartite_block_scaling_k1_k2():
    for k, side in [(1, 2), (1, 4), (2, 2), (2, 4)]:
        t = tile_bipartite(k, side, 3)
        one = count_crossings_pruned(layered_complete_bipartite(k, 3)).total
        blocks = (side // k) ** 2
        assert count_crossings_pruned(t).total == blocks * one


def test_tile_bipartite_requires_divisibility():
    with pytest.raises(ValidationError):
        tile_bipartite(3, 4, 3)


@pytest.mark.parametrize("k,side", [(0, 4), (-2, 4), (2, 0), (1, -1)])
def test_tile_bipartite_rejects_non_positive_sizes(k, side):
    with pytest.raises(ValidationError, match="k >= 1 and side >= 1"):
        tile_bipartite(k, side, 3)


def test_analytic_skip_bound_examples():
    assert analytic_skip_bound(2, 3) == 24
    assert analytic_skip_bound(4, 3) == Fraction(400, 3)
    assert analytic_skip_bound(2, 4) == 183


def test_skip_bound_dominates_observed_per_edge_load():
    for k in range(1, 5):
        g = layered_complete_bipartite(k, 3)
        rep = count_crossings_pruned(g)
        assert rep.per_edge_max <= analytic_skip_bound(k, 3)
    for k in (2, 3, 4):
        g = layered_complete_bipartite(k, 4)
        rep = count_crossings_pruned(g, check_proper=False)
        assert rep.per_edge_max <= analytic_skip_bound(k, 4)


def test_random_proper_graph_deterministic_and_proper():
    g1 = random_proper_graph((4, 4), 12, seed=99)
    g2 = random_proper_graph((4, 4), 12, seed=99)
    assert g1 == g2
    assert validate_proper(g1) == []
    g3 = random_proper_graph((4, 4), 12, seed=100)
    assert g3 != g1


@pytest.mark.parametrize("sides, m, seed, digest", [
    ((3, 3, 4), 25, 3, "c01fb34a8cd71498e9866c69a6990095e8603c37365524613c7507d9296b5289"),
    ((2, 2, 2, 8), 60, 5, "c8a5ac387bea2521be82d38387a0d6944d2e9766168247d4636318127a5af0de"),
])
def test_random_proper_graph_edges_are_pinned(sides, m, seed, digest):
    """sha256 of repr(edges) for a 3-d and a 4-d grid of the random-certify
    benchmark, taken from the pair-by-pair gcd scan: the seed draws the same
    graph from the vectorised candidate table."""
    g = random_proper_graph(sides, m, seed)
    assert hashlib.sha256(repr(g.edges).encode()).hexdigest() == digest


def test_random_proper_graph_picks_across_blocks():
    """Split into blocks of a few rows, the candidates give the same graphs as
    one table of all of them, indexed by the same seeded sample; a grid of
    one block is generated once, a larger one twice (count, then look up)."""
    calls = []

    def counted(pts):
        calls.append(len(pts))
        return enumeration.candidate_blocks(pts)

    for sides, m, seed in [((4, 5), 30, 1), ((3, 3, 3), 50, 2), ((2, 2, 2, 3), 60, 3)]:
        I, J = (np.concatenate(ends) for ends in
                zip(*enumeration.candidate_blocks(enumeration.grid_points(sides))))
        picks = random.Random(seed).sample(range(len(I)), m)
        want = tuple(sorted((int(I[t]), int(J[t])) for t in picks))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(constructions, "candidate_blocks", counted)
            calls.clear()
            assert random_proper_graph(sides, m, seed).edges == want
            assert len(calls) == 1
            mp.setattr(enumeration, "_BLOCK_DIFFERENCES", 40)
            calls.clear()
            assert random_proper_graph(sides, m, seed).edges == want
            assert len(calls) == 2


def test_random_proper_graph_memory_does_not_grow_with_the_grid():
    """40x40 has 0.8 million candidates and 50x50 has 1.9 million; drawing 10
    edges from either holds one block of candidates, not all of them."""
    for sides in [(40, 40), (50, 50)]:
        tracemalloc.start()
        try:
            g = random_proper_graph(sides, 10, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g.edges) == 10 and validate_proper(g) == []
        assert peak < 16 * 2 ** 20, sides


def test_random_proper_graph_full_candidate_set_on_2x2():
    g = random_proper_graph((2, 2), 6, seed=0)
    assert len(g.edges) == 6  # all pairs of the 2x2 grid are primitive
    with pytest.raises(ValidationError, match="candidates"):
        random_proper_graph((2, 2), 7, seed=0)


def test_random_proper_graph_rejects_negative_edge_count():
    assert random_proper_graph((2, 2), 0, seed=0).edges == ()
    with pytest.raises(ValidationError, match="m >= 0"):
        random_proper_graph((2, 2), -1, seed=0)


EMPTY_2X2X2 = make_grid_graph(3, layer_grid_vertices(2, 3), [])


@pytest.mark.parametrize("build, args, message", [
    (layered_complete_bipartite, (True, 3), "k must be an integer, got True"),
    (layered_complete_bipartite, (2.5, 3), "k must be an integer, got 2.5"),
    (layered_complete_bipartite, (2, 3.0), "d must be an integer, got 3.0"),
    (tile_bipartite, (True, 2, 3), "k must be an integer"),
    (tile_bipartite, (2.0, 4.0, 3), "k must be an integer"),
    (tile_bipartite, (2, 4, 3.0), "d must be an integer"),
    (analytic_skip_bound, (2.5, 3), "k must be an integer"),
    (analytic_skip_bound, (2, True), "d must be an integer"),
    (random_proper_graph, ((3, 3), True, 1), "m must be an integer"),
    (random_proper_graph, ((3, 3), 2.5, 1), "m must be an integer"),
    (random_proper_graph, ((3, 3), 2, 1.5), "seed must be an integer"),
    (random_proper_graph, ((3, 3), 2, "1"), "seed must be an integer"),
    (augment_matching_to_spanning_tree, (EMPTY_2X2X2, 2.0, 3), "k must be an integer"),
    (stack_layer_graphs, ({}, 2, True), "d must be an integer"),
    (stack_layer_graphs, ({True: EMPTY_2X2X2}, 3, 3), "layer pair must be an integer, got True"),
    (stack_layer_graphs, ({1.0: EMPTY_2X2X2}, 3, 3), "layer pair must be an integer, got 1.0"),
    (stack_layer_graphs, ({"1": EMPTY_2X2X2}, 3, 3), "layer pair must be an integer, got '1'"),
])
def test_constructions_refuse_non_integer_arguments(build, args, message):
    """A bool, float or string size, count or seed is a ValidationError under
    errors.is_integer, where it was accepted or raised a raw TypeError."""
    with pytest.raises(ValidationError, match=message):
        build(*args)


def test_constructions_take_numpy_integers_as_ints():
    assert layered_complete_bipartite(np.int64(2), np.int8(3)) == layered_complete_bipartite(2, 3)
    assert tile_bipartite(np.int64(1), np.int64(2), 3) == tile_bipartite(1, 2, 3)
    assert analytic_skip_bound(np.int32(2), 3) == 24
    assert random_proper_graph((3, 3), np.int64(4), np.int64(7)) == random_proper_graph((3, 3), 4, 7)
    g = layered_complete_bipartite(2, 3)
    assert stack_layer_graphs({np.int64(1): g}, 3, 3) == stack_layer_graphs({1: g}, 3, 3)


def _matching_graph(k, d, pairs):
    verts = layer_grid_vertices(k, d)
    index = {v: i for i, v in enumerate(verts)}
    return make_grid_graph(d, verts, [(index[u], index[w]) for u, w in pairs])


def test_augment_empty_matching():
    tree = augment_matching_to_spanning_tree(_matching_graph(2, 3, []), 2, 3)
    assert len(tree.edges) == len(tree.vertices) - 1 == 7
    assert count_crossings_naive(tree).total == 0


def test_augment_keeps_perfect_vertical_matching():
    pairs = [((x, y, 1), (x, y, 2)) for x in (1, 2) for y in (1, 2)]
    m = _matching_graph(2, 3, pairs)
    tree = augment_matching_to_spanning_tree(m, 2, 3)
    assert set(m.edges) <= set(tree.edges)
    assert len(tree.edges) == 7
    assert count_crossings_naive(tree).total == 0


def _is_connected(n, edges):
    adj = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def test_augment_random_crossing_free_matchings():
    rng = random.Random(53)
    k, d = 2, 3
    bip = layered_complete_bipartite(k, d)
    segs = bip.segments()
    for _ in range(25):
        # grow a random crossing-free partial matching greedily
        picked = []
        used = set()
        for ei in rng.sample(range(len(segs)), len(segs)):
            a, b = segs[ei]
            if a in used or b in used:
                continue
            from gridcross.geom import segments_cross
            if any(segments_cross(segs[ei], segs[pj]).is_crossing for pj in picked):
                continue
            picked.append(ei)
            used.update((a, b))
            if len(picked) >= rng.randint(0, 4):
                break
        m = _matching_graph(k, d, [segs[e] for e in picked])
        tree = augment_matching_to_spanning_tree(m, k, d)
        assert len(tree.edges) == len(tree.vertices) - 1
        assert _is_connected(len(tree.vertices), tree.edges)
        assert set(m.edges) <= set(tree.edges)
        assert count_crossings_naive(tree).total == 0


def test_augment_pins_the_trees_of_every_2x2x2_matching():
    """The exact tree built from each of the 154 crossing-free inter-layer
    matchings of the 2x2x2 box (vertices 0-3 bottom, 4-7 top, lexicographic).
    The top layer always keeps (4,6), (5,7), (6,7), the bottom layer never
    keeps (0,1), and which of (0,2), (1,3), (2,3) stay depends on the
    matching. The digest covers every (matching, tree) pair."""
    k, d = 2, 3
    verts = layer_grid_vertices(k, d)
    trees = {}
    for r in range(5):
        for bottom in combinations(range(4), r):
            for top in permutations(range(4, 8), r):
                m = make_grid_graph(d, verts, list(zip(bottom, top)))
                if count_crossings_naive(m).total == 0:
                    trees[m.edges] = augment_matching_to_spanning_tree(m, k, d).edges
    assert len(trees) == 154
    top_units = ((4, 6), (5, 7), (6, 7))
    assert trees[()] == ((0, 2), (0, 4), (1, 3), (2, 3)) + top_units
    assert trees[((0, 4),)] == ((0, 2), (0, 4), (1, 3), (2, 3)) + top_units
    assert trees[((0, 4), (1, 5), (2, 6), (3, 7))] == (
        (0, 4), (1, 5), (2, 6), (3, 7)) + top_units
    assert trees[((0, 7), (1, 4))] == ((0, 7), (1, 3), (1, 4), (2, 3)) + top_units
    kept = Counter(tuple(e for e in ((0, 2), (1, 3), (2, 3)) if e in tree)
                   for tree in trees.values())
    assert kept == {((0, 2), (1, 3), (2, 3)): 17, ((1, 3), (2, 3)): 31, ((0, 2), (2, 3)): 21,
                    ((0, 2), (1, 3)): 10, ((2, 3),): 32, ((1, 3),): 16, ((0, 2),): 16, (): 11}
    digest = hashlib.sha256(repr(sorted(trees.items())).encode()).hexdigest()
    assert digest == "b6298794e1c071ec45d052431854807fc957d73693a666e87a60ab5ed4e7f6b2"


def test_augment_rejects_bad_inputs():
    k, d = 2, 3
    # not a matching: two edges share a vertex
    bad = _matching_graph(k, d, [((1, 1, 1), (1, 1, 2)), ((1, 1, 1), (2, 2, 2))])
    with pytest.raises(ValidationError, match="matching"):
        augment_matching_to_spanning_tree(bad, k, d)
    # crossing matching
    crossing = _matching_graph(k, d, [((1, 1, 1), (2, 2, 2)), ((2, 2, 1), (1, 1, 2))])
    with pytest.raises(ValidationError, match="crossings"):
        augment_matching_to_spanning_tree(crossing, k, d)
    # intra-layer edge
    intra = _matching_graph(k, d, [((1, 1, 1), (2, 1, 1))])
    with pytest.raises(ValidationError, match="layers"):
        augment_matching_to_spanning_tree(intra, k, d)
    # wrong vertex set
    with pytest.raises(ValidationError, match="two-layer"):
        augment_matching_to_spanning_tree(make_grid_graph(3, [(1, 1, 1)], []), k, d)


def test_stack_single_pair_is_identity_embedding():
    k, d = 3, 3
    g = layered_complete_bipartite(2, d)  # 2x2 block inside the 3-cube layers
    stacked = stack_layer_graphs({1: g}, k, d)
    assert len(stacked.vertices) == k ** d
    assert len(stacked.edges) == len(g.edges)
    segs = {frozenset(s) for s in g.segments()}
    assert {frozenset(s) for s in stacked.segments()} == segs


def test_stack_empty_inputs():
    s = stack_layer_graphs({}, 3, 3)
    assert len(s.edges) == 0
    assert len(s.vertices) == 27


def test_stack_two_disjoint_pair_matchings_forms_matching():
    k, d = 4, 4
    verts = layer_grid_vertices(k, d)
    rng = random.Random(59)
    for _ in range(10):
        per_pair = {}
        for layer in (1, 3):
            pairs = []
            used = set()
            bottoms = [v for v in verts if v[-1] == 1]
            rng.shuffle(bottoms)
            for u in bottoms[:6]:
                tops = [v for v in verts if v[-1] == 2 and v not in used]
                w = rng.choice(tops)
                from gridcross.geom import segments_cross
                if any(segments_cross((u, w), s).is_crossing for s in pairs):
                    continue
                pairs.append((u, w))
                used.add(w)
            per_pair[layer] = _matching_graph(k, d, pairs)
        union = stack_layer_graphs(per_pair, k, d)
        assert count_crossings_naive(union).total == 0
        degree = {}
        for i, j in union.edges:
            for v in (i, j):
                degree[v] = degree.get(v, 0) + 1
                assert degree[v] == 1  # vertex-disjoint across non-adjacent pairs


def test_stack_rejects_vertex_outside_pair():
    k, d = 3, 3
    g = layered_complete_bipartite(3, d)
    bad = make_grid_graph(d, [(1, 1, 1), (1, 1, 3)], [(0, 1)])
    with pytest.raises(ValidationError, match="inter-layer"):
        stack_layer_graphs({1: bad}, k, d)
    with pytest.raises(ValidationError, match="outside"):
        stack_layer_graphs({5: g}, k, d)
