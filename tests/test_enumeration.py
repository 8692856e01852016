import random
from fractions import Fraction
from itertools import combinations, product
from math import prod

import numpy as np
import pytest

from gridcross.enumeration import (
    ConflictGraph,
    bose_formula,
    build_conflict_graph,
    conflict_graph_from_segments,
    count_crossing_free_matchings,
    count_crossing_free_spanning_trees,
    count_crossing_free_subgraphs,
    count_independent_sets,
    max_crossing_free_edges,
    ncs_lower_formula,
    ncs_upper_formula,
)
from gridcross.errors import CapExceeded, ValidationError


def brute_force_independent_sets(adjacency):
    """Subset DP over bitmasks; independent of the branching counter."""
    t = len(adjacency)
    nbr = [sum(1 << j for j in a) for a in adjacency]
    valid = np.zeros(1 << t, dtype=bool)
    valid[0] = True
    for v in range(t):
        rs = np.arange(1 << v)
        valid[(1 << v) + rs] = valid[rs] & ((rs & nbr[v]) == 0)
    return int(valid.sum())


def test_build_conflict_graph_examples():
    cg = build_conflict_graph((2, 2))
    assert cg.size == 6
    assert cg.conflict_count == 1
    cg = build_conflict_graph((1, 3))
    assert cg.size == 2
    assert cg.conflict_count == 0


def test_build_conflict_graph_cap():
    with pytest.raises(CapExceeded):
        build_conflict_graph((4, 4))


def test_conflict_graph_from_layered_bipartite_edges():
    from gridcross.constructions import layered_complete_bipartite

    g = layered_complete_bipartite(2, 3)
    cg = conflict_graph_from_segments(g.segments())
    assert cg.size == 16
    assert cg.conflict_count == 10


def test_count_subgraphs_2x2():
    cg = build_conflict_graph((2, 2))
    assert count_crossing_free_subgraphs(cg) == 48  # 2^6 - 2^4


def test_count_subgraphs_trivial_cases():
    empty = ConflictGraph((), ())
    assert count_crossing_free_subgraphs(empty) == 1
    five = ConflictGraph(tuple(((i, 0), (i, 1)) for i in range(5)),
                         tuple(frozenset() for _ in range(5)))
    assert count_crossing_free_subgraphs(five) == 32


def test_count_matchings_examples():
    assert count_crossing_free_matchings(build_conflict_graph((2, 2))) == 9
    assert count_crossing_free_matchings(build_conflict_graph((1, 2))) == 2
    assert count_crossing_free_matchings(build_conflict_graph((1, 3))) == 3


def test_spanning_trees_examples():
    assert count_crossing_free_spanning_trees((2, 2)) == 12
    assert count_crossing_free_spanning_trees((1, 3)) == 1
    assert count_crossing_free_spanning_trees((1, 2)) == 1
    assert count_crossing_free_spanning_trees((3, 3)) == 24965
    assert count_crossing_free_spanning_trees((2, 2, 2)) == 120000


SUBSET_FILTER_GRIDS = {
    (1,): 1, (1, 1): 1, (1, 1, 1): 1, (1, 4): 1, (1, 6): 1, (2, 2): 12,
    (2, 3): 169, (3, 2): 169, (1, 2, 3): 169, (2, 1, 3): 169, (1, 2, 2): 12,
}


@pytest.mark.parametrize("sides, expected", SUBSET_FILTER_GRIDS.items(),
                         ids=["x".join(map(str, s)) for s in SUBSET_FILTER_GRIDS])
def test_spanning_trees_against_subset_filter(sides, expected):
    """Brute force: every (volume - 1)-subset of candidates that has no
    conflicting pair and no cycle (union-find) is a tree."""
    from gridcross.counting import count_crossings_naive
    from gridcross.enumeration import grid_points
    from gridcross.graph import make_grid_graph

    cg = build_conflict_graph(sides)
    pts = grid_points(sides)
    index = {p: i for i, p in enumerate(pts)}
    trees = []
    for subset in combinations(range(cg.size), len(pts) - 1):
        if any(j in cg.adjacency[i] for i, j in combinations(subset, 2)):
            continue
        parent = list(range(len(pts)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in subset:
            a, b = (index[p] for p in cg.candidates[e])
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            trees.append(subset)
    assert len(trees) == expected == count_crossing_free_spanning_trees(sides)
    # each enumerated tree really is a crossing-free drawing
    for subset in trees:
        edges = [(index[a], index[b]) for a, b in (cg.candidates[e] for e in subset)]
        g = make_grid_graph(len(sides), pts, edges)
        assert count_crossings_naive(g).total == 0


def test_spanning_trees_invariant_under_axis_permutation_and_unit_axes():
    """Every grid of volume <= 9 in up to 4 dimensions has the count of its
    sorted non-unit sides: permuting the axes or inserting length-1 axes is
    an isometry of the point set, so the tree count cannot change."""
    counts = {}
    for dim in range(1, 5):
        for sides in product(range(1, 10), repeat=dim):
            if prod(sides) <= 9:
                core = tuple(sorted(s for s in sides if s > 1)) or (1,)
                if core not in counts:
                    counts[core] = count_crossing_free_spanning_trees(core)
                assert count_crossing_free_spanning_trees(sides) == counts[core], sides


def test_spanning_trees_cap(monkeypatch):
    import gridcross.enumeration as enumeration

    with pytest.raises(CapExceeded, match="candidate edges"):
        count_crossing_free_spanning_trees((3, 3), cap=10)

    def no_conflict_graph(*args, **kwargs):
        raise AssertionError("conflict graph built past the volume cap")

    monkeypatch.setattr(enumeration, "build_conflict_graph", no_conflict_graph)
    for sides in [(2, 5), (10,), (1, 10, 1)]:
        with pytest.raises(CapExceeded, match="spanning-tree cap"):
            count_crossing_free_spanning_trees(sides)


def test_memoized_counter_equals_subset_dp():
    rng = random.Random(61)
    for trial in range(30):
        t = rng.randint(0, 16)
        adjacency = [set() for _ in range(t)]
        for i in range(t):
            for j in range(i + 1, t):
                if rng.random() < rng.choice([0.1, 0.3, 0.6]):
                    adjacency[i].add(j)
                    adjacency[j].add(i)
        adjacency = [frozenset(a) for a in adjacency]
        assert count_independent_sets(adjacency) == brute_force_independent_sets(adjacency)


def test_mis_equals_bose_formula():
    for sides in [(2, 2), (3, 2), (3, 3), (2, 2, 2)]:
        assert max_crossing_free_edges(sides) == bose_formula(sides)


def test_bose_formula_examples():
    assert bose_formula((2, 2)) == 5
    assert bose_formula((2, 2, 2)) == 19
    for x in range(1, 8):
        assert bose_formula((x,)) == x - 1


def test_ncs_upper_examples():
    assert ncs_upper_formula(4, 2) == 64
    assert ncs_upper_formula(2, 3) == 2
    assert ncs_upper_formula(2, 7) == 2


def test_ncs_upper_monotone_in_n():
    for d in (2, 3, 4):
        values = [ncs_upper_formula(n, d) for n in range(2, 21)]
        assert all(a < b for a, b in zip(values, values[1:]))


def test_ncs_upper_dominates_exact_counts():
    for sides in [(2, 2), (3, 2), (1, 3), (2, 2, 2)]:
        cg = build_conflict_graph(sides)
        volume = 1
        for s in sides:
            volume *= s
        sub = count_crossing_free_subgraphs(cg)
        mat = count_crossing_free_matchings(cg)
        assert mat <= sub <= ncs_upper_formula(volume, len(sides))


def test_ncs_lower_examples():
    assert ncs_lower_formula(4, 1) == 16
    assert ncs_lower_formula(2, 1) == 2
    assert ncs_lower_formula(2, Fraction(3, 2)) == 1  # exponent floor(2/3) = 0
    with pytest.raises(ValidationError):
        ncs_lower_formula(3, Fraction(1, 100))
