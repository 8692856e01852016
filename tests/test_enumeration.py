import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from math import gcd, prod

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcross import enumeration
from gridcross.constructions import analytic_skip_bound, layered_complete_bipartite, random_proper_graph
from gridcross.enumeration import (
    CANDIDATE_CAP,
    ConflictGraph,
    bose_formula,
    build_conflict_graph,
    candidate_blocks,
    count_crossing_free_matchings,
    count_crossing_free_spanning_trees,
    count_crossing_free_subgraphs,
    count_independent_sets,
    crossing_graph,
    enumeration_record,
    grid_points,
    max_crossing_free_edges,
    ncs_lower_formula,
    ncs_upper_formula,
)
from gridcross.enumeration import _independent, _matchings
from gridcross.errors import CapExceeded, ValidationError
from gridcross.geom import CrossKind, gcd_reduce, segments_cross
from gridcross.graph import make_grid_graph


def brute_force_independent_sets(adjacency):
    """Number of independent sets and the size of the largest, by a subset DP
    over bitmasks; independent of the branching search."""
    t = len(adjacency)
    nbr = [sum(1 << j for j in a) for a in adjacency]
    valid = np.zeros(1 << t, dtype=bool)
    size = np.zeros(1 << t, dtype=np.int64)
    valid[0] = True
    for v in range(t):
        rs = np.arange(1 << v)
        valid[(1 << v) + rs] = valid[rs] & ((rs & nbr[v]) == 0)
        size[(1 << v) + rs] = size[rs] + 1
    return int(valid.sum()), int(size[valid].max())


def random_adjacency(rng, t):
    adjacency = [set() for _ in range(t)]
    for i in range(t):
        for j in range(i + 1, t):
            if rng.random() < rng.choice([0.1, 0.3, 0.6]):
                adjacency[i].add(j)
                adjacency[j].add(i)
    return [frozenset(a) for a in adjacency]


def side_tuples(length, volume):
    """Every tuple of `length` positive sides whose product is <= volume."""
    if length == 0:
        yield ()
        return
    for s in range(1, volume + 1):
        for rest in side_tuples(length - 1, volume // s):
            yield (s,) + rest


def core(sides):
    """The sorted non-unit sides: the same point set up to an isometry."""
    return tuple(sorted(s for s in sides if s > 1)) or (1,)


def candidate_count(sides):
    return sum(len(I) for I, _ in candidate_blocks(grid_points(sides)))


def drawing(segs):
    """The GridGraph whose edges are the segments `segs`, each taken once,
    on their endpoints in lexicographic order."""
    pts = sorted({p for seg in segs for p in seg})
    index = {p: i for i, p in enumerate(pts)}
    edges = {tuple(sorted((index[a], index[b]))) for a, b in segs}
    return make_grid_graph(len(pts[0]) if pts else 1, pts, edges)


def candidate_list(pts):
    return [(int(i), int(j)) for I, J in candidate_blocks(pts) for i, j in zip(I, J)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(sides=st.integers(1, 4).flatmap(
    lambda d: st.lists(st.integers(1, {1: 80, 2: 20, 3: 8, 4: 5}[d]), min_size=d, max_size=d)
).filter(lambda sides: prod(sides) <= 80))
def test_candidate_blocks_match_the_gcd_scan(sides):
    """The blocks are exactly the pairs i < j with coprime differences, in
    lexicographic order, on random grids of dimension 1..4 and up to 80
    points (1-point grids included), also when blocks hold a few rows."""
    pts = grid_points(sides)
    expected = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))
                if gcd_reduce((pts[i], pts[j]))[1] == 1]
    assert candidate_list(pts) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(enumeration, "_BLOCK_DIFFERENCES", 150)
        assert candidate_list(pts) == expected


def test_candidate_blocks_split_large_grids_in_order():
    """A grid whose pairs need several blocks yields each pair once, in
    order: 40x40 has 1600 points and about 2.6 million differences."""
    pts = grid_points((40, 40))
    blocks = list(candidate_blocks(pts))
    assert len(blocks) > 1
    I, J = (np.concatenate(ends) for ends in zip(*blocks))
    key = I * len(pts) + J
    assert np.all(np.diff(key) > 0) and np.all(I < J)
    P = np.array(pts)
    assert np.all(np.gcd.reduce(np.abs(P[J] - P[I]), axis=1) == 1)
    # each coprime step (a, b) joins (40 - |a|)(40 - |b|) ordered point pairs
    assert 2 * len(I) == sum((40 - abs(a)) * (40 - abs(b)) for a in range(-39, 40)
                             for b in range(-39, 40) if gcd(a, b) == 1)


def test_build_conflict_graph_examples():
    cg = build_conflict_graph((2, 2))
    assert cg.size == 6
    assert cg.conflict_count == 1
    cg = build_conflict_graph((1, 3))
    assert cg.size == 2
    assert cg.conflict_count == 0


def test_build_conflict_graph_cap():
    """The cap counts candidates exactly and never truncates: a grid passes at
    cap = its size and raises one below, the default cap admits 2x11 (141
    candidates), and the next grids, 2x12 and 2x2x5 (166), raise."""
    for sides, size in {(4, 4): 86, (2, 11): 141, (2, 3, 3): 137}.items():
        assert build_conflict_graph(sides, cap=size).size == size
        with pytest.raises(CapExceeded, match="candidate edges"):
            build_conflict_graph(sides, cap=size - 1)
    assert build_conflict_graph((2, 11)).size == CANDIDATE_CAP
    for sides in [(2, 12), (2, 2, 5), (5, 5)]:
        with pytest.raises(CapExceeded):
            build_conflict_graph(sides)
    assert build_conflict_graph((1,), cap=0).size == 0
    for sides in [(1,), (2, 2)]:
        with pytest.raises(ValidationError, match="cap must be >= 0"):
            build_conflict_graph(sides, cap=-1)


def test_build_conflict_graph_refuses_a_non_integer_cap():
    """A bool is not a cap of 1 (or 0), and a float or string is not read;
    a numpy integer is an integer."""
    for cap in (True, False, 1.0, 141.5, "141", None):
        with pytest.raises(ValidationError, match="cap must be an integer"):
            build_conflict_graph((2, 2), cap=cap)
    assert build_conflict_graph((2, 2), cap=np.int64(6)).size == 6


def test_cap_refusal_stops_after_the_first_block():
    """60x60 has 6.5 million point pairs and 3.9 million candidates; one
    table of all their differences would take over 100 MB. The refusal comes
    after the first block and stays below 16 MB."""
    tracemalloc.start()
    try:
        with pytest.raises(CapExceeded, match="candidate edges"):
            build_conflict_graph((60, 60))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2 ** 20


GRID_COUNTS = (count_crossing_free_subgraphs, count_crossing_free_matchings,
               max_crossing_free_edges, count_crossing_free_spanning_trees)


@pytest.mark.parametrize("sides", [(2.7, 2), (True, 2), ("3", 2), (2, None), (2, 2.0),
                                   "2x2", 2, None])
def test_non_integer_sides_are_refused(sides):
    """A side is never rounded or converted: floats, bools and strings raise,
    and so do sides that are a string or not a sequence."""
    for build in (build_conflict_graph, lambda s: random_proper_graph(s, 1, seed=0),
                  bose_formula, *GRID_COUNTS):
        with pytest.raises(ValidationError, match="must be integers"):
            build(sides)
    assert grid_points((np.int64(2), 1)) == [(1, 1), (2, 1)]


def test_empty_grid_is_refused():
    """A grid needs a side: the point set and the Bose formula refuse () alike."""
    for build in (grid_points, bose_formula, build_conflict_graph, *GRID_COUNTS,
                  lambda s: random_proper_graph(s, 0, seed=0)):
        with pytest.raises(ValidationError, match="at least one side"):
            build(())


def test_conflict_graph_from_layered_bipartite_edges():
    """The k = 2, d = 3 layered drawing: its 7-edge crossing-free subsets
    that join its 8 vertices are listed by brute force."""
    g = layered_complete_bipartite(2, 3)
    cg = crossing_graph(g)
    assert cg.graph is g
    assert cg.size == 16
    assert cg.conflict_count == 10
    assert count_crossing_free_subgraphs(cg) == 6480
    assert count_crossing_free_matchings(cg) == 154
    assert len(subset_filter_trees(cg)) == count_crossing_free_spanning_trees(cg) == 424


def test_crossing_graph_cap():
    """A drawing's edges count against CANDIDATE_CAP: the 256 edges of the
    k = 4 layered drawing are refused, and the 141 of the 2x11 grid pass,
    with the grid's own conflicts."""
    with pytest.raises(CapExceeded, match="256 edges exceed the cap 141"):
        crossing_graph(layered_complete_bipartite(4, 3))
    grid = build_conflict_graph((2, 11))
    cg = crossing_graph(grid.graph)
    assert cg.size == CANDIDATE_CAP
    assert cg.conflicts == grid.conflicts


def conflict_sets(cg):
    """The conflict graph's masks as index sets: conflict_sets(cg)[i] holds
    the candidates that conflict with candidate i."""
    return tuple(frozenset(j for j in range(cg.size) if mask >> j & 1)
                 for mask in cg.conflicts)


def segments_cross_adjacency(cands):
    """Conflict adjacency by segments_cross on every candidate pair."""
    adjacency = [set() for _ in cands]
    for i, j in combinations(range(len(cands)), 2):
        if segments_cross(cands[i], cands[j]).is_crossing:
            adjacency[i].add(j)
            adjacency[j].add(i)
    return tuple(frozenset(a) for a in adjacency)


CONFLICT_ORACLE_GRIDS = [(1, 5), (3, 3), (2, 2, 2), (2, 2, 3), (2, 3, 3), (2, 11)]


@pytest.mark.parametrize("sides", CONFLICT_ORACLE_GRIDS,
                         ids=["x".join(map(str, s)) for s in CONFLICT_ORACLE_GRIDS])
def test_conflict_graph_matches_segments_cross(sides):
    cg = build_conflict_graph(sides)
    assert conflict_sets(cg) == segments_cross_adjacency(cg.graph.segments())


def test_conflict_graph_from_segments_matches_segments_cross():
    """The crossing graph of a drawing of random segments of a small box plus
    runs of non-primitive, overlapping and nested segments on shared lines,
    in 1 to 4 dimensions, in place and scaled far past int64."""
    rng = random.Random(83)
    lists = [[((0,), (3,)), ((1,), (2,)), ((3,), (5,)), ((4,), (9,)), ((2,), (7,))]]
    for dim in (2, 3, 4):
        pts = list(product(range(3), repeat=dim))
        segs = [tuple(rng.sample(pts, 2)) for _ in range(30)]
        while len(segs) < 50:
            a = rng.choice(pts)
            step = tuple(rng.randrange(-1, 2) for _ in range(dim))
            for t0, t1 in ((0, 2), (1, 3), (0, 1)) if any(step) else ():
                segs.append(tuple(tuple(x + t * y for x, y in zip(a, step)) for t in (t0, t1)))
        lists.append(segs)
    for segs in lists:
        kinds = {segments_cross(s, t).kind for s, t in combinations(segs, 2)}
        assert CrossKind.COLLINEAR_OVERLAP in kinds
        assert CrossKind.POINT_CROSS in kinds or len(segs[0][0]) == 1
        for scale in (1, 10 ** 20):
            cg = crossing_graph(drawing(
                [tuple(tuple(scale * x for x in p) for p in seg) for seg in segs]))
            assert conflict_sets(cg) == segments_cross_adjacency(cg.graph.segments())


def test_count_subgraphs_2x2():
    cg = build_conflict_graph((2, 2))
    assert count_crossing_free_subgraphs(cg) == 48  # 2^6 - 2^4


def test_count_subgraphs_trivial_cases():
    empty = crossing_graph(make_grid_graph(1, [], []))
    assert count_crossing_free_subgraphs(empty) == 1
    five = crossing_graph(drawing([((i, 0), (i, 1)) for i in range(5)]))
    assert five.conflict_count == 0
    assert count_crossing_free_subgraphs(five) == 32


def test_counts_take_sides_or_a_conflict_graph():
    """Grid sides and the grid's prebuilt conflict graph give the same counts."""
    for sides, expected in {(2, 2): (48, 9, 5, 12), (1, 3): (4, 3, 2, 1),
                            (2, 2, 2): (14929920, 660, 19, 120000)}.items():
        assert tuple(count(sides) for count in GRID_COUNTS) == expected
        assert tuple(count(build_conflict_graph(sides)) for count in GRID_COUNTS) == expected


def test_count_matchings_examples():
    assert count_crossing_free_matchings(build_conflict_graph((2, 2))) == 9
    assert count_crossing_free_matchings(build_conflict_graph((1, 2))) == 2
    assert count_crossing_free_matchings(build_conflict_graph((1, 3))) == 3


def grid_segments(sides):
    """The candidate segments of a grid (point pairs with coprime coordinate
    differences), found without candidate_blocks."""
    return [(a, b) for a, b in combinations(grid_points(sides), 2)
            if gcd(*(q - p for p, q in zip(a, b))) == 1]


def brute_force_matchings(segs):
    """Lists the matchings of a segment list by backtracking, without the
    conflict graph: a segment joins when it shares no endpoint with the
    matching and segments_cross finds no crossing with any segment in it."""
    def extend(start, chosen, used):
        total = 1
        for e in range(start, len(segs)):
            a, b = segs[e]
            if a not in used and b not in used and not any(
                    segments_cross(segs[e], segs[f]).is_crossing for f in chosen):
                total += extend(e + 1, chosen + [e], used | {a, b})
        return total

    return extend(0, [], frozenset())


# Every grid with at most 30 candidates. A path on n points has Fib(n + 1)
# matchings, so the 1-d grids past 12 points go to that closed form instead.
MATCHING_ORACLE_GRIDS = [(n,) for n in range(1, 13)] + [
    (2, 2), (2, 3), (2, 4), (3, 3), (2, 2, 2)]


@pytest.mark.parametrize("sides", MATCHING_ORACLE_GRIDS,
                         ids=["x".join(map(str, s)) for s in MATCHING_ORACLE_GRIDS])
def test_matchings_against_backtracking(sides):
    assert count_crossing_free_matchings(build_conflict_graph(sides)) == brute_force_matchings(
        grid_segments(sides))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 3).flatmap(lambda d: st.lists(
    st.tuples(*[st.tuples(*[st.integers(0, 3)] * d)] * 2).filter(lambda s: s[0] != s[1]),
    max_size=14, unique_by=lambda seg: tuple(sorted(seg)))))
def test_matchings_of_segment_sets_against_backtracking(segs):
    """Arbitrary segments of a small box in 1 to 3 dimensions: often sparse
    and disconnected, and free to pass through lattice points and overlap."""
    assert count_crossing_free_matchings(crossing_graph(drawing(segs))) == (
        brute_force_matchings(segs))


def test_matchings_of_paths_are_fibonacci():
    fib = [1, 1]
    while len(fib) < 33:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 32):
        assert count_crossing_free_matchings(build_conflict_graph((n,))) == fib[n]


MATCHINGS_PINNED = {(4, 3): 10211, (2, 2, 3): 69417, (4, 5): 29929779, (2, 3, 3): 186897264,
                    (2, 2, 2, 2): 34527171, (2, 2, 4): 9657449, (2, 11): 31354188}


@pytest.mark.parametrize("sides, expected", MATCHINGS_PINNED.items(),
                         ids=["x".join(map(str, s)) for s in MATCHINGS_PINNED])
def test_matchings_pinned(sides, expected):
    """Values of the earlier one-node-at-a-time search; 2x11 is the grid at
    the candidate cap."""
    assert count_crossing_free_matchings(build_conflict_graph(sides)) == expected


def test_matchings_one_past_the_cap():
    """2x2x5 has 166 candidates, past the cap, so it is built with a cap of
    its own; the value of the earlier component-splitting search."""
    assert count_crossing_free_matchings(build_conflict_graph((2, 2, 5), cap=166)) == 1598032326


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


def subset_filter_trees(cg):
    """Brute force: every (vertex count - 1)-subset of candidates that has no
    conflicting pair and no cycle (union-find) is a spanning tree."""
    volume = len(cg.graph.vertices)
    conflicts = conflict_sets(cg)
    trees = []
    for subset in combinations(range(cg.size), volume - 1):
        if any(j in conflicts[i] for i, j in combinations(subset, 2)):
            continue
        parent = list(range(volume))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for e in subset:
            ra, rb = (find(v) for v in cg.graph.edges[e])
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            trees.append(subset)
    return trees


@pytest.mark.parametrize("sides, expected", SUBSET_FILTER_GRIDS.items(),
                         ids=["x".join(map(str, s)) for s in SUBSET_FILTER_GRIDS])
def test_spanning_trees_against_subset_filter(sides, expected):
    from gridcross.counting import count_crossings_naive

    cg = build_conflict_graph(sides)
    trees = subset_filter_trees(cg)
    assert len(trees) == expected == count_crossing_free_spanning_trees(sides)
    # each enumerated tree really is a crossing-free drawing
    for subset in trees:
        g = make_grid_graph(len(sides), cg.graph.vertices, [cg.graph.edges[e] for e in subset])
        assert count_crossings_naive(g).total == 0


# Values of the DP before finished points left its state, counted past the
# volume cap.
TREES_PAST_CAP = {(2, 5): 44329, (2, 6): 759114, (3, 4): 4595581, (2, 2, 3): 3113263300}


@pytest.mark.parametrize("sides, expected", TREES_PAST_CAP.items(),
                         ids=["x".join(map(str, s)) for s in TREES_PAST_CAP])
def test_spanning_trees_past_the_cap(monkeypatch, sides, expected):
    import gridcross.enumeration as enumeration

    monkeypatch.setattr(enumeration, "TREE_VOLUME_CAP", 12)
    assert count_crossing_free_spanning_trees(sides) == expected


def test_spanning_trees_invariant_under_axis_permutation_and_unit_axes(monkeypatch):
    """Every grid of volume <= 9 in up to 4 dimensions, and 2x5 in three
    shapes, has the count of its sorted non-unit sides: permuting the axes
    or inserting length-1 axes is an isometry of the point set, so the tree
    count cannot change. The candidate order, and with it the order in which
    points leave the DP state, does change."""
    import gridcross.enumeration as enumeration

    monkeypatch.setattr(enumeration, "TREE_VOLUME_CAP", 10)
    counts = {}
    grids = [sides for dim in range(1, 5) for sides in product(range(1, 10), repeat=dim)
             if prod(sides) <= 9]
    for sides in grids + [(2, 5), (5, 2), (1, 2, 5)]:
        if core(sides) not in counts:
            counts[core(sides)] = count_crossing_free_spanning_trees(core(sides))
        assert count_crossing_free_spanning_trees(sides) == counts[core(sides)], sides


def test_spanning_trees_cap(monkeypatch):
    """The cap counts vertices: a prebuilt graph past it is refused, and
    grid sides past it are refused before a conflict graph is built."""
    import gridcross.enumeration as enumeration

    with pytest.raises(CapExceeded, match="10 vertices exceed the spanning-tree cap 9"):
        count_crossing_free_spanning_trees(build_conflict_graph((2, 5)))

    def no_conflict_graph(*args, **kwargs):
        raise AssertionError("conflict graph built past the volume cap")

    monkeypatch.setattr(enumeration, "build_conflict_graph", no_conflict_graph)
    for sides in [(2, 5), (10,), (1, 10, 1)]:
        with pytest.raises(CapExceeded, match="spanning-tree cap"):
            count_crossing_free_spanning_trees(sides)


def test_enumeration_record_builds_one_conflict_graph(monkeypatch):
    """One conflict graph per grid, one independent-set search for the
    subgraph count and the maximum together, and one matching search."""
    import gridcross.enumeration as enumeration

    built, searched, matched = [], [], []

    def counted_graph(*args, **kwargs):
        built.append(args)
        return build_conflict_graph(*args, **kwargs)

    def counted_search(*args):
        searched.append(args)
        return _independent(*args)

    def counted_matchings(*args):
        matched.append(args)
        return _matchings(*args)

    monkeypatch.setattr(enumeration, "build_conflict_graph", counted_graph)
    monkeypatch.setattr(enumeration, "_independent", counted_search)
    monkeypatch.setattr(enumeration, "_matchings", counted_matchings)
    rec = enumeration.enumeration_record((3, 3))
    assert (rec["subgraphs"], rec["max_edges"], rec["matchings"], rec["spanning_trees"]) == (
        1150976, 16, 621, 24965)
    assert len(built) == 1
    assert len(searched) == 1
    assert len(matched) == 1


def test_enumeration_record_is_a_pure_value():
    rec = enumeration_record((3, 3))
    assert "elapsed_s" not in rec
    assert rec == enumeration_record((3, 3))


def test_memoized_counter_equals_subset_dp():
    rng = random.Random(61)
    for trial in range(30):
        adjacency = random_adjacency(rng, rng.randint(0, 16))
        assert count_independent_sets(adjacency) == brute_force_independent_sets(adjacency)[0]


def relabelled(adjacency, perm):
    """The graph with vertex v renamed perm[v]."""
    out = [None] * len(adjacency)
    for v, a in enumerate(adjacency):
        out[perm[v]] = frozenset(perm[w] for w in a)
    return out


def test_search_is_invariant_under_relabelling():
    """The search branches in an order that breaks degree ties by index, so
    renaming the vertices changes the order it takes; the count and the
    maximum must not change: random graphs against the subset DP, and the
    enum-small conflict graphs against their own labels."""
    rng = random.Random(97)
    for trial in range(30):
        adjacency = random_adjacency(rng, rng.randint(0, 16))
        want = brute_force_independent_sets(adjacency)
        for _ in range(3):
            perm = rng.sample(range(len(adjacency)), len(adjacency))
            nbr = [sum(1 << j for j in a) for a in relabelled(adjacency, perm)]
            assert _independent(nbr) == want
    for sides in [(3, 3), (2, 2, 2), (4, 3), (2, 2, 3)]:
        sets = conflict_sets(build_conflict_graph(sides))
        want = _independent([sum(1 << j for j in a) for a in sets])
        for _ in range(3):
            perm = rng.sample(range(len(sets)), len(sets))
            nbr = [sum(1 << j for j in a) for a in relabelled(sets, perm)]
            assert _independent(nbr) == want, sides


# (subgraph count, MIS) of the largest grids under the candidate cap
SEARCH_PINNED = {
    (4, 4): (21092500504576, 33),
    (4, 5): (483986543745171456, 43),
    (3, 7): (985738738673909760, 44),
    (2, 11): (17389147907948544, 41),
    (2, 3, 3): (30923723391236463929589760, 57),
}


@pytest.mark.parametrize("sides, expected", SEARCH_PINNED.items(),
                         ids=["x".join(map(str, s)) for s in SEARCH_PINNED])
def test_subgraphs_and_mis_pinned(sides, expected):
    record = enumeration_record(sides)
    assert (record["subgraphs"], record["max_edges"]) == expected


@pytest.mark.parametrize("k, layered", [(2, 6480), (3, 23343138357760)])
def test_slab_identity(k, layered):
    """No candidate of the k x k x 2 grid between the layers meets one inside
    a layer, and the ones between the layers are the edges of the layered
    complete bipartite drawing, so count(k x k x 2) = count(k x k)^2 times
    the independent-set count of that drawing's conflict graph."""
    slab = crossing_graph(layered_complete_bipartite(k, 3))
    assert count_crossing_free_subgraphs(slab) == layered
    assert count_crossing_free_subgraphs((k, k, 2)) == \
        count_crossing_free_subgraphs((k, k)) ** 2 * layered


@pytest.mark.parametrize("adjacency", [[{5}], [{1}, {-1}], [{1}, {0, 2}], [{True}, {0}],
                                       [[1.0], [0]], [["1"], [0]]])
def test_count_independent_sets_refuses_indices_out_of_range(adjacency):
    """An index outside the vertex range, or one that is not an integer (a
    bool was read as 1, a float raised a raw TypeError), is refused."""
    with pytest.raises(ValidationError, match="neighbour indices"):
        count_independent_sets(adjacency)


def test_count_independent_sets_reads_each_neighbour_once():
    """A neighbour listed twice is one edge (the list [1, 1] raised a raw
    KeyError), and a numpy index is an integer."""
    assert count_independent_sets([[1, 1], [0]]) == 3
    assert count_independent_sets([[np.int64(1)], [np.int64(0)]]) == 3


@pytest.mark.parametrize("adjacency", [[{0}], [{1}, {0, 1}], [{1, 2}, set(), set()],
                                       [set(), {0}, {0}], [{1, 2}, {0}, set()]],
                         ids=["self-loop", "self-loop-in-edge", "star-one-sided",
                              "star-mirror", "star-half"])
def test_count_independent_sets_refuses_a_graph_that_is_not_simple(adjacency):
    """A self-loop or a neighbour listed on one side only is refused; the
    search reads neither correctly ([{0}] gave 2, and the one-sided stars 5
    or 6 by side). The star listed on both sides has its 5 independent sets."""
    with pytest.raises(ValidationError, match="lists itself or a neighbour"):
        count_independent_sets(adjacency)
    assert count_independent_sets([{1, 2}, {0}, {0}]) == 5


def test_independent_set_count_matches_networkx_cliques_of_complement():
    """An independent set is a clique of the complement, and
    enumerate_all_cliques lists every non-empty clique, so the count is one
    more than that list: on random graphs of up to 16 vertices and on
    16-vertex induced subgraphs of grid conflict graphs."""
    nx = pytest.importorskip("networkx")
    rng = random.Random(89)
    cases = [random_adjacency(rng, rng.randint(0, 16)) for _ in range(30)]
    for sides in [(3, 3), (2, 2, 2), (4, 3), (2, 2, 3)]:
        sets = conflict_sets(build_conflict_graph(sides))
        keep = sorted(rng.sample(range(len(sets)), 16))
        relabel = {v: i for i, v in enumerate(keep)}
        cases.append([frozenset(relabel[w] for w in sets[v] if w in relabel) for v in keep])
    assert sum(any(a) for a in cases[-4:]) == 4  # each induced graph keeps a conflict
    for adjacency in cases:
        g = nx.Graph()
        g.add_nodes_from(range(len(adjacency)))
        g.add_edges_from((i, j) for i, a in enumerate(adjacency) for j in a)
        cliques = sum(1 for _ in nx.enumerate_all_cliques(nx.complement(g)))
        assert count_independent_sets(adjacency) == 1 + cliques


def test_mis_matches_networkx_clique_of_complement():
    nx = pytest.importorskip("networkx")
    rng = random.Random(67)
    for trial in range(30):
        t = rng.randint(1, 20)
        adjacency = random_adjacency(rng, t)
        g = nx.Graph()
        g.add_nodes_from(range(t))
        g.add_edges_from((i, j) for i in range(t) for j in adjacency[i])
        _, weight = nx.max_weight_clique(nx.complement(g), weight=None)
        cg = ConflictGraph(drawing([((v, 0), (v, 1)) for v in range(t)]),
                           tuple(sum(1 << j for j in a) for a in adjacency))
        assert max_crossing_free_edges(cg) == weight


def test_mis_equals_bose_formula():
    """Every grid of sides >= 2 in two to four dimensions up to the candidate
    cap (a grid with c candidates has volume <= c + 1), by sides and by a
    prebuilt conflict graph, and paths up to the one at the cap."""
    grids = {sides for dim in range(2, 5) for sides in side_tuples(dim, CANDIDATE_CAP + 1)
             if min(sides) >= 2 and sides == core(sides)
             and candidate_count(sides) <= CANDIDATE_CAP}
    assert len(grids) == 22 and (2, 11) in grids
    for sides in sorted(grids) + [(1,), (2,), (7,), (CANDIDATE_CAP + 1,)]:
        assert max_crossing_free_edges(sides) == bose_formula(sides), sides
        assert max_crossing_free_edges(build_conflict_graph(sides)) == bose_formula(sides), sides


def test_counts_invariant_under_axis_permutation_and_unit_axes():
    """Subgraphs, matchings and MIS of every side tuple of length 1..4 with at
    most 60 candidates equal those of its sorted non-unit sides."""
    def counts_of(sides):
        cg = build_conflict_graph(sides)
        return (count_crossing_free_subgraphs(cg), count_crossing_free_matchings(cg),
                max_crossing_free_edges(cg))

    counts = {}
    for length in range(1, 5):
        for sides in side_tuples(length, 61):
            c = core(sides)
            if c not in counts:
                counts[c] = counts_of(c) if candidate_count(c) <= 60 else None
            if counts[c] is not None:
                assert counts_of(sides) == counts[c], sides


def test_bose_formula_examples():
    assert bose_formula((2, 2)) == 5
    assert bose_formula((2, 2, 2)) == 19
    for x in range(1, 8):
        assert bose_formula((x,)) == x - 1


def test_ncs_upper_examples():
    assert ncs_upper_formula(4, 2) == 64
    assert ncs_upper_formula(2, 3) == 2
    assert ncs_upper_formula(2, 7) == 2


def test_ncs_upper_refuses_non_integers():
    """(4, True) was read as d = 1 and (4.0, 2) raised a raw TypeError."""
    for N, d, name in [(4, True, "d"), (4.0, 2, "N"), ("4", 2, "N"), (4, 2.0, "d")]:
        with pytest.raises(ValidationError, match=f"{name} must be an integer"):
            ncs_upper_formula(N, d)
    assert ncs_upper_formula(np.int64(4), np.int64(2)) == 64


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
    assert ncs_lower_formula(np.int64(4), np.int64(1)) == 16
    with pytest.raises(ValidationError):
        ncs_lower_formula(3, Fraction(1, 100))


@pytest.mark.parametrize("N, c", [(4.5, 1), (True, 1), ("4", 1), (4, True), (4, "1/2"), (4, 1.0)])
def test_ncs_lower_refuses_non_integer_n_and_inexact_c(N, c):
    with pytest.raises(ValidationError):
        ncs_lower_formula(N, c)


@pytest.mark.parametrize("k, d, floor_, count", [
    (2, 3, 25, 6480), (2, 4, 1, 19131876000000), (3, 3, 4489, 23343138357760)])
def test_ncs_lower_is_below_the_layered_drawings_count(k, d, floor_, count):
    # c as growth_hd takes it; i(H) counts the drawing's crossing-free subgraphs
    g = layered_complete_bipartite(k, d)
    n = len(g.vertices)
    c = (analytic_skip_bound(k, d) + 1) / n
    assert ncs_lower_formula(n, c) == floor_
    assert count_crossing_free_subgraphs(crossing_graph(g)) == count
    assert floor_ <= count
