import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridcross import bounds
from gridcross.bounds import (
    BoundCertificate,
    certify,
    default_p_max,
    lower_bound_essential_pgrid,
    lower_bound_greedy_removal,
    lower_bound_midpoint_bucket,
    lower_bound_midpoint_formula,
)
from gridcross.constructions import layered_complete_bipartite, random_proper_graph, tile_bipartite
from gridcross.counting import count_crossings_naive
from gridcross.enumeration import candidate_blocks, grid_points
from gridcross.errors import ImproperGraphError, ValidationError
from gridcross.geom import CrossKind, segments_cross
from gridcross.graph import make_grid_graph, validate_proper
from gridcross.totients import essential_level, pgrid_numerators, totient_sieve

DIAGONALS = make_grid_graph(2, [(1, 1), (2, 2), (1, 2), (2, 1)], [(0, 1), (2, 3)])


def test_midpoint_bucket_examples():
    assert lower_bound_midpoint_bucket(layered_complete_bipartite(2, 3)).value == 10
    assert lower_bound_midpoint_bucket(DIAGONALS).value == 1
    star = make_grid_graph(2, [(0, 0), (3, 1), (1, 3), (-2, 1)], [(0, 1), (0, 2), (0, 3)])
    assert lower_bound_midpoint_bucket(star).value == 0


def test_midpoint_formula_examples():
    assert lower_bound_midpoint_formula(8, 16, 3) == 0
    assert lower_bound_midpoint_formula(16, 256, 4) == Fraction(128, 15)
    assert lower_bound_midpoint_formula(5, 0, 3) == 0


def test_essential_pgrid_examples():
    cert = lower_bound_essential_pgrid(layered_complete_bipartite(2, 3), 3)
    assert cert.value == 10
    assert cert.incidence == ((1, 0), (2, 16), (3, 32))
    assert lower_bound_essential_pgrid(DIAGONALS, 2).value == 1
    assert lower_bound_essential_pgrid(DIAGONALS, 1).value == 0


@pytest.mark.parametrize("p", range(2, 9))
def test_essential_pgrid_counts_a_crossing_from_its_level_on(p):
    # (0,0)->(p,1) and (1,0)->(1,1) cross at (1, 1/p), a point of level p
    g = make_grid_graph(2, [(0, 0), (p, 1), (1, 0), (1, 1)], [(0, 1), (2, 3)])
    assert essential_level(segments_cross(*g.segments()).point) == p
    assert lower_bound_essential_pgrid(g, p - 1).value == 0
    assert lower_bound_essential_pgrid(g, p).value == 1


def test_essential_pgrid_refuses_non_primitive_edges():
    g = make_grid_graph(2, [(0, 0), (4, 6)], [(0, 1)])
    with pytest.raises(ValidationError, match="non-primitive"):
        lower_bound_essential_pgrid(g, 2)


def test_greedy_removal_examples():
    assert lower_bound_greedy_removal(8, 100, 3) == 44
    assert lower_bound_greedy_removal(4, 12, 2) == 0
    assert lower_bound_greedy_removal(7, 0, 3) == 0


def test_per_edge_max_examples():
    assert count_crossings_naive(layered_complete_bipartite(2, 3)).per_edge_max == 3
    assert count_crossings_naive(DIAGONALS).per_edge_max == 1
    tree = make_grid_graph(2, [(1, 1), (2, 1), (2, 2)], [(0, 1), (1, 2)])
    assert count_crossings_naive(tree).per_edge_max == 0
    assert count_crossings_naive(make_grid_graph(2, [(1, 1)], [])).per_edge_max == 0


def test_certify_returns_every_certificate_by_kind():
    g = layered_complete_bipartite(2, 3)
    p_max, values = certify(g)
    assert p_max == default_p_max(16, 8) == 1
    assert values == {
        "midpoint-bucket": lower_bound_midpoint_bucket(g).value,
        "essential-pgrid": lower_bound_essential_pgrid(g, 1).value,
        "greedy-removal": lower_bound_greedy_removal(8, 16, 3),
        "midpoint-formula": lower_bound_midpoint_formula(8, 16, 3),
    }
    assert certify(g, 3)[1]["essential-pgrid"] == 10
    # a non-primitive edge leaves only the essential-pgrid certificate out
    long = make_grid_graph(2, [(0, 0), (4, 6), (0, 6), (4, 0)], [(0, 1), (2, 3)])
    assert certify(long) == (1, {"midpoint-bucket": 1, "essential-pgrid": None,
                                 "greedy-removal": 0, "midpoint-formula": 0})
    # no vertices: volume 1
    assert certify(make_grid_graph(3, [], [])) == (1, {
        "midpoint-bucket": 0, "essential-pgrid": 0, "greedy-removal": 0,
        "midpoint-formula": 0})
    for bad in (0, -1):
        with pytest.raises(ValidationError, match="p_max"):
            certify(g, bad)
        with pytest.raises(ValidationError, match="p_max"):
            certify(long, bad)
    # an edge through a vertex is refused before any certificate is computed
    with pytest.raises(ImproperGraphError):
        certify(make_grid_graph(2, [(0, 0), (2, 0), (1, 0)], [(0, 1)]))


@pytest.mark.parametrize("p_max", [2.5, 2.0, True, "2"])
def test_non_integer_p_max_is_refused(p_max):
    """p_max is refused, not rounded or read as 1, by both entry points, and
    by certify for a graph with a non-primitive edge too."""
    g = layered_complete_bipartite(2, 3)
    long = make_grid_graph(2, [(0, 0), (4, 6), (0, 6), (4, 0)], [(0, 1), (2, 3)])
    for call in (lambda: certify(g, p_max), lambda: certify(long, p_max),
                 lambda: lower_bound_essential_pgrid(g, p_max)):
        with pytest.raises(ValidationError, match="p_max must be an integer"):
            call()


def test_numpy_p_max_comes_back_as_int():
    g = layered_complete_bipartite(2, 3)
    cert = lower_bound_essential_pgrid(g, np.int64(3))
    assert type(cert.p_max) is int and cert == lower_bound_essential_pgrid(g, 3)
    p_max, values = certify(g, np.int64(3))
    assert type(p_max) is int and (p_max, values) == certify(g, 3)


def test_default_p_max_follows_cube_root_and_clamps():
    assert default_p_max(16, 8) == 1
    assert default_p_max(27, 1) == 3
    assert default_p_max(26, 1) == 2
    assert default_p_max(10 ** 9, 1) == 16


@pytest.mark.parametrize("bound, args, message", [
    (lower_bound_greedy_removal, (4, 2.5, 2), "m must be an integer"),
    (lower_bound_greedy_removal, (True, 9, True), "N must be an integer"),
    (lower_bound_midpoint_formula, (True, 3, 2), "N must be an integer"),
    (lower_bound_midpoint_formula, (2.5, 3, 2), "N must be an integer"),
    (lower_bound_midpoint_formula, (4, 3, "2"), "d must be an integer"),
    (default_p_max, (10, 1.0), "N must be an integer"),
    (default_p_max, (False, 1), "m must be an integer"),
    (default_p_max, (10, 0), "need N >= 1, m >= 0"),
    (default_p_max, (-1, 1), "need N >= 1, m >= 0"),
], ids=["greedy-float-m", "greedy-bools", "midpoint-bool-N", "midpoint-float-N",
        "midpoint-string-d", "p_max-float-N", "p_max-bool-m", "p_max-N-0", "p_max-m-negative"])
def test_closed_forms_refuse_bad_arguments(bound, args, message):
    """The closed forms take integers only (a bool, float or string was read
    as a number or raised a raw TypeError), and default_p_max needs a volume
    N >= 1 and an edge count m >= 0 (N = 0 gave 16)."""
    with pytest.raises(ValidationError, match=message):
        bound(*args)


def test_certificates_sound_on_random_graphs():
    rng = random.Random(47)
    table = totient_sieve(8)
    grids = [(5, 5), (8, 4), (3, 3, 3), (4, 4, 2), (2, 2, 2, 3)]
    for trial in range(30):
        sides = grids[trial % len(grids)]
        g = random_proper_graph(sides, m=rng.randint(2, 20), seed=900 + trial)
        exact = count_crossings_naive(g, check_proper=False).total
        assert lower_bound_midpoint_bucket(g, check_proper=False).value <= exact
        for p_max in (1, 3, 8):
            cert = lower_bound_essential_pgrid(g, p_max, check_proper=False)
            assert cert.value <= exact
            for p, mass in cert.incidence:
                expected = 0 if p == 1 else len(g.edges) * table[p]
                assert mass == expected
        vol = 1
        for s in sides:
            vol *= s
        assert lower_bound_greedy_removal(vol, len(g.edges), len(sides)) <= exact


def test_essential_pgrid_monotone_in_p_max():
    g = random_proper_graph((5, 5), m=16, seed=7)
    values = [lower_bound_essential_pgrid(g, p, check_proper=False).value for p in range(1, 9)]
    assert all(a <= b for a, b in zip(values, values[1:]))


@st.composite
def _primitive_graphs(draw):
    # 8 to 30 edges (all of them on smaller grids) drawn from the primitive
    # candidates of a grid with sides at most 4 in 2-d, 3-d or 4-d
    dim = draw(st.integers(2, 4))
    sides = draw(st.lists(st.integers(1, 4), min_size=dim, max_size=dim).filter(
        lambda s: max(s) >= 2))
    candidates = sum(len(I) for I, _ in candidate_blocks(grid_points(sides)))
    m = draw(st.integers(min(8, candidates), min(30, candidates)))
    return random_proper_graph(sides, m, draw(st.integers(0, 2 ** 16)))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=_primitive_graphs())
def test_essential_pgrid_at_full_level_is_the_exact_count(g):
    # with coordinate spread L, a crossing of two primitive edges lies at
    # parameters tn/det and sn/det, det a 2x2 minor of their directions,
    # |det| <= 2 L^2; so its level divides det and every crossing lands in
    # exactly one bucket at p_max = 2 L^2
    L = max(max(col) - min(col) for col in zip(*g.vertices))
    exact = count_crossings_naive(g).total
    assert lower_bound_essential_pgrid(g, p_max=2 * L * L).value == exact
    _, values = certify(g)
    assert all(v is None or v <= exact for v in values.values())


@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=_primitive_graphs())
def test_essential_pgrid_is_the_crossing_count_up_to_each_level(g):
    # oracle: classify every edge pair and read the level of its crossing
    # point; distinct primitive edges share at most one point, so each
    # crossing pair is one pair in one bucket
    segs = g.segments()
    levels = [essential_level(r.point) for r in
              (segments_cross(s, t) for s, t in combinations(segs, 2))
              if r.kind is CrossKind.POINT_CROSS]
    for p_max in range(1, 9):
        expect = sum(1 for level in levels if level <= p_max)
        assert lower_bound_essential_pgrid(g, p_max).value == expect


@settings(max_examples=50, deadline=None, derandomize=True)
@given(g=_primitive_graphs())
def test_midpoint_bucket_is_essential_pgrid_at_level_two(g):
    # a primitive edge carries no level-1 point and one level-2 point, its
    # midpoint, so both certificates count the pairs of edges sharing a midpoint
    cert = lower_bound_essential_pgrid(g, p_max=2)
    assert cert.incidence == ((1, 0), (2, len(g.edges)))
    assert lower_bound_midpoint_bucket(g).value == cert.value


@st.composite
def _proper_graphs(draw):
    # every pair of 2 to 16 vertices drawn on a grid with sides 5 in 1-d to
    # 3-d, less the pairs with a vertex between them: the long edges that
    # stay are non-primitive, and about a third of the drawings put one of
    # them in a midpoint bucket of two or more edges
    dim = draw(st.integers(1, 3))
    n = draw(st.integers(2, min(16, 5 ** dim)))
    verts = draw(st.lists(st.tuples(*[st.integers(0, 4)] * dim), min_size=n, max_size=n, unique=True))
    g = make_grid_graph(dim, verts, list(combinations(range(n), 2)))
    improper = {edge for edge, _ in validate_proper(g)}
    return make_grid_graph(dim, verts, [e for e in g.edges if e not in improper])


@settings(max_examples=100, deadline=None, derandomize=True)
@given(g=_proper_graphs())
def test_midpoint_bucket_counts_pairs_with_equal_endpoint_sums(g):
    # oracle: every pair of edges, compared by the doubled midpoint a + b
    sums = [tuple(x + y for x, y in zip(a, b)) for a, b in g.segments()]
    expect = sum(1 for s, t in combinations(sums, 2) if s == t)
    assert lower_bound_midpoint_bucket(g).value == expect


@pytest.mark.parametrize("build, args, value, p4_value, p4_incidence", [
    (layered_complete_bipartite, (6, 3), 10010, 20238, ((1, 0), (2, 1296), (3, 2592), (4, 2592))),
    (layered_complete_bipartite, (3, 4), 3065, 4533, ((1, 0), (2, 729), (3, 1458), (4, 1458))),
    (tile_bipartite, (4, 8, 3), 3360, 6384, ((1, 0), (2, 1024), (3, 2048), (4, 2048))),
])
def test_midpoint_bucket_and_level_two_on_the_benchmark_drawings(build, args, value, p4_value, p4_incidence):
    g = build(*args)
    assert lower_bound_midpoint_bucket(g).value == value
    assert lower_bound_essential_pgrid(g, p_max=2).value == value
    cert = lower_bound_essential_pgrid(g, p_max=4)
    assert (cert.value, cert.incidence) == (p4_value, p4_incidence)


def _counter_levels(segs, p_max):
    # the oracle: one Counter per level, keyed on the numerator tuples of
    # pgrid_numerators; returns [pairs per level, points per level]
    levels = []
    for p in range(1, p_max + 1):
        buckets = Counter(n for seg in segs for n in pgrid_numerators(seg, p))
        levels.append((sum(comb(r, 2) for r in buckets.values()), sum(buckets.values())))
    return [*zip(*levels)]


def test_levels_match_a_counter_over_pgrid_numerators():
    """Random edge sets on a side-5 box in 1-d to 5-d, primitive or not,
    scaled and shifted to coordinates up to about 2^70 (which keeps every
    bucket): the array levels 1..12 equal the Counter's, on int64 arrays and
    on Python ints."""
    rng = random.Random(28)
    dtypes, non_primitive = Counter(), 0
    for trial in range(150):
        dim = 1 + trial % 5
        points = list({tuple(rng.randrange(5) for _ in range(dim)) for _ in range(12)})
        edges = {tuple(sorted(rng.sample(range(len(points)), 2))) for _ in range(rng.randint(1, 15))}
        scale = rng.choice([1, 3, 2 ** 40, 2 ** 66])
        shift = rng.choice([0, -2 ** 69, 2 ** 69])
        g = make_grid_graph(dim, [tuple(scale * x + shift for x in v) for v in points], sorted(edges))
        P, bad = bounds._edges(g)
        non_primitive += bool(bad.size)
        for p_max in (2, 12):
            dtype, *levels = bounds._levels(P, p_max)
            assert levels == _counter_levels(g.segments(), p_max)
            dtypes[dtype] += 1
    assert non_primitive > 50 and dtypes["int64"] > 50 and dtypes["object"] > 50


@pytest.mark.parametrize("vertices, edges", [
    ([], []), ([(0, 0, 0)], []), ([(0, 0, 0), (1, 2, 3)], [(0, 1)]),
    ([(-2 ** 70, 0, 0), (1, 2, 3)], [(0, 1)]),
], ids=["empty", "edgeless", "one-edge", "one-huge-edge"])
def test_levels_on_graphs_of_at_most_one_edge(vertices, edges):
    g = make_grid_graph(3, vertices, edges)
    _, *levels = bounds._levels(bounds._edges(g)[0], 12)
    assert levels == _counter_levels(g.segments(), 12)
    assert lower_bound_midpoint_bucket(g).value == 0 == lower_bound_essential_pgrid(g, 12).value


@pytest.mark.parametrize("p_max, S, dtype", [(2, 255, "int64"), (7, 73, "int64"), (2, 256, "object")],
                         ids=["below", "at", "above"])
def test_bucket_key_matches_a_counter_around_2_to_the_63(p_max, S, dtype):
    """In 7-d the key's base p_max * S + 1 is 511, 512 and 513, so base^7 is
    just below, at and just above 2^63: the keys are int64 on the first two
    and Python ints on the third, and every level equals the Counter's. The
    points lie in {0, S} x {0, 1, 2}^6, and each random edge a -> b comes
    with a twin that swaps one coordinate of a and b, so the two share their
    midpoint."""
    d = 7
    assert [(p_max * S + 1) ** d > 2 ** 63, (p_max * S + 1) ** d == 2 ** 63] == [
        dtype == "object", (p_max, S) == (7, 73)]
    rng = random.Random(S)
    segs = set()
    for _ in range(12):
        a, b = ([rng.choice((0, S))] + [rng.randrange(3) for _ in range(d - 1)] for _ in range(2))
        segs.add((tuple(a), tuple(b)))
        k = rng.randrange(d)
        a[k], b[k] = b[k], a[k]
        segs.add((tuple(a), tuple(b)))
    points = sorted({v for seg in segs for v in seg})
    edges = {tuple(sorted(map(points.index, seg))) for seg in segs if seg[0] != seg[1]}
    g = make_grid_graph(d, points, sorted(edges))
    P = bounds._edges(g)[0]
    assert P.max() == S
    got, *levels = bounds._levels(P, p_max)
    assert got == dtype and levels == _counter_levels(g.segments(), p_max)
    assert sum(levels[0]) > 0


def test_bucket_key_separates_rows_that_differ_in_one_coordinate():
    """Level-2 rows a + b, spread S = 2 and key base 2 S + 1 = 5: (2, 1) and
    (2, 2) differ only in their last coordinate, and (4, 2) and (0, 3) would
    share the key 12 in base 2 S. Only the two rows (2, 2) share a bucket."""
    g = make_grid_graph(2, [(2, 0), (2, 2), (0, 1), (0, 2), (0, 0), (2, 1), (1, 0), (1, 2)],
                        [(0, 1), (2, 3), (4, 5), (2, 5), (6, 7)])
    rows = sorted(tuple(x + y for x, y in zip(*seg)) for seg in g.segments())
    assert rows == [(0, 3), (2, 1), (2, 2), (2, 2), (4, 2)]
    levels = bounds._levels(bounds._edges(g)[0], 2)
    assert levels == ("int64", (0, 1), (0, 5)) and levels[1:] == tuple(_counter_levels(g.segments(), 2))


@pytest.mark.parametrize("S, dtype", [(1518500249, "int64"), (1518500250, "object"), (2 ** 62, "object")])
def test_bucket_arrays_are_int64_while_p_max_times_spread_fits(S, dtype):
    # the diagonals of an S x 1 box cross at their common midpoint; the
    # spread is S, so the level-2 keys, in base 2 S + 1 over two axes, are
    # int64 iff (2 S + 1)^2 <= 2^63, that is S <= 1518500249
    g = make_grid_graph(2, [(0, 0), (S, 1), (S, 0), (0, 1)], [(0, 1), (2, 3)])
    mid, pgrid = lower_bound_midpoint_bucket(g), lower_bound_essential_pgrid(g, 2)
    assert mid.dtype == pgrid.dtype == dtype
    assert lower_bound_essential_pgrid(g, 3).dtype == "object"
    # the dtype says how a value was computed, not what it is
    assert mid == BoundCertificate("midpoint-bucket", Fraction(1))
    assert "dtype" not in repr(pgrid) and pgrid.value == 1
    assert certify(g, 2)[1]["midpoint-bucket"] == 1


@pytest.mark.parametrize("g, p_max, want", [
    (layered_complete_bipartite(3, 3), 4, 4),
    (layered_complete_bipartite(3, 3), 1, 2),
    (make_grid_graph(2, [(0, 0), (4, 6), (0, 6), (4, 0)], [(0, 1), (2, 3)]), 4, 2),
], ids=["primitive", "primitive-p_max-1", "non-primitive"])
def test_certify_runs_one_bucket_pass(monkeypatch, g, p_max, want):
    """certify takes midpoint-bucket from the level 2 of its one bucket pass:
    levels 1..max(p_max, 2) on a primitive graph, level 2 and below on one
    with a non-primitive edge."""
    calls = []
    levels = bounds._levels

    def spy(P, p):
        calls.append(p)
        return levels(P, p)

    monkeypatch.setattr(bounds, "_levels", spy)
    _, values = certify(g, p_max)
    assert calls == [want]
    monkeypatch.undo()
    assert values["midpoint-bucket"] == lower_bound_midpoint_bucket(g).value
