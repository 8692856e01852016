import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridcross import _kernels
from gridcross.constructions import (
    layered_complete_bipartite,
    random_proper_graph,
    tile_bipartite,
)
from gridcross.counting import count_crossings_naive, count_crossings_pruned
from gridcross.errors import ImproperGraphError
from gridcross.geom import CrossKind, segments_cross
from gridcross.graph import make_grid_graph, validate_proper

C = _kernels.SAFE_COORD

# Scaling a drawing keeps every crossing. At scale 1 the fixtures run on the
# kernel's int16 arrays. At scale 2 * SAFE_COORD every fixture whose edge
# endpoints span more than one unit on some axis has a spread past the int64
# range, so the same fixtures check the kernel on Python ints. The ids name
# the path that scale is for.
SCALES = [pytest.param(1, id="numpy"), pytest.param(2 * C, id="object")]


def _scaled(g, factor):
    return make_grid_graph(g.dim, [tuple(factor * x for x in v) for v in g.vertices], g.edges)


def _bipartite_crossings_by_direction_match(g):
    # independent hand-count for two-layer drawings: edges cross iff their
    # endpoint sums coincide (all crossings happen at equal heights), so the
    # crossing pairs are exactly the pairs inside each endpoint-sum class
    sums = Counter()
    for i, j in g.edges:
        u, w = g.vertices[i], g.vertices[j]
        sums[tuple(a + b for a, b in zip(u, w))] += 1
    return sum(r * (r - 1) // 2 for r in sums.values())


def test_naive_layered_k2_d3():
    g = layered_complete_bipartite(2, 3)
    rep = count_crossings_naive(g)
    assert rep.total == 10
    assert rep.total == _bipartite_crossings_by_direction_match(g)
    assert sum(rep.per_edge) == 2 * rep.total
    assert max(rep.per_edge) == 3


def test_naive_unit_square_diagonals():
    g = make_grid_graph(2, [(1, 1), (2, 2), (1, 2), (2, 1)], [(0, 1), (2, 3)])
    rep = count_crossings_naive(g)
    assert rep.total == 1
    assert rep.per_edge == (1, 1)


def test_naive_tree_fixture_is_crossing_free():
    g = make_grid_graph(2, [(1, 1), (2, 1), (2, 2), (3, 1)], [(0, 1), (1, 2), (1, 3)])
    assert count_crossings_naive(g).total == 0


def test_counters_refuse_improper_graphs():
    g = make_grid_graph(2, [(1, 1), (2, 2), (3, 3)], [(0, 2)])
    with pytest.raises(ImproperGraphError) as exc:
        count_crossings_naive(g)
    assert exc.value.violations == [((0, 2), 1)]
    with pytest.raises(ImproperGraphError):
        count_crossings_pruned(g)


@pytest.mark.parametrize("scale", SCALES)
def test_pruned_matches_naive_on_fixtures(scale):
    for k, d in [(2, 3), (3, 3), (2, 4)]:
        g = layered_complete_bipartite(k, d)
        ref = count_crossings_naive(g)
        got = count_crossings_pruned(_scaled(g, scale))
        assert got.total == ref.total
        assert got.per_edge == ref.per_edge
        assert got.method == "pruned"


@pytest.mark.parametrize("scale", SCALES)
def test_pruned_matches_naive_on_random_graphs(scale):
    rng = random.Random(41)
    grids = [(6, 6), (4, 4), (3, 3, 3), (4, 2, 4), (2, 2, 2, 2), (3, 2, 2, 2)]
    for trial in range(40):
        sides = grids[trial % len(grids)]
        g = random_proper_graph(sides, m=rng.randint(2, 25), seed=1000 + trial)
        ref = count_crossings_naive(g, check_proper=False)
        got = count_crossings_pruned(_scaled(g, scale), check_proper=False)
        assert got.total == ref.total
        assert got.per_edge == ref.per_edge


def test_pruned_matches_naive_bulk_500():
    rng = random.Random(67)
    grids = [(8, 8), (5, 5), (4, 4, 4), (2, 4, 8), (2, 2, 2, 8), (3, 3, 2, 2)]
    for trial in range(500):
        sides = grids[trial % len(grids)]
        g = random_proper_graph(sides, m=rng.randint(5, 60), seed=5000 + trial)
        ref = count_crossings_naive(g, check_proper=False)
        got = count_crossings_pruned(g, check_proper=False)
        assert got.total == ref.total
        assert got.per_edge == ref.per_edge


def _segments(A, B):
    # the kernel's points and edges for the segments A[k] -> B[k]
    return [*A, *B], [(k, len(A) + k) for k in range(len(A))]


# the drawings' spreads are 2 to 7, and 39 on the two 40-wide grids
@pytest.mark.parametrize("build, total, dtype", [
    pytest.param(lambda: layered_complete_bipartite(6, 3), 27622, "int16", id="layered-k6-d3"),
    pytest.param(lambda: layered_complete_bipartite(3, 4), 4533, "int16", id="layered-k3-d4"),
    pytest.param(lambda: tile_bipartite(4, 8, 3), 6960, "int16", id="tiled-k4-s8-d3"),
    pytest.param(lambda: layered_complete_bipartite(8, 3), 188024, "int16", id="layered-k8-d3"),
    pytest.param(lambda: layered_complete_bipartite(4, 4), 68856, "int16", id="layered-k4-d4"),
    pytest.param(lambda: layered_complete_bipartite(40, 2), 608400, "int32", id="layered-k40-d2"),
    pytest.param(lambda: random_proper_graph((40, 40), 3000, 1), 1023315, "int32", id="random-40x40"),
])
def test_kernel_working_set_does_not_grow_with_m(build, total, dtype):
    """One tracemalloc bound holds from m = 729 to m = 4096 edges, in 2-d, 3-d
    and 4-d, with 4533 to a million crossing pairs: the kernel holds one
    tile and one chunk at a time (see the _kernels docstring)."""
    g = build()
    (got, per_edge, ran), peak = _traced_peak(_kernels.count_pairs, g.vertices, g.edges)
    assert got == total and per_edge.sum() == 2 * total and ran == dtype
    assert peak < 3 * 2 ** 20


def _traced_peak(f, *args):
    tracemalloc.start()
    try:
        result = f(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def _coplanar_fan(dim, n=2500, seed=0):
    # n segments from (0..9, 40..59, 0, ...) to (990..999, 40..59, 0, ...):
    # one plane, and nearly every pair passes the bounding-box filter
    rng = random.Random(seed)
    pad = (0,) * (dim - 2)
    A = [(rng.randrange(10), 40 + rng.randrange(20)) + pad for _ in range(n)]
    B = [(990 + rng.randrange(10), 40 + rng.randrange(20)) + pad for _ in range(n)]
    return A, B


def test_kernel_working_set_at_its_worst_case():
    """Every pair of a tile passing both filters is the kernel's worst case
    (see the _kernels docstring); the fan is the same drawing in 2-d, 3-d
    and 4-d, so all three count the same pairs on the same edges."""
    per_edges = []
    for dim in (2, 3, 4):
        (total, per_edge, _), peak = _traced_peak(_kernels.count_pairs, *_segments(*_coplanar_fan(dim)))
        assert total == 1529062 and per_edge.sum() == 2 * total
        assert peak < 4 * 2 ** 20
        per_edges.append(per_edge.tolist())
    assert per_edges[0] == per_edges[1] == per_edges[2]


def test_pruned_matches_naive_across_tile_and_chunk_seams(monkeypatch):
    """With 3-segment tiles and 5-pair chunks even small graphs run through
    off-diagonal tiles and tiles split over several chunks."""
    monkeypatch.setattr(_kernels, "BLOCK", 3)
    monkeypatch.setattr(_kernels, "BATCH", 5)
    crossing_rows = _kernels._crossing_rows
    chunks = []

    def spy(At, Ut, rr, si, sj):
        chunks.append(si.size)
        return crossing_rows(At, Ut, rr, si, sj)

    monkeypatch.setattr(_kernels, "_crossing_rows", spy)
    rng = random.Random(12)
    grids = [(6, 6), (5, 7), (4, 4, 3), (3, 3, 3), (2, 3, 2, 3), (2, 2, 2, 4)]
    graphs = [layered_complete_bipartite(3, 3)]
    for trial, sides in enumerate(grids):
        graphs.append(random_proper_graph(sides, m=rng.randint(20, 40), seed=700 + trial))
    for g in graphs:
        ref = count_crossings_naive(g)
        got = count_crossings_pruned(g)
        assert (got.total, got.per_edge) == (ref.total, ref.per_edge)
    assert max(chunks) == 5 and min(chunks) < 5


def test_pruned_empty_and_single_edge():
    g = make_grid_graph(2, [(1, 1), (2, 2)], [])
    assert count_crossings_pruned(g).total == 0
    g = make_grid_graph(2, [(1, 1), (2, 2)], [(0, 1)])
    rep = count_crossings_pruned(g)
    assert rep.total == 0 and rep.per_edge == (0,) and rep.dtype is None


def test_pruned_huge_coordinates_fall_back_to_exact_path():
    scale = 10 ** 9  # spread beyond the int64 range: the kernel runs on Python ints
    g = make_grid_graph(2, [(0, 0), (2 * scale, 2 * scale), (0, 2 * scale), (2 * scale, 0)],
                        [(0, 1), (2, 3)])
    rep = count_crossings_pruned(g)
    assert rep.total == 1
    total, per_edge, dtype = _kernels.count_pairs(g.vertices, g.edges)
    assert total == 1 and per_edge.tolist() == [1, 1] and dtype == rep.dtype == "object"


def _kernel_agrees_with_geom(pairs, offset=0, dtype=np.int64):
    # segment k (a -> b) against segment n + k (c -> d), through the exact
    # test that crossing_pairs runs after its filters (the pivot, the meet
    # check on every axis and the parameter test), on arrays of `dtype` with
    # every point shifted by `offset`
    a, b, c, d = (np.array(col, dtype=dtype) for col in zip(*pairs))
    At = np.concatenate([a, c]).T + offset
    Ut = np.concatenate([b - a, d - c]).T
    k = np.arange(len(pairs))
    got = _kernels._crossing_rows(At, Ut, np.argmax(abs(Ut), axis=0), k, k + len(pairs))
    want = [segments_cross((p, q), (r, s)).is_crossing for p, q, r, s in pairs]
    return [pair for pair, x, y in zip(pairs, got, want) if bool(x) != y]


def _tiles_agree_with_geom(pairs, group=64):
    # the pairs (p -> q, r -> s) through crossing_pairs, with its tile filters,
    # `group` at a time: the segments p -> q of a group come first and the
    # segments r -> s after them, and the pair decided for each is (k, group + k)
    wrong = []
    for g0 in range(0, len(pairs), group):
        chunk = pairs[g0:g0 + group]
        n = len(chunk)
        A = [pair[0] for pair in chunk] + [pair[2] for pair in chunk]
        B = [pair[1] for pair in chunk] + [pair[3] for pair in chunk]
        got = {int(i) for si, sj in _kernels.crossing_pairs(*_segments(A, B))
               for i, j in zip(si, sj) if j == i + n}
        wrong += [pair for k, pair in enumerate(chunk)
                  if (k in got) != segments_cross(pair[:2], pair[2:]).is_crossing]
    return wrong


def _det3(u, v, w, axes):
    i, j, k = axes
    return (u[i] * (v[j] * w[k] - v[k] * w[j]) - u[j] * (v[i] * w[k] - v[k] * w[i])
            + u[k] * (v[i] * w[j] - v[j] * w[i]))


def _uvw(p, q, r, s):
    return ([y - x for x, y in zip(p, q)], [y - x for x, y in zip(r, s)],
            [y - x for x, y in zip(p, r)])


def test_kernel_matches_geom_on_envelope_cube_edges():
    # every ordered pair of directed segments between corners of [-C, C]^3,
    # where the kernel's intermediates are largest
    corners = list(product((-C, C), repeat=3))
    segs = [(p, q) for p in corners for q in corners if p != q]
    pairs = [s1 + s2 for s1 in segs for s2 in segs]
    assert len(pairs) == 3136
    assert _kernel_agrees_with_geom(pairs) == []
    # the same pairs on Python ints, far outside int64
    assert _kernel_agrees_with_geom(pairs, offset=2 ** 64, dtype=object) == []
    # every pair of the 56 segments through crossing_pairs, int64 at spread
    # 2C, and on Python ints when the cube is scaled past int64
    A, B = zip(*segs)
    want = {(i, j) for i, j in combinations(range(len(segs)), 2)
            if segments_cross(segs[i], segs[j]).is_crossing}
    for scale in (1, 2 ** 64):
        P = _segments([tuple(scale * x for x in p) for p in A], [tuple(scale * x for x in q) for q in B])
        got = {(int(i), int(j)) for si, sj in _kernels.crossing_pairs(*P) for i, j in zip(si, sj)}
        assert got == want
        assert _kernels.count_pairs(*P)[2] == ("int64" if scale == 1 else "object")


def test_kernel_matches_geom_on_envelope_sample():
    rng = random.Random(2024)
    values = (-C, -(C - 1), 0, C - 1, C)
    pairs = []
    while len(pairs) < 20000:
        p, q, r, s = (tuple(rng.choice(values) for _ in range(3)) for _ in range(4))
        if p != q and r != s:
            pairs.append((p, q, r, s))
    assert _kernel_agrees_with_geom(pairs) == []


@pytest.mark.parametrize("d", [4, 5], ids=["4d", "5d"])
def test_kernel_matches_geom_on_high_dim_envelope_sample(d):
    # A quarter of the random sample is drawn with a zero 3x3 minor on axes
    # 0..2: it passes the tile filter, and the meet check on the axes past 2
    # decides it. Random pairs at the envelope seldom cross, so 1000 pairs
    # p -> -p, r -> -r, which cross at the origin, join the sample, each also
    # with -r moved one unit on an axis k >= 3: its (0, 1, 2) minor stays 0,
    # so again only the meet check can reject it.
    rng = random.Random(2025)
    values = (-C, -(C - 1), 0, C - 1, C)
    flat, free, sym = [], [], []
    while len(flat) < 5000 or len(free) < 15000:
        xs = rng.choices(values, k=4 * d)
        p, q, r, s = (tuple(xs[i:i + d]) for i in range(0, 4 * d, d))
        if p == q or r == s:
            continue
        if _det3(*_uvw(p, q, r, s), (0, 1, 2)) == 0:
            flat.append((p, q, r, s))
        else:
            free.append((p, q, r, s))
    while len(sym) < 2000:
        p, r = (rng.choices(values, k=d) for _ in range(2))
        if any(p) and any(r):
            s = [-x for x in r]
            k = rng.randrange(3, d)
            s[k] += 1 if s[k] < C else -1
            sym += [(tuple(p), tuple(-x for x in p), tuple(r), tuple(-x for x in r)),
                    (tuple(p), tuple(-x for x in p), tuple(r), tuple(s))]
    pairs = flat[:5000] + free[:15000] + sym
    skew = sum(any(_det3(*_uvw(*pair), axes) for axes in combinations(range(d), 3))
               for pair in pairs[:5000])
    crosses = [segments_cross(pair[:2], pair[2:]).is_crossing for pair in pairs]
    assert all(_det3(*_uvw(*pair), (0, 1, 2)) == 0 for pair in sym)
    assert skew > 4000 and all(crosses[20000::2]) and crosses[20001::2].count(False) > 900
    assert _kernel_agrees_with_geom(pairs) == []
    assert _tiles_agree_with_geom(pairs) == []


@pytest.mark.parametrize("sides", [(4, 4, 3), (3, 3, 2, 2)], ids=["3d", "4d"])
def test_pruned_matches_naive_on_sheared_graphs_past_int64(sides):
    """x -> x + 10^12 z is unimodular, so it keeps every crossing, and it
    takes the spread far past 2 * SAFE_COORD: the tile filter on axes 0..2
    and the meet check run on Python ints."""
    for seed in range(3):
        g = random_proper_graph(sides, m=40, seed=80 + seed)
        sheared = make_grid_graph(len(sides), [(v[0] + 10 ** 12 * v[2],) + v[1:] for v in g.vertices],
                                  g.edges)
        ref = count_crossings_naive(g)
        got = count_crossings_pruned(sheared)
        assert got.dtype == "object" and ref.total > 0
        assert (got.total, got.per_edge) == (ref.total, ref.per_edge)
        assert count_crossings_naive(sheared, check_proper=False) == ref


def _point(d, *entries):
    # the d-dimensional point with coordinate x on axis k, for each (k, x)
    p = [0] * d
    for k, x in entries:
        p[k] += x
    return tuple(p)


@pytest.mark.parametrize("d", [4, 5], ids=["4d", "5d"])
def test_kernel_decides_pairs_parallel_on_the_first_three_axes(d):
    # u and v are parallel on axes 0..d-2, so every 2x2 minor there and the
    # 3x3 minor on axes 0..2 are 0: the pivot is (0, d - 1), and on its axes
    # every pair below meets at t = s = 1/2. Each skew pair moves c and d of
    # the crossing pair one unit along an axis k outside the pivot, and only
    # the meet check on that axis, tn*u_k - sn*v_k == det*w_k, rejects it.
    a, b = _point(d), _point(d, (0, 2), (d - 1, 2))
    crossing = (a, b, _point(d, (d - 1, 2)), _point(d, (0, 2)))
    skews = [(a, b, _point(d, (d - 1, 2), (k, 1)), _point(d, (0, 2), (k, 1))) for k in range(1, d - 1)]
    for pair in (crossing, *skews):
        u, v, w = _uvw(*pair)
        assert u[:d - 1] == v[:d - 1] and _det3(u, v, w, (0, 1, 2)) == 0
        on_pivot = [(x[0], x[d - 1]) for x in pair]
        assert segments_cross(on_pivot[:2], on_pivot[2:]).point == (1, 1)
    for k, skew in enumerate(skews, 1):
        # the only nonzero 3x3 minor borders the pivot with axis k
        assert [axes for axes in combinations(range(d), 3) if _det3(*_uvw(*skew), axes)] == [(0, k, d - 1)]
        assert not segments_cross(skew[:2], skew[2:]).is_crossing
    assert segments_cross(crossing[:2], crossing[2:]).kind is CrossKind.POINT_CROSS
    assert _kernel_agrees_with_geom([crossing, *skews]) == []
    assert _kernel_agrees_with_geom([crossing, *skews], offset=2 ** 64, dtype=object) == []


@pytest.mark.parametrize("d", [3, 4, 5], ids=["3d", "4d", "5d"])
def test_kernel_decides_skew_pairs_on_every_pivot(d):
    # For each axis pair (i, j), u and v are 0 off axes i and j, so the
    # 2x2 minor on (i, j) is the only nonzero one and (i, j) is the pivot:
    # every earlier pivot pass leaves the pair to the next. On axes i and j
    # the segments cross at t = 3/5, s = 2/5. Each skew twin moves c and d
    # one unit along an axis k outside the pivot, and only the meet check on
    # that axis, tn*u_k - sn*v_k == det*w_k, rejects it.
    pairs = []
    for i, j in combinations(range(d), 2):
        a, b, c, e = _point(d), _point(d, (i, 3), (j, 3)), _point(d, (i, 1), (j, 3)), _point(d, (i, 3))
        u, v, w = _uvw(a, b, c, e)
        minors = {(p, q): v[p] * u[q] - u[p] * v[q] for p, q in combinations(range(d), 2)}
        assert [pq for pq, x in minors.items() if x] == [(i, j)]
        det, tn, sn = minors[i, j], v[i] * w[j] - v[j] * w[i], u[i] * w[j] - u[j] * w[i]
        assert (tn, sn, det) == (9, 6, 15)
        assert segments_cross((a, b), (c, e)).kind is CrossKind.POINT_CROSS
        pairs.append((a, b, c, e))
        for k in sorted(set(range(d)) - {i, j}):
            skew = (a, b, _point(d, (i, 1), (j, 3), (k, 1)), _point(d, (i, 3), (k, 1)))
            u, v, w = _uvw(*skew)
            assert [q for q in range(d) if tn * u[q] - sn * v[q] != det * w[q]] == [k]
            assert not segments_cross(skew[:2], skew[2:]).is_crossing
            pairs.append(skew)
    assert len(pairs) == d * (d - 1) // 2 * (d - 1)
    assert _kernel_agrees_with_geom(pairs) == []
    assert _kernel_agrees_with_geom(pairs, offset=2 ** 64, dtype=object) == []
    assert _tiles_agree_with_geom(pairs) == []


@pytest.mark.parametrize("spread, box, kernel", [
    (127, np.uint8, np.int32), (128, np.uint16, np.int32), (32767, np.uint16, np.int64),
    (32768, np.uint32, np.int64), (2 * C, np.uint32, np.int64), (2 * C + 1, np.uint32, object),
    (2 ** 63 - 1, np.uint64, object), (2 ** 63, object, object),
])
def test_box_arrays_take_the_smallest_type_that_holds_the_spread(monkeypatch, spread, box, kernel):
    # The edges' endpoints span x in {1, 2} and y and z in 1..4. Scaling x by
    # the spread and y and z by spread // 3 keeps every crossing and sets the
    # spread to exactly `spread`, on x. The edges in the plane x = 2 * spread
    # are flat on x, with the doubled box [2 * spread, 2 * spread] there once
    # the kernel moves the origin: the largest value the box type must hold.
    # Six pairs of them cross, so their boxes must meet at that value.
    base = random_proper_graph((2, 4, 4), m=30, seed=1)
    f = spread // 3
    g = make_grid_graph(3, [(spread * x, f * y, f * z) for x, y, z in base.vertices], base.edges)
    ends = [g.vertices[v] for e in g.edges for v in e]
    assert max(max(col) - min(col) for col in zip(*ends)) == spread
    top = [seg for seg in g.segments() if seg[0][0] == seg[1][0] == 2 * spread]
    assert len(top) == 9 and sum(segments_cross(*pair).is_crossing for pair in combinations(top, 2)) == 6
    corners = _kernels._boxes
    dtypes = []

    def spy(A, B):
        lo, hi = corners(A, B)
        dtypes.append((lo.dtype, hi.dtype, int(hi.max())))
        return lo, hi

    monkeypatch.setattr(_kernels, "_boxes", spy)
    rep = count_crossings_pruned(g)
    ref = count_crossings_naive(g)
    assert dtypes == [(np.dtype(box), np.dtype(box), 2 * spread)] and rep.dtype == np.dtype(kernel).name
    assert ref.total == count_crossings_naive(base).total > 0
    assert (rep.total, rep.per_edge) == (ref.total, ref.per_edge)


def _open_projections_meet(p, q, r, s, k):
    # do the open segments p -> q and r -> s have a common value on axis k?
    # A moving segment projects to an open interval, a flat one to a point
    (l1, h1), (l2, h2) = sorted((p[k], q[k])), sorted((r[k], s[k]))
    if l1 == h1 and l2 == h2:
        return l1 == l2
    if l1 == h1:
        return l2 < l1 < h2
    if l2 == h2:
        return l1 < l2 < h1
    return max(l1, l2) < min(h1, h2)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(data=st.data())
def test_open_boxes_meet_iff_the_open_projections_meet(data):
    # pairs drawn from two to four points of [0, 3]^d: flat axes, shared
    # endpoints, collinear pairs and touching boxes are all common here
    dim = data.draw(st.integers(1, 4))
    pool = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * dim), min_size=2, max_size=4, unique=True))
    p, q, r, s = (data.draw(st.sampled_from(pool)) for _ in range(4))
    assume(p != q and r != s)
    meet = all(_open_projections_meet(p, q, r, s, k) for k in range(dim))
    for dtype in (np.int16, object):
        lo, hi = _kernels._boxes(np.array([p, r], dtype=dtype), np.array([q, s], dtype=dtype))
        lo, hi = lo.tolist(), hi.tolist()
        assert all(lo[k][0] <= hi[k][1] and lo[k][1] <= hi[k][0] for k in range(dim)) == meet
    if segments_cross((p, q), (r, s)).is_crossing:
        assert meet


def _crossing_pairs_agree_with_geom(V, E):
    # the pairs that crossing_pairs yields against segments_cross on every pair
    got = sorted((int(i), int(j)) for si, sj in _kernels.crossing_pairs(V, E) for i, j in zip(si, sj))
    segs = [(V[a], V[b]) for a, b in E]
    want = [(i, j) for i, j in combinations(range(len(E)), 2) if segments_cross(segs[i], segs[j]).is_crossing]
    assert got == want
    return len(got)


def test_open_boxes_keep_flat_and_collinear_crossings_and_drop_a_star(monkeypatch):
    crossing_rows = _kernels._crossing_rows
    rows = []

    def spy(At, Ut, rr, si, sj):
        rows.append(si.size)
        return crossing_rows(At, Ut, rr, si, sj)

    monkeypatch.setattr(_kernels, "_crossing_rows", spy)
    # two diagonals crossing inside the plane z = 0, flat on z
    assert _crossing_pairs_agree_with_geom([(0, 0, 0), (2, 2, 0), (0, 2, 0), (2, 0, 0)], [(0, 1), (2, 3)]) == 1
    # a segment flat on y and z crossing one that moves on y and z at (1, 1, 1)
    assert _crossing_pairs_agree_with_geom([(0, 1, 1), (2, 1, 1), (1, 0, 0), (1, 2, 2)], [(0, 1), (2, 3)]) == 1
    # the 26 unit edges from (1, 1, 1): any two differ on some axis, where
    # their doubled boxes are two of [1, 1], [2, 2] and [3, 3], so no pair
    # reaches the exact test
    rows.clear()
    star = [(1, 1, 1)] + [o for o in product(range(3), repeat=3) if o != (1, 1, 1)]
    assert _crossing_pairs_agree_with_geom(star, [(0, k) for k in range(1, 27)]) == 0
    assert sum(rows) == 0
    # a -> b and a -> c with c beyond b overlap on (a, b); the input is
    # improper, so it goes straight to the kernel
    V, E = [(0, 0, 0), (1, 1, 1), (2, 2, 2)], [(0, 1), (0, 2)]
    assert segments_cross(V[:2], V[::2]).kind is CrossKind.COLLINEAR_OVERLAP
    assert _crossing_pairs_agree_with_geom(V, E) == 1
    assert _kernels.count_pairs(V, E)[0] == 1


@pytest.mark.parametrize("build, rows, total", [
    pytest.param(lambda: layered_complete_bipartite(6, 3), 42494, 27622, id="layered-k6-d3"),
    pytest.param(lambda: layered_complete_bipartite(3, 4), 10897, 4533, id="layered-k3-d4"),
    pytest.param(lambda: tile_bipartite(4, 8, 3), 10320, 6960, id="tiled-k4-s8-d3"),
])
def test_rows_that_reach_the_exact_test_on_the_benchmark_drawings(monkeypatch, build, rows, total):
    # the pairs left by the open boxes and the coplanarity product
    crossing_rows = _kernels._crossing_rows
    seen = []

    def spy(At, Ut, rr, si, sj):
        crossed = crossing_rows(At, Ut, rr, si, sj)
        seen.append((si.size, int(crossed.sum())))
        return crossed

    monkeypatch.setattr(_kernels, "_crossing_rows", spy)
    g = build()
    got, _, _ = _kernels.count_pairs(g.vertices, g.edges)
    assert got == total
    assert (sum(n for n, _ in seen), sum(c for _, c in seen)) == (rows, total)


def test_crossing_pair_with_int64_overflowing_determinant_terms_is_counted():
    # two long diagonals of [-C, C]^3 crossing at the origin, almost
    # antiparallel: the three positive Sarrus monomials of det[u, v, w] sum
    # below -2^63, so an int64 evaluation that adds them first wraps around
    a, b = (-C, -C, -C), (C, C, C)
    c, d = (C, C - 2, C), (-C, -(C - 2), -C)
    u, v, w = _uvw(a, b, c, d)
    assert u[0] * v[1] * w[2] + u[1] * v[2] * w[0] + u[2] * v[0] * w[1] < -2 ** 63
    assert _det3(u, v, w, (0, 1, 2)) == 0
    assert segments_cross((a, b), (c, d)).kind is CrossKind.POINT_CROSS
    assert _kernel_agrees_with_geom([(a, b, c, d)]) == []
    assert count_crossings_pruned(make_grid_graph(3, [a, b, c, d], [(0, 1), (2, 3)])).total == 1


def test_pruned_path_switches_exactly_past_safe_coord(monkeypatch):
    # The kernel moves the edge endpoints to their minimum corner and runs on
    # int64 while their spread is at most 2C, and on int16 at spread 13.
    # Positive diagonal scalings and translations keep every crossing: x
    # spread 4 -> 2C, y spread 13 -> 2C or 2C + 1 = 13 * 123077.
    base = random_proper_graph((5, 14), m=30, seed=5)
    ref = count_crossings_naive(base)
    crossing_rows = _kernels._crossing_rows
    dtypes = []

    def spy(At, Ut, rr, si, sj):
        dtypes.append(At.dtype)
        return crossing_rows(At, Ut, rr, si, sj)

    monkeypatch.setattr(_kernels, "_crossing_rows", spy)
    cases = [((C // 2, 2 * C // 13, 0), 2 * C, np.int64),
             ((C // 2, (2 * C + 1) // 13, 0), 2 * C + 1, object),
             ((1, 1, 10 ** 30), 13, np.int16)]
    for (fx, fy, shift), spread, dtype in cases:
        g = make_grid_graph(2, [(fx * x + shift, fy * y + shift) for x, y in base.vertices],
                            base.edges)
        ends = [g.vertices[v] for e in g.edges for v in e]
        assert max(max(col) - min(col) for col in zip(*ends)) == spread
        dtypes.clear()
        rep = count_crossings_pruned(g)
        assert dtypes and set(dtypes) == {np.dtype(dtype)}
        assert rep.dtype == np.dtype(dtype).name and ref.dtype is None
        assert (rep.total, rep.per_edge) == (ref.total, ref.per_edge)


# The kernel runs in the narrowest signed type whose modulus exceeds
# 2 * spread^3, the largest |det[b - a, d - c, c - a]| in [0, spread]^3.
WIDTHS = [("int16", 1, 31), ("int32", 32, 1290), ("int64", 1291, 2 * C), ("object", 2 * C + 1, None)]


@pytest.mark.parametrize("S, dtype", [(31, np.int16), (32, np.int32), (1290, np.int32), (1291, np.int64)])
def test_kernel_width_switches_where_the_regular_tetrahedron_wraps(monkeypatch, S, dtype):
    # Opposite edges of the regular tetrahedron a, b, c, d in [0, S]^3 are
    # skew with |det| = 2 S^3, the largest in the box: 2^16 at S = 32, which
    # an int16 tile product reads as 0, and 2^32 + 8403046 at S = 1291, past
    # int32's modulus. Its other edge pairs share a vertex, so they pass the
    # tile filter and reach the exact test. The other diagonal of the face
    # z = 0 crosses a -> b.
    a, b, c, d = (0, 0, 0), (S, S, 0), (S, 0, S), (0, S, S)
    u, v, w = _uvw(a, b, c, d)
    assert abs(_det3(u, v, w, (0, 1, 2))) == 2 * S ** 3
    g = make_grid_graph(3, [a, b, c, d, (S, 0, 0), (0, S, 0)],
                        [*combinations(range(4), 2), (4, 5)])
    crossing_rows = _kernels._crossing_rows
    dtypes = set()

    def spy(At, Ut, rr, si, sj):
        dtypes.add(At.dtype)
        return crossing_rows(At, Ut, rr, si, sj)

    monkeypatch.setattr(_kernels, "_crossing_rows", spy)
    ref = count_crossings_naive(g)
    rep = count_crossings_pruned(g)
    assert ref.total == 1 and (rep.total, rep.per_edge) == (ref.total, ref.per_edge)
    assert rep.dtype == np.dtype(dtype).name and dtypes == {np.dtype(dtype)}
    dtypes.clear()
    got = {(int(i), int(j)) for si, sj in _kernels.crossing_pairs(g.vertices, g.edges)
           for i, j in zip(si, sj)}
    assert got == {(g.edges.index((0, 1)), g.edges.index((4, 5)))}
    assert dtypes == {np.dtype(dtype)}


@settings(max_examples=30, deadline=None, derandomize=True)
@given(data=st.data())
def test_pruned_matches_naive_at_both_ends_of_every_width(data):
    # a proper graph scaled so that its spread s lands on the lowest and the
    # highest spread of each kernel width, then translated
    g = data.draw(_proper_graphs())
    assume(len(g.edges) >= 2)  # the kernel builds no arrays for fewer edges
    ends = [g.vertices[v] for e in g.edges for v in e]
    s = max(max(col) - min(col) for col in zip(*ends))
    shift = data.draw(st.lists(st.integers(-2 ** 70, 2 ** 70), min_size=g.dim, max_size=g.dim))
    ref = count_crossings_naive(g)
    for name, low, high in WIDTHS:
        for f in {-(-low // s), (high or 2 * low) // s}:
            h = make_grid_graph(g.dim, [tuple(f * x + t for x, t in zip(v, shift)) for v in g.vertices],
                                g.edges)
            rep = count_crossings_pruned(h)
            assert rep.dtype == name, (f * s, rep.dtype)
            assert (rep.total, rep.per_edge) == (ref.total, ref.per_edge)


def test_report_invariant_sum_per_edge():
    rng = random.Random(43)
    for trial in range(20):
        g = random_proper_graph((5, 5), m=rng.randint(2, 20), seed=trial)
        for rep in (count_crossings_naive(g), count_crossings_pruned(g)):
            assert sum(rep.per_edge) == 2 * rep.total


@st.composite
def _proper_graphs(draw):
    # 4 to 12 points of a small box and up to 30 edges among them; edges
    # through a vertex are dropped, so non-primitive edges that stay can
    # still overlap collinearly
    dim = draw(st.integers(2, 5))
    n = draw(st.integers(4, 12))
    side = 4 if dim == 2 else 3
    pts = draw(st.lists(st.tuples(*[st.integers(0, side - 1)] * dim), min_size=n, max_size=n,
                        unique=True))
    pairs = draw(st.permutations(list(combinations(range(n), 2))))
    g = make_grid_graph(dim, pts, pairs[:draw(st.integers(1, 30))])
    bad = {e for e, _ in validate_proper(g)}
    return make_grid_graph(dim, pts, [e for e in g.edges if e not in bad])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_pruned_matches_naive_under_lattice_symmetries(data):
    # translations, an axis permutation (it changes which 2x2 pivot and
    # which axis of the meet check decide), reflections and scalings keep
    # every crossing and every edge index. The kernel undoes a translation,
    # so only the scaling by 2C + 1 moves the spread out of int64, onto
    # Python ints.
    g = data.draw(_proper_graphs())
    dim = g.dim
    perm = data.draw(st.permutations(range(dim)))
    signs = data.draw(st.lists(st.sampled_from((1, -1)), min_size=dim, max_size=dim))
    shift = data.draw(st.lists(st.integers(-(C - 3), C - 3), min_size=dim, max_size=dim))
    far = data.draw(st.lists(st.integers(-2 ** 80, 2 ** 80), min_size=dim, max_size=dim))

    def moved(scale, offset):
        return make_grid_graph(dim, [tuple(scale * signs[a] * v[perm[a]] + offset[a]
                                           for a in range(dim)) for v in g.vertices], g.edges)

    ref = count_crossings_naive(g)
    for h in (g, moved(1, shift), moved(2 * C + 1, far)):
        rep = count_crossings_pruned(h)
        assert (rep.total, rep.per_edge) == (ref.total, ref.per_edge)


def _unimodular_image(g, rng):
    """g under a product of 4 random integer shears x_i += c * x_j (i != j)
    and a translation: an affine bijection of the lattice, so it keeps every
    crossing, every vertex on an edge and every edge index."""
    dim = g.dim
    pts = [list(v) for v in g.vertices]
    for _ in range(4):
        i, j = rng.sample(range(dim), 2)
        c = rng.choice((-2, -1, 1, 2))
        for v in pts:
            v[i] += c * v[j]
    shift = [rng.randint(-50, 50) for _ in range(dim)]
    return make_grid_graph(dim, [tuple(x + s for x, s in zip(v, shift)) for v in pts], g.edges)


def test_crossings_invariant_under_unimodular_maps():
    """Pruned total and per-edge counts of random graphs on 2-d to 4-d grids
    are those of their sheared images, and the naive counter agrees there."""
    rng = random.Random(97)
    crossings = 0
    for trial in range(40):
        sides = ((4, 4), (3, 4), (3, 3, 2), (2, 3, 2), (2, 2, 2, 2))[trial % 5]
        g = random_proper_graph(sides, rng.randint(8, 16), seed=trial)
        ref = count_crossings_pruned(g)
        h = _unimodular_image(g, rng)
        assert max(abs(x) for v in h.vertices for x in v) > 4
        for rep in (count_crossings_pruned(h), count_crossings_naive(h)):
            assert (rep.total, rep.per_edge) == (ref.total, ref.per_edge), (sides, trial)
        crossings += ref.total
    assert crossings >= 100
