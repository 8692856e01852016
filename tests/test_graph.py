import random
from collections import Counter
from itertools import product

import numpy as np
import pytest

from gridcross.errors import ValidationError
from gridcross.geom import interior_lattice_points, point_on_open_segment
from gridcross.graph import (
    compute_volume,
    make_grid_graph,
    parse_graph,
    reduce_edges,
    serialize_graph,
    validate_proper,
)


def test_validate_proper_flags_vertex_on_edge():
    g = make_grid_graph(2, [(1, 1), (2, 2), (3, 3)], [(0, 2)])
    assert validate_proper(g) == [((0, 2), 1)]


def _validate_proper_all_vertices(g):
    # reference: every edge, primitive or not, against every vertex
    return [(e, idx) for e in g.edges for idx, x in enumerate(g.vertices)
            if idx not in e and point_on_open_segment(x, g.segment(e))]


def test_validate_proper_matches_all_vertex_scan():
    # dense point sets in small boxes: many edges are non-primitive and carry
    # several vertices, and the violation lists must agree in order too
    rng = random.Random(17)
    crowded = 0
    for trial in range(40):
        dim = 1 + trial % 4
        side = (9, 6, 4, 3)[dim - 1]
        grid = list(product(range(side), repeat=dim))
        pts = rng.sample(grid, 2 * len(grid) // 3)
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        g = make_grid_graph(dim, pts, rng.sample(pairs, min(len(pairs), 40)))
        want = _validate_proper_all_vertices(g)
        assert validate_proper(g) == want
        crowded += sum(n >= 2 for n in Counter(e for e, _ in want).values())
    assert crowded >= 80


def test_validate_proper_empty_edge_set():
    g = make_grid_graph(2, [(1, 1), (2, 2), (3, 3)], [])
    assert validate_proper(g) == []


def test_compute_volume_examples():
    g = make_grid_graph(3, [(1, 1, 1), (3, 2, 1)], [])
    assert compute_volume(g) == 6
    assert compute_volume(make_grid_graph(2, [(5, 7)], [])) == 1


def test_compute_volume_translation_invariant():
    rng = random.Random(3)
    for _ in range(50):
        dim = rng.choice([2, 3, 4])
        pts = {tuple(rng.randint(0, 6) for _ in range(dim)) for _ in range(rng.randint(1, 8))}
        g = make_grid_graph(dim, sorted(pts), [])
        shift = tuple(rng.randint(-20, 20) for _ in range(dim))
        moved = [tuple(x + s for x, s in zip(v, shift)) for v in sorted(pts)]
        assert compute_volume(g) == compute_volume(make_grid_graph(dim, moved, []))


def test_compute_volume_empty_errors():
    with pytest.raises(ValidationError):
        compute_volume(make_grid_graph(2, [], []))


def test_make_grid_graph_rejects_bad_input():
    with pytest.raises(ValidationError, match="duplicate vertex"):
        make_grid_graph(2, [(1, 1), (1, 1)], [])
    with pytest.raises(ValidationError, match="self-loop"):
        make_grid_graph(2, [(1, 1), (2, 2)], [(0, 0)])
    with pytest.raises(ValidationError, match="duplicate edge"):
        make_grid_graph(2, [(1, 1), (2, 2)], [(0, 1), (1, 0)])
    with pytest.raises(ValidationError, match="outside"):
        make_grid_graph(2, [(1, 1), (2, 2)], [(0, 5)])
    with pytest.raises(ValidationError, match="coordinates"):
        make_grid_graph(3, [(1, 1)], [])


@pytest.mark.parametrize("dim, vertices, edges, message", [
    (True, [(1,), (3,)], [], "dimension"),
    (2.0, [(1, 1)], [], "dimension"),
    (1, [(1,), (3,)], [(False, True)], "non-integer endpoints"),
    (1, [(1,), (3,)], [(0, 1.0)], "non-integer endpoints"),
    (2, [(1, True)], [], "non-integer coordinate"),
], ids=["bool-dim", "float-dim", "bool-endpoints", "float-endpoint", "bool-coordinate"])
def test_make_grid_graph_refuses_non_integers(dim, vertices, edges, message):
    """A bool is not an integer here: it is refused as a dimension, an edge
    endpoint and a coordinate, as a float is."""
    with pytest.raises(ValidationError, match=message):
        make_grid_graph(dim, vertices, edges)


def test_parse_refuses_bool_dimension_and_endpoints():
    with pytest.raises(ValidationError, match="dimension"):
        parse_graph('{"dim":true,"vertices":[[1],[3]],"edges":[[false,true]]}')
    with pytest.raises(ValidationError, match="non-integer endpoints"):
        parse_graph('{"dim":1,"vertices":[[1],[3]],"edges":[[false,true]]}')


@pytest.mark.parametrize("text, message", [
    ('{"dim":1,"vertices":[1],"edges":[]}', "vertex 0 is not a coordinate list"),
    ('{"dim":1,"vertices":5,"edges":[]}', "vertices must be a list"),
    ('{"dim":1,"vertices":[[1]],"edges":3}', "edges must be a list"),
    ('{"dim":1,"vertices":[[1]],"edges":null}', "edges must be a list"),
], ids=["vertex", "vertices", "edges", "null-edges"])
def test_parse_refuses_values_that_are_not_lists(text, message):
    """A vertex, the vertex list or the edge list that is not iterable is a
    ValidationError naming where it is, not a raw TypeError."""
    with pytest.raises(ValidationError, match=message):
        parse_graph(text)


def test_make_grid_graph_takes_numpy_dimension_and_endpoints_as_ints():
    g = make_grid_graph(np.int64(2), [(1, 2), (3, 4)], [(np.int64(1), np.int8(0))])
    assert g == make_grid_graph(2, [(1, 2), (3, 4)], [(0, 1)])
    assert all(type(x) is int for x in (g.dim, *g.edges[0]))


def test_edges_canonicalized():
    g = make_grid_graph(2, [(1, 1), (2, 2), (3, 1)], [(2, 0), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))


def test_parse_examples():
    g = parse_graph('{"dim":2,"vertices":[[1,1],[2,2]],"edges":[[0,1]]}')
    assert g.dim == 2
    assert g.vertices == ((1, 1), (2, 2))
    assert g.edges == ((0, 1),)


def test_parse_error_reports_location():
    with pytest.raises(ValidationError, match="duplicate vertex"):
        parse_graph('{"dim":2,"vertices":[[1,1],[1,1]],"edges":[]}')
    with pytest.raises(ValidationError, match="malformed JSON"):
        parse_graph("{nope")
    with pytest.raises(ValidationError, match="missing required key"):
        parse_graph('{"dim":2,"vertices":[]}')


def test_serialize_parse_round_trip_random():
    rng = random.Random(5)
    for _ in range(60):
        dim = rng.choice([1, 2, 3, 4])
        pts = sorted({tuple(rng.randint(-5, 5) for _ in range(dim)) for _ in range(rng.randint(1, 10))})
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        rng.shuffle(pairs)
        g = make_grid_graph(dim, pts, pairs[: rng.randint(0, len(pairs))])
        assert parse_graph(serialize_graph(g)) == g


def test_serialize_is_canonical():
    text = '{"dim":2,"vertices":[[1,1],[2,2],[3,1]],"edges":[[2,0],[1,0]]}'
    assert serialize_graph(parse_graph(text)) == '{"dim":2,"vertices":[[1,1],[2,2],[3,1]],"edges":[[0,1],[0,2]]}'


def test_reduce_edges_produces_primitive_edges():
    g = make_grid_graph(2, [(0, 0), (4, 6)], [(0, 1)])
    r = reduce_edges(g)
    assert (2, 3) in r.vertices
    assert all(not interior_lattice_points(r.segment(e)) for e in r.edges)
    # reduced edges never pass through any vertex
    assert validate_proper(r) == []


def test_reduce_edges_merges_collapsing_edges():
    # two edges with the same anchor and collinear directions collapse together
    g = make_grid_graph(1, [(0,), (2,), (4,)], [(0, 1), (0, 2)])
    r = reduce_edges(g)
    assert len(r.edges) == 1
