"""Grid graph data model: construction, properness, volume, JSON round trip.

A grid graph is an immutable value: a dimension, a tuple of distinct lattice
points, and a tuple of undirected edges given as (i, j) vertex-index pairs
with i < j, sorted. Isolated vertices are allowed and preserved (they still
constrain properness).
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from math import gcd

from .errors import ImproperGraphError, ValidationError, is_integer
from .geom import gcd_reduce, point_on_open_segment


@dataclass(frozen=True)
class GridGraph:
    dim: int
    vertices: tuple
    edges: tuple

    def segment(self, edge):
        i, j = edge
        return (self.vertices[i], self.vertices[j])

    def segments(self):
        return [(self.vertices[i], self.vertices[j]) for i, j in self.edges]


def make_grid_graph(dim, vertices, edges) -> GridGraph:
    """Validate and canonicalize into a GridGraph.

    Edges are normalized to (min, max) and sorted; duplicates, self-loops,
    bad indices, duplicate vertices and a vertex or list that is not iterable
    are rejected with their location.
    The dimension and the edge endpoints must pass errors.is_integer and the
    coordinates must be ints; a bool is refused in each place.
    """
    if not is_integer(dim) or dim < 1:
        raise ValidationError(f"dimension must be a positive integer, got {dim!r}")
    dim = operator.index(dim)
    vts = []
    seen = {}
    for idx, v in enumerate(_iterable(vertices, "vertices")):
        try:
            tv = tuple(v)
        except TypeError:
            raise ValidationError(f"vertex {idx} is not a coordinate list: {v!r}") from None
        if len(tv) != dim:
            raise ValidationError(f"vertex {idx} has {len(tv)} coordinates, expected {dim}")
        for x in tv:
            if not isinstance(x, int) or isinstance(x, bool):
                raise ValidationError(f"vertex {idx} has non-integer coordinate {x!r}")
        if tv in seen:
            raise ValidationError(f"duplicate vertex {list(tv)} at indices {seen[tv]} and {idx}")
        seen[tv] = idx
        vts.append(tv)
    n = len(vts)
    canon = []
    eseen = {}
    for pos, e in enumerate(_iterable(edges, "edges")):
        try:
            i, j = e
        except (TypeError, ValueError):
            raise ValidationError(f"edge {pos} is not an index pair: {e!r}") from None
        if type(i) is not int or type(j) is not int:  # plain ints skip the slow check
            if not (is_integer(i) and is_integer(j)):
                raise ValidationError(f"edge {pos} has non-integer endpoints: {e!r}")
            i, j = operator.index(i), operator.index(j)
        if i == j:
            raise ValidationError(f"edge {pos} is a self-loop on vertex {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise ValidationError(f"edge {pos} references vertex outside 0..{n - 1}: {e!r}")
        pair = (i, j) if i < j else (j, i)
        if pair in eseen:
            raise ValidationError(f"duplicate edge {list(pair)} at positions {eseen[pair]} and {pos}")
        eseen[pair] = pos
        canon.append(pair)
    canon.sort()
    return GridGraph(dim, tuple(vts), tuple(canon))


def _iterable(value, name):
    try:
        return iter(value)
    except TypeError:
        raise ValidationError(f"{name} must be a list, got {value!r}") from None


def validate_proper(g: GridGraph):
    """All (edge, vertex_index) pairs where the vertex lies on the open edge.

    Empty result means no edge passes through a vertex. An edge whose
    coordinate differences have gcd 1 has no lattice point strictly inside,
    so only the other edges are scanned against the vertices.
    """
    violations = []
    for edge in g.edges:
        a, b = seg = g.segment(edge)
        if gcd(*map(operator.sub, b, a)) == 1:
            continue
        for idx, x in enumerate(g.vertices):
            if idx in edge:
                continue
            if point_on_open_segment(x, seg):
                violations.append((edge, idx))
    return violations


def require_proper(g: GridGraph) -> None:
    """Raise ImproperGraphError listing every violation of validate_proper."""
    violations = validate_proper(g)
    if violations:
        raise ImproperGraphError(violations)


def compute_volume(g: GridGraph) -> int:
    """Number of lattice points in the minimal axis-aligned box around the vertices."""
    if not g.vertices:
        raise ValidationError("volume is undefined for an empty vertex set")
    vol = 1
    for i in range(g.dim):
        coords = [v[i] for v in g.vertices]
        vol *= max(coords) - min(coords) + 1
    return vol


def reduce_edges(g: GridGraph) -> GridGraph:
    """Shrink every edge to its primitive step from the lower-index endpoint.

    An edge whose coordinate differences have gcd g > 1 is replaced by the
    segment from its anchor to the first interior lattice point. New endpoints
    are appended as vertices; edges that collapse onto each other are merged.
    The result has only primitive edges.
    """
    verts = list(g.vertices)
    index = {v: i for i, v in enumerate(verts)}
    new_edges = set()
    for i, j in g.edges:
        direction, gg = gcd_reduce((verts[i], verts[j]))
        if gg == 1:
            new_edges.add((i, j))
            continue
        target = tuple(a + d for a, d in zip(verts[i], direction))
        if target not in index:
            index[target] = len(verts)
            verts.append(target)
        k = index[target]
        new_edges.add((i, k) if i < k else (k, i))
    return make_grid_graph(g.dim, verts, sorted(new_edges))


def serialize_graph(g: GridGraph) -> str:
    """Canonical compact JSON; parse(serialize(g)) == g."""
    doc = {
        "dim": g.dim,
        "vertices": [list(v) for v in g.vertices],
        "edges": [list(e) for e in g.edges],
    }
    return json.dumps(doc, separators=(",", ":"))


def parse_graph(text: str) -> GridGraph:
    """Parse the JSON wire format, reporting the location of any defect."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValidationError("top-level JSON value must be an object")
    for key in ("dim", "vertices", "edges"):
        if key not in doc:
            raise ValidationError(f"missing required key {key!r}")
    return make_grid_graph(doc["dim"], doc["vertices"], doc["edges"])
