"""Generators for extremal drawings on flat grids and the crossing-free
assembly procedures built on top of them.

The central fixture is the two-layer drawing of a complete bipartite graph:
all points of the k x ... x k x 2 box, with every bottom-layer point joined
to every top-layer point. Edges differ by exactly 1 in the last coordinate,
so they are primitive and the drawing is proper by construction.

Every size, count and seed argument, and every layer key of
stack_layer_graphs, must pass errors.is_integer: a bool, float or string is
refused with ValidationError, and numpy integers are taken as ints.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from fractions import Fraction
from itertools import product

from .counting import count_crossings_naive
from .enumeration import candidate_blocks, grid_points
from .errors import ValidationError, as_integer
from .graph import GridGraph, make_grid_graph


def layer_grid_vertices(k: int, d: int):
    """Points of the k x ... x k x 2 box: bottom layer first, lexicographic."""
    return [xs + (z,) for z in (1, 2) for xs in product(range(1, k + 1), repeat=d - 1)]


def layered_complete_bipartite(k: int, d: int) -> GridGraph:
    """Complete bipartite drawing between the two layers of the k^(d-1) x 2 box.

    2*k^(d-1) vertices and k^(2(d-1)) edges.
    """
    k, d = as_integer(k, "k"), as_integer(d, "d")
    if k < 1 or d < 2:
        raise ValidationError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    return _block_drawing(k, k, d)


def tile_bipartite(k: int, side: int, d: int) -> GridGraph:
    """Disjoint copies of the k-block bipartite drawing tiling a side^(d-1) x 2 box.

    The box is split into (side/k)^(d-1) blocks of shape k x ... x k x 2;
    each carries its own complete bipartite drawing and no edges leave a
    block, so crossings are the per-block count times the number of blocks.
    """
    k, side, d = as_integer(k, "k"), as_integer(side, "side"), as_integer(d, "d")
    if d < 3:
        raise ValidationError(f"tiling needs d >= 3, got {d}")
    if k < 1 or side < 1:
        raise ValidationError(f"need k >= 1 and side >= 1, got k={k}, side={side}")
    if side % k != 0:
        raise ValidationError(f"block side {k} does not divide {side}")
    return _block_drawing(k, side, d)


def _block_drawing(k: int, side: int, d: int) -> GridGraph:
    # the side^(d-1) x 2 box cut into k-blocks (k divides side), each with
    # its own complete bipartite drawing between its two layers
    verts = layer_grid_vertices(side, d)
    index = {v: i for i, v in enumerate(verts)}
    locals_ = list(product(range(1, k + 1), repeat=d - 1))
    edges = []
    for off in product(range(side // k), repeat=d - 1):
        shifted = [tuple(o * k + x for o, x in zip(off, xs)) for xs in locals_]
        edges.extend((index[u + (1,)], index[w + (2,)]) for u in shifted for w in shifted)
    return make_grid_graph(d, verts, edges)


def analytic_skip_bound(k: int, d: int) -> Fraction:
    """Closed-form per-edge crossing budget for the layered bipartite drawing.

    Planes through a fixed edge are grouped by how far their defining lattice
    direction steps within a layer (r = 1..k, Chebyshev); a plane at step r
    holds at most (k/r)^2 crossing edges, and there are at most 4r such
    planes in dimension 3 and (d-1)(2r+1)^(d-2) in dimension d >= 4. The
    exact finite sum of those products is returned.
    """
    k, d = as_integer(k, "k"), as_integer(d, "d")
    if k < 1 or d < 3:
        raise ValidationError(f"need k >= 1 and d >= 3, got k={k}, d={d}")
    total = Fraction(0)
    for r in range(1, k + 1):
        if d == 3:
            planes = 4 * r
        else:
            planes = (d - 1) * (2 * r + 1) ** (d - 2)
        total += planes * Fraction(k, r) ** 2
    return total


def random_proper_graph(sides, m: int, seed: int) -> GridGraph:
    """Uniform m-edge graph on the full grid given by `sides`, proper by filtering.

    Vertices are all grid points; candidate edges are the pairs whose open
    segment avoids every grid point. On a full grid that is the same as the
    coordinate differences being coprime, so candidates are always primitive.
    Deterministic: the seed picks m indices into the lexicographic candidates.
    The candidate blocks are counted first and made again to look the picks
    up, so memory holds at most one block besides the one being made, never
    the whole table; a grid of one block is made once.
    """
    m, seed = as_integer(m, "m"), as_integer(seed, "seed")
    if m < 0:
        raise ValidationError(f"need m >= 0 edges, got {m}")
    verts = grid_points(sides)
    total = blocks = 0
    for block in candidate_blocks(verts):
        total += len(block[0])
        blocks += 1
    if m > total:
        raise ValidationError(
            f"requested {m} edges but only {total} proper candidates exist")
    # make_grid_graph sorts the edges, so the picks are looked up in order
    picks = sorted(random.Random(seed).sample(range(total), m))
    chosen, start = [], 0
    for I, J in [block] if blocks == 1 else candidate_blocks(verts):
        lo, hi = bisect_left(picks, start), bisect_left(picks, start + len(I))
        chosen += [(int(I[t - start]), int(J[t - start])) for t in picks[lo:hi]]
        start += len(I)
    return make_grid_graph(len(sides), verts, chosen)


def _unit_intra_layer_edges(verts, index, d):
    edges = []
    for v in verts:
        for ax in range(d - 1):
            w = v[:ax] + (v[ax] + 1,) + v[ax + 1:]
            if w in index:
                edges.append((index[v], index[w]))
    return edges


def augment_matching_to_spanning_tree(matching: GridGraph, k: int, d: int) -> GridGraph:
    """Grow a crossing-free inter-layer matching into a crossing-free spanning tree.

    Adds every unit-length axis-parallel edge inside each layer (these cannot
    cross anything already present), then breaks every cycle by leaving out
    its lowest-index unit edge. If the matching is empty, one unit edge
    between the layers is added so the two layers can be connected at all.
    The result spans the k x ... x k x 2 box, contains the matching, and is
    crossing-free.
    """
    k, d = as_integer(k, "k"), as_integer(d, "d")
    expected = layer_grid_vertices(k, d)
    if set(matching.vertices) != set(expected) or matching.dim != d:
        raise ValidationError("matching must live on the full two-layer box")
    deg = {}
    for i, j in matching.edges:
        u, w = matching.vertices[i], matching.vertices[j]
        if u[-1] == w[-1]:
            raise ValidationError(f"matching edge {u}->{w} does not join the two layers")
        for x in (u, w):
            deg[x] = deg.get(x, 0) + 1
            if deg[x] > 1:
                raise ValidationError(f"not a matching: vertex {x} is covered twice")
    if count_crossings_naive(matching).total != 0:
        raise ValidationError("matching has crossings")

    verts = expected
    index = {v: i for i, v in enumerate(verts)}
    edges = [(index[matching.vertices[i]], index[matching.vertices[j]]) for i, j in matching.edges]
    if not edges:
        bottom = verts[0]
        edges.append((index[bottom], index[bottom[:-1] + (2,)]))
    # Kruskal: the matching (a forest) first, then the unit edges from the
    # highest index down, so the lowest-index unit edge of every cycle is the
    # one left out.
    units = sorted(_unit_intra_layer_edges(verts, index, d), reverse=True)
    root = list(range(len(verts)))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    tree = []
    for i, j in edges + units:
        ri, rj = find(i), find(j)
        if ri != rj:
            root[ri] = rj
            tree.append((i, j))
    return make_grid_graph(d, verts, tree)


def stack_layer_graphs(per_pair, k: int, d: int) -> GridGraph:
    """Union of two-layer graphs placed between consecutive layers of the k-cube.

    per_pair maps a layer index i (1..k-1) to a graph on the k x ... x k x 2
    box whose edges all join its layer 1 to its layer 2; the graph is shifted
    so those layers land on layers i and i+1 of the full k x ... x k grid.
    Layer pair 1 keeps its coordinates unchanged. Consecutive pairs meet only
    in a shared hyperplane of vertices, which open segments avoid, so the
    union of crossing-free inputs is crossing-free.
    """
    k, d = as_integer(k, "k"), as_integer(d, "d")
    if k < 1 or d < 2:
        raise ValidationError(f"need k >= 1 and d >= 2, got k={k}, d={d}")
    verts = grid_points((k,) * d)
    index = {v: i for i, v in enumerate(verts)}
    edges = []
    per_pair = {as_integer(layer, "layer pair"): g for layer, g in per_pair.items()}
    for layer in sorted(per_pair):
        g = per_pair[layer]
        if not (1 <= layer <= k - 1):
            raise ValidationError(f"layer pair {layer} outside 1..{k - 1}")
        if g.dim != d:
            raise ValidationError(f"graph for pair {layer} has dimension {g.dim}, expected {d}")
        for i, j in g.edges:
            u, w = g.vertices[i], g.vertices[j]
            if {u[-1], w[-1]} != {1, 2}:
                raise ValidationError(f"edge {u}->{w} of pair {layer} is not inter-layer")
            if u[-1] == 2:
                u, w = w, u
            su = u[:-1] + (layer,)
            sw = w[:-1] + (layer + 1,)
            if su not in index or sw not in index:
                raise ValidationError(f"edge {u}->{w} of pair {layer} leaves the grid")
            a, b = index[su], index[sw]
            edges.append((a, b) if a < b else (b, a))
    return make_grid_graph(d, verts, edges)
