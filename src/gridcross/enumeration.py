"""Desk-scale exact enumeration of crossing-free structures on small grids.

Candidate edges of a grid are the point pairs whose open segment avoids every
grid point (on a full grid: coprime coordinate differences). Two candidates
conflict when their open segments share a point, so crossing-free edge
subsets are exactly the independent sets of the conflict graph, built by the
same pair kernel that counts crossings (_kernels.crossing_pairs) as one int
bitmask of conflicts per candidate. The candidates are the edges of a
GridGraph: the full grid's here, a drawing's own edges in crossing_graph.
Counts are edge-subset counts: a graph is identified with its edge set over
the full grid, so isolated vertices never multiply anything.

The subgraph count and the maximum (MIS) share one memoised search, which
returns the number of independent sets and the largest size together. One
vertex order is fixed before it starts, falling degree in the whole conflict
graph and then index; the search splits the vertex set into connected
components and branches each on its first vertex in that order.
enumeration_record takes a grid's subgraph count and MIS from one such pass.
Matchings have their own search, which needs no component split: it walks
the vertices in index order (lexicographic on a grid) and branches on the
candidates at the first vertex with one left, which a matching meets at
most once. Spanning trees are counted by a frontier DP over the candidate
edges, with state (component partition of the vertices still live, later
edges still usable); a vertex leaves the state once its last candidate is
processed, and a tree is counted once, on the one include/exclude path that
takes exactly its edges.

Everything here is deliberately capped: 141 candidates (the 2x11 grid) for
the conflict graph, 9 vertices for spanning trees. Up to the candidate cap no
count takes more than about 0.3 s (the 2x3x3 matchings) on a 2-core Xeon
with Python 3.11. Caps raise CapExceeded instead of truncating.

numpy is imported on first use, by candidate_blocks and by the conflict-graph
build; the searches and the closed forms never load it.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, floor

from .errors import CapExceeded, ValidationError, as_integer, is_integer
from .graph import GridGraph

CANDIDATE_CAP = 141
TREE_VOLUME_CAP = 9
_BLOCK_DIFFERENCES = 1 << 20  # coordinate differences per candidate_blocks block


@dataclass(frozen=True, eq=False)
class ConflictGraph:
    graph: GridGraph  # candidate i is the edge graph.edges[i]
    conflicts: tuple  # conflicts[i] = int mask of the candidates crossing candidate i

    @property
    def size(self) -> int:
        return len(self.graph.edges)

    @property
    def conflict_count(self) -> int:
        return sum(c.bit_count() for c in self.conflicts) // 2


def grid_points(sides):
    return [pt for pt in product(*(range(1, s + 1) for s in _grid_sides(sides)))]


def _grid_sides(sides):
    """`sides` as a non-empty tuple of positive ints; a bool, float or string
    side is refused, and so is a string or a value that is not a sequence."""
    if isinstance(sides, str) or not hasattr(sides, "__iter__"):
        raise ValidationError(f"grid sides must be integers, got {sides!r}")
    sides = tuple(sides)
    if not sides:
        raise ValidationError("a grid needs at least one side")
    if not all(is_integer(s) for s in sides):
        raise ValidationError(f"grid sides must be integers, got {sides!r}")
    sides = tuple(operator.index(s) for s in sides)
    if any(s < 1 for s in sides):
        raise ValidationError(f"grid sides must be positive, got {sides}")
    return sides


def candidate_blocks(pts):
    """Index arrays (I, J) of the pairs i < j of the full grid `pts` with
    coprime coordinate differences (their open segment avoids every grid
    point), in lexicographic order, one (I, J) per block of rows i. A block
    holds at most about 2^20 differences, so memory stays bounded and a caller
    can stop early. Grid differences are below the largest side: int64 is exact."""
    import numpy as np
    P = np.array(pts, dtype=np.int64)
    n, d = P.shape
    step = max(1, _BLOCK_DIFFERENCES // (n * d))
    for start in range(0, n, step):
        yield _coprime_pairs(P, start, min(n, start + step))


def _coprime_pairs(P, start, stop):
    # one block: the pairs i < j, start <= i < stop, of rows of P with
    # coprime differences; the difference table is freed on return, before
    # the caller asks for the next block
    import numpy as np
    rows, cols = np.arange(start, stop), np.arange(start + 1, len(P))
    g = np.abs(P[cols, 0] - P[rows, 0, None])
    for k in range(1, P.shape[1]):
        np.gcd(g, P[cols, k] - P[rows, k, None], out=g)
    I, J = np.nonzero((g == 1) & (cols > rows[:, None]))
    I += start
    J += start + 1
    return I, J


def build_conflict_graph(sides, cap: int = CANDIDATE_CAP) -> ConflictGraph:
    """Candidate edges of the full grid and their pairwise crossing relation.

    Raises ValidationError unless `cap` is an integer >= 0 (a bool, float or
    string is refused) and CapExceeded when the grid has more than `cap`
    candidate edges, as soon as a block passes it."""
    if as_integer(cap, "cap") < 0:
        raise ValidationError(f"cap must be >= 0, got {cap}")
    pts = grid_points(sides)
    edges = []
    for I, J in candidate_blocks(pts):
        if len(edges) + len(I) > cap:
            raise CapExceeded(f"grid {tuple(sides)} has more than {cap} candidate edges")
        edges += zip(I.tolist(), J.tolist())
    return _conflict_graph(GridGraph(len(pts[0]), tuple(pts), tuple(edges)))


def crossing_graph(g: GridGraph) -> ConflictGraph:
    """The conflict graph of the drawing `g`: its edges are the candidates,
    so the crossing-free subgraphs of g are the independent sets.

    Raises CapExceeded when g has more than CANDIDATE_CAP edges."""
    if len(g.edges) > CANDIDATE_CAP:
        raise CapExceeded(f"{len(g.edges)} edges exceed the cap {CANDIDATE_CAP}")
    return _conflict_graph(g)


def _conflict_graph(g):
    from ._kernels import crossing_pairs
    conflicts = [0] * len(g.edges)
    for si, sj in crossing_pairs(g.vertices, g.edges):
        for i, j in zip(si.tolist(), sj.tolist()):
            conflicts[i] |= 1 << j
            conflicts[j] |= 1 << i
    return ConflictGraph(g, tuple(conflicts))


def _point_masks(g):
    """masks[v] = mask of the edges of `g` at vertex v."""
    masks = [0] * len(g.vertices)
    for e, (a, b) in enumerate(g.edges):
        masks[a] |= 1 << e
        masks[b] |= 1 << e
    return masks


def _components(rest, nbr):
    comps = []
    while rest:
        comp = frontier = rest & -rest
        while frontier:
            v = frontier & -frontier
            frontier &= frontier - 1
            grow = nbr[v.bit_length() - 1] & rest & ~comp
            comp |= grow
            frontier |= grow
        comps.append(comp)
        rest &= ~comp
    return comps


def _independent(nbr):
    """Independent sets of the graph with neighbour masks `nbr`: (their
    number, the size of the largest), from one memo on the vertex set S.
    With the vertices renumbered once by falling degree, then index, each
    connected component branches on its lowest vertex v: f(S) = f(S-v) +
    f(S-v-N(v)) for the number, the larger of f(S-v) and 1 + f(S-v-N(v))
    for the largest. Across components numbers multiply and sizes add."""
    order = sorted(range(len(nbr)), key=lambda v: -nbr[v].bit_count())  # stable: index breaks ties
    new, renumbered = {1 << v: 1 << k for k, v in enumerate(order)}, []
    for v in order:
        m, out = nbr[v], 0
        while m:
            low = m & -m
            m, out = m ^ low, out | new[low]
        renumbered.append(out)
    nbr = renumbered
    memo = {0: (1, 0)}

    def f(mask):
        cached = memo.get(mask)
        if cached is not None:
            return cached
        count, largest = 1, 0
        for comp in _components(mask, nbr):
            got = memo.get(comp)
            if got is None:
                low = comp & -comp
                rest = comp ^ low
                n, big = f(rest)
                sub_n, sub_big = f(rest & ~nbr[low.bit_length() - 1])
                got = memo[comp] = n + sub_n, max(big, sub_big + 1)
            count *= got[0]
            largest += got[1]
        memo[mask] = count, largest
        return count, largest

    return f((1 << len(nbr)) - 1)


def count_independent_sets(adjacency) -> int:
    """Independent sets of a simple undirected graph given as neighbour index
    sets of integers in 0..len(adjacency)-1 (not bools). A self-loop or a
    neighbour listed on one side only is refused; one listed twice counts once."""
    n = len(adjacency)
    if not all(is_integer(j) and 0 <= j < n for a in adjacency for j in a):
        raise ValidationError(f"neighbour indices must be integers in 0..{n - 1}")
    for i, a in enumerate(adjacency):
        if i in a or any(i not in adjacency[j] for j in a):
            raise ValidationError(f"vertex {i} lists itself or a neighbour that does not list it")
    return _independent([sum(1 << operator.index(j) for j in set(a)) for a in adjacency])[0]


def count_crossing_free_subgraphs(grid) -> int:
    """Independent sets of the conflict graph, the empty set included.

    `grid` is either grid sides or a prebuilt ConflictGraph."""
    return _independent(_conflict_graph_of(grid).conflicts)[0]


def count_crossing_free_matchings(grid) -> int:
    """Crossing-free edge subsets that are also vertex-disjoint.

    Independent sets of the conflict graph plus the endpoint-sharing
    relation, counted by _matchings over the vertices in index order. `grid`
    is either grid sides or a prebuilt ConflictGraph.
    """
    cg = _conflict_graph_of(grid)
    at = _point_masks(cg.graph)
    nbr = [c | at[a] | at[b] for c, (a, b) in zip(cg.conflicts, cg.graph.edges)]
    return _matchings(nbr, at)


def _matchings(nbr, points):
    """Independent sets of the graph with neighbour masks `nbr` (each mask
    holding its own bit), where points[i] masks the candidates at vertex i.

    f(S) scans to the first vertex i with a candidate left in S; a matching
    takes at most one of its candidates K = points[i] & S, so f(S) = f(S-K)
    + sum_{e in K} f(S-N[e]). Every vertex before i has no candidate left in
    S or in any subset of it, so the scan resumes at i + 1, f depends on S
    alone, and the recursion is at most one level deeper per vertex."""
    memo = {0: 1}

    def f(mask, i):
        got = memo.get(mask)
        if got is not None:
            return got
        while not points[i] & mask:
            i += 1
        k = points[i] & mask
        n = f(mask & ~k, i + 1)
        while k:
            low = k & -k
            k ^= low
            n += f(mask & ~nbr[low.bit_length() - 1], i + 1)
        memo[mask] = n
        return n

    return f((1 << len(nbr)) - 1, 0)


def max_crossing_free_edges(grid) -> int:
    """Maximum number of pairwise non-crossing candidate edges (exact MIS).

    `grid` is either grid sides or a prebuilt ConflictGraph."""
    return _independent(_conflict_graph_of(grid).conflicts)[1]


def _conflict_graph_of(grid) -> ConflictGraph:
    """A ConflictGraph as it is; grid sides through build_conflict_graph."""
    return grid if isinstance(grid, ConflictGraph) else build_conflict_graph(grid)


def bose_formula(sides) -> int:
    """prod(2*X_i - 1) - prod(X_i): the exact crossing-free edge maximum."""
    a = b = 1
    for s in _grid_sides(sides):
        a *= 2 * s - 1
        b *= s
    return a - b


def count_crossing_free_spanning_trees(grid) -> int:
    """Spanning trees of the candidate graph with pairwise non-crossing edges.

    `grid` is either grid sides or a prebuilt ConflictGraph. Raises
    CapExceeded above TREE_VOLUME_CAP vertices; for sides, before any
    conflict graph is built.
    """
    volume = len(grid.graph.vertices if isinstance(grid, ConflictGraph) else grid_points(grid))
    if volume > TREE_VOLUME_CAP:
        raise CapExceeded(f"{volume} vertices exceed the spanning-tree cap {TREE_VOLUME_CAP}")
    return _spanning_trees(_conflict_graph_of(grid))


def _spanning_trees(cg: ConflictGraph) -> int:
    """Frontier DP over the candidate edges of `cg` in conflict-graph order.

    A state is one int packing each live point's component (a mask of live
    points) and the mask of later candidates still usable (no chosen edge
    conflicts with them, and they join two components); it maps to its
    number of ways. Edge e leaves every state, and where e is usable the
    state also merges e's components and bans e's conflicts and the other
    edges between those components. A tree is the one path that takes
    exactly its edges, so it is counted once, when its last merge leaves one
    component. States with fewer usable edges than components - 1 cannot
    finish and are dropped.

    A point retires after its last incident candidate: it leaves every
    component mask and its own field is zeroed, so states that differ only
    in finished points coincide and their ways add up. A state in which a
    component has no live point left can never connect and is dropped.
    Later candidates touch only live points, so the merges and bans are
    unchanged.
    """
    volume, ends = len(cg.graph.vertices), cg.graph.edges
    t, full, usable = cg.size, (1 << volume) - 1, (1 << cg.size) - 1
    # Point p's component sits at bit t + volume*p of the key. For a point set
    # S, inc[S] masks the candidates touching S and adding X * rep[S] adds X to
    # the component of every point in S. retire[e] lists the points whose last
    # candidate is e.
    inc, rep, start = [0] * (1 << volume), [0] * (1 << volume), usable
    retire = [[] for _ in ends]
    for p, touching in enumerate(_point_masks(cg.graph)):
        for s in range(1 << p):
            inc[s | 1 << p] = inc[s] | touching
            rep[s | 1 << p] = rep[s] | 1 << (t + volume * p)
        start += (1 << p) * rep[1 << p]
        if touching:
            retire[touching.bit_length() - 1].append(p)
    states = [{} for _ in range(volume)] + [{start: 1}]  # states[c]: c components
    total = int(volume == 1)  # a single point is its own spanning tree
    for e, (a, b) in enumerate(ends):
        bit, ban, nxt = 1 << e, cg.conflicts[e], [{} for _ in range(volume + 1)]
        for comps in range(2, volume + 1):
            keep, merged = nxt[comps], nxt[comps - 1]
            for key, ways in states[comps].items():
                rest = key & ~bit
                if (rest & usable).bit_count() >= comps - 1:
                    keep[rest] = keep.get(rest, 0) + ways
                if key & bit and comps == 2:
                    total += ways
                elif key & bit:
                    ca, cb = key >> (t + volume * a) & full, key >> (t + volume * b) & full
                    child = (rest + cb * rep[ca] + ca * rep[cb]) & ~(ban | (inc[ca] & inc[cb]))
                    if (child & usable).bit_count() >= comps - 2:
                        merged[child] = merged.get(child, 0) + ways
        for r in retire[e]:
            shift, rbit = t + volume * r, 1 << r
            for comps in range(2, volume + 1):
                level = {}
                for key, ways in nxt[comps].items():
                    comp = key >> shift & full
                    if comp == rbit:  # r's component has no live point left
                        continue
                    key -= rbit * rep[comp ^ rbit] + (comp << shift)
                    level[key] = level.get(key, 0) + ways
                nxt[comps] = level
        states = nxt
    return total


def enumeration_record(sides, cap: int = CANDIDATE_CAP) -> dict:
    """Exact crossing-free counts on one grid, beside the closed forms.

    spanning_trees is None above TREE_VOLUME_CAP and ncs_upper is None below
    volume 2; `consistent` checks MIS == Bose and matchings <= subgraphs <=
    ncs_upper. Raises CapExceeded when the grid has more than `cap`
    candidate edges.
    """
    cg = build_conflict_graph(sides, cap=cap)
    volume = len(cg.graph.vertices)
    subgraphs, mis = _independent(cg.conflicts)
    matchings = count_crossing_free_matchings(cg)
    bose = bose_formula(sides)
    upper = ncs_upper_formula(volume, len(sides)) if volume >= 2 else None
    return {
        "grid": "x".join(map(str, sides)),
        "volume": volume,
        "candidates": cg.size,
        "conflicts": cg.conflict_count,
        "max_edges": mis,
        "bose": bose,
        "subgraphs": subgraphs,
        "matchings": matchings,
        "spanning_trees": _spanning_trees(cg) if volume <= TREE_VOLUME_CAP else None,
        "ncs_upper": upper,
        "consistent": mis == bose and matchings <= subgraphs <= (upper or subgraphs),
    }


def ncs_upper_formula(N: int, d: int) -> int:
    """2^B' * C(M, B') with M = C(N, 2) and B' = min((2^d - 1) N, M):
    an upper bound on the number of crossing-free edge subsets."""
    N, d = as_integer(N, "N"), as_integer(d, "d")
    if N < 2:
        raise ValidationError(f"N must be >= 2, got {N}")
    if d < 1:
        raise ValidationError(f"d must be >= 1, got {d}")
    m_all = comb(N, 2)
    budget = min((2 ** d - 1) * N, m_all)
    return 2 ** budget * comb(m_all, budget)


def ncs_lower_formula(N: int, c) -> int:
    """floor(c N) ** floor(N / (2 c)) for an integer N and an int or Fraction
    c with c > 0 and c N >= 1 (a bool, float or string is refused).

    With N the points of layered_complete_bipartite(k, d) and c N - 1 its
    analytic_skip_bound(k, d), as in growth_hd, it is at most the number of
    crossing-free subgraphs of that drawing; the tests check this for
    (k, d) = (2, 3), (2, 4) and (3, 3)."""
    N = as_integer(N, "N")
    if not (is_integer(c) or isinstance(c, Fraction)):
        raise ValidationError(f"c must be an integer or a Fraction, got {c!r}")
    c = Fraction(c)
    if c <= 0 or c * N < 1:
        raise ValidationError(f"need c > 0 and c*N >= 1, got c={c}, N={N}")
    return floor(c * N) ** floor(Fraction(N) / (2 * c))
