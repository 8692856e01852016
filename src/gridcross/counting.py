"""Exact crossing counts for proper grid graphs.

Two counters with identical results on every input:

* count_crossings_naive - the reference: every unordered edge pair goes
  through the rational classification in geom. Pure Python, any magnitude.
* count_crossings_pruned - the fast path: the one pair kernel in _kernels,
  a filter on the doubled boxes of the open segments (a shared endpoint
  alone never passes; 248570 of the 839160 pairs of layered-k6-d3 pass)
  and a vectorized exact test, on the narrowest of int16, int32 and int64
  that is exact at the coordinate spread S (int16 to S = 31, int32 to
  S = 1290, int64 to S = 2 * SAFE_COORD) and on Python ints past that.

Only the fast path needs numpy, so it imports the kernel on its first call;
importing this module, or counting naively, leaves numpy unloaded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

from .geom import segments_cross
from .graph import GridGraph, require_proper


@dataclass(frozen=True)
class CrossingReport:
    total: int
    per_edge: tuple  # crossings incident to each edge, aligned with g.edges
    method: str  # "naive" | "pruned"
    # the kernel's array type, "int16", "int32", "int64" or "object"
    # (Python ints past 2 * SAFE_COORD), None for naive; it says how the
    # count was computed, not what it is, so == ignores it
    dtype: str | None = field(default=None, compare=False, repr=False)

    @property
    def per_edge_max(self) -> int:
        """Largest number of crossings carried by a single edge (0 with no edges)."""
        return max(self.per_edge, default=0)


def count_crossings_naive(g: GridGraph, check_proper: bool = True) -> CrossingReport:
    """Reference count: classify all edge pairs with exact rational arithmetic."""
    if check_proper:
        require_proper(g)
    segs = g.segments()
    m = len(segs)
    per_edge = [0] * m
    total = 0
    for i, j in combinations(range(m), 2):
        if segments_cross(segs[i], segs[j]).is_crossing:
            total += 1
            per_edge[i] += 1
            per_edge[j] += 1
    return CrossingReport(total, tuple(per_edge), "naive")


def count_crossings_pruned(g: GridGraph, check_proper: bool = True) -> CrossingReport:
    """Fast count; totals and per-edge histogram match the naive counter exactly."""
    from . import _kernels
    if check_proper:
        require_proper(g)
    total, per_edge, dtype = _kernels.count_pairs(g.vertices, g.edges)
    return CrossingReport(total, tuple(per_edge.tolist()), "pruned", dtype)
